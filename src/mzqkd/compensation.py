"""Dispersion-compensation planning for a clocked link.

Two regimes exist.  When the clock rate stays below the intersymbol bound at
the full link length, no compensating fiber is needed and the shifter bound
is evaluated at the full length.  Above it, symbols would be read in the
wrong order; the planner then inverts the rate bound exactly for the longest
"active" length that still accommodates the clock and prescribes cancelling
the dispersion of the remaining span.  The cancellation itself is a
wavenumber-domain multiplier verified against the spectra oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (LinkParams, PrecompMultiplier, accumulated_dispersion, broadening, derive,
                   effective_kappa, x_rho)
from .design import MODE_FACTOR, RATE_MODES, _phase_sum_bound, _rate_bound
from .errors import ConfigError, InfeasibleDesignError
from .units import C0


@dataclass(frozen=True)
class CompensationPlan:
    """Planner output for one (link, clock rate) pair, with the inputs of its bound."""

    regime: str
    clock_rate: float              # Hz
    link_length: float             # m
    active_length: float           # m, uncompensated remainder
    dcf_equivalent_length: float   # m, link_length - active_length
    phase_sum_requirement: float   # m, shifter bound at the active length
    rho: float
    mode: str
    safety_factor: float
    t_rising: float                # s
    t_falling: float               # s


def plan(params: LinkParams, clock_rate: float, rho: float,
         mode: str = "linear", t_rising: float = 0.0, t_falling: float = 0.0,
         safety_factor: float = 1.0) -> CompensationPlan:
    """Choose the compensation regime and minimum compensated span.

    The shifter requirement is ``min_phase_sum`` at the active length, with
    the same detector edge times and safety factor as a design there.  Every
    length's pulse width is taken from the one far-end record as ``derive``
    takes it, so the bounds are ``max_rate`` and ``min_phase_sum`` of the
    link cut to that length, bit for bit.  Raises InfeasibleDesignError when
    even a fully compensated link (only leg dispersion left) cannot reach
    the clock rate.
    """
    if not 0.0 < clock_rate < math.inf:
        raise ConfigError(f"clock_rate must be positive and finite, got {clock_rate!r}")
    if mode not in MODE_FACTOR:
        raise ConfigError(f"mode must be one of {RATE_MODES}, got {mode!r}")
    link = params.fiber_length
    # one record: every length's width follows from its delta_k
    d = derive(params)

    def half_at(active: float) -> float:
        _, sigma = broadening(d.delta_k, accumulated_dispersion(params, active))
        return x_rho(sigma, rho)

    def rate_at(active: float) -> float:
        return _rate_bound(half_at(active), mode)

    active, regime = link, "no_dcf"
    if clock_rate > rate_at(link):
        if clock_rate > rate_at(0.0):
            raise InfeasibleDesignError(
                f"clock rate {clock_rate:.4g} Hz exceeds the bound "
                f"{rate_at(0.0):.4g} Hz of a fully compensated link "
                "(interferometer legs still disperse)")
        # Invert rate = c0/(q*rho*sqrt(2)*sigma), sigma = sqrt(gamma)/(2*delta_k),
        # gamma = 1 + 16*delta_k^4*delta1^2 and |delta1| = kappa*(active + 2*leg).
        sigma = C0 / (MODE_FACTOR[mode] * rho * math.sqrt(2.0) * clock_rate)
        gamma = (2.0 * d.delta_k * sigma) ** 2
        total = math.sqrt(max(gamma - 1.0, 0.0) / (16.0 * d.delta_k**4)) / d.kappa
        active = max(total - 2.0 * params.leg_length, 0.0)
        # The inverse rounds either way.  Where it lands short of the clock, back
        # off in doubling steps from one ulp; rate_at(0) >= clock ends the loop.
        step = math.ulp(active)
        while rate_at(active) < clock_rate:
            active = max(active - step, 0.0)
            step *= 2.0
        regime = "partial_dcf"
    return CompensationPlan(
        regime=regime, clock_rate=clock_rate,
        link_length=link, active_length=active, dcf_equivalent_length=link - active,
        phase_sum_requirement=_phase_sum_bound(half_at(active), t_rising, t_falling,
                                               safety_factor),
        rho=rho, mode=mode, safety_factor=safety_factor, t_rising=t_rising,
        t_falling=t_falling)


def precompensate_input(params: LinkParams,
                        compensation: CompensationPlan) -> PrecompMultiplier:
    """The compensating element of a plan, as its wavenumber-domain multiplier.

    The element is lossless fiber of the link's own kappa over the span l_cp =
    ``dcf_equivalent_length``: a_cp = group_index*l_cp and b_cp = kappa*l_cp
    >= 0, which opposes the link's accumulated dispersion
    -kappa*(fiber_length + 2*leg_length).
    """
    if compensation.regime == "no_dcf":
        raise ConfigError("plan prescribes no compensating element (no_dcf regime)")
    l_cp = compensation.dcf_equivalent_length
    return PrecompMultiplier(a_cp=params.group_index * l_cp, b_cp=effective_kappa(params) * l_cp)
