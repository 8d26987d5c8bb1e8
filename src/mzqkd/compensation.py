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
from dataclasses import dataclass, replace
from typing import Optional

from .core import LinkParams, MzConfig, PrecompMultiplier, derive
from .design import MODE_FACTOR, RATE_MODES, max_rate, min_phase_sum
from .errors import InfeasibleDesignError
from .units import C0


@dataclass(frozen=True)
class DcfParams:
    """A plan's compensating element: only the product kappa_cp*l_cp acts.

    kappa_cp is the link's own kappa and l_cp the compensated span, so the
    element's b_cp >= 0 opposes the link's accumulated dispersion, which is
    -kappa*(fiber_length + 2*leg_length) <= 0.
    """

    kappa_cp: float  # m
    l_cp: float      # m
    t_cp: float = 1.0

    @property
    def b_cp(self) -> float:
        """Accumulated dispersion of the element, m^2."""
        return self.kappa_cp * self.l_cp


@dataclass(frozen=True)
class CompensationPlan:
    """Planner output for one (link, clock rate) pair, with the inputs of its bound."""

    regime: str
    clock_rate: float              # Hz
    link_length: float             # m
    active_length: float           # m, uncompensated remainder
    dcf_equivalent_length: float   # m, link_length - active_length
    dcf_params: Optional[DcfParams]
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
    the same detector edge times and safety factor as a design there.
    Raises InfeasibleDesignError when even a fully compensated link (only
    leg dispersion left) cannot reach the clock rate.
    """
    if not clock_rate > 0:
        raise ValueError("clock_rate must be positive")
    if not math.isfinite(clock_rate):
        raise ValueError(f"clock_rate must be finite, got {clock_rate!r}")
    if mode not in RATE_MODES:
        raise ValueError(f"mode must be one of {RATE_MODES}, got {mode!r}")
    link = params.fiber_length

    def rate_at(active: float) -> float:
        return max_rate(replace(params, fiber_length=active), rho, mode)

    active, dcf = link, None
    if clock_rate > rate_at(link):
        if clock_rate > rate_at(0.0):
            raise InfeasibleDesignError(
                f"clock rate {clock_rate:.4g} Hz exceeds the bound "
                f"{rate_at(0.0):.4g} Hz of a fully compensated link "
                "(interferometer legs still disperse)")
        # Invert rate = c0/(q*rho*sqrt(2)*sigma), sigma = sqrt(gamma)/(2*delta_k),
        # gamma = 1 + 16*delta_k^4*delta1^2 and |delta1| = kappa*(active + 2*leg).
        d = derive(params, MzConfig())
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
        dcf = DcfParams(kappa_cp=d.kappa, l_cp=link - active)
    return CompensationPlan(
        regime="no_dcf" if dcf is None else "partial_dcf", clock_rate=clock_rate,
        link_length=link, active_length=active, dcf_equivalent_length=link - active,
        dcf_params=dcf,
        phase_sum_requirement=min_phase_sum(
            replace(params, fiber_length=active), rho, t_rising, t_falling, safety_factor),
        rho=rho, mode=mode, safety_factor=safety_factor, t_rising=t_rising,
        t_falling=t_falling)


def precompensate_input(params: LinkParams,
                        compensation: CompensationPlan) -> PrecompMultiplier:
    """Wavenumber-domain multiplier realizing a plan's compensating element.

    The multiplier is sqrt(t_cp)*exp(-i k a_cp - i k^2 b_cp) with
    a_cp = group_index*l_cp and b_cp = kappa_cp*l_cp.
    """
    dcf = compensation.dcf_params
    if dcf is None:
        raise ValueError("plan prescribes no compensating element (no_dcf regime)")
    return PrecompMultiplier(t_cp=dcf.t_cp, a_cp=params.group_index * dcf.l_cp, b_cp=dcf.b_cp)
