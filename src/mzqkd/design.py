"""Design bounds for the link: shifter sums, detection rates, gate window.

Three facts drive every bound here.  The three pulses of one symbol must not
overlap, which puts a lower bound on the shifter sum.  Two consecutive symbols
must not overlap, which caps the detection rate.  And whatever margin remains
between the shifter sum and the pulse width is the time the detector gate may
stay open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from .core import LinkParams, MzConfig, accumulated_dispersion, broadening, derive, x_rho
from .errors import InfeasibleDesignError
from .units import C0

# Denominator of c0/(q * X_rho) per mode: "linear" ignores photon-photon
# non-linearity (consecutive symbols may interleave exterior pulses),
# "nonlinear" keeps consecutive symbols fully disjoint, "general" is the
# single-pulse variant for setups without exterior pulses.
MODE_FACTOR = {"linear": 4.0, "nonlinear": 6.0, "general": 2.0}
RATE_MODES = tuple(MODE_FACTOR)

# Named detector edge-time presets (seconds).  The SNSPD profile splits a
# 5 ns response time evenly between the rising and falling edge.
DETECTOR_PROFILES = {
    "ideal": (0.0, 0.0),
    "snspd-5ns": (2.5e-9, 2.5e-9),
}


@dataclass(frozen=True)
class DesignReport:
    """Computed design bounds for one (link, rho) choice."""

    rho: float
    visibility: float
    min_phase_sum: float          # m
    max_rate_linear: float        # Hz
    max_rate_nonlinear: float     # Hz
    max_rate_general: float       # Hz
    gate_window: Optional[float]  # s, None when no actual phase sum was supplied
    safety_factor: float
    actual_phase_sum: Optional[float] = None  # m


def _pulse_half_width(params: LinkParams, rho: float) -> float:
    """X_rho of the broadened pulse at the far end of the link, m."""
    return x_rho(derive(params, MzConfig()).sigma, rho)


def visibility_of_rho(rho: float) -> float:
    """Probability mass of a pulse inside +-X_rho, i.e. erf(rho).

    Equals the coverage of a standard normal within +-rho*sqrt(2) standard
    deviations: 0.8427 at rho=1, 0.99532 at rho=2, 0.99998 at rho=3.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    return math.erf(rho)


def min_phase_sum(params: LinkParams, rho: float,
                  t_rising: float = 0.0, t_falling: float = 0.0,
                  safety_factor: float = 1.0) -> float:
    """Smallest delta_d + delta_m separating the three pulses at visibility erf(rho), m.

    An ideal gate needs 4*X_rho; detector edge times extend the bound by
    c0*(t_rising + t_falling).  The safety factor multiplies the whole bound.
    """
    return _phase_sum_bound(_pulse_half_width(params, rho), t_rising, t_falling, safety_factor)


def max_rate(params: LinkParams, rho: float, mode: str = "linear") -> float:
    """Largest symbol rate without intersymbol overlap, Hz."""
    if mode not in MODE_FACTOR:
        raise ValueError(f"mode must be one of {RATE_MODES}, got {mode!r}")
    return _rate_bound(_pulse_half_width(params, rho), mode)


# The two bounds as functions of the half width X_rho (a float or a numpy
# array), shared by the scalar functions above and the length sweep.

def _phase_sum_bound(half, t_rising: float, t_falling: float, safety_factor: float):
    if t_rising < 0 or t_falling < 0:
        raise ValueError("detector edge times must be non-negative")
    if safety_factor <= 0:
        raise ValueError("safety_factor must be positive")
    return safety_factor * (4.0 * half + C0 * (t_rising + t_falling))


def _rate_bound(half, mode: str):
    # The rate is largest where X_rho is smallest, and an X_rho that a tiny rho
    # has brought near 0 leaves it no finite value there.
    smallest = float(np.min(half)) if isinstance(half, np.ndarray) else half
    if not (smallest > 0 and C0 / (MODE_FACTOR[mode] * smallest) < math.inf):
        raise ValueError(f"the {mode} rate bound leaves the float range: "
                         f"X_rho = {smallest:.6g} m")
    return C0 / (MODE_FACTOR[mode] * half)


def gate_window(actual_phase_sum: float, params: LinkParams, rho: float) -> float:
    """Longest detector gate centered on the middle pulse, s.

    Requires actual_phase_sum >= 2*X_rho; anything smaller cannot isolate the
    middle pulse and raises InfeasibleDesignError.  A negative or non-finite
    phase sum is no shifter setting and raises ValueError.
    """
    if not 0.0 <= actual_phase_sum < math.inf:
        raise ValueError(f"actual phase sum must be non-negative and finite, "
                         f"got {actual_phase_sum!r}")
    half = _pulse_half_width(params, rho)
    margin = actual_phase_sum - 2.0 * half
    if margin < 0:
        raise InfeasibleDesignError(
            f"phase sum {actual_phase_sum:.6g} m is below 2*X_rho = "
            f"{2.0 * half:.6g} m; the gate window would be negative")
    return margin / C0


def build_design_report(params: LinkParams, config: MzConfig, rho: float,
                        actual_phase_sum: float | None = None,
                        safety_factor: float = 1.0) -> DesignReport:
    """Assemble every design bound for one link instance."""
    window = None
    if actual_phase_sum is not None:
        window = gate_window(actual_phase_sum, params, rho)
    return DesignReport(
        rho=rho,
        visibility=visibility_of_rho(rho),
        min_phase_sum=min_phase_sum(params, rho, config.t_rising, config.t_falling,
                                    safety_factor),
        max_rate_linear=max_rate(params, rho, "linear"),
        max_rate_nonlinear=max_rate(params, rho, "nonlinear"),
        max_rate_general=max_rate(params, rho, "general"),
        gate_window=window,
        safety_factor=safety_factor,
        actual_phase_sum=actual_phase_sum,
    )


def sweep_lengths(params: LinkParams, config: MzConfig, rho: float,
                  lengths_m: Iterable[float],
                  safety_factor: float = 1.0) -> dict[str, np.ndarray]:
    """Evaluate the design bounds over a range of fiber lengths.

    Returns one array per column, each with one entry per length: length_m,
    min_phase_sum_m, rate_linear_hz, rate_nonlinear_hz, rate_general_hz.
    """
    lengths = np.array(list(lengths_m), dtype=float)
    if lengths.size == 0:
        raise ValueError("length sweep must contain at least one value")
    if not np.all(np.isfinite(lengths)) or np.any(lengths < 0):
        raise ValueError("lengths must be finite and non-negative")
    # the longest length has the widest pulse: its derive rejects a sweep whose
    # widths leave the float range before the array arithmetic overflows
    longest = derive(replace(params, fiber_length=float(lengths.max())), MzConfig())
    _, sigma = broadening(longest.delta_k, accumulated_dispersion(params, lengths))
    half = x_rho(sigma, rho)
    return {
        "length_m": lengths,
        "min_phase_sum_m": _phase_sum_bound(half, config.t_rising, config.t_falling,
                                            safety_factor),
        "rate_linear_hz": _rate_bound(half, "linear"),
        "rate_nonlinear_hz": _rate_bound(half, "nonlinear"),
        "rate_general_hz": _rate_bound(half, "general"),
    }
