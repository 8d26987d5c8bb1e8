"""Design bounds for the link: shifter sums, detection rates, gate window.

Three facts drive every bound here.  The three pulses of one symbol must not
overlap, which puts a lower bound on the shifter sum.  Two consecutive symbols
must not overlap, which caps the detection rate.  And whatever margin remains
between the shifter sum and the pulse width is the time the detector gate may
stay open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (LinkParams, MzConfig, accumulated_dispersion, broadening, check_domain, derive,
                   x_rho)
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
    """Computed design bounds for one (link, rho) choice, with the inputs of its bound."""

    rho: float
    visibility: float
    min_phase_sum: float          # m
    max_rate_linear: float        # Hz
    max_rate_nonlinear: float     # Hz
    max_rate_general: float       # Hz
    gate_window: Optional[float]  # s, None when no actual phase sum was supplied
    safety_factor: float
    t_rising: float               # s
    t_falling: float              # s
    actual_phase_sum: Optional[float] = None  # m


def _far_end(params: LinkParams):
    """The derived record at the link's far end; no bound reads a shifter value."""
    return derive(params, MzConfig())


def _pulse_over_lengths(params: LinkParams, lengths_m):
    """Lengths (in the domain; a NaN makes both ends NaN), the link's record, and
    delta1, gamma, sigma per length, of a sweep."""
    lengths = np.asarray(lengths_m, dtype=float)
    if lengths.size == 0:
        raise ValueError("the length sweep is empty")
    for end in (lengths.min(), lengths.max()):
        check_domain("fiber_length", float(end), "sweep length")
    d = _far_end(params)
    delta1 = accumulated_dispersion(params, lengths)
    return (lengths, d, delta1, *broadening(d.delta_k, delta1))


def visibility_of_rho(rho: float) -> float:
    """Probability mass of a pulse inside +-X_rho, i.e. erf(rho).

    Equals the coverage of a standard normal within +-rho*sqrt(2) standard
    deviations: 0.8427 at rho=1, 0.99532 at rho=2, 0.99998 at rho=3.
    """
    check_domain("rho", rho)
    return math.erf(rho)


def min_phase_sum(params: LinkParams, rho: float,
                  t_rising: float = 0.0, t_falling: float = 0.0,
                  safety_factor: float = 1.0) -> float:
    """Smallest delta_d + delta_m separating the three pulses at visibility erf(rho), m.

    An ideal gate needs 4*X_rho; detector edge times extend the bound by
    c0*(t_rising + t_falling).  The safety factor multiplies the whole bound.
    """
    return _phase_sum_bound(x_rho(_far_end(params).sigma, rho), t_rising, t_falling, safety_factor)


def max_rate(params: LinkParams, rho: float, mode: str = "linear") -> float:
    """Largest symbol rate without intersymbol overlap, Hz."""
    if mode not in MODE_FACTOR:
        raise ValueError(f"mode must be one of {RATE_MODES}, got {mode!r}")
    return _rate_bound(x_rho(_far_end(params).sigma, rho), mode)


# The bounds as functions of the half width X_rho (a float or a numpy array),
# shared by the scalar functions above, the report and the length sweep.

def _phase_sum_bound(half, t_rising: float, t_falling: float, safety_factor: float):
    check_domain("edge_time", t_rising, "t_rising")
    check_domain("edge_time", t_falling, "t_falling")
    check_domain("safety_factor", safety_factor)
    return safety_factor * (4.0 * half + C0 * (t_rising + t_falling))


def _rate_bound(half, mode: str):
    return C0 / (MODE_FACTOR[mode] * half)


def _gate_bound(actual_phase_sum: float, half: float) -> float:
    if not 0.0 <= actual_phase_sum < math.inf:
        raise ValueError(f"actual phase sum must be non-negative and finite, "
                         f"got {actual_phase_sum!r}")
    margin = actual_phase_sum - 2.0 * half
    if margin < 0:
        raise InfeasibleDesignError(
            f"phase sum {actual_phase_sum:.6g} m is below 2*X_rho = "
            f"{2.0 * half:.6g} m; the gate window would be negative")
    return margin / C0


def build_design_report(params: LinkParams, rho: float, *,
                        actual_phase_sum: float | None = None,
                        t_rising: float = 0.0, t_falling: float = 0.0,
                        safety_factor: float = 1.0) -> DesignReport:
    """Every design bound of one link instance, from one derived pulse width."""
    half = x_rho(_far_end(params).sigma, rho)
    return DesignReport(
        rho=rho,
        visibility=visibility_of_rho(rho),
        gate_window=None if actual_phase_sum is None else _gate_bound(actual_phase_sum, half),
        min_phase_sum=_phase_sum_bound(half, t_rising, t_falling, safety_factor),
        max_rate_linear=_rate_bound(half, "linear"),
        max_rate_nonlinear=_rate_bound(half, "nonlinear"),
        max_rate_general=_rate_bound(half, "general"),
        safety_factor=safety_factor,
        t_rising=t_rising,
        t_falling=t_falling,
        actual_phase_sum=actual_phase_sum,
    )


def sweep_lengths(params: LinkParams, rho: float, lengths_m: Sequence[float] | np.ndarray,
                  t_rising: float = 0.0, t_falling: float = 0.0,
                  safety_factor: float = 1.0) -> dict[str, np.ndarray]:
    """Evaluate the design bounds over a range of fiber lengths.

    Returns one array per column, each with one entry per length: length_m,
    min_phase_sum_m, rate_linear_hz, rate_nonlinear_hz, rate_general_hz.
    """
    lengths, _, _, _, sigma = _pulse_over_lengths(params, lengths_m)
    half = x_rho(sigma, rho)
    return {
        "length_m": lengths,
        "min_phase_sum_m": _phase_sum_bound(half, t_rising, t_falling, safety_factor),
        "rate_linear_hz": _rate_bound(half, "linear"),
        "rate_nonlinear_hz": _rate_bound(half, "nonlinear"),
        "rate_general_hz": _rate_bound(half, "general"),
    }
