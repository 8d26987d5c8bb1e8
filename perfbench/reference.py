"""Closed-form design quantities, written out independently of the package.

The benchmark checks the toolkit's outputs against these formulas instead of
calling the toolkit's own functions, so that a wrong answer cannot confirm
itself.  Every input the workloads vary (length, convention, rho, mode) is an
argument; the source, fiber and leg constants are the toolkit's defaults,
which the workloads never override.
"""

from __future__ import annotations

import math

C0 = 299792458.0               # m/s
LAMBDA0 = 1550e-9              # m
DELTA_LAMBDA = 0.31e-9         # m
DISPERSION = 17e-6             # s/m^2, i.e. 17 ps/(km*nm)
LEG_LENGTH = 1.0               # m
# Published scale of the "calibrated" convention (README, dispersion conventions).
CALIBRATED_KAPPA_SCALE = 3.1715044019929586

RATE_FACTOR = {"linear": 4.0, "nonlinear": 6.0, "general": 2.0}

DELTA_K = 2.0 * math.pi * DELTA_LAMBDA / LAMBDA0**2


def kappa(convention: str) -> float:
    """Dispersion parameter magnitude, m."""
    value = DISPERSION * LAMBDA0**2 * C0 / (4.0 * math.pi)
    return value / CALIBRATED_KAPPA_SCALE if convention == "calibrated" else value


def gamma(length_m: float, convention: str) -> float:
    """Broadening factor 1 + 16 dk^4 delta1^2 at fiber length ``length_m``."""
    delta1 = kappa(convention) * (length_m + 2.0 * LEG_LENGTH)
    return 1.0 + 16.0 * DELTA_K**4 * delta1**2


def sigma(length_m: float, convention: str) -> float:
    """Position-spectrum standard deviation, m."""
    return math.sqrt(gamma(length_m, convention)) / (2.0 * DELTA_K)


def x_rho(length_m: float, convention: str, rho: float) -> float:
    return rho * math.sqrt(2.0) * sigma(length_m, convention)


def min_phase_sum(length_m: float, convention: str, rho: float) -> float:
    """4*X_rho: ideal detector, safety factor 1, m."""
    return 4.0 * x_rho(length_m, convention, rho)


def max_rate(length_m: float, convention: str, rho: float, mode: str = "linear") -> float:
    """c0 / (q * X_rho), Hz."""
    return C0 / (RATE_FACTOR[mode] * x_rho(length_m, convention, rho))


def g_term(length_m: float, convention: str) -> float:
    """Signed dispersion-correction coefficient G, 1/m (delta1 is negative)."""
    delta1 = -kappa(convention) * (length_m + 2.0 * LEG_LENGTH)
    return LAMBDA0 * (1.0 - 1.0 / gamma(length_m, convention)) / (4.0 * math.pi * delta1)


def g_argmax(convention: str) -> float:
    """Length of largest |G|, 1/(4 dk^2 kappa), m."""
    return 1.0 / (4.0 * DELTA_K**2 * kappa(convention))
