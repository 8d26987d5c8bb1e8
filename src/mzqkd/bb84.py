"""Phase-basis encoding on top of the two-interferometer link.

Alice encodes each bit as one of four wavelength-scale offsets added to her
long-arm shifter; Bob decodes with one of two reader offsets.  Only the
offset difference reaches the middle pulse, whose interference phase is
(2*pi/lambda0)*(phi_m - phi_d) times a bracket 1 + G*(dx - delta_c) carrying
the residual dispersion correction.  This module provides both forms of the
phase difference, the G-term study and the end-to-end detection truth table,
whose rows carry the offsets and whose shares are exact window masses of the
closed-form spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (DerivedQuantities, LinkParams, MzConfig, accumulated_dispersion,
                   broadening, derive, x_rho)
from .design import min_phase_sum
from .errors import InfeasibleDesignError
from .spectra import exact_window_masses, z_phase_difference

BASES = ("X", "Z")

# Offsets as fractions of lambda0.  First table entry per basis is bit 0.
_ALICE_OFFSETS = {("X", 0): 0.0, ("X", 1): 0.5, ("Z", 0): 0.25, ("Z", 1): 0.75}
_BOB_OFFSETS = {"X": 0.0, "Z": 0.25}

# Probability integration half-width of 3*sigma, expressed through X_rho.
MIDDLE_WINDOW_RHO = 3.0 / math.sqrt(2.0)


def g_term_value(derived: DerivedQuantities) -> float:
    """Signed dispersion-correction coefficient G, 1/m.  Zero without dispersion."""
    return float(_g_term(derived.params.lambda0, derived.gamma, derived.delta1))


def _g_term(lambda0: float, gamma, delta1) -> np.ndarray:
    """G = lambda0*(1 - 1/gamma)/(4*pi*delta1) elementwise, 0 where delta1 is 0."""
    denominator = 4.0 * math.pi * np.asarray(delta1, dtype=float)
    return np.divide(lambda0 * (1.0 - 1.0 / gamma), denominator,
                     out=np.zeros_like(denominator), where=denominator != 0.0)


class ZDifference(NamedTuple):
    """Middle-pulse phase difference in two algebraic forms, rad."""

    exact: float
    factored: float


def z_difference(params: LinkParams, config: MzConfig, delta_x: float,
                 pair_a: str, pair_b: str) -> ZDifference:
    """Phase difference z_a - z_b at offset delta_x from the symbol center.

    ``exact`` is ``spectra.z_phase_difference``, the per-pair phases with
    their common part cancelled algebraically; ``factored`` evaluates
    (2*pi/lambda0)*(shifter-sum difference)*(1 + G*[delta_x + s]) where s
    recenters for the pairs involved.  The two agree to rounding error.
    """
    d = derive(params, config)
    for pair in (pair_a, pair_b):
        if pair not in d.mu:
            raise ValueError(f"unknown leg pair {pair!r}")
    if abs(delta_x) > 5.0 * d.sigma:
        raise ValueError("delta_x outside +-5 sigma of the symbol center")
    exact = float(z_phase_difference(d, pair_a, pair_b, delta_x))

    dsum_a = config.delta_sum(pair_a)
    dsum_b = config.delta_sum(pair_b)
    recenter = delta_x + 0.5 * (config.delta_d + config.delta_m - dsum_a - dsum_b)
    factored = (2.0 * math.pi / params.lambda0) * (dsum_a - dsum_b) \
        * (1.0 + g_term_value(d) * recenter)
    return ZDifference(exact=exact, factored=factored)


@dataclass(frozen=True)
class GTermAnalysis:
    """G and the end-of-window correction magnitude over a length sweep."""

    lengths: np.ndarray       # m
    g_values: np.ndarray      # signed G, 1/m
    second_terms: np.ndarray  # |G*(3*sigma - delta_c)|, dimensionless
    argmax_length: float      # sweep length maximizing |G|, m
    analytic_argmax: float    # 1/(4*delta_k^2*kappa), m


def g_term_analysis(params: LinkParams, lengths: Sequence[float] | np.ndarray,
                    delta_c: float = 0.0) -> GTermAnalysis:
    """Evaluate G over fiber lengths and locate its maximum magnitude."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size == 0 or not np.all(np.isfinite(lengths)) or np.any(lengths < 0):
        raise ValueError("length sweep must be non-empty, finite and non-negative")
    # the longest length has the widest pulse: its derive rejects a sweep whose
    # widths leave the float range before the array arithmetic overflows
    d0 = derive(replace(params, fiber_length=float(lengths.max())), MzConfig())
    delta1 = accumulated_dispersion(params, lengths)
    gamma, sigma = broadening(d0.delta_k, delta1)
    g_values = _g_term(params.lambda0, gamma, delta1)
    return GTermAnalysis(
        lengths=lengths, g_values=g_values,
        second_terms=np.abs(g_values * (3.0 * sigma - delta_c)),
        argmax_length=float(lengths[int(np.argmax(np.abs(g_values)))]),
        analytic_argmax=1.0 / (4.0 * d0.delta_k**2 * d0.kappa),
    )


@dataclass(frozen=True)
class DetectionRow:
    """Middle-window detection shares for one (alice, bob) setting."""

    alice_basis: str
    bit: int
    bob_basis: str
    phi_d: float   # m
    phi_m: float   # m
    mass_o: float
    mass_p: float

    @property
    def p_o(self) -> float:
        return self.mass_o / (self.mass_o + self.mass_p)

    @property
    def p_p(self) -> float:
        return self.mass_p / (self.mass_o + self.mass_p)


@dataclass(frozen=True)
class DetectionTable:
    """Truth table over every (alice basis, bit, bob basis) combination."""

    rows: tuple
    baseline: float
    link_length: float
    warning: Optional[str] = None

    def row(self, alice_basis: str, bit: int, bob_basis: str) -> DetectionRow:
        for r in self.rows:
            if (r.alice_basis, r.bit, r.bob_basis) == (alice_basis, bit, bob_basis):
                return r
        raise KeyError((alice_basis, bit, bob_basis))


def default_baseline(params: LinkParams, rho: float = 3.0) -> float:
    """Half the shifter-sum bound, rounded up to the next centimeter, m."""
    return math.ceil(min_phase_sum(params, rho) / 2.0 * 100.0) / 100.0


def detection_table(params: LinkParams, baseline: float) -> DetectionTable:
    """Detection shares of both exits for all eight encoding combinations.

    Each combination sets delta_d/delta_m to baseline plus the table offsets;
    its shares are the exact masses of the analytic spectra inside the middle
    window (``spectra.exact_window_masses``, no position grid), all eight
    combinations in one evaluation.  A warning is attached when the baseline
    fails the rho=3 separation bound; a baseline below the 1/e overlap point
    is a hard error.
    """
    derived = derive(params, MzConfig(delta_d=baseline, delta_m=baseline))
    x_1 = x_rho(derived.sigma, 1.0)
    if 2.0 * baseline < 4.0 * x_1:
        raise InfeasibleDesignError(
            f"baseline {baseline!r} m leaves the three pulses overlapping "
            f"(2*baseline < 4*X_1 = {4.0 * x_1:.4g} m)")
    warning = None
    bound = min_phase_sum(params, 3.0)
    if 2.0 * baseline < bound:
        warning = (f"baseline sum {2.0 * baseline:.4g} m is below the rho=3 "
                   f"separation bound {bound:.4g} m")

    keys = [(alice_basis, bit, bob_basis)
            for alice_basis in BASES for bit in (0, 1) for bob_basis in BASES]
    offsets = [(_ALICE_OFFSETS[alice_basis, bit] * params.lambda0,
                _BOB_OFFSETS[bob_basis] * params.lambda0) for alice_basis, bit, bob_basis in keys]
    masses = exact_window_masses(
        params, [MzConfig(delta_d=baseline + phi_d, delta_m=baseline + phi_m)
                 for phi_d, phi_m in offsets], MIDDLE_WINDOW_RHO)
    rows = tuple(DetectionRow(*key, *offset, mass_o=float(mass_o), mass_p=float(mass_p))
                 for key, offset, (mass_o, mass_p) in zip(keys, offsets, masses))
    return DetectionTable(rows=rows, baseline=baseline,
                          link_length=params.fiber_length, warning=warning)
