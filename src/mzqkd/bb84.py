"""Phase-basis encoding on top of the two-interferometer link.

Alice encodes each bit as one of four wavelength-scale offsets added to her
long-arm shifter; Bob decodes with one of two reader offsets.  Only the
offset difference reaches the middle pulse, whose interference phase is
(2*pi/lambda0)*(phi_m - phi_d) times a bracket 1 + G*(dx - delta_c) carrying
the residual dispersion correction.  This module provides the G-term study
and the end-to-end detection truth table, whose rows carry the offsets and
whose shares are exact window masses of the closed-form spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DOMAIN, LinkParams, MzConfig, derive, x_rho
from .design import _phase_sum_bound, _pulse_over_lengths, min_phase_sum
from .errors import ConfigError, InfeasibleDesignError
from .spectra import component_terms, exact_window_masses

BASES = ("X", "Z")

# Offsets as fractions of lambda0.  First table entry per basis is bit 0.
_ALICE_OFFSETS = {("X", 0): 0.0, ("X", 1): 0.5, ("Z", 0): 0.25, ("Z", 1): 0.75}
_BOB_OFFSETS = {"X": 0.0, "Z": 0.25}
# The table's eight (alice basis, bit, bob basis) settings in row order, and
# each setting's (alice, bob) offset fractions.
_SETTINGS = tuple((alice_basis, bit, bob_basis)
                  for alice_basis in BASES for bit in (0, 1) for bob_basis in BASES)
_OFFSET_FRACTIONS = tuple((_ALICE_OFFSETS[alice_basis, bit], _BOB_OFFSETS[bob_basis])
                          for alice_basis, bit, bob_basis in _SETTINGS)

# Probability integration half-width of 3*sigma, expressed through X_rho.
MIDDLE_WINDOW_RHO = 3.0 / math.sqrt(2.0)


def _g_term(lambda0: float, gamma, delta1) -> np.ndarray:
    """G = lambda0*(1 - 1/gamma)/(4*pi*delta1) elementwise, 0 where delta1 is 0."""
    denominator = 4.0 * math.pi * np.asarray(delta1, dtype=float)
    return np.divide(lambda0 * (1.0 - 1.0 / gamma), denominator,
                     out=np.zeros_like(denominator), where=denominator != 0.0)


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
    """Evaluate G over fiber lengths and locate its maximum; needs dispersion."""
    lengths, d0, delta1, gamma, sigma = _pulse_over_lengths(params, lengths)
    if d0.kappa == 0.0:
        raise ConfigError("without dispersion G vanishes at every length "
                          "and has no finite maximum")
    g_values = _g_term(params.lambda0, gamma, delta1)
    if not np.any(g_values):
        # gamma = 1 + 16 dk^4 delta1^2 rounds to 1 at every length
        raise ConfigError("G rounds to 0 at every length and has no finite maximum "
                          f"(delta_k {d0.delta_k!r} 1/m, kappa {d0.kappa!r} m)")
    return GTermAnalysis(
        lengths=lengths, g_values=g_values,
        second_terms=np.abs(g_values * (3.0 * sigma - delta_c)),
        argmax_length=float(lengths[int(np.argmax(np.abs(g_values)))]),
        analytic_argmax=1.0 / (4.0 * d0.delta_k**2 * d0.kappa),
    )


@dataclass(frozen=True)
class DetectionRow:
    """Middle-window detection shares for one (alice, bob) setting.

    The masses are the lossless link's, as every spectrum is: the
    transmission t_fiber t_leg^2 would cancel in the shares.
    """

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
    """Half the shifter-sum bound, rounded up to the next centimeter, m.

    Raises InfeasibleDesignError when it reaches the domain's largest shifter:
    below it, whole centimeters leave room for the table's 0.75 lambda0 offsets.
    """
    baseline = math.ceil(min_phase_sum(params, rho) / 2.0 * 100.0) / 100.0
    largest = DOMAIN["shifter"][1]
    if not baseline < largest:
        raise InfeasibleDesignError(
            f"the rho={rho!r} bound needs a baseline of {baseline:.6g} m, "
            f"beyond the shifters' domain [0, {largest:g}] m")
    return baseline


def detection_table(params: LinkParams, baseline: float) -> DetectionTable:
    """Detection shares of both exits for all eight encoding combinations.

    Each combination sets delta_d/delta_m to baseline plus the table offsets;
    its shares are the exact masses of the analytic spectra inside the middle
    window (``spectra.exact_window_masses``, no position grid), all eight
    combinations in one evaluation from one derived link.  A warning is
    attached when the baseline fails the rho=3 separation bound; a baseline
    below the 1/e overlap point is a hard error.
    """
    derived = derive(params)
    x_1 = x_rho(derived.sigma, 1.0)
    if 2.0 * baseline < 4.0 * x_1:
        raise InfeasibleDesignError(
            f"baseline {baseline!r} m leaves the three pulses overlapping "
            f"(2*baseline < 4*X_1 = {4.0 * x_1:.4g} m)")
    warning = None
    bound = _phase_sum_bound(x_rho(derived.sigma, 3.0), 0.0, 0.0, 1.0)
    if 2.0 * baseline < bound:
        warning = (f"baseline sum {2.0 * baseline:.4g} m is below the rho=3 "
                   f"separation bound {bound:.4g} m")

    offsets = [(alice * params.lambda0, bob * params.lambda0) for alice, bob in _OFFSET_FRACTIONS]
    configs = [MzConfig(delta_d=baseline + phi_d, delta_m=baseline + phi_m)
               for phi_d, phi_m in offsets]
    masses = exact_window_masses(component_terms(derived, configs), MIDDLE_WINDOW_RHO).tolist()
    rows = tuple(DetectionRow(*setting, *offset, *mass)
                 for setting, offset, mass in zip(_SETTINGS, offsets, masses))
    return DetectionTable(rows=rows, baseline=baseline,
                          link_length=params.fiber_length, warning=warning)
