"""Physical parameters of the two-interferometer link and all derived scalars.

The model: a spectrally Gaussian single-photon pulse (central wavelength
``lambda0``, wavelength spread ``delta_lambda``) crosses a dispersive fiber of
length ``fiber_length`` and two unbalanced Mach-Zehnder interferometers whose
long arms carry extra path lengths ``delta_d`` and ``delta_m``.  Chromatic
dispersion broadens each of the four leg-pair components by the same factor;
the component means differ only through the phase-shifter values.

All quantities are SI.  Positions ``x`` are expressed as vacuum-equivalent
propagation distance (the photon bookkeeping uses the vacuum speed of light;
the group index enters only through the component means).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .units import C0, dispersion_to_si, nm_to_m, ns_to_s

# Leg pairs, first interferometer leg then second (the short legs of the two
# interferometers are identical and both written "c").
PAIRS = ("cc", "cm", "dc", "dm")

# Effective dispersion scale used by the "calibrated" convention.  The
# first-principles kappa = D*lambda0^2*c0/(4*pi) overstates the published
# reference design curves for this link family by this constant factor; the
# calibrated convention divides kappa by it so that the rho=3 phase-shifter
# bound grows at the reference slope of 0.8454 m per 100 km (at 1550 nm,
# 0.31 nm spread, 17 ps/(km*nm)).  Equivalently:
#   scale = 12*sqrt(2) * delta_lambda * D * c0 * 1e5 / 0.8454
CALIBRATED_KAPPA_SCALE = 3.1715044019929586

CONVENTIONS = ("first_principles", "calibrated")


# The input domain, each row's (lo, hi) in SI, closed but for the transmissions'
# 0; the dispersion also admits exactly 0, and delta_lambda/lambda0 < 1e-2.  An
# end whose flag's unit conversion rounds outward is held as converted, so both
# spellings lie inside.  Over it every derived scalar and bound is finite.
DOMAIN = {
    "lambda0": (200e-9, 20e-6),                           # m
    "delta_lambda": (1e-13, nm_to_m(100.0)),              # m
    "dispersion": (dispersion_to_si(1e-3), 1e-3),         # s/m^2, or exactly 0
    "group_index": (1.0, 5.0),
    "fiber_length": (0.0, 1e8),                           # m
    "leg_length": (0.0, 100.0),                           # m
    "t_fiber": (0.0, 1.0),                                # 0 excluded
    "t_leg": (0.0, 1.0),                                  # 0 excluded
    "shifter": (0.0, 1e3),                                # m, each of delta_d, delta_m, delta_c
    "rho": (0.01, 30.0),
    "safety_factor": (0.01, 100.0),
    "edge_time": (0.0, ns_to_s(1e3)),                     # s, each of t_rising, t_falling
    "pad_sigmas": (5.0, 1e3),
    "grid_bound": (-1e15, 1e15),                          # m, GridSpec's x_min and x_max
    "a_cp": (-1e12, 1e12),                                # m
    "b_cp": (-1e6, 1e6),                                  # m^2
}
_OPEN_AT_0 = ("t_fiber", "t_leg")


def check_domain(row: str, value, name: str | None = None, to_si=None) -> None:
    """Raise ValueError, naming ``name`` (default ``row``), unless ``value`` lies in the row.

    ``to_si`` converts a value given in a flag's unit; the message states the
    bounds in that unit and the value as given.
    """
    si = value if to_si is None else to_si(value)
    lo, hi = DOMAIN[row]
    if (lo <= si <= hi and (si > 0.0 or row not in _OPEN_AT_0)
            or si == 0.0 and row == "dispersion"):
        return
    unit = 1.0 if to_si is None else to_si(1.0)
    zero = "be 0 or " if row == "dispersion" else ""
    bracket = "(" if row in _OPEN_AT_0 else "["
    raise ValueError(f"{name or row} must {zero}lie in {bracket}{lo / unit:g}, {hi / unit:g}], "
                     f"got {value!r}")


# The rows that the validators' accept paths compare with, as module constants.
_LAMBDA0_LO, _LAMBDA0_HI = DOMAIN["lambda0"]
_DELTA_LAMBDA_LO, _DELTA_LAMBDA_HI = DOMAIN["delta_lambda"]
_DISPERSION_LO, _DISPERSION_HI = DOMAIN["dispersion"]
_GROUP_INDEX_LO, _GROUP_INDEX_HI = DOMAIN["group_index"]
_FIBER_LENGTH_HI = DOMAIN["fiber_length"][1]
_LEG_LENGTH_HI = DOMAIN["leg_length"][1]
_SHIFTER_HI = DOMAIN["shifter"][1]
_LINK_ROWS = ("lambda0", "delta_lambda", "dispersion", "group_index", "fiber_length",
              "leg_length", "t_fiber", "t_leg")


@dataclass(frozen=True)
class LinkParams:
    """Source, fiber and geometry constants of one link instance.

    Attributes:
        lambda0: central wavelength, m.
        delta_lambda: RMS wavelength spread of the source, m.
        dispersion: fiber dispersion coefficient D, s/m^2 (17 ps/(km*nm) = 17e-6).
        group_index: group index at lambda0 (dimensionless).
        fiber_length: transmission fiber length between the interferometers' stations, m.
        leg_length: common interferometer leg length (all four legs equal), m.
        t_fiber: power transmission of the transmission fiber, in (0, 1].
        t_leg: power transmission of each interferometer leg, in (0, 1].
        convention: "first_principles" evaluates kappa = D*lambda0^2*c0/(4*pi)
            exactly; "calibrated" divides kappa by CALIBRATED_KAPPA_SCALE to
            match the published reference design curves.
    """

    lambda0: float = 1550e-9
    delta_lambda: float = 0.31e-9
    dispersion: float = 17e-6
    group_index: float = 1.4682
    fiber_length: float = 50e3
    leg_length: float = 1.0
    t_fiber: float = 1.0
    t_leg: float = 1.0
    convention: str = "first_principles"

    def __post_init__(self) -> None:
        # one chained comparison passes every record in the domain (NaN fails
        # each comparison); the per-field checks below name the first fault
        try:
            if (_LAMBDA0_LO <= self.lambda0 <= _LAMBDA0_HI
                    and _DELTA_LAMBDA_LO <= self.delta_lambda <= _DELTA_LAMBDA_HI
                    and self.delta_lambda / self.lambda0 < 1e-2
                    and (_DISPERSION_LO <= self.dispersion <= _DISPERSION_HI
                         or self.dispersion == 0.0)
                    and _GROUP_INDEX_LO <= self.group_index <= _GROUP_INDEX_HI
                    and 0.0 <= self.fiber_length <= _FIBER_LENGTH_HI
                    and 0.0 <= self.leg_length <= _LEG_LENGTH_HI
                    and 0.0 < self.t_fiber <= 1.0 and 0.0 < self.t_leg <= 1.0
                    and self.convention in CONVENTIONS):
                return
        except TypeError:  # not a number: the checks below raise their own TypeError
            pass
        for row in _LINK_ROWS:
            check_domain(row, getattr(self, row))
        if not self.delta_lambda / self.lambda0 < 1e-2:
            raise ValueError("delta_lambda must be small compared to lambda0 "
                             f"(ratio {self.delta_lambda / self.lambda0:.3g} >= 1e-2)")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")


@dataclass(frozen=True)
class MzConfig:
    """Phase-shifter values of the two interferometers.

    delta_d / delta_m are the extra path lengths in the long arms of the first
    and second interferometer; delta_c is a common short-arm offset (normally
    zero).  The transmission fiber carries no phase shifter.
    """

    delta_d: float = 0.25
    delta_m: float = 0.25
    delta_c: float = 0.0

    def __post_init__(self) -> None:
        try:
            if (0.0 <= self.delta_d <= _SHIFTER_HI and 0.0 <= self.delta_m <= _SHIFTER_HI
                    and 0.0 <= self.delta_c <= _SHIFTER_HI):
                return
        except TypeError:  # not a number: the checks below raise their own TypeError
            pass
        for name in ("delta_d", "delta_m", "delta_c"):
            check_domain("shifter", getattr(self, name), name)

    @property
    def pair_sums(self) -> tuple[float, float, float, float]:
        """Shifter sums d_a + d_b of the leg pairs in PAIRS order, m (short legs "c")."""
        c, d, m = self.delta_c, self.delta_d, self.delta_m
        return (c + c, c + m, d + c, d + m)


@dataclass(frozen=True)
class DerivedQuantities:
    """Every derived scalar of one link instance, with any compensating element.

    Attributes:
        delta_k: RMS wavenumber spread, 1/m.
        k0: central wavenumber 2*pi/lambda0, 1/m.
        kappa: dispersion parameter magnitude of the link fiber, m.  The
            signed value is negative for normal positive-D fiber; delta1
            carries the sign.
        delta1: accumulated dispersion kappa_signed*(fiber_length + 2*leg_length),
            plus the compensating element's b_cp, m^2.
        gamma: pulse broadening factor, >= 1, equal for every leg pair.
        sigma: position-spectrum standard deviation sqrt(gamma)/(2*delta_k), m.
        fwhm: full width at half maximum sqrt(8 ln 2)*sigma, m.
        mu: mean position of each leg-pair component, m, keyed by PAIRS; the
            compensating element adds its a_cp (and 2*b_cp*k0 through delta1).
    """

    params: LinkParams
    config: MzConfig
    delta_k: float
    k0: float
    kappa: float
    delta1: float
    gamma: float
    sigma: float
    fwhm: float
    mu: Mapping[str, float] = field(repr=False)

    @property
    def window_center(self) -> float:
        """Center of the middle pulse, (mu_cm + mu_dc)/2, m."""
        return 0.5 * (self.mu["cm"] + self.mu["dc"])


def effective_kappa(params: LinkParams) -> float:
    """Magnitude of the dispersion parameter under the configured convention, m."""
    kappa = params.dispersion * params.lambda0**2 * C0 / (4.0 * math.pi)
    if params.convention == "calibrated":
        kappa /= CALIBRATED_KAPPA_SCALE
    return kappa


def accumulated_dispersion(params: LinkParams, fiber_length):
    """Signed dispersion kappa_signed*(fiber_length + 2*leg_length), m^2.

    ``fiber_length`` is a float or a numpy array of lengths.  D > 0
    (anomalous dispersion at 1550 nm) makes the signed kappa negative.
    """
    return -effective_kappa(params) * (fiber_length + 2.0 * params.leg_length)


def broadening(delta_k: float, delta1):
    """Broadening factor and position width for accumulated dispersion delta1.

    gamma = 1 + 16*delta_k^4*delta1^2 and sigma = sqrt(gamma)/(2*delta_k).
    ``delta1`` is a float or a numpy array; squaring by multiplication keeps
    both bit-identical (libm pow and numpy's square can differ by an ulp), and
    so does the square root: math.sqrt and np.sqrt both round correctly.
    """
    gamma = 1.0 + 16.0 * delta_k**4 * (delta1 * delta1)
    root = np.sqrt(gamma) if isinstance(gamma, np.ndarray) else math.sqrt(gamma)
    return gamma, root / (2.0 * delta_k)


@dataclass(frozen=True)
class PrecompMultiplier:
    """Wavenumber-domain multiplier of a lossless dispersion-compensating element.

    Multiplies the input spectrum by exp(-i k a_cp - i k^2 b_cp).  ``a_cp`` is
    the element's linear path term (group index times physical length, m) and
    ``b_cp`` its accumulated dispersion (m^2); cancellation requires b_cp to
    oppose the link's own accumulated dispersion.  A lossy element's power
    transmission is a factor of the link's ``t_fiber``.
    """

    a_cp: float = 0.0
    b_cp: float = 0.0

    def __post_init__(self) -> None:
        check_domain("a_cp", self.a_cp)
        check_domain("b_cp", self.b_cp)


def derive(params: LinkParams, config: MzConfig,
           precomp: PrecompMultiplier | None = None) -> DerivedQuantities:
    """Compute the full derived-scalar chain for one link instance.

    An optional compensating element adds its b_cp to delta1 (so gamma, sigma
    and fwhm are those of the compensated pulse) and its a_cp to every
    component mean.  The validators hold every input in ``DOMAIN``, where
    every derived scalar is finite and delta_k, gamma, sigma and the term
    exponent 2 delta_k^2 / gamma are positive.
    """
    delta_k = 2.0 * math.pi * params.delta_lambda / params.lambda0**2
    k0 = 2.0 * math.pi / params.lambda0
    kappa = effective_kappa(params)
    delta1 = accumulated_dispersion(params, params.fiber_length)
    path = params.group_index * params.fiber_length \
        + 2.0 * params.group_index * params.leg_length
    if precomp is not None:
        delta1 += precomp.b_cp
        path += precomp.a_cp
    gamma, sigma = broadening(delta_k, delta1)
    fwhm = math.sqrt(8.0 * math.log(2.0)) * sigma
    base = path + 2.0 * delta1 * k0
    mu = {pair: base + pair_sum for pair, pair_sum in zip(PAIRS, config.pair_sums)}
    return DerivedQuantities(
        params=params, config=config, delta_k=delta_k, k0=k0, kappa=kappa,
        delta1=delta1, gamma=gamma, sigma=sigma, fwhm=fwhm, mu=mu,
    )


def x_rho(sigma, rho: float):
    """Half width X_rho at which the pulse energy falls to exp(-rho^2) of its peak, m.

    ``sigma`` is the position width of the pulse, a float or a numpy array.
    rho=1 gives the classical 1/e half width; rho=sqrt(ln 2) gives FWHM/2.
    ``rho`` must lie in the domain row "rho".
    """
    check_domain("rho", rho)
    return rho * math.sqrt(2.0) * sigma
