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

from .units import C0

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


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


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
        for name in ("lambda0", "delta_lambda", "dispersion", "group_index",
                     "fiber_length", "leg_length", "t_fiber", "t_leg"):
            _require_finite(name, getattr(self, name))
        if self.lambda0 <= 0:
            raise ValueError("lambda0 must be positive")
        if self.delta_lambda <= 0:
            raise ValueError("delta_lambda must be positive")
        if self.delta_lambda / self.lambda0 >= 1e-2:
            raise ValueError("delta_lambda must be small compared to lambda0 "
                             f"(ratio {self.delta_lambda / self.lambda0:.3g} >= 1e-2)")
        if self.dispersion < 0:
            raise ValueError("dispersion must be non-negative")
        if self.group_index <= 0:
            raise ValueError("group_index must be positive")
        if self.fiber_length < 0 or self.leg_length < 0:
            raise ValueError("lengths must be non-negative")
        for name in ("t_fiber", "t_leg"):
            t = getattr(self, name)
            if not 0 < t <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {t!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")


@dataclass(frozen=True)
class MzConfig:
    """Phase-shifter values and detector timing of the two interferometers.

    delta_d / delta_m are the extra path lengths in the long arms of the first
    and second interferometer; delta_c is a common short-arm offset (normally
    zero).  The transmission fiber carries no phase shifter.  Detector edge
    times are in seconds.
    """

    delta_d: float = 0.25
    delta_m: float = 0.25
    delta_c: float = 0.0
    t_rising: float = 0.0
    t_falling: float = 0.0

    def __post_init__(self) -> None:
        for name in ("delta_d", "delta_m", "delta_c", "t_rising", "t_falling"):
            _require_finite(name, getattr(self, name))
        if self.delta_d < 0 or self.delta_m < 0 or self.delta_c < 0:
            raise ValueError("phase shifter lengths must be non-negative")
        if self.t_rising < 0 or self.t_falling < 0:
            raise ValueError("detector edge times must be non-negative")

    def shifter(self, leg: str) -> float:
        """Shifter value of one leg, m.  Both interferometers' short legs are "c"."""
        return {"c": self.delta_c, "d": self.delta_d, "m": self.delta_m}[leg]

    def delta_sum(self, pair: str) -> float:
        """Sum of the two shifter values of a leg pair, m."""
        return self.shifter(pair[0]) + self.shifter(pair[1])


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
        t_cp: power transmission of the compensating element, 1.0 without one.
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
    t_cp: float

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
    both bit-identical (libm pow and numpy's square can differ by an ulp).
    """
    gamma = 1.0 + 16.0 * delta_k**4 * (delta1 * delta1)
    return gamma, np.sqrt(gamma) / (2.0 * delta_k)


@dataclass(frozen=True)
class PrecompMultiplier:
    """Wavenumber-domain multiplier of a dispersion-compensating element.

    Multiplies the input spectrum by sqrt(t_cp)*exp(-i k a_cp - i k^2 b_cp).
    ``a_cp`` is the element's linear path term (group index times physical
    length, m) and ``b_cp`` its accumulated dispersion (m^2); cancellation
    requires b_cp to oppose the link's own accumulated dispersion.
    """

    t_cp: float = 1.0
    a_cp: float = 0.0
    b_cp: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.t_cp <= 1:
            raise ValueError("t_cp must lie in (0, 1]")
        for name in ("a_cp", "b_cp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def derive(params: LinkParams, config: MzConfig,
           precomp: PrecompMultiplier | None = None) -> DerivedQuantities:
    """Compute the full derived-scalar chain for one link instance.

    An optional compensating element adds its b_cp to delta1 (so gamma, sigma
    and fwhm are those of the compensated pulse) and its a_cp to every
    component mean, and its t_cp is recorded.  Raises ValueError for
    out-of-range inputs (delegated to the dataclass validators when
    constructing params/config directly) and when delta_k, gamma or sigma is
    not a positive finite float.
    """
    try:
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
        sigma = float(sigma)
        in_range = 0.0 < delta_k < math.inf and gamma < math.inf and 0.0 < sigma < math.inf
    except ArithmeticError:  # lambda0^2 underflows to zero, or a power overflows
        in_range = False
    if not in_range:
        raise ValueError(
            "the wavenumber spread or the pulse width leaves the float range "
            f"(lambda0 {params.lambda0!r} m, delta_lambda {params.delta_lambda!r} m, "
            f"fiber_length {params.fiber_length!r} m)")
    fwhm = math.sqrt(8.0 * math.log(2.0)) * sigma
    base = path + 2.0 * delta1 * k0
    mu = {pair: base + config.delta_sum(pair) for pair in PAIRS}
    return DerivedQuantities(
        params=params, config=config, delta_k=delta_k, k0=k0, kappa=kappa,
        delta1=delta1, gamma=gamma, sigma=sigma, fwhm=fwhm, mu=mu,
        t_cp=precomp.t_cp if precomp is not None else 1.0,
    )


def x_rho(sigma, rho: float):
    """Half width X_rho at which the pulse energy falls to exp(-rho^2) of its peak, m.

    ``sigma`` is the position width of the pulse, a float or a numpy array.
    rho=1 gives the classical 1/e half width; rho=sqrt(ln 2) gives FWHM/2.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    return rho * math.sqrt(2.0) * sigma
