"""Output position spectra of the two-interferometer link.

Two independent evaluation routes are provided.  The analytic route is one
list of Gaussian-cosine terms per shifter setting (``component_terms``): four
Gaussian leg-pair components plus six cosine-weighted cross terms, each of
the form amp * exp(-p y^2) * cos(dd (k0 + slope y)) with y the offset from
the term's center.  The one builder makes the lists of any number of
settings on one derived link in one array pass; p, k0 and the slope belong to
the link, the amplitudes, centers and dd to the settings.  The list is read
two ways: pointwise on a grid (``eval_analytic``, one setting, without the
cross terms whose amplitude underflowed to 0, which would add only +-0, and
with each term evaluated only where its envelope has not underflowed) and
exactly on the middle-pulse window (``exact_window_masses``, every setting in
the list at once), where each cross term integrates to a difference of
complex error functions, evaluated through the Faddeeva function w(z)
(Abramowitz & Stegun 7.1; Weideman's rational approximation, SIAM J. Numer.
Anal. 31 (1994) 1497).
``eval_oracle`` builds the wavenumber-domain transfer function of the full
setup, times the Gaussian input spectrum, as one even factor (input spectrum
and fiber chirp) times four leg-pair linear phasors, and inverse-transforms
to position space: the trapezoid quadrature over a uniform wavenumber grid
whose step is commensurate with the position grid's, so the samples fold into
the bins of one short inverse FFT (the DFT aliasing identity).  Every phasor
comes from short tables of about sqrt(n_k) directly evaluated entries, the
way FFT libraries build their twiddle factors (Frigo & Johnson, Proc. IEEE
93 (2005) 216): the chirp on half of the symmetric axis from a block table
filled by doubling, mirrored for the other half, and both exits' linear
phases as one batched matrix product of their block tables and a within-block
table.  The axis and the input spectrum exist only on that half, and the
input norm is summed there.  No cosine or sine is taken on the whole axis.
The two routes must agree to high precision; the oracle is the verification
reference for the analytic route and for compensation studies.

Position bookkeeping: intensities are the lossless link's probability
densities over the vacuum-equivalent propagation distance x (a lossy link's
are these times ``LinkParams.transmission``, applied by ``io.curve_arrays``).
At telecom lengths x is hundreds of kilometers while the pulse structure
lives on a scale of meters, and the spectra depend on x only through its
distance from the component means.  Both routes therefore work in offsets
from the window center, the middle-pulse center halfway between the cm and
dc means.  Each mean sits at the offset d_pair - (d_cm + d_dc)/2 of the
shifter sums ``MzConfig.pair_sums``, with or without a compensating element,
so no large position is formed or cancelled; absolute positions
(``SpectrumCurve.x``) are window center plus offset and are formed only
where a caller reads them.  One builder (``_position_grid``) derives the
record and lays out the grid of offsets for both routes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import (DerivedQuantities, LinkParams, MzConfig, PAIRS, PrecompMultiplier,
                   check_domain, derive, x_rho)
from .errors import ConfigError, ResolutionError, VerificationError

# Cross-term ordering; a cross term's interference sign at each exit is the
# product of its two pairs' component signs (``_PAIR_SIGNS``).
CROSS_PAIRS = (("dm", "cm"), ("dm", "dc"), ("cm", "dc"),
               ("dm", "cc"), ("cm", "cc"), ("dc", "cc"))
# The component signs in PAIRS order (cc, cm, dc, dm), exit o then exit p:
# the terms of (E_d - E_c)(E_m -+ E_c) in the oracle's transfer function.
_PAIR_SIGNS = np.array([(+1.0, -1.0, -1.0, +1.0), (-1.0, -1.0, +1.0, +1.0)])

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class GridSpec:
    """Position grid for spectrum evaluation.

    Without explicit bounds the grid spans [min(mu) - pad_sigmas*sigma,
    max(mu) + pad_sigmas*sigma].  Explicit bounds are absolute positions, or
    offsets from the window center when ``relative`` is true; they must cover
    at least +-5 sigma around the outer component means.  pad_sigmas and the
    bounds lie in their domain rows.
    """

    n_points: int = 4096
    pad_sigmas: float = 6.0
    x_min: Optional[float] = None
    x_max: Optional[float] = None
    relative: bool = False

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ConfigError("grid needs at least 2 points")
        check_domain("pad_sigmas", self.pad_sigmas)
        for name in ("x_min", "x_max"):
            if getattr(self, name) is not None:
                check_domain("grid_bound", getattr(self, name), name)
        if (self.x_min is None) != (self.x_max is None):
            raise ConfigError("x_min and x_max must be given together")


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled |psi_o|^2, |psi_p|^2 of the lossless link with the inputs that produced them.

    The grid is stored as offsets from ``window_center`` (the middle-pulse
    center, m); ``x`` adds the center back for callers that want absolute
    positions.  ``derived`` is the link's record and includes any
    compensating element, so its width and the window center are those of the
    pulse that was evaluated; ``config`` holds the shifters.
    """

    x_relative: np.ndarray
    intensity_o: np.ndarray
    intensity_p: np.ndarray
    derived: DerivedQuantities = field(repr=False)
    config: MzConfig
    window_center: float
    checks: Optional[dict] = None

    @property
    def x(self) -> np.ndarray:
        """Absolute grid positions, window center plus offset, m."""
        return self.window_center + self.x_relative


# The analytic terms take no exp or cosine where their exponent -p y^2 is
# below this.  float64's exp rounds to +0 below -1075 ln 2 = -745.133, where
# the exact value is under half the smallest subnormal; -746 lies 0.87 beyond
# that, far more than the rounding of -p y^2 (about 1e-13 there), so every
# value left out is one exp gives as +0, and every nonzero one is evaluated.
_EXP_CUT = -746.0


@dataclass(frozen=True)
class ComponentTerms:
    """The analytic intensity of both exits as ten Gaussian-cosine terms.

    Term t contributes amp[exit, t] * exp(-p y^2) * cos(dd[t] (k0 + slope y))
    with y = offset - center[t], the distance from the term's center.  Terms
    0-3 are the leg-pair Gaussians in PAIRS order (dd = 0, centered on the
    component means); terms 4-9 are the cross terms in CROSS_PAIRS order,
    centered halfway between their two means.  The lists of n shifter
    settings on one link share p, k0 and the slope, which depend on the link
    alone; ``amp``, ``center`` and ``dd`` carry a leading settings axis, and
    row 0 of an exit axis is exit o, row 1 exit p: the exits differ only in
    the cross-term signs.  A cross term's phase is its two pairs' phase
    difference with their common parts cancelled, well-conditioned at any length.
    """

    amp: np.ndarray      # (n, 2, 10), 1/m, of the lossless link
    center: np.ndarray   # (n, 10) offsets from the window center, m
    dd: np.ndarray       # (n, 10) shifter-sum differences d_a - d_b, m
    p: float             # 2 dk^2 / gamma, 1/m^2
    k0: float            # 1/m
    slope: float         # 8 dk^4 delta1 / gamma, 1/m^2

    def shapes(self, offset: np.ndarray) -> np.ndarray:
        """exp(-p y^2) cos(phase) of every term at sorted offsets, shape (n, 10, len(offset)).

        The Gaussian terms' phase is zero, so only the cross terms take a
        cosine.  A term is evaluated only where its exponent -p y^2 is at least
        ``_EXP_CUT``; elsewhere its envelope underflows, float64's exp is +0,
        and the shape is left +0 with no exp or cosine taken.  The exponent is
        smallest at a grid end, so the ends decide whether any term is cut;
        when none is, every term is evaluated on the whole grid.
        """
        y = offset - self.center[..., None]
        exponent = -self.p * y * y
        cross = slice(len(PAIRS), None)
        if min(exponent[..., 0].min(), exponent[..., -1].min()) >= _EXP_CUT:
            shape = np.exp(exponent)
            shape[:, cross] *= np.cos(self.dd[:, cross, None]
                                      * (self.k0 + self.slope * y[:, cross]))
            return shape
        kept = exponent >= _EXP_CUT
        shape = np.zeros_like(exponent)
        np.exp(exponent, out=shape, where=kept)
        phase = self.dd[:, cross, None] * (self.k0 + self.slope * y[:, cross])
        np.cos(phase, out=phase, where=kept[:, cross])
        np.multiply(shape[:, cross], phase, out=shape[:, cross], where=kept[:, cross])
        return shape


def _middle_sum(sums: tuple[float, ...]) -> float:
    """Mean shifter sum of the two middle pairs, (d_cm + d_dc)/2, of ``pair_sums``, m."""
    return 0.5 * (sums[1] + sums[2])


def _offsets(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n) for n >= 2, bit for bit, by its operations without its wrapper.

    A step that underflows to 0 takes numpy's branch for it: the ramp is
    divided by n - 1 before it is scaled by the span.
    """
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    step = delta / (n - 1)
    offset = np.arange(n, dtype=float)
    if step == 0:
        offset /= n - 1
        offset *= delta
    else:
        offset *= step
    offset += lo
    offset[-1] = hi
    return offset


def _position_grid(params: LinkParams, config: MzConfig, grid: GridSpec | None,
                   precomp: PrecompMultiplier | None = None
                   ) -> tuple[DerivedQuantities, float, np.ndarray, float, float]:
    """The derived record, the window center, the grid offsets from it and the outer means.

    The center is the mean of the cm and dc means, the record's origin plus
    their shifter sums (m); of the means' offsets from it only the lowest and
    the highest bound the grid; absolute bounds are converted once.
    """
    grid = grid or GridSpec()
    d = derive(params, precomp=precomp)
    sums = config.pair_sums
    center = 0.5 * ((d.origin + sums[1]) + (d.origin + sums[2]))
    middle = _middle_sum(sums)
    mu_lo, mu_hi = min(sums) - middle, max(sums) - middle
    if grid.x_min is None:
        lo = mu_lo - grid.pad_sigmas * d.sigma
        hi = mu_hi + grid.pad_sigmas * d.sigma
    else:
        lo, hi = grid.x_min, grid.x_max
        if not grid.relative:
            lo -= center
            hi -= center
        if lo > mu_lo - 5.0 * d.sigma or hi < mu_hi + 5.0 * d.sigma:
            raise ConfigError(
                "grid too narrow: must cover +-5 sigma around the outer component means")
    try:
        offset = _offsets(lo, hi, grid.n_points)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest array
        raise ConfigError(f"n_points {grid.n_points} asks for {8 * grid.n_points} bytes "
                          "of grid offsets, more than can be allocated") from exc
    return d, center, offset, mu_lo, mu_hi


# The leg pair at each end of each term, a then b, as indices into PAIRS,
# shape (2, 10): a Gaussian term's pair at both ends, a cross term's two pairs.
_TERM_ENDS = np.array([[PAIRS.index(pair) for pair in PAIRS + end] for end in zip(*CROSS_PAIRS)])
# The middle cross term (cm, dc) is centered on the window center.
_MIDDLE_TERM = len(PAIRS) + CROSS_PAIRS.index(("cm", "dc"))
# Each term's amplitude over 2 _gauss_peak exp(-p dd^2 / 4), exit o then exit p: its
# ends' component signs' product, halved on the Gaussian terms (dd = 0).
_TERM_WEIGHTS = _PAIR_SIGNS.take(_TERM_ENDS, axis=1).prod(axis=1)
_TERM_WEIGHTS[:, :len(PAIRS)] *= 0.5


def _gauss_peak(d: DerivedQuantities) -> float:
    """Peak of one lossless leg-pair Gaussian term, dk / (8 sqrt(2 pi gamma)), 1/m."""
    return d.delta_k / (8.0 * math.sqrt(2.0 * math.pi * d.gamma))


def component_terms(d: DerivedQuantities, configs: Sequence[MzConfig]) -> ComponentTerms:
    """The analytic intensity of n shifter settings on the lossless link of ``d`` as term lists.

    The product of two leg-pair envelopes exp(-dk^2 (x - mu)^2 / gamma) is one
    Gaussian of exponent p = 2 dk^2 / gamma centered halfway between the means,
    scaled by exp(-p (mu_a - mu_b)^2 / 4).  A Gaussian term's amplitude
    dk / (8 sqrt(2 pi gamma)) integrates to 1/16 over the real line; a cross
    term carries twice that amplitude, the scale above and its exit's
    interference sign.  Only the link scalars of ``d`` are read (delta_k,
    gamma, delta1, k0), no transmission: a compensating element enters through
    the record, its b_cp through delta1 and gamma.  The shifters come
    from ``configs``, one row of every array per setting, all in one array
    pass; each entry takes the same operations whatever the other rows hold,
    so row i equals row 0 of the list of ``[configs[i]]`` alone bit for bit.
    Raises ValueError without a setting.
    """
    if not configs:
        raise ValueError("component_terms needs at least one shifter setting")
    sums = np.array([c.pair_sums for c in configs], dtype=float)
    # take keeps it C-contiguous: einsum sums the masses in the layout's order
    ends = sums.take(_TERM_ENDS, axis=1)                       # (n, 2, 10): d_a, d_b
    dd = ends[:, 0] - ends[:, 1]
    half = 0.5 * (ends[:, 0] + ends[:, 1])
    p = 2.0 * d.delta_k**2 / d.gamma
    slope = 8.0 * d.delta_k**4 * d.delta1 / d.gamma
    scale = 2.0 * _gauss_peak(d) * np.exp(-0.25 * p * dd * dd)
    return ComponentTerms(amp=_TERM_WEIGHTS * scale[:, None, :],
                          center=half - half[:, _MIDDLE_TERM, None], dd=dd,
                          p=p, k0=d.k0, slope=slope)


def _clip_rounding_noise(values: np.ndarray, what: str, floor: float) -> np.ndarray:
    """Clip negatives of rounding-noise size, 1e-10 of the largest value or of ``floor``.

    Destructive points and exits cancel to rounding noise; anything beyond
    noise scale is a genuine sign error, and a non-finite value means the
    parameters left the numeric range.  Both raise VerificationError.  ``floor``,
    one leg-pair Gaussian term's scale, keeps a dark link's noise noise.
    """
    lo, hi = float(values.min()), float(values.max())
    # a NaN anywhere makes both NaN, an infinity makes one of them infinite
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise VerificationError(f"non-finite {what}; parameters out of numeric range")
    if lo < -1e-10 * max(hi, floor):
        raise VerificationError(f"negative {what} beyond rounding noise")
    return np.maximum(values, 0.0)


# eval_analytic evaluates the terms on at most this many offsets at a time: a
# (10, 1024) float64 temporary is 80 KB, which stays in cache and which glibc's
# allocator serves from reused memory.  One (10, 4096) expression faulted in
# ~290 fresh pages per call and ran about 1.5x slower on a 2-core x86-64 host.
_BLOCK = 1024


def eval_analytic(params: LinkParams, config: MzConfig,
                  grid: GridSpec | None = None) -> SpectrumCurve:
    """Closed-form output spectra of both exits: the term list on a grid.

    A cross term whose means are some 77 sigma apart (a link of a few km with
    shifters of tenths of a meter) has amplitude 2 peak exp(-p dd^2 / 4) = 0
    and adds +-0 at every point; it is left out.  Each kept term is evaluated
    only where its exponent -p y^2 is at least ``_EXP_CUT`` = -746
    (``ComponentTerms.shapes``): below -745.13 float64's exp is already +0,
    so the term adds +-0 there too.  On a link of 0-1 km most of a term's
    points lie beyond that cut, where numpy's exp takes a slow path for
    results that underflow.  No bit changes: einsum adds the terms in order
    from a Gaussian one, >= +0, and x + (+-0) is x for every x but -0, which
    no partial sum is.  A grid of at most ``_BLOCK`` points is one block.
    """
    d, center, offset, _, _ = _position_grid(params, config, grid)
    terms = component_terms(d, (config,))
    if not terms.amp[0, 0].all():
        # the Gaussian terms, first in the list, vanish only with every other one
        kept = np.flatnonzero(terms.amp[0, 0])
        terms = replace(terms, amp=terms.amp[..., kept], center=terms.center[:, kept],
                        dd=terms.dd[:, kept])
    sections = -(-offset.size // _BLOCK)
    if sections == 1:
        both = np.einsum("et,tn->en", terms.amp[0], terms.shapes(offset)[0])
    else:
        both = np.concatenate([np.einsum("et,tn->en", terms.amp[0], terms.shapes(block)[0])
                               for block in np.array_split(offset, sections)], axis=1)
    both = _clip_rounding_noise(both, "intensity", _gauss_peak(d))
    return SpectrumCurve(x_relative=offset, intensity_o=both[0], intensity_p=both[1], derived=d,
                         config=config, window_center=center)


def _weideman_coefficients(n: int) -> tuple[float, np.ndarray]:
    """Scale L and the n polynomial coefficients of Weideman's w(z), highest first.

    The coefficients are terms 1..n of the 2m-point discrete Fourier transform
    (m = 2n) of f(t) = exp(-t^2) (L^2 + t^2) sampled at t = L tan(theta/2),
    theta = k pi/m.  f is even in k, so the transform is a cosine sum, summed
    directly: numpy loads its FFT module lazily, and importing it here would
    cost every process that never runs the oracle ~1.5 MB and ~1 ms.
    """
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    theta = np.arange(-m + 1, m) * math.pi / m
    t = scale * np.tan(theta / 2.0)
    f = np.exp(-t * t) * (scale * scale + t * t)
    return scale, np.sum(np.cos(np.outer(np.arange(n, 0, -1), theta)) * f, axis=1) / (2 * m)


_W_SCALE, _W_COEFFS = _weideman_coefficients(40)
# The same coefficients as 0-d complex arrays: np.add converts a float operand
# to the complex loop's type on every call, a 0-d complex128 array not at all.
_W_HORNER = [np.array(coeff) for coeff in _W_COEFFS.astype(complex)]


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z) for Im z >= 0.

    Weideman's rational approximation with N = 40: with Z = (L + i z)/(L - i z),
    w = 2 P(Z)/(L - i z)^2 + 1/(sqrt(pi) (L - i z)).  About 1e-15 relative in
    the closed upper half-plane; the lower half-plane is not supported.
    Horner's rule runs np.polyval's operations in its order, in place, with
    each coefficient a 0-d complex array (``_W_HORNER``): c + 0j adds to a
    complex value as the float c does, so the bits are np.polyval's.
    """
    iz = 1j * z
    denominator = _W_SCALE - iz
    ratio = (_W_SCALE + iz) / denominator
    poly = np.zeros_like(ratio)
    for coeff in _W_HORNER:
        np.multiply(poly, ratio, poly)
        np.add(poly, coeff, poly)
    return 2.0 * poly / denominator**2 + 1.0 / (math.sqrt(math.pi) * denominator)


def exact_window_masses(terms: ComponentTerms, rho_window: float) -> np.ndarray:
    """Exact lossless mass of each exit inside the middle-pulse window, shape (n, 2).

    One row (exit o, exit p) per setting of the term lists ``terms``
    (``component_terms``), which read the link's record and no transmission.
    The window is [-X, X] around the window center with X = rho_window sqrt(2)
    sigma, so sqrt(p) X = rho_window.  Each term integrates in closed form,
    with a = sqrt(p) y at the window edges: a Gaussian term to amp sqrt(pi/p)/2
    [erf(a)] between the edges, a cross term to the real part of exp(i dd k0)
    amp sqrt(pi/p)/2 exp(-s^2) [erf(a - i s)] with s = dd slope / (2 sqrt(p)).
    exp(-s^2) erf(a - i s) is sign(a) [exp(-s^2) - exp(-a^2 + 2 i a s) w(sign(a)
    (s + i a))]: every w argument lies in the upper half-plane, exp(+s^2), about
    e^(2e4) for the outer pairs, is never formed, and all share one w call.
    """
    if not rho_window > 0:
        raise ValueError("rho_window must be positive")
    center, dd = terms.center, terms.dd
    root_p = math.sqrt(terms.p)
    edges = np.array((-rho_window, rho_window))[:, None, None] - root_p * center
    n_gauss = len(PAIRS)

    erf_edges = np.array(list(map(math.erf, edges[:, :, :n_gauss].ravel().tolist())))
    erf_edges = erf_edges.reshape(2, -1, n_gauss)
    a = edges[:, :, n_gauss:]
    ia = 1j * a
    s = dd[:, n_gauss:] * terms.slope / (2.0 * root_p)
    sign = np.where(a >= 0.0, 1.0, -1.0)
    scaled_erf = sign * (np.exp(-s * s)
                         - np.exp(-a * a + 2.0 * ia * s) * _faddeeva(sign * (s + ia)))
    integrals = np.concatenate(
        (erf_edges[1] - erf_edges[0],
         (np.exp(1j * dd[:, n_gauss:] * terms.k0) * (scaled_erf[1] - scaled_erf[0])).real),
        axis=-1)
    masses = 0.5 * (math.sqrt(math.pi) / root_p) * np.einsum("cet,ct->ce", terms.amp, integrals)
    # floor: one lossless Gaussian term's whole mass, amp sqrt(pi/p) = 1/16
    return _clip_rounding_noise(masses, "window mass", 0.0625)


# Largest working set the oracle may hold, bytes, as counted by _oracle_bytes.
ORACLE_BUDGET_BYTES = 160 << 20

# The oracle's wavenumber samples span +-K_SPAN_SIGMAS input widths delta_k
# around k0, where the input amplitude has fallen to exp(-25) of its peak.
K_SPAN_SIGMAS = 10.0


def _oracle_bytes(n_k: int, m: int) -> int:
    """Bytes the oracle holds at its peak for n_k samples folded into m bins.

    The count allows eight complex128 arrays of length n_k; at most four are
    live at once.  While the transfer-function rows are built: the first
    halves of the wavenumber axis and of the input spectrum (float64, half an
    array's worth), the even factor's first half and the two rows, each padded
    to whole blocks of about sqrt(n_k) samples, plus tables of about sqrt(n_k)
    entries.  While they are transformed: the half axis and spectrum, the rows
    and the squares of one row's parts (float64, one complex array's worth).
    The folded rows, their inverse FFT and its scratch add at most eight of
    length m.  The count was set when the axis and the spectrum spanned the
    whole axis and is kept as it was; where the budget refuses a link follows
    from ``_oracle_n_k``'s sample count.
    """
    return 16 * 8 * (n_k + m)


def _oracle_n_k(k_span: float, period: float, step: float, n_x: int) -> tuple[int, int]:
    """Wavenumber samples and fold length (n_k, m) of the oracle's quadrature.

    By the Poisson summation formula the trapezoid sum on the wavenumber step
    du is the true field plus copies of it displaced by whole multiples of
    2 pi / du (Trefethen & Weideman, SIAM Review 56 (2014) 385).  With du =
    2 pi / (m step) the copies sit m grid steps away, so they miss the grid
    when m step is at least ``period``: the distance from either grid end to
    the far edge of the field's support (``eval_oracle``).  m is the smallest
    2*3*5-smooth length at least n_x and period / step, so that the transform
    folds the samples into m bins (``_folded_intensity``), and n_k covers
    +-k_span at that step.  Raises ResolutionError, before the integrand or
    the transform is allocated, when the oracle would hold more than
    ORACLE_BUDGET_BYTES.
    """
    m = _fft_length(max(n_x, math.ceil(period / step)))
    n_k = math.ceil(2.0 * k_span * m * float(step) / (2.0 * math.pi)) + 1
    required = _oracle_bytes(n_k, m)
    if required > ORACLE_BUDGET_BYTES:
        raise ResolutionError(
            f"oracle would need {n_k} wavenumber samples and {required} bytes of "
            f"working arrays, above the {ORACLE_BUDGET_BYTES}-byte budget")
    return n_k, m


@functools.lru_cache
def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: numpy's FFT is fast on these lengths."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _power(z: np.ndarray) -> np.ndarray:
    """|z|^2 as real^2 + imag^2, without the hypot of ``abs``."""
    power = np.square(z.real)
    power += np.square(z.imag)
    return power


def _folded_intensity(coeffs: np.ndarray, n_x: int, m: int) -> np.ndarray:
    """|sum_n coeffs[r, n] exp(i u_n j h)|^2 for j < n_x, for each row r.

    ``coeffs`` carry the carrier of the grid's first point, and u_n = u_0 +
    n du with du h m = 2 pi for an integer m >= n_x.  Then exp(i u_n j h) =
    exp(i u_0 j h) exp(2 pi i n j / m): the first factor has unit modulus and
    drops out of the intensity, and the second is periodic in n with period m.
    So the coefficients are summed into m bins by n mod m, and one unscaled
    inverse FFT of length m gives the sums at every grid point (the DFT
    aliasing identity): the dense quadrature, re-associated.  The whole folds
    are summed through a view; the partial last one adds into the first bins.
    """
    n_rows, n_k = coeffs.shape
    whole = n_k - n_k % m
    folded = coeffs[:, :whole].reshape(n_rows, -1, m).sum(axis=1)
    folded[:, :n_k - whole] += coeffs[:, whole:]
    return _power(np.fft.ifft(folded, axis=-1, norm="forward")[:, :n_x])


def _unit_phasor(theta: np.ndarray) -> np.ndarray:
    """exp(i theta), its cosine and sine written into one complex array."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _block_width(n_k: int) -> int:
    """Table width w = ceil(sqrt(n_k)): sample n of the axis is entry j of block b, n = b w + j."""
    return math.isqrt(n_k - 1) + 1


def _block_starts(du: float, n_k: int) -> np.ndarray:
    """T_b = u_(b w), the first wavenumber offset of each block of the axis u_n = (n - c) du.

    c = (n_k - 1)/2.  ``du`` must be the step the axis was built from: a step
    recovered as u[1] - u[0] carries the rounding of u[0], which the tables
    multiply by up to n_k.
    """
    return (np.arange(0, n_k, _block_width(n_k)) - 0.5 * (n_k - 1)) * du


# Rows of w = ceil(sqrt(n_k)) angles per _unit_phasor call in _chirp_half: no
# table of cosines and sines exceeds 4 w entries.
_PHASOR_ROWS = 4


def _chirp_half(curv: float, du: float, n_k: int) -> np.ndarray:
    """exp(i curv u_n^2) on the first ceil(n_k/2) samples of the oracle's axis.

    With u = T_b + t_j, t_j = j du, the phase is curv T_b^2 + curv t_j (2 T_b +
    t_j), and T_b = T_0 + b w du.  So block b's row is block 0's row times
    exp(2 i curv b w du^2 j), and one block constant exp(i curv T_b^2).  The
    rows are filled by doubling: rows s..2s-1 are rows 0..s-1 times the
    multiplier for s, which is evaluated directly for s = 1, 2, 4, ... rather
    than squared from the last one, so rounding does not compound.  That is
    about sqrt(n_k) log2(n_k) cosines and sines, block 0's row and the
    multipliers taken ``_PHASOR_ROWS`` rows per call, in tables of at most
    4 w entries.  Every entry is evaluated: the chirp has unit modulus, and
    nothing here underflows.
    """
    width = _block_width(n_k)
    size = (n_k + 1) // 2
    starts = _block_starts(du, n_k)[:-(-size // width)]
    t = np.arange(width) * du
    # block 0's phase, then the multipliers' for s = 1, 2, 4, ... below the block count
    theta = np.empty((1 + (starts.size - 1).bit_length(), width))
    theta[0] = curv * t * (2.0 * starts[0] + t)
    np.multiply.outer([2.0 * curv * (1 << i) * width * du for i in range(len(theta) - 1)], t,
                      out=theta[1:])
    phasors = np.concatenate([_unit_phasor(theta[first:first + _PHASOR_ROWS])
                              for first in range(0, len(theta), _PHASOR_ROWS)])
    table = np.empty((starts.size, width), dtype=complex)
    table[0] = phasors[0]
    filled = 1
    for step in phasors[1:]:
        grow = min(filled, starts.size - filled)
        np.multiply(table[:grow], step, out=table[filled:filled + grow])
        filled += grow
    table *= _unit_phasor(curv * starts * starts)[:, None]
    return table.reshape(-1)[:size]


# np.matmul hands complex products to BLAS, one GEMM per matrix of a batch.
# OpenBLAS runs a complex GEMM with m n k above 65536 on all its threads, and
# waking them took 8-16 ms per call on a shared 2-core x86-64 host, against
# 0.1-0.3 ms for a whole 40 000-sample product on the calling thread.  With
# k = 4, products of at most this many samples per exit stay on that thread.
_GEMM_SAMPLES = 1 << 14


def _transfer_rows(d: DerivedQuantities, config: MzConfig, n_k: int, du: float,
                   alpha_half: np.ndarray, start: float) -> np.ndarray:
    """Lossless exits o and p at wavenumbers k0 + u, times input and carrier, shape (2, n_k).

    The input spectrum, the fiber, both interferometers' lossless legs at
    ``config``, the record's compensating element (if any) and the carrier exp(i u X) of the
    grid's first offset ``start``, X = 2 n_g l_leg + 2 delta1 k0 + mid + start
    from the linear path n_g L + a_cp, mid = (d_cm + d_dc)/2.  Their quadratic phases
    add up to -delta1 (2 k0 u + u^2); the carrier cancels the k0-linear part
    and the legs' 2 n_g l_leg u.  With - for exit o, + for p:

        alpha_in exp(i phi) (E_d - E_c)(E_m -+ E_c),
        phi = -delta1 u^2 + u (mid + start),   E_x = exp(-i k0 delta_x) exp(-i u delta_x).

    Constant phases of psi are dropped; no phase of 1e7 rad is formed.  The
    product of the shifter factors expands into the four leg-pair phasors
    e_a e_b exp(i u (mid + start - d_a - d_b)), with signs ``_PAIR_SIGNS``.  On
    u_n = T_b + j du each is a block table entry times a within-block entry,
    so each exit is the matrix product of its (blocks x 4) block table and the
    (4 x w) within-block table.  Both exits are one batched product into one
    (2, blocks, w) buffer, a few blocks at a time (``_GEMM_SAMPLES``), the
    partial last block computed whole; the rows are a view of its first n_k
    samples per exit.  The axis is u_n = (n - (n_k - 1)/2) du, symmetric
    to the bit: u[n_k - 1 - n] == -u[n].  So the even factor alpha_in
    exp(-i delta1 u^2) is evaluated on the first ceil(n_k/2) samples only
    (``alpha_half`` the input spectrum there, ``_chirp_half`` the chirp) and
    multiplied into both halves of the rows, the second half reversed and
    without the middle sample when n_k is odd.  No cosine or sine is taken on
    the whole axis.
    """
    width = _block_width(n_k)
    sums = config.pair_sums
    slope = (_middle_sum(sums) + start) - np.array(sums)
    # e_a e_b from the constant phasors exp(-i k0 delta_x), one Python complex
    # per shifter, times each exit's signs
    angles = (-d.k0 * config.delta_c, -d.k0 * config.delta_d, -d.k0 * config.delta_m)
    leg = {name: complex(math.cos(angle), math.sin(angle)) for name, angle in zip("cdm", angles)}
    factors = [[sign * leg[a] * leg[b] for sign, (a, b) in zip(signs, PAIRS)]
               for signs in _PAIR_SIGNS.tolist()]
    signed = _unit_phasor(np.outer(_block_starts(du, n_k), slope)) * np.array(factors)[:, None]
    within = _unit_phasor(np.outer(slope, np.arange(width) * du))
    table = np.empty((2, signed.shape[1], width), dtype=complex)
    per_call = max(1, _GEMM_SAMPLES // width)
    for first in range(0, signed.shape[1], per_call):
        chunk = slice(first, first + per_call)
        np.matmul(signed[:, chunk], within, out=table[:, chunk])
    rows = table.reshape(2, -1)[:, :n_k]
    even = _chirp_half(-d.delta1, du, n_k)
    even *= alpha_half
    rows[:, :even.size] *= even
    rows[:, even.size:] *= even[:n_k - even.size][::-1]
    return rows


def eval_oracle(params: LinkParams, config: MzConfig,
                grid: GridSpec | None = None, *,
                precomp: PrecompMultiplier | None = None,
                placement: str = "pre") -> SpectrumCurve:
    """Numeric propagation through the wavenumber-domain transfer function.

    Builds the product of the input Gaussian spectrum, the fiber's linear and
    quadratic phase, both interferometers' lossless leg factors and (optionally) a
    compensating element, then inverse-transforms to position space by
    trapezoid quadrature on the grid of offsets from the window center.  The
    wavenumber step is commensurate with the grid step, so the quadrature is
    one fold of the samples and one short inverse FFT (``_folded_intensity``),
    and the fold spans the field's support, so that it does not alias on the
    grid (``_oracle_n_k``).
    ``placement`` is accepted and checked but changes nothing: the factored
    transfer function (``_transfer_rows``) is one product with one order, so
    the compensating multiplier has no before, after or split placement.

    Raises ResolutionError when resolving the requested grid would exceed
    ORACLE_BUDGET_BYTES or the wavenumber sampling fails the input-norm
    self-check (1e-8).
    """
    if placement not in ("pre", "post", "symmetric"):
        raise ValueError(f"placement must be pre, post or symmetric, got {placement!r}")
    d, center, offset, mu_lo, mu_hi = _position_grid(params, config, grid, precomp)
    step = (offset[-1] - offset[0]) / (offset.size - 1)

    # The field's support: every component's envelope exp(-y^2 / 4 sigma^2)
    # falls to exp(-25), the input spectrum's cut at +-k_span, at
    # K_SPAN_SIGMAS sigma from its mean.
    dk = d.delta_k
    k_span = K_SPAN_SIGMAS * dk
    reach = K_SPAN_SIGMAS * d.sigma
    period = max(float(offset[-1]) - (mu_lo - reach), (mu_hi + reach) - float(offset[0]))
    n_k, m = _oracle_n_k(k_span, period, step, offset.size)

    # the input spectrum on the first half of the symmetric axis
    du = 2.0 * math.pi / (m * step)
    half = (np.arange((n_k + 1) // 2) - 0.5 * (n_k - 1)) * du
    alpha_half = (2.0 * math.pi * dk**2) ** -0.25 * np.exp(-half**2 / (4.0 * dk**2))

    # the trapezoid rule on the whole axis: twice the half sum, which counts
    # the middle sample twice when n_k is odd, less (first + last)/2 = first
    squares = np.square(alpha_half)
    twice = 2.0 * squares.sum() - (squares[-1] if n_k % 2 else 0.0)
    norm_in = float(du * (twice - squares[0]))
    if abs(norm_in - 1.0) > 1e-8:
        raise ResolutionError(
            f"input-norm quadrature error {abs(norm_in - 1.0):.3e} exceeds 1e-8")

    rows = _transfer_rows(d, config, n_k, du, alpha_half, float(offset[0]))

    # Parseval bookkeeping for the unitarity ledger: per-exit masses in k
    # space plus the share that left through the first interferometer's
    # unused exit: du (sum - (first + last)/2) of |row|^2, one pairwise sum
    # per row over the squares of its parts.  Not ``vdot``: OpenBLAS splits a
    # dot product of over 10 000 values over its threads (``_GEMM_SAMPLES``);
    # not einsum, whose running sums lose 4e-14 of the mass at 350 000 samples;
    # not both rows' squares at once, a temporary that faulted in fresh pages.
    masses = []
    for row in rows:
        first, last = float(abs(row[0])), float(abs(row[-1]))
        total = float(np.square(row.view(np.float64)).sum())
        masses.append(float(0.0625 * (du * (total - 0.5 * (first * first + last * last)))))
    mass_o, mass_p = masses

    # trapezoid end weights; the constant weight and the transform's normalization
    # give the lossless intensity
    rows[:, ::n_k - 1] *= 0.5
    weight = 0.25 * du / math.sqrt(2.0 * math.pi)
    intensity = _folded_intensity(rows, offset.size, m) * weight**2

    checks = {
        "norm_in": norm_in,
        "mass_o_kspace": mass_o,
        "mass_p_kspace": mass_p,
        "unused_exit_remainder": norm_in - mass_o - mass_p,
        "n_k": n_k,
        "fold_length": m,
    }
    return SpectrumCurve(x_relative=offset, intensity_o=intensity[0], intensity_p=intensity[1],
                         derived=d, config=config, window_center=center, checks=checks)


def middle_window_masses(curve: SpectrumCurve, rho_window: float) -> tuple[float, float]:
    """Probability mass of each exit inside the middle-pulse window.

    The window is [center - X, center + X] with X = rho_window*sqrt(2)*sigma
    and the center halfway between the two middle-component means.  Raises
    ValueError when the window is not fully inside the sampled grid.
    """
    half = x_rho(curve.derived.sigma, rho_window)
    offset = curve.x_relative
    if -half < offset[0] or half > offset[-1]:
        raise ValueError("integration window exceeds the sampled grid")
    return (_window_mass(offset, curve.intensity_o, -half, half),
            _window_mass(offset, curve.intensity_p, -half, half))


def _window_mass(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    inside = (x > lo) & (x < hi)
    xs = np.concatenate(([lo], x[inside], [hi]))
    ys = np.concatenate(([np.interp(lo, x, y)], y[inside], [np.interp(hi, x, y)]))
    return float(_trapz(ys, xs))


def max_normalized_deviation(a: SpectrumCurve, b: SpectrumCurve) -> float:
    """Largest pointwise |difference| after normalizing each exit to peak 1.

    The divisor is at least one leg-pair Gaussian's peak on the lossless link
    of ``a``, so a dark exit, whose peak is rounding noise, reads in its units.
    Curves must share their grids of offsets from their own window centers to 1e-12 m.
    """
    if a.x_relative.size != b.x_relative.size:
        raise ValueError("curves have different grid sizes")
    # one max-abs pass; a NaN offset makes it NaN and fails the test
    if not np.max(np.abs(a.x_relative - b.x_relative)) <= 1e-12:
        raise ValueError("curves are sampled on different relative grids")
    floor = _gauss_peak(a.derived)
    dev = 0.0
    for ya, yb in ((a.intensity_o, b.intensity_o), (a.intensity_p, b.intensity_p)):
        peak = max(float(ya.max()), float(yb.max()), floor)
        dev = max(dev, float(np.max(np.abs(ya - yb))) / peak)
    return dev
