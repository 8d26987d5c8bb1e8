import itertools
import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzqkd import spectra
from mzqkd.bb84 import MIDDLE_WINDOW_RHO, default_baseline, detection_table
from mzqkd.core import (LinkParams, MzConfig, PAIRS, PrecompMultiplier, broadening, derive,
                        x_rho)
from mzqkd.errors import ResolutionError, VerificationError
from mzqkd.io import curve_arrays
from mzqkd.spectra import (CROSS_PAIRS, GridSpec, component_terms, eval_analytic, eval_oracle,
                           exact_window_masses, max_normalized_deviation,
                           middle_window_masses)

CAL_50KM = LinkParams(fiber_length=50e3, convention="calibrated")
MATCHED = MzConfig(delta_d=0.25, delta_m=0.25)
WINDOW_RHO = 3.0 / math.sqrt(2.0)  # half-width of 3 sigma

# The component signs of each exit, read off (E_d - E_c)(E_m -+ E_c):
# exit o (+dm, -cm, -dc, +cc), exit p (+dm, -cm, +dc, -cc).
COMPONENT_SIGNS = ({"dm": +1, "cm": -1, "dc": -1, "cc": +1},
                   {"dm": +1, "cm": -1, "dc": +1, "cc": -1})


def cross_signs(exit_signs):
    """Each cross term's interference sign at one exit, in CROSS_PAIRS order."""
    return [exit_signs[a] * exit_signs[b] for a, b in CROSS_PAIRS]


def shifters(config):
    """Each leg's shifter value from the config's fields; both short legs are "c"."""
    return {"c": config.delta_c, "d": config.delta_d, "m": config.delta_m}


def pair_sum(config, pair):
    """Shifter sum d_a + d_b of a leg pair."""
    shifter = shifters(config)
    return shifter[pair[0]] + shifter[pair[1]]


def total_mass(curve):
    """Trapezoid-integrated mass of each exit over the whole grid."""
    trapz = getattr(np, "trapezoid", None) or np.trapz
    return (float(trapz(curve.intensity_o, curve.x_relative)),
            float(trapz(curve.intensity_p, curve.x_relative)))


def dense_intensity(coeffs, n_x, m):
    """Reference for the oracle's transform: the quadrature summed directly.

    Same signature as ``spectra._folded_intensity``: the coefficients carry
    the carrier of the grid's first point and du h m = 2 pi, so, up to a
    unit-modulus factor, the sum over u_n of coeffs exp(i u_n j h) is the sum
    of coeffs exp(i (u_n h) j) with u_n h = 2 pi (n - c) / m about the middle
    sample c.  Built in blocks of about 2M kernel entries.
    """
    n_k = coeffs.shape[1]
    u_h = (np.arange(n_k) - 0.5 * (n_k - 1)) * (2.0 * math.pi / m)
    out = np.empty((coeffs.shape[0], n_x))
    chunk = max(1, int(2.0e6 // n_k))
    for start in range(0, n_x, chunk):
        kernel = np.exp(1j * np.outer(np.arange(start, min(start + chunk, n_x)), u_h))
        out[:, start:start + chunk] = np.abs(coeffs @ kernel.T) ** 2
    return out


def reference_transfer_rows(params, config, d, u, precomp):
    """Reference for the lossless ``spectra._transfer_rows``: each factor as its own exponential.

    The fiber's quadratic phase, one factor per interferometer leg with its
    full (k0 + u) phase, and the compensating multiplier applied before the
    leg factors.  Only the u-dependent part of the fiber's and the
    compensator's phase is kept; the input spectrum and the carrier are left
    out.  The phases reach 1e7-1e8 rad on long links and carry
    their rounding.
    """
    k = d.k0 + u
    b_leg = -d.kappa * params.leg_length

    def leg_factor(delta):
        # exp(-i[(k0+u)A + (k0+u)^2 B]) for one lossless interferometer leg.
        a = delta + params.group_index * params.leg_length
        return np.exp(-1j * (k * a + k * k * b_leg))

    quadratic = 2.0 * d.k0 * u + u * u
    common = np.exp(1j * quadratic * (d.kappa * params.fiber_length))
    if precomp is not None:
        common *= np.exp(-1j * quadratic * precomp.b_cp)
    e_c = leg_factor(config.delta_c)
    common *= leg_factor(config.delta_d) - e_c
    e_m = leg_factor(config.delta_m)
    return np.array([e_m - e_c, e_m + e_c]) * common


def smooth_235(n):
    """Whether n has no prime factor other than 2, 3 and 5."""
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1


def alias_free_sampling(d, config, x):
    """The oracle's (n_k, fold length m) for the record d and the shifters config on offsets x.

    du = 2 pi / (m h) with m the smallest 2*3*5-smooth length at least n_x
    and P / h.  P is the distance from either grid end to the far edge of the
    field's support, 10 sigma beyond the outer means, so the quadrature's
    copies of the field, m h apart, miss the grid.  n_k covers +-10 delta_k
    at that step.
    """
    middle = 0.5 * (pair_sum(config, "cm") + pair_sum(config, "dc"))
    means = [pair_sum(config, pair) - middle for pair in PAIRS]
    period = max(x[-1] - (min(means) - 10.0 * d.sigma), (max(means) + 10.0 * d.sigma) - x[0])
    h = (x[-1] - x[0]) / (x.size - 1)
    m = next(n for n in itertools.count(max(x.size, math.ceil(period / h))) if smooth_235(n))
    assert m * h >= period
    return math.ceil(2.0 * 10.0 * d.delta_k * m * h / (2.0 * math.pi)) + 1, m


def oracle_axis(n_k, du):
    """The oracle's whole wavenumber axis u_n = (n - (n_k - 1)/2) du."""
    return (np.arange(n_k) - 0.5 * (n_k - 1)) * du


def input_spectrum(d, u):
    """The Gaussian input amplitude alpha_in at the wavenumber offsets u."""
    return (2.0 * math.pi * d.delta_k**2) ** -0.25 * np.exp(-u**2 / (4.0 * d.delta_k**2))


def mirrored(half, n_k):
    """An even function on all n_k samples of the axis from its first ceil(n_k/2).

    The second half is the first one reversed, without its middle sample
    when n_k is odd.
    """
    return np.concatenate((half, half[:n_k - half.size][::-1]))


def spied_rows(monkeypatch, params, config, grid, kwargs):
    """The arguments and the result of the first ``_transfer_rows`` call of an oracle run.

    The arguments are (d, config, n_k, du, alpha_half, start): the record,
    the shifters, the sample count and step of the axis, the input spectrum
    on the first ceil(n_k/2) samples and the grid's first offset.
    """
    built = []
    factored = spectra._transfer_rows

    def spy(*args):
        rows = factored(*args)
        built.append((args, rows.copy()))
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_transfer_rows", spy)
        eval_oracle(params, config, grid, **kwargs)
    return built[0]


def mp_factored_rows(config, d, u, start):
    """Lossless exits o and p of ``_transfer_rows``'s factored form at one wavenumber u, 50 digits.

        alpha_in exp(i phi) (E_d - E_c)(E_m -+ E_c),
        phi = -delta1 u^2 + u (mid + start),   E_x = exp(-i k0 delta_x) exp(-i u delta_x),

    with alpha_in the Gaussian input spectrum.  The float64 inputs are taken
    as exact, u among them.  Each shifter's constant phase k0 delta_x is
    taken as the float64 product the code forms: its rounding, up to 2e-10
    rad at 0.7 m, is one fixed phase per shifter, the same at every u.
    """
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        u, dk = mpf(u), mpf(d.delta_k)
        mid = (2 * mpf(config.delta_c) + mpf(config.delta_d) + mpf(config.delta_m)) / 2
        alpha_in = (2 * mpmath.pi * dk**2) ** mpf(-0.25) * mpmath.exp(-u**2 / (4 * dk**2))
        common = alpha_in * mpmath.expj(-mpf(d.delta1) * u**2 + u * (mid + mpf(start)))

        def e(delta):
            return mpmath.expj(-mpf(d.k0 * delta)) * mpmath.expj(-u * mpf(delta))

        common *= e(config.delta_d) - e(config.delta_c)
        return (complex(common * (e(config.delta_m) - e(config.delta_c))),
                complex(common * (e(config.delta_m) + e(config.delta_c))))


def compensated(length_m, fraction, **link):
    """Link with a fraction of its fiber dispersion cancelled before it.

    Returns the full link, its compensating multiplier, and the uncompensated
    link the analytic route sees.
    """
    params = LinkParams(fiber_length=length_m, **link)
    l_cp = fraction * length_m
    multiplier = PrecompMultiplier(a_cp=params.group_index * l_cp,
                                   b_cp=derive(params).kappa * l_cp)
    return params, multiplier, replace(params, fiber_length=length_m - l_cp)


def measured_fwhm(x, y):
    peak = y.max()
    above = np.where(y >= peak / 2.0)[0]
    lo, hi = above[0], above[-1]
    # linear interpolation of the half-maximum crossings
    x_lo = np.interp(peak / 2.0, [y[lo - 1], y[lo]], [x[lo - 1], x[lo]])
    x_hi = np.interp(peak / 2.0, [y[hi + 1], y[hi]], [x[hi + 1], x[hi]])
    return x_hi - x_lo


class TestAnalyticBasics:
    def test_constructive_destructive_split(self):
        # no dispersion, equal baselines: the middle pulse goes entirely to one exit
        params = LinkParams(dispersion=0.0, fiber_length=1e3)
        config = MzConfig(delta_d=0.02, delta_m=0.02)
        curve = eval_analytic(params, config)
        mass_o, mass_p = middle_window_masses(curve, WINDOW_RHO)
        assert mass_o / (mass_o + mass_p) > 0.999999
        assert mass_p / (mass_o + mass_p) < 1e-6

    def test_three_peak_structure(self):
        curve = eval_analytic(CAL_50KM, MATCHED)
        origin = curve.derived.origin
        y = curve.intensity_o
        interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
        peaks = np.where(interior & (y[1:-1] > 0.05 * y.max()))[0] + 1
        assert len(peaks) == 3
        step = curve.x[1] - curve.x[0]
        assert abs(curve.x[peaks[0]] - (origin + pair_sum(MATCHED, "cc"))) < 2 * step
        assert abs(curve.x[peaks[-1]] - (origin + pair_sum(MATCHED, "dm"))) < 2 * step
        separation = curve.x[peaks[-1]] - curve.x[peaks[0]]
        expected = MATCHED.delta_d + MATCHED.delta_m - 2 * MATCHED.delta_c
        assert separation == pytest.approx(expected, abs=2 * step)

    def test_generic_phase_shows_three_pulses_at_both_exits(self):
        lam = CAL_50KM.lambda0
        config = MzConfig(delta_d=0.25, delta_m=0.25 + lam / 8.0)
        curve = eval_analytic(CAL_50KM, config)
        for y in (curve.intensity_o, curve.intensity_p):
            interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
            peaks = np.where(interior & (y[1:-1] > 0.05 * y.max()))[0]
            assert len(peaks) == 3

    def test_all_peaks_share_fwhm(self):
        curve = eval_analytic(CAL_50KM, MATCHED)
        d = curve.derived
        [shapes] = component_terms(derive(CAL_50KM), [MATCHED]).shapes(curve.x_relative)
        for term in range(len(PAIRS)):
            width = measured_fwhm(curve.x_relative, shapes[term])
            assert width == pytest.approx(d.fwhm, rel=1e-2)

    def test_intensities_non_negative_and_finite(self):
        curve = eval_analytic(CAL_50KM, MzConfig(delta_d=0.2513, delta_m=0.2479))
        floor = -1e-12 * curve.intensity_o.max()
        assert curve.intensity_o.min() >= floor
        assert curve.intensity_p.min() >= floor
        assert np.all(np.isfinite(curve.intensity_o))

    def test_grid_too_narrow_rejected(self):
        d = derive(CAL_50KM)
        lo = d.origin + pair_sum(MATCHED, "cc") - 2 * d.sigma
        hi = d.origin + pair_sum(MATCHED, "dm") + 2 * d.sigma
        with pytest.raises(ValueError):
            eval_analytic(CAL_50KM, MATCHED, GridSpec(x_min=lo, x_max=hi))

    def test_gridspec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n_points=1)
        with pytest.raises(ValueError, match=r"^pad_sigmas must lie in \[5, 1000\], got 3.0$"):
            GridSpec(pad_sigmas=3.0)
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0)
        with pytest.raises(ValueError, match=r"^x_min must lie in \[-1e\+15, 1e\+15\], got -inf$"):
            GridSpec(x_min=-math.inf, x_max=2.0, relative=True)
        with pytest.raises(ValueError, match=r"^x_max must lie in \[-1e\+15, 1e\+15\], got nan$"):
            GridSpec(x_min=-2.0, x_max=math.nan, relative=True)
        # the bounds' domain ends are admitted, the floats beyond them refused
        assert GridSpec(x_min=-1e15, x_max=1e15).x_max == 1e15
        with pytest.raises(ValueError, match=r"^x_max must lie in \[-1e\+15, 1e\+15\]"):
            GridSpec(x_min=-2.0, x_max=math.nextafter(1e15, math.inf))


def pair_envelopes(params, config, offset):
    """Lossless per-pair amplitudes c'_ij = 2 dk sqrt(pi) exp(-dk^2 (x - mu)^2/gamma)/gamma^(1/4).

    The lossless intensity of an exit is prefactor * (sum of c'^2 + 2 *
    signed sum of c'_a c'_b cos(z_a - z_b)), with prefactor
    1/(32 pi sqrt(2 pi) dk); a lossy link's is that times t_fiber t_leg^2.
    Returns the prefactor and c' keyed by PAIRS.
    """
    d = derive(params)
    middle = 0.5 * (pair_sum(config, "cm") + pair_sum(config, "dc"))
    c_prime = {pair: 2.0 * d.delta_k * math.sqrt(math.pi) / d.gamma**0.25
               * np.exp(-d.delta_k**2 * (offset - pair_sum(config, pair) + middle) ** 2
                        / d.gamma)
               for pair in PAIRS}
    prefactor = 1.0 / (32.0 * math.pi * math.sqrt(2.0 * math.pi) * d.delta_k)
    return prefactor, c_prime


class TestComponentTerms:
    """The term list of a lossy link is the lossless link's: it reads no transmission."""

    PARAMS = replace(CAL_50KM, t_fiber=0.7, t_leg=0.9)
    CONFIG = MzConfig(delta_d=0.2501, delta_m=0.2498, delta_c=0.003)

    def terms_on_grid(self):
        curve = eval_analytic(self.PARAMS, self.CONFIG)
        terms = component_terms(derive(self.PARAMS), [self.CONFIG])
        values = terms.amp[0, :, :, None] * terms.shapes(curve.x_relative)[0]
        return curve.x_relative, terms, values

    def test_j_equals_c_prime_squared(self):
        offset, terms, values = self.terms_on_grid()
        prefactor, c_prime = pair_envelopes(self.PARAMS, self.CONFIG, offset)
        assert np.all(terms.dd[0, :len(PAIRS)] == 0.0)
        for term, pair in enumerate(PAIRS):
            for exit_values in values:
                np.testing.assert_allclose(exit_values[term], prefactor * c_prime[pair] ** 2,
                                           rtol=1e-12, atol=0)

    def test_cross_terms_obey_cosine_bound(self):
        offset, _, values = self.terms_on_grid()
        prefactor, c_prime = pair_envelopes(self.PARAMS, self.CONFIG, offset)
        for term, (a, b) in enumerate(CROSS_PAIRS, start=len(PAIRS)):
            bound = 2.0 * prefactor * c_prime[a] * c_prime[b]
            assert np.all(np.abs(values[:, term]) <= bound * (1.0 + 1e-12) + 1e-300)

    def test_cross_terms_factor_into_pair_envelopes(self):
        # each cross term is 2 c'_a c'_b cos(z_a - z_b) with its exit's sign, the
        # phase from the raw per-pair phases at 50 digits (every 16th point);
        # the term list's ~1e6 rad fringe phase rounds to ~1e-10 rad
        offset, _, values = self.terms_on_grid()
        prefactor, c_prime = pair_envelopes(self.PARAMS, self.CONFIG, offset)
        d = derive(self.PARAMS)
        picked = np.arange(0, offset.size, 16)
        for term, (a, b) in enumerate(CROSS_PAIRS, start=len(PAIRS)):
            bound = 2.0 * prefactor * c_prime[a][picked] * c_prime[b][picked]
            phase = [float(mp_phase_difference(d, self.CONFIG, a, b, x)) for x in offset[picked]]
            expected = bound * np.cos(phase)
            for row, exit_signs in enumerate(COMPONENT_SIGNS):
                sign = exit_signs[a] * exit_signs[b]
                error = np.abs(values[row, term, picked] - sign * expected)
                assert np.all(error <= 1e-9 * bound.max())

    def test_sign_swap_exchanges_exits(self):
        [amp] = component_terms(derive(self.PARAMS), [self.CONFIG]).amp
        gauss, cross = slice(0, len(PAIRS)), slice(len(PAIRS), None)
        assert np.array_equal(amp[0, gauss], amp[1, gauss])
        signs_o, signs_p = (np.array(cross_signs(signs)) for signs in COMPONENT_SIGNS)
        assert np.array_equal(amp[0, cross] * signs_p, amp[1, cross] * signs_o)


def mp_window_center(derived, cfg):
    """Window center n_g (L + 2 l_leg) + 2 delta1 k0 + (d_cm + d_dc)/2 at 50 digits."""
    with mpmath.workdps(50):
        p = derived.params
        mpf = mpmath.mpf
        return mpf(p.group_index) * (mpf(p.fiber_length) + 2 * mpf(p.leg_length)) \
            + 2 * mpf(derived.delta1) * mpf(derived.k0) \
            + (2 * mpf(cfg.delta_c) + mpf(cfg.delta_d) + mpf(cfg.delta_m)) / 2


def mp_pair_sum(config, pair):
    """Shifter sum of a leg pair at 50 digits, each field taken as exact."""
    shifter = shifters(config)
    return mpmath.mpf(shifter[pair[0]]) + mpmath.mpf(shifter[pair[1]])


def mp_phase_difference(derived, cfg, pair_a, pair_b, offset):
    """z_a(x) - z_b(x) from the raw per-pair phases at 50 significant digits.

    z(x) = atan(4 delta1 dk^2)/2 + (k0^2 delta1 - k0 x' - 4 dk^4 delta1 x'^2)/gamma
    with x' = x - n_g (L + 2 l_leg) - d_pair, at x = window center + offset;
    the float64 inputs are taken as exact.
    """
    with mpmath.workdps(50):
        d, p = derived, derived.params
        dk, k0, d1, g = (mpmath.mpf(v) for v in (d.delta_k, d.k0, d.delta1, d.gamma))
        group_delay = mpmath.mpf(p.group_index) * (
            mpmath.mpf(p.fiber_length) + 2 * mpmath.mpf(p.leg_length))
        x = mp_window_center(d, cfg) + mpmath.mpf(offset)

        def z(pair):
            xp = x - group_delay - mp_pair_sum(cfg, pair)
            return mpmath.atan(4 * d1 * dk**2) / 2 \
                + (k0**2 * d1 - k0 * xp - 4 * dk**4 * d1 * xp**2) / g

        return z(pair_a) - z(pair_b)


def mp_intensities(curve, offsets):
    """Closed-form intensities of both exits at 50 digits, at center + offset.

    The same closed form as ``eval_analytic``: the lossless link's intensity.
    The distance from each component mean is offset +
    (d_cm + d_dc)/2 - d_pair, and the phase differences come from the raw
    phases at center + offset.
    """
    d, cfg = curve.derived, curve.config
    with mpmath.workdps(50):
        dk, g = mpmath.mpf(d.delta_k), mpmath.mpf(d.gamma)
        middle = (2 * mpmath.mpf(cfg.delta_c) + mpmath.mpf(cfg.delta_d)
                  + mpmath.mpf(cfg.delta_m)) / 2
        shift = {pair: middle - mp_pair_sum(cfg, pair) for pair in PAIRS}
        prefactor = 1 / (32 * mpmath.pi * mpmath.sqrt(2 * mpmath.pi) * dk)
        out = np.empty((2, len(offsets)))
        for i, offset in enumerate(offsets):
            c_prime = {pair: 2 * dk * mpmath.sqrt(mpmath.pi) / g**0.25
                       * mpmath.exp(-dk**2 * (mpmath.mpf(offset) + shift[pair]) ** 2 / g)
                       for pair in PAIRS}
            total_j = sum(c_prime[pair] ** 2 for pair in PAIRS)
            cross = [c_prime[a] * c_prime[b]
                     * mpmath.cos(mp_phase_difference(d, cfg, a, b, offset))
                     for (a, b) in CROSS_PAIRS]
            for row, exit_signs in enumerate(COMPONENT_SIGNS):
                out[row, i] = float(prefactor * (total_j + 2 * sum(
                    s * c for s, c in zip(cross_signs(exit_signs), cross))))
        return out


class TestPhaseDifference:
    @pytest.mark.parametrize("convention", ["first_principles", "calibrated"])
    @pytest.mark.parametrize("length", [0.0, 1e3, 50e3, 500e3])
    def test_float64_matches_extended_reference(self, length, convention):
        params = LinkParams(fiber_length=length, convention=convention)
        # the term list's fringe phase dd (k0 + slope (offset - center))
        config = MzConfig(delta_d=0.25 + 0.75 * params.lambda0,
                          delta_m=0.2 + 0.25 * params.lambda0, delta_c=0.01)
        d = derive(params)
        terms = component_terms(d, [config])
        [dd], [center] = terms.dd, terms.center
        for offset in np.linspace(-5.0, 5.0, 11) * d.sigma:
            for term, (a, b) in enumerate(CROSS_PAIRS, start=len(PAIRS)):
                reference = mp_phase_difference(d, config, a, b, offset)
                value = dd[term] * (terms.k0 + terms.slope * (offset - center[term]))
                assert abs(value - reference) <= 1e-12 * abs(reference)


class TestAnalyticAccuracy:
    @pytest.mark.parametrize("convention", ["first_principles", "calibrated"])
    @pytest.mark.parametrize("length", [0.0, 1e3, 50e3, 500e3])
    def test_matches_extended_reference(self, length, convention):
        params = LinkParams(fiber_length=length, convention=convention)
        config = MzConfig(delta_d=0.25, delta_m=0.25 + params.lambda0 / 8.0)
        curve = eval_analytic(params, config)
        picked = np.arange(0, curve.x_relative.size, 16)
        reference = mp_intensities(curve, curve.x_relative[picked])
        for row, values in enumerate((curve.intensity_o, curve.intensity_p)):
            error = np.max(np.abs(values[picked] - reference[row]))
            assert error <= 1e-9 * reference[row].max()


class TestOracleAgreement:
    def test_matched_config_at_50km(self):
        config = MzConfig(delta_d=0.75, delta_m=0.70)
        grid = GridSpec(n_points=1024)
        params = LinkParams(fiber_length=50e3)
        deviation = max_normalized_deviation(eval_analytic(params, config, grid),
                                             eval_oracle(params, config, grid))
        assert deviation < 1e-6

    def test_unequal_transmissions(self):
        params = LinkParams(fiber_length=5e3, t_fiber=0.7, t_leg=0.9)
        config = MzConfig(delta_d=0.18, delta_m=0.13)
        grid = GridSpec(n_points=1024)
        deviation = max_normalized_deviation(eval_analytic(params, config, grid),
                                             eval_oracle(params, config, grid))
        assert deviation < 1e-6

    def test_oracle_norm_self_check(self, monkeypatch):
        monkeypatch.setattr(spectra, "K_SPAN_SIGMAS", 2.0)
        with pytest.raises(ResolutionError):
            eval_oracle(LinkParams(fiber_length=0.0), MzConfig(delta_d=0.01, delta_m=0.01),
                        GridSpec(n_points=128))

    @pytest.mark.parametrize("params, config, grid", [
        (LinkParams(fiber_length=0.0), MzConfig(delta_d=0.02, delta_m=0.02),
         GridSpec(n_points=1024)),
        (CAL_50KM, MATCHED, GridSpec(n_points=1024)),
        (LinkParams(fiber_length=500e3), MzConfig(delta_d=0.7, delta_m=0.65),
         GridSpec(n_points=4096)),
    ])
    def test_n_k_is_the_aliasing_criterion(self, params, config, grid):
        curve = eval_oracle(params, config, grid)
        expected = alias_free_sampling(derive(params), config, curve.x_relative)
        assert (curve.checks["n_k"], curve.checks["fold_length"]) == expected

    def test_support_is_the_compensated_pulse(self):
        # the support's 10 sigma are the compensated pulse's: at 500 km with
        # 60 % compensated the uncompensated width would ask for a longer fold
        precomp = compensated(500e3, 0.6, convention="calibrated")[1]
        curve = eval_oracle(CAL_500KM, WIDE, GridSpec(n_points=256), precomp=precomp)
        expected = alias_free_sampling(derive(CAL_500KM, precomp=precomp), WIDE,
                                       curve.x_relative)
        assert (curve.checks["n_k"], curve.checks["fold_length"]) == expected
        assert alias_free_sampling(derive(CAL_500KM), WIDE, curve.x_relative)[1] > expected[1]

    def test_budget_refuses_before_allocating(self):
        # 10 nm spread at 50 km needs about 3.6e6 samples, 470 MB of working arrays
        params = LinkParams(fiber_length=50e3, delta_lambda=10e-9)
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError,
                               match=f"above the {spectra.ORACLE_BUDGET_BYTES}-byte budget"):
                eval_oracle(params, MzConfig(), GridSpec(n_points=1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_budget_refuses_a_count_beyond_the_float_range(self):
        # padding of 1e305 sigma would ask for more samples than a float can
        # count; the domain refuses it, and the widest explicit bounds it
        # admits ask for a finite count, which the budget refuses
        with pytest.raises(ValueError, match=r"^pad_sigmas must lie in \[5, 1000\], got 1e\+305$"):
            GridSpec(n_points=64, pad_sigmas=1e305)
        with pytest.raises(ResolutionError, match=r"^oracle would need \d+ wavenumber samples"):
            eval_oracle(LinkParams(), MzConfig(),
                        GridSpec(n_points=64, x_min=-1e15, x_max=1e15, relative=True))

    def test_grid_beyond_numpys_largest_array_refused(self):
        # numpy refuses such a length with a ValueError before allocating anything
        with pytest.raises(ValueError, match="n_points 100000000000000000000 asks for "
                                             "800000000000000000000 bytes"):
            eval_oracle(LinkParams(), MzConfig(), GridSpec(n_points=10**20))

    def test_oracle_unitarity_bookkeeping(self):
        curve = eval_oracle(LinkParams(fiber_length=1e3),
                            MzConfig(delta_d=0.06, delta_m=0.055),
                            GridSpec(n_points=512))
        checks = curve.checks
        assert checks["norm_in"] == pytest.approx(1.0, abs=1e-10)
        total = checks["mass_o_kspace"] + checks["mass_p_kspace"]
        assert total == pytest.approx(0.5, abs=1e-6)
        assert checks["unused_exit_remainder"] == pytest.approx(0.5, abs=1e-6)
        # plain Python numbers, as a trace or a JSON writer reads them
        assert {type(value) for value in checks.values()} == {float, int}


CAL_500KM = LinkParams(fiber_length=500e3, convention="calibrated")
WIDE = MzConfig(delta_d=0.7, delta_m=0.65)
RELATIVE = GridSpec(n_points=128, x_min=-2.0, x_max=2.0, relative=True)
# 0 km with 0.02 m shifters needs fewer wavenumber samples than fold bins
FEWER_SAMPLES = GridSpec(n_points=1024)
FOLD_CASES = [
    pytest.param(replace(CAL_500KM, fiber_length=length), WIDE, GridSpec(n_points=256), {},
                 id=f"{length / 1e3:g}km")
    for length in (0.0, 1e3, 50e3, 500e3)
] + [
    # pre-compensated: the element multiplies the input spectrum
    pytest.param(CAL_500KM, WIDE, RELATIVE,
                 {"precomp": compensated(500e3, 0.6, convention="calibrated")[1]},
                 id="500km-compensated-pre"),
    pytest.param(LinkParams(fiber_length=0.0), MzConfig(delta_d=0.02, delta_m=0.02),
                 FEWER_SAMPLES, {}, id="n_k-below-fold-length"),
    pytest.param(replace(CAL_500KM, fiber_length=1e3), WIDE, GridSpec(n_points=4096), {},
                 id="4096-points"),
    pytest.param(replace(CAL_500KM, fiber_length=5000e3), WIDE, GridSpec(n_points=64), {},
                 id="5000km"),
]


# one case of each parity of n_k
PARITY_CASES = [case for case in FOLD_CASES if case.id in ("0km", "4096-points")]


class TestFoldedTransform:
    @pytest.mark.parametrize("params, config, grid, kwargs", FOLD_CASES)
    def test_matches_dense_quadrature(self, monkeypatch, params, config, grid, kwargs):
        fast = eval_oracle(params, config, grid, **kwargs)
        monkeypatch.setattr(spectra, "_folded_intensity", dense_intensity)
        dense = eval_oracle(params, config, grid, **kwargs)
        assert max_normalized_deviation(fast, dense) <= 1e-9
        n_k, m = fast.checks["n_k"], fast.checks["fold_length"]
        assert m >= grid.n_points
        # the last fold is partial, and with n_k < m the only one
        assert n_k % m != 0
        if grid is FEWER_SAMPLES:
            assert n_k < m

    def test_fft_length_is_the_smallest_smooth_length(self):
        # the memoised search, asked twice, against a search one length at a time
        for _ in range(2):
            for n in range(1, 5001):
                assert spectra._fft_length(n) == next(
                    m for m in itertools.count(n) if smooth_235(m))

    @pytest.mark.parametrize("params, config, grid, kwargs", FOLD_CASES)
    def test_fold_is_alias_free(self, monkeypatch, params, config, grid, kwargs):
        # the quadrature's copies of the field already miss the grid: a fold
        # three times longer, at a third of the wavenumber step, agrees
        curve = eval_oracle(params, config, grid, **kwargs)
        smooth_length = spectra._fft_length
        monkeypatch.setattr(spectra, "_fft_length", lambda n: 3 * smooth_length(n))
        longer = eval_oracle(params, config, grid, **kwargs)
        assert longer.checks["fold_length"] == 3 * curve.checks["fold_length"]
        assert max_normalized_deviation(curve, longer) <= 1e-10

    def test_fold_below_the_support_aliases(self, monkeypatch):
        # negative control: at 500 km a fold of only the grid's points (256,
        # not the rule's 320) puts the copies on the grid
        grid = GridSpec(n_points=256)
        smooth_length = spectra._fft_length
        monkeypatch.setattr(spectra, "_fft_length", lambda n: 3 * smooth_length(n))
        reference = eval_oracle(CAL_500KM, WIDE, grid)
        monkeypatch.setattr(spectra, "_fft_length", lambda n: grid.n_points)
        short = eval_oracle(CAL_500KM, WIDE, grid)
        assert short.checks["fold_length"] == grid.n_points
        assert max_normalized_deviation(short, reference) > 1e-10

    @pytest.mark.parametrize("params, config, grid, kwargs", [
        (LinkParams(fiber_length=500e3), WIDE, GridSpec(n_points=4096), {}),
        (replace(CAL_500KM, fiber_length=5000e3), WIDE, GridSpec(n_points=1024), {}),
        (CAL_500KM, WIDE, RELATIVE,
         {"precomp": compensated(500e3, 0.6, convention="calibrated")[1]}),
    ], ids=["500km-4096-points", "5000km", "500km-compensated"])
    def test_budget_counts_the_peak(self, params, config, grid, kwargs):
        eval_oracle(params, config, grid, **kwargs)  # numpy's FFT module loads on first use
        tracemalloc.start()
        try:
            curve = eval_oracle(params, config, grid, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= spectra._oracle_bytes(curve.checks["n_k"], curve.checks["fold_length"])

    @pytest.mark.parametrize("params, config, grid, kwargs", [
        pytest.param(replace(CAL_500KM, fiber_length=length), WIDE, GridSpec(n_points=256), {},
                     id=f"{length / 1e3:g}km")
        for length in (50e3, 500e3)
    ] + [
        pytest.param(replace(CAL_500KM, fiber_length=5000e3), WIDE, GridSpec(n_points=64), {},
                     id="5000km"),
        pytest.param(CAL_500KM, replace(WIDE, delta_c=0.05), GridSpec(n_points=256), {},
                     id="delta_c-0.05m"),
        pytest.param(CAL_500KM, WIDE, RELATIVE,
                     {"precomp": compensated(500e3, 0.6, convention="calibrated")[1]},
                     id="500km-compensated-pre"),
    ])
    def test_factored_rows_match_reference(self, monkeypatch, params, config, grid, kwargs):
        (d, _, n_k, du, alpha_half, start), rows = spied_rows(monkeypatch, params, config, grid,
                                                           kwargs)
        u = oracle_axis(n_k, du)
        alpha_in = mirrored(alpha_half, n_k)
        precomp = kwargs.get("precomp")
        # the carrier of the grid's first point, measured from the linear path
        center = (2.0 * params.group_index * params.leg_length + 2.0 * d.delta1 * d.k0
                  + 0.5 * (pair_sum(config, "cm") + pair_sum(config, "dc")))
        reference = (reference_transfer_rows(params, config, d, u, precomp)
                     * alpha_in * np.exp(1j * (center + start) * u))
        # the two forms drop different constant phases of psi
        reference *= np.exp(1j * np.angle(np.vdot(reference, rows)))
        assert np.max(np.abs(rows - reference)) <= 1e-7 * np.max(np.abs(rows))

    @pytest.mark.parametrize("params, config, grid, kwargs", [
        pytest.param(CAL_500KM, WIDE, GridSpec(n_points=256), {}, id="500km"),
        pytest.param(replace(CAL_500KM, fiber_length=5000e3), WIDE, GridSpec(n_points=64), {},
                     id="5000km"),
        pytest.param(CAL_500KM, replace(WIDE, delta_c=0.05), GridSpec(n_points=256), {},
                     id="delta_c-0.05m"),
        pytest.param(CAL_500KM, WIDE, RELATIVE,
                     {"precomp": compensated(500e3, 0.6, convention="calibrated")[1]},
                     id="500km-compensated"),
    ])
    def test_rows_match_extended_factored_form(self, monkeypatch, params, config, grid,
                                               kwargs):
        # The linear phases come from tables on the axis step du; a step
        # recovered as u[1] - u[0] reads 1.6e-6 of the rows at 5000 km.
        (d, _, n_k, du, _, start), rows = spied_rows(monkeypatch, params, config, grid, kwargs)
        u = oracle_axis(n_k, du)
        index = [*range(0, u.size, u.size // 200), u.size - 1]
        reference = np.array([mp_factored_rows(config, d, u[n], start) for n in index]).T
        assert np.max(np.abs(rows[:, index] - reference)) <= 1e-10 * np.max(np.abs(rows))

    @pytest.mark.parametrize("n_k, whole_blocks", [(400, True), (441, True), (401, False),
                                                   (402, False)])
    def test_rows_on_synthetic_axes(self, n_k, whole_blocks):
        # both parities of n_k, with the axis an exact number of blocks of
        # w = ceil(sqrt(n_k)) samples and with a partial last block
        assert (n_k % (math.isqrt(n_k - 1) + 1) == 0) == whole_blocks
        params, multiplier, _ = compensated(500e3, 0.3, convention="calibrated")
        config = replace(WIDE, delta_c=0.05)
        d = derive(params, precomp=multiplier)
        # over +-2 delta_k, not the oracle's +-10, so that the input spectrum
        # keeps the end samples, and the last block, above the bound
        du = 4.0 * d.delta_k / (n_k - 1)
        u = oracle_axis(n_k, du)
        rows = spectra._transfer_rows(d, config, n_k, du, input_spectrum(d, u[:(n_k + 1) // 2]),
                                       -3.1)
        reference = np.array([mp_factored_rows(config, d, value, -3.1) for value in u]).T
        assert np.max(np.abs(rows - reference)) <= 1e-10 * np.max(np.abs(rows))

    @pytest.mark.parametrize("length", [500e3, 5000e3])
    def test_no_phasor_on_the_whole_axis(self, monkeypatch, length):
        # every cosine and sine comes from a table of at most 4 ceil(sqrt(n_k))
        sizes = []
        unit_phasor = spectra._unit_phasor

        def spy(theta):
            sizes.append(np.size(theta))
            return unit_phasor(theta)

        monkeypatch.setattr(spectra, "_unit_phasor", spy)
        curve = eval_oracle(replace(CAL_500KM, fiber_length=length), WIDE,
                            GridSpec(n_points=256))
        assert sizes and max(sizes) <= 4 * math.ceil(math.sqrt(curve.checks["n_k"]))

    @pytest.mark.parametrize("params, config, grid, kwargs", FOLD_CASES)
    def test_ledger_sums_match_trapezoid(self, monkeypatch, params, config, grid, kwargs):
        (_, _, n_k, du, alpha_half, _), rows = spied_rows(monkeypatch, params, config, grid,
                                                       kwargs)
        checks = eval_oracle(params, config, grid, **kwargs).checks
        trapz = getattr(np, "trapezoid", None) or np.trapz
        alpha_in = mirrored(alpha_half, n_k)
        assert abs(checks["norm_in"] - trapz(alpha_in**2, dx=du)) <= 1e-14
        for key, row in zip(("mass_o_kspace", "mass_p_kspace"), rows):
            mass = 0.0625 * trapz(np.abs(row) ** 2, dx=du)
            assert abs(checks[key] - mass) <= 1e-14

    def test_axis_is_mirror_symmetric(self, monkeypatch):
        # the even factors are evaluated on half the axis and mirrored: the
        # input spectrum handed on is the first half of the whole axis's
        parities = set()
        for case in PARITY_CASES:
            (d, _, n_k, du, alpha_half, _), _ = spied_rows(monkeypatch, *case.values)
            parities.add(n_k % 2)
            u = oracle_axis(n_k, du)
            assert np.array_equal(u[::-1], -u)
            assert alpha_half.size == (n_k + 1) // 2
            assert np.array_equal(alpha_half, input_spectrum(d, u[:alpha_half.size]))
        assert parities == {0, 1}

    @pytest.mark.parametrize("params, config, grid, kwargs", PARITY_CASES)
    def test_input_norm_is_the_whole_axis_trapezoid(self, monkeypatch, params, config, grid,
                                                    kwargs):
        # norm_in comes from the half sum; the trapezoid rule on the whole
        # mirrored spectrum, evaluated directly on the whole axis, agrees
        (d, _, n_k, du, alpha_half, _), _ = spied_rows(monkeypatch, params, config, grid, kwargs)
        alpha_in = mirrored(alpha_half, n_k)
        assert np.array_equal(alpha_in, input_spectrum(d, oracle_axis(n_k, du)))
        trapz = getattr(np, "trapezoid", None) or np.trapz
        norm_in = eval_oracle(params, config, grid, **kwargs).checks["norm_in"]
        assert abs(norm_in - trapz(alpha_in**2, dx=du)) <= 1e-15


def _calibrated(length_m, **link):
    return LinkParams(fiber_length=length_m, convention="calibrated", **link)


# Inputs the hypothesis test does not vary: (link, shifter sum over 2 x_rho(1),
# delta_c, whether the oracle resolves it within its memory budget).
DOMAIN_CASES = [
    pytest.param(_calibrated(50e3), 2.0, 0.1, True, id="delta_c-0.1m"),
    pytest.param(LinkParams(fiber_length=50e3, dispersion=0.0), 2.0, 0.0, True, id="D-0"),
    pytest.param(_calibrated(50e3, leg_length=0.0), 2.0, 0.0, True, id="leg-length-0"),
    pytest.param(_calibrated(50e3, lambda0=1310e-9), 2.0, 0.0, True, id="1310nm"),
    pytest.param(_calibrated(50e3), 0.3, 0.0, True, id="overlapping-pulses"),
    pytest.param(_calibrated(1000e3), 2.0, 0.0, True, id="1000km"),
    pytest.param(_calibrated(2000e3), 2.0, 0.0, True, id="2000km"),
    pytest.param(_calibrated(5000e3), 2.0, 0.0, True, id="5000km"),
    pytest.param(LinkParams(fiber_length=5000e3), 2.0, 0.0, True,
                 id="5000km-first-principles"),
    pytest.param(LinkParams(fiber_length=20000e3), 2.0, 0.0, False,
                 id="20000km-first-principles"),
]


class TestOracleProperty:
    """Analytic and oracle routes agree over the validated domain."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(link=st.one_of(st.tuples(st.floats(0.0, 5000.0), st.just("calibrated")),
                          st.tuples(st.floats(0.0, 1500.0), st.just("first_principles"))),
           t_fiber=st.floats(0.05, 1.0), t_leg=st.floats(0.05, 1.0),
           sum_over_2x1=st.floats(1.0, 3.0), split=st.floats(0.2, 0.8),
           compensated_fraction=st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    def test_analytic_matches_oracle(self, link, t_fiber, t_leg, sum_over_2x1, split,
                                     compensated_fraction):
        length_km, convention = link
        params, multiplier, active = compensated(
            length_km * 1e3, compensated_fraction, convention=convention,
            t_fiber=t_fiber, t_leg=t_leg)
        shifter_sum = sum_over_2x1 * 2.0 * x_rho(derive(active).sigma, 1.0)
        config = MzConfig(delta_d=split * shifter_sum, delta_m=(1.0 - split) * shifter_sum)
        grid = GridSpec(n_points=512)
        oracle = eval_oracle(params, config, grid, precomp=multiplier)
        analytic = eval_analytic(active, config, grid)
        assert max_normalized_deviation(analytic, oracle) <= 1e-8

    @pytest.mark.parametrize("params, sum_over_2x1, delta_c, resolves", DOMAIN_CASES)
    def test_named_inputs(self, params, sum_over_2x1, delta_c, resolves):
        shifter_sum = sum_over_2x1 * 2.0 * x_rho(derive(params).sigma, 1.0)
        config = MzConfig(delta_d=0.55 * shifter_sum, delta_m=0.45 * shifter_sum,
                          delta_c=delta_c)
        grid = GridSpec(n_points=1024)
        if not resolves:
            with pytest.raises(ResolutionError, match="byte budget"):
                eval_oracle(params, config, grid)
            return
        deviation = max_normalized_deviation(eval_analytic(params, config, grid),
                                             eval_oracle(params, config, grid))
        assert deviation <= 1e-8


class TestTransmissionFactor:
    """Both routes evaluate the lossless link; printed absolute intensities scale it once."""

    T_FIBER, T_LEG = 0.3, 0.7

    @pytest.mark.parametrize("convention", ["first_principles", "calibrated"])
    @pytest.mark.parametrize("length", [0.0, 50e3, 500e3])
    def test_routes_scale_the_lossless_link(self, length, convention):
        lossless = LinkParams(fiber_length=length, convention=convention)
        lossy = replace(lossless, t_fiber=self.T_FIBER, t_leg=self.T_LEG)
        factor = self.T_FIBER * self.T_LEG**2
        config = MzConfig(delta_d=0.25, delta_m=0.25 + lossless.lambda0 / 8.0)
        terms = component_terms(derive(lossy), [config])
        unit_terms = component_terms(derive(lossless), [config])
        assert np.array_equal(terms.amp, unit_terms.amp)

        for route, grid in ((eval_analytic, None), (eval_oracle, GridSpec(n_points=1024))):
            curve, unit = route(lossy, config, grid), route(lossless, config, grid)
            assert np.array_equal(curve.intensity_o, unit.intensity_o)
            assert np.array_equal(curve.intensity_p, unit.intensity_p)
            _, yo, yp = curve_arrays(curve, "absolute")
            assert np.array_equal(yo, unit.intensity_o * factor)
            assert np.array_equal(yp, unit.intensity_p * factor)
        # the oracle's ledger is the lossless link's
        assert curve.checks == unit.checks


class TestMasses:
    def test_matched_basis_routes_to_one_exit(self):
        curve = eval_analytic(CAL_50KM, MATCHED)
        mass_o, mass_p = middle_window_masses(curve, WINDOW_RHO)
        assert mass_o / (mass_o + mass_p) > 0.999
        assert mass_p >= 0.0

    def test_quarter_wave_offset_splits_evenly(self):
        lam = CAL_50KM.lambda0
        config = MzConfig(delta_d=0.25, delta_m=0.25 + lam / 4.0)
        curve = eval_analytic(CAL_50KM, config)
        mass_o, mass_p = middle_window_masses(curve, WINDOW_RHO)
        assert mass_o / (mass_o + mass_p) == pytest.approx(0.5, abs=0.01)

    def test_total_mass_invariant_under_reader_phase(self):
        lam = CAL_50KM.lambda0
        grid = GridSpec(n_points=2048, pad_sigmas=8.0)
        totals = []
        middle_sums = []
        for offset in (0.0, lam / 4.0, lam / 2.0, 3.0 * lam / 4.0):
            config = MzConfig(delta_d=0.25, delta_m=0.25 + offset)
            curve = eval_analytic(CAL_50KM, config, grid)
            totals.append(sum(total_mass(curve)))
            middle_sums.append(sum(middle_window_masses(curve, WINDOW_RHO)))
        assert max(totals) - min(totals) < 1e-6 * max(totals)
        # the middle window trades mass between exits but conserves their sum
        assert max(middle_sums) - min(middle_sums) < 1e-6 * max(middle_sums)

    def test_total_mass_scales_with_transmissions(self):
        params = replace(CAL_50KM, t_fiber=0.8, t_leg=0.9)
        curve = eval_analytic(params, MATCHED, GridSpec(n_points=2048, pad_sigmas=8.0))
        assert sum(total_mass(curve)) == pytest.approx(0.5, rel=1e-6)
        x, yo, yp = curve_arrays(curve, "absolute", relative_axis=True)
        trapz = getattr(np, "trapezoid", None) or np.trapz
        assert float(trapz(yo, x) + trapz(yp, x)) == pytest.approx(0.8 * 0.81 * 0.5, rel=1e-6)

    def test_window_outside_grid_rejected(self):
        curve = eval_analytic(CAL_50KM, MATCHED)
        with pytest.raises(ValueError):
            middle_window_masses(curve, 40.0)
        with pytest.raises(ValueError):
            middle_window_masses(curve, 0.0)


def mp_faddeeva(z):
    """w(z) = exp(-z^2) erfc(-i z) at 30 significant digits."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))


def recorded_faddeeva_arguments(monkeypatch, tables):
    """Every w argument that detection_table forms for the given (params, baseline)."""
    seen = []
    exact = spectra._faddeeva

    def recording(z):
        seen.append(np.ravel(z))
        return exact(z)

    monkeypatch.setattr(spectra, "_faddeeva", recording)
    for params, baseline in tables:
        detection_table(params, baseline)
    monkeypatch.undo()
    return np.concatenate(seen)


class TestFaddeeva:
    def test_matches_extended_reference(self, monkeypatch):
        rng = np.random.default_rng(7)
        real = np.concatenate((np.linspace(-200.0, 200.0, 41), rng.uniform(-200.0, 200.0, 9)))
        imag = np.array([0.0, 1e-9, 1e-4, 0.01, 0.3, 1.0, 2.5, 6.0, 15.0, 40.0, 100.0, 200.0])
        grid = (real[:, None] + 1j * imag[None, :]).ravel()
        # near-real arguments: large |Re z| (s = dd slope / (2 sqrt(p))) over
        # Im z of a few units (the window edges)
        used = recorded_faddeeva_arguments(monkeypatch, [
            (CAL_50KM, 0.25), (CAL_500KM, default_baseline(CAL_500KM))])
        assert np.max(np.abs(used.real)) > 200.0
        assert np.any(np.abs(used.imag) < 0.01 * np.abs(used.real))
        for z in (grid, used):
            reference = np.array([mp_faddeeva(v) for v in z])
            error = np.abs(spectra._faddeeva(z) - reference) / np.abs(reference)
            assert error.max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_horner_loop_is_polyval(self, n):
        # the in-place loop runs np.polyval's operations in its order, so the
        # window masses keep every bit
        rng = np.random.default_rng(n)
        z = rng.uniform(-200.0, 200.0, (2, n, 6)) + 1j * rng.uniform(0.0, 10.0, (2, n, 6))
        denominator = spectra._W_SCALE - 1j * z
        poly = np.polyval(spectra._W_COEFFS, (spectra._W_SCALE + 1j * z) / denominator)
        reference = 2.0 * poly / denominator**2 + 1.0 / (math.sqrt(math.pi) * denominator)
        assert np.array_equal(spectra._faddeeva(z), reference)


class TestExactWindowMasses:
    def test_grid_disagreement_shrinks_with_grid_size(self):
        baseline = default_baseline(CAL_500KM)
        configs = [MzConfig(delta_d=baseline + pd, delta_m=baseline + pm)
                   for pd in (0.0, 0.25 * CAL_500KM.lambda0, 0.5 * CAL_500KM.lambda0)
                   for pm in (0.0, 0.25 * CAL_500KM.lambda0)]
        exact = exact_window_masses(component_terms(derive(CAL_500KM), configs),
                                    MIDDLE_WINDOW_RHO)
        disagreement = []
        for n_points in (4096, 16384, 65536):
            sampled = np.array([
                middle_window_masses(eval_analytic(CAL_500KM, config, GridSpec(n_points=n_points)),
                                     MIDDLE_WINDOW_RHO)
                for config in configs])
            disagreement.append(np.max(np.abs(sampled - exact)))
        # the trapezoid rule is second order: 4x the points, ~16x less error
        assert disagreement[1] <= disagreement[0] / 4.0
        assert disagreement[2] <= disagreement[1] / 4.0

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            exact_window_masses(component_terms(derive(CAL_50KM), [MATCHED]), 0.0)

    def test_needs_a_setting(self):
        with pytest.raises(ValueError, match="needs at least one shifter setting"):
            component_terms(derive(CAL_50KM), [])


def random_settings(rng, n):
    """n shifter settings around one baseline: table-sized offsets, some delta_c > 0."""
    baseline = float(rng.uniform(0.05, 2.0))
    return [MzConfig(delta_d=baseline + float(rng.uniform(0.0, 2e-6)),
                     delta_m=baseline + float(rng.uniform(0.0, 2e-6)),
                     delta_c=float(rng.uniform(0.0, 0.05)) if rng.random() < 0.5 else 0.0)
            for _ in range(n)]


class TestTermBatch:
    """The term lists of many settings in one pass, row by row the one-setting case."""

    def test_rows_equal_one_setting_bit_for_bit(self):
        rng = np.random.default_rng(2022)
        for trial in range(24):
            params = LinkParams(fiber_length=float(rng.uniform(0.0, 500e3)),
                                convention=("first_principles", "calibrated")[trial % 2],
                                t_leg=float(rng.uniform(0.5, 1.0)))
            configs = random_settings(rng, int(rng.integers(1, 10)))
            configs += configs[:2]  # repeated settings
            batch = component_terms(derive(params), configs)
            masses = exact_window_masses(batch, MIDDLE_WINDOW_RHO)
            for i, config in enumerate(configs):
                one = component_terms(derive(params), [config])
                assert np.array_equal(batch.amp[i], one.amp[0])
                assert np.array_equal(batch.center[i], one.center[0])
                assert np.array_equal(batch.dd[i], one.dd[0])
                assert (batch.p, batch.k0, batch.slope) == (one.p, one.k0, one.slope)
                assert np.array_equal(masses[i], exact_window_masses(one, MIDDLE_WINDOW_RHO)[0])


class TestCurveStructure:
    def test_grid_strictly_increasing_and_aligned(self):
        curve = eval_analytic(CAL_50KM, MATCHED, GridSpec(n_points=128))
        assert np.all(np.diff(curve.x) > 0)
        assert curve.x.size == curve.intensity_o.size == curve.intensity_p.size == 128

    def test_intensities_clipped_to_non_negative(self):
        curve = eval_analytic(CAL_50KM, MATCHED)
        assert curve.intensity_o.min() >= 0.0
        assert curve.intensity_p.min() >= 0.0

    @pytest.mark.parametrize("params", [LinkParams(fiber_length=50e3), CAL_500KM] + [
        LinkParams(fiber_length=length, convention=convention)
        for length in (0.0, 1e3) for convention in ("first_principles", "calibrated")
    ], ids=["50km", "500km-calibrated", "0km", "0km-calibrated", "1km", "1km-calibrated"])
    @pytest.mark.parametrize("n_points", [1000, 1024, 1025, 2049, 4096])
    def test_blocks_match_one_whole_grid_product(self, monkeypatch, params, n_points):
        # the terms are evaluated a block of offsets at a time, without those
        # whose amplitude underflowed to 0; neither may change a bit of the
        # whole-grid product of all ten terms, signs of zero included
        config = MzConfig(delta_d=0.25, delta_m=0.25 + params.lambda0 / 8.0)
        summed = []
        clip = spectra._clip_rounding_noise

        def spy(values, what, floor):
            summed.append(values.copy())
            return clip(values, what, floor)

        monkeypatch.setattr(spectra, "_clip_rounding_noise", spy)
        curve = eval_analytic(params, config, GridSpec(n_points=n_points))
        terms = component_terms(curve.derived, [config])
        # on the short links the pulses are millimeters wide: five of the six
        # cross terms join means too far apart to leave any amplitude
        vanished = np.count_nonzero(terms.amp[0] == 0.0, axis=1)
        assert np.array_equal(vanished, [5, 5] if params.fiber_length <= 1e3 else [0, 0])
        whole = np.einsum("et,tn->en", terms.amp[0], terms.shapes(curve.x_relative)[0])
        assert summed[0].tobytes() == whole.tobytes()
        assert np.stack((curve.intensity_o, curve.intensity_p)).tobytes() == \
            np.maximum(whole, 0.0).tobytes()

    def test_relative_axis_centers_middle_pulse(self):
        curve = eval_analytic(CAL_50KM, MATCHED)
        mid = curve.x_relative[np.argmax(curve.intensity_o
                                         * (np.abs(curve.x_relative) < 0.1))]
        assert abs(mid) < 5 * (curve.x[1] - curve.x[0])


def whole_grid_shapes(terms, offset):
    """Every term's exp(-p y^2) cos(phase) with each exp and cosine taken on the whole grid."""
    y = offset - terms.center[..., None]
    shape = np.exp(-terms.p * y * y)
    cross = slice(len(PAIRS), None)
    shape[:, cross] *= np.cos(terms.dd[:, cross, None] * (terms.k0 + terms.slope * y[:, cross]))
    return shape


# Links for the support cut: short links whose terms underflow over most of
# the grid, longer ones, and compensated links' analytic curves (the active
# length on the +-2 m relative grid of a compensated oracle check).
SUPPORT_CASES = [
    pytest.param(LinkParams(fiber_length=length, convention=convention), MATCHED, None,
                 id=f"{length / 1e3:g}km-{convention}")
    for length in (0.0, 1e3, 50e3, 500e3) for convention in ("first_principles", "calibrated")
] + [
    pytest.param(_calibrated(length), MzConfig(delta_d=0.7, delta_m=0.65), (-2.0, 2.0),
                 id=f"compensated-{length / 1e3:g}km-relative")
    for length in (25e3, 92e3, 250e3)
]


class TestSupportCut:
    """Terms are evaluated only where their envelope has not underflowed; no bit moves."""

    @pytest.mark.parametrize("params, config, bounds", SUPPORT_CASES)
    @pytest.mark.parametrize("n_points", [1024, 4096])
    def test_matches_whole_grid_evaluation(self, monkeypatch, params, config, bounds, n_points):
        grid = (GridSpec(n_points=n_points) if bounds is None else
                GridSpec(n_points=n_points, x_min=bounds[0], x_max=bounds[1], relative=True))
        summed = []
        clip = spectra._clip_rounding_noise

        def spy(values, what, floor):
            summed.append(values.copy())
            return clip(values, what, floor)

        monkeypatch.setattr(spectra, "_clip_rounding_noise", spy)
        curve = eval_analytic(params, config, grid)
        terms = component_terms(curve.derived, [config])
        blocks = np.array_split(curve.x_relative, -(-n_points // spectra._BLOCK))
        whole = np.concatenate([np.einsum("et,tn->en", terms.amp[0],
                                          whole_grid_shapes(terms, block)[0])
                                for block in blocks], axis=1)
        assert summed[0].tobytes() == whole.tobytes()
        assert np.stack((curve.intensity_o, curve.intensity_p)).tobytes() == \
            np.maximum(whole, 0.0).tobytes()
        # pulses of millimeters (0-1 km) or centimeters on +-2 m (25 and 92 km)
        # take the cut; wider ones keep every term on the whole grid
        y = curve.x_relative[[0, -1]] - terms.center[0, :, None]
        cut = float((-terms.p * y * y).min()) < spectra._EXP_CUT
        assert cut == (params.fiber_length <= (100e3 if bounds else 1e3))

    def test_cut_leaves_zeros_where_exp_underflows(self):
        # every value dropped by the cut is one float64's exp rounds to +0
        assert np.exp(spectra._EXP_CUT) == 0.0
        assert np.exp(np.nextafter(spectra._EXP_CUT, 0.0)) == 0.0
        assert np.exp(-1075.0 * math.log(2.0) + 0.01) > 0.0
        curve = eval_analytic(LinkParams(fiber_length=0.0), MATCHED, GridSpec(n_points=1024))
        terms = component_terms(curve.derived, [MATCHED])
        shapes = terms.shapes(curve.x_relative)
        y = curve.x_relative - terms.center[..., None]
        below = -terms.p * y * y < spectra._EXP_CUT
        assert below.any() and not below.all()
        assert np.all(shapes[below] == 0.0) and not np.signbit(shapes[below]).any()

    @pytest.mark.parametrize("lo, hi, n", [
        (-3.7, 2.1, 2), (-3.7, 2.1, 3), (-0.731, 0.694, 1024), (-12.5, 1234.5, 4097),
        (1e-3, 1e-3 + 1e-12, 1024),
        # a span whose step underflows to 0: numpy's branch for it
        (0.0, 5e-324, 3), (-5e-324, 1e-323, 4097),
    ])
    def test_offsets_are_linspace(self, lo, hi, n):
        offsets = spectra._offsets(lo, hi, n)
        assert offsets.tobytes() == np.linspace(lo, hi, n).tobytes()
        assert ((hi - lo) / (n - 1) == 0.0) == (hi - lo < 1e-300)

    @pytest.mark.parametrize("params, config, bounds", SUPPORT_CASES[:4] + SUPPORT_CASES[-1:])
    @pytest.mark.parametrize("n_points", [2, 3, 1024, 4097])
    def test_position_grid_is_linspace(self, params, config, bounds, n_points):
        grid = (GridSpec(n_points=n_points) if bounds is None else
                GridSpec(n_points=n_points, x_min=bounds[0], x_max=bounds[1], relative=True))
        offsets = spectra._position_grid(params, config, grid)[2]
        assert offsets.tobytes() == np.linspace(offsets[0], offsets[-1], n_points).tobytes()


class TestVerificationGuards:
    @pytest.mark.parametrize("shift, same_grid", [(5e-13, True), (2e-12, False),
                                                  (math.nan, False)],
                             ids=["5e-13", "2e-12", "nan"])
    def test_deviation_grid_tolerance(self, shift, same_grid):
        # the grids must agree to 1e-12 m; a NaN offset never agrees
        a = eval_analytic(CAL_50KM, MATCHED, GridSpec(n_points=256))
        offset = a.x_relative.copy()
        offset[100] += shift
        b = replace(a, x_relative=offset)
        if same_grid:
            assert max_normalized_deviation(a, b) == 0.0
        else:
            with pytest.raises(ValueError, match="different relative grids"):
                max_normalized_deviation(a, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_clip_rejects_non_finite(self, bad):
        values = np.linspace(0.0, 1.0, 64).reshape(2, 32)
        values[1, 7] = bad
        with pytest.raises(VerificationError, match="non-finite intensity"):
            spectra._clip_rounding_noise(values, "intensity", 1.0)

    def test_clip_keeps_rounding_noise_and_rejects_sign_errors(self):
        clip = spectra._clip_rounding_noise
        # a floor at or below the largest value changes nothing
        for floor in (0.0, 1.0):
            values = np.array([1.0, -0.5e-10, 0.25])
            assert np.array_equal(clip(values, "mass", floor), [1.0, 0.0, 0.25])
            values[1] = -2e-10
            with pytest.raises(VerificationError, match="negative mass beyond rounding noise"):
                clip(values, "mass", floor)
        # a dark exit: its largest value is rounding noise itself, and its
        # negatives are noise against the floor of one leg-pair Gaussian
        dark = np.array([1.1e-16, -1.1e-16, 0.0])
        assert np.array_equal(clip(dark, "intensity", 0.316), [1.1e-16, 0.0, 0.0])
        with pytest.raises(VerificationError, match="negative intensity beyond rounding noise"):
            clip(dark, "intensity", 0.0)
        # a real sign error still fails against the floor
        dark[1] = -1e-6
        with pytest.raises(VerificationError, match="negative intensity beyond rounding noise"):
            clip(dark, "intensity", 0.316)


class TestBroadeningSymmetry:
    def test_gamma_even_in_accumulated_dispersion(self):
        # overcompensation flips the sign of the accumulated dispersion;
        # the broadening factor and width must not change
        d = derive(CAL_50KM)
        flipped = derive(CAL_50KM, precomp=PrecompMultiplier(b_cp=-2.0 * d.delta1))
        assert flipped.delta1 == pytest.approx(-d.delta1, rel=1e-12)
        assert flipped.gamma == pytest.approx(d.gamma, rel=1e-12)
        assert flipped.sigma == pytest.approx(d.sigma, rel=1e-12)

    def test_sigma_strictly_increasing_in_magnitude(self):
        d = derive(CAL_50KM)
        partial = derive(CAL_50KM, precomp=PrecompMultiplier(b_cp=-0.5 * d.delta1))
        assert partial.sigma < d.sigma


class TestPrecompensation:
    def test_full_cancellation_restores_input_width(self):
        d = derive(CAL_50KM)
        full = PrecompMultiplier(b_cp=d.kappa * (CAL_50KM.fiber_length
                                                 + 2 * CAL_50KM.leg_length))
        moments = derive(CAL_50KM, precomp=full)
        assert moments.delta1 == pytest.approx(0.0, abs=1e-20)
        assert moments.sigma == pytest.approx(1.0 / (2.0 * d.delta_k), rel=1e-12)

    def test_compensated_curve_carries_compensated_record(self):
        # with an element, delta1 gains b_cp, the width follows from the one
        # broadening formula and the window center moves by a_cp + 2 b_cp k0;
        # the oracle curve reads its width and center from that record alone
        params, multiplier, _ = compensated(500e3, 0.9, convention="calibrated")
        plain = derive(params)
        d = derive(params, precomp=multiplier)
        delta1 = plain.delta1 + multiplier.b_cp
        gamma, sigma = broadening(plain.delta_k, delta1)
        assert d.delta1 == pytest.approx(delta1, rel=1e-12)
        assert d.gamma == pytest.approx(gamma, rel=1e-12)
        assert d.sigma == pytest.approx(sigma, rel=1e-12)
        grid = GridSpec(n_points=256)
        curve = eval_oracle(params, WIDE, grid, precomp=multiplier)
        plain_curve = eval_oracle(params, WIDE, grid)
        assert curve.window_center == pytest.approx(
            plain_curve.window_center + multiplier.a_cp + 2.0 * multiplier.b_cp * plain.k0,
            rel=1e-12)
        assert curve.derived == d

    def test_identity_multiplier_is_noop(self):
        params = LinkParams(fiber_length=2e3)
        config = MzConfig(delta_d=0.08, delta_m=0.075)
        grid = GridSpec(n_points=512)
        plain = eval_oracle(params, config, grid)
        with_identity = eval_oracle(params, config, grid,
                                    precomp=PrecompMultiplier())
        assert max_normalized_deviation(plain, with_identity) < 1e-14

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            PrecompMultiplier(a_cp=math.inf)
        with pytest.raises(ValueError):
            PrecompMultiplier(b_cp=float("nan"))

    @pytest.mark.parametrize("grid", [GridSpec(), RELATIVE], ids=["default", "relative"])
    def test_compensated_curve_shares_relative_grid(self, grid):
        params, multiplier, active = compensated(500e3, 0.9, convention="calibrated")
        oracle = eval_oracle(params, WIDE, grid, precomp=multiplier)
        analytic = eval_analytic(active, WIDE, grid)
        assert np.max(np.abs(oracle.x_relative - analytic.x_relative)) <= 1e-12
        assert max_normalized_deviation(analytic, oracle) <= 1e-8

    def test_relative_axis_comparison_detects_grid_mismatch(self):
        a = eval_analytic(CAL_50KM, MATCHED, GridSpec(n_points=256))
        b = eval_analytic(CAL_50KM, MATCHED, GridSpec(n_points=512))
        with pytest.raises(ValueError):
            max_normalized_deviation(a, b)
