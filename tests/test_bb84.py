import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mzqkd import bb84, core, design, spectra
from mzqkd.bb84 import (MIDDLE_WINDOW_RHO, _g_term, default_baseline, detection_table,
                        g_term_analysis)
from mzqkd.core import LinkParams, MzConfig, PAIRS, derive, x_rho
from mzqkd.errors import InfeasibleDesignError
from mzqkd.spectra import CROSS_PAIRS, component_terms, exact_window_masses
from mzqkd.units import dispersion_to_si

CAL_50KM = LinkParams(fiber_length=50e3, convention="calibrated")
LAM = CAL_50KM.lambda0


# ------------------------------------------ the paper's factored form (test-only)

def g_term_value(derived):
    """Signed dispersion-correction coefficient G of one link, 1/m.  Zero without dispersion."""
    return float(_g_term(derived.params.lambda0, derived.gamma, derived.delta1))


def z_difference(params, config, delta_x, pair_a, pair_b):
    """Phase difference z_a - z_b at offset delta_x from the symbol center, two ways.

    Returns (exact, factored): ``exact`` is the phase of the pair's cross term
    in ``spectra.component_terms``, dd (k0 + slope (delta_x - center)), the
    per-pair phases with their common part cancelled algebraically;
    ``factored`` evaluates (2*pi/lambda0)*(shifter-sum difference)*(1 + G*[delta_x + s])
    where s recenters for the pairs involved.  The two agree to rounding error.
    """
    d = derive(params)
    for pair in (pair_a, pair_b):
        if pair not in PAIRS:
            raise ValueError(f"unknown leg pair {pair!r}")
    if abs(delta_x) > 5.0 * d.sigma:
        raise ValueError("delta_x outside +-5 sigma of the symbol center")
    terms = component_terms(d, [config])
    [dd], [center] = terms.dd, terms.center
    term = len(PAIRS) + CROSS_PAIRS.index((pair_a, pair_b))
    exact = float(dd[term] * (terms.k0 + terms.slope * (delta_x - center[term])))
    shifter = {"c": config.delta_c, "d": config.delta_d, "m": config.delta_m}
    dsum_a = shifter[pair_a[0]] + shifter[pair_a[1]]
    dsum_b = shifter[pair_b[0]] + shifter[pair_b[1]]
    recenter = delta_x + 0.5 * (config.delta_d + config.delta_m - dsum_a - dsum_b)
    factored = (2.0 * math.pi / params.lambda0) * (dsum_a - dsum_b) \
        * (1.0 + g_term_value(d) * recenter)
    return SimpleNamespace(exact=exact, factored=factored)


class TestPhaseTables:
    """The offsets as the truth table's rows carry them."""

    @pytest.fixture(scope="class")
    def table(self):
        return detection_table(CAL_50KM, default_baseline(CAL_50KM))

    @pytest.mark.parametrize("basis,bit,fraction", [
        ("X", 0, 0.0), ("X", 1, 0.5), ("Z", 0, 0.25), ("Z", 1, 0.75),
    ])
    def test_alice_offsets(self, table, basis, bit, fraction):
        for bob_basis in ("X", "Z"):
            row = table.row(basis, bit, bob_basis)
            assert row.phi_d == pytest.approx(fraction * LAM, rel=1e-15)

    @pytest.mark.parametrize("basis,fraction", [("X", 0.0), ("Z", 0.25)])
    def test_bob_offsets(self, table, basis, fraction):
        for alice_basis in ("X", "Z"):
            for bit in (0, 1):
                row = table.row(alice_basis, bit, basis)
                assert row.phi_m == pytest.approx(fraction * LAM, rel=1e-15)

    def test_total_shift_includes_baseline(self):
        row = detection_table(CAL_50KM, 0.25).row("Z", 1, "Z")
        config = MzConfig(delta_d=0.25 + 0.75 * LAM, delta_m=0.25 + 0.25 * LAM)
        [(mass_o, mass_p)] = exact_window_masses(
            component_terms(derive(CAL_50KM), [config]), MIDDLE_WINDOW_RHO)
        assert (row.mass_o, row.mass_p) == pytest.approx((mass_o, mass_p), rel=1e-14)


class TestZDifference:
    def test_center_value_is_pure_phase_difference(self):
        phi_d, phi_m = 0.0, LAM / 4.0
        config = MzConfig(delta_d=0.25 + phi_d, delta_m=0.25 + phi_m)
        result = z_difference(CAL_50KM, config, 0.0, "cm", "dc")
        expected = (2.0 * math.pi / LAM) * (phi_m - phi_d)
        # storing baseline+offset in float64 quantizes the offset at ~1e-10
        assert result.exact == pytest.approx(expected, rel=1e-9)
        assert result.factored == pytest.approx(expected, rel=1e-9)
        assert result.exact == pytest.approx(result.factored, rel=1e-12)

    def test_equal_phases_vanish(self):
        config = MzConfig(delta_d=0.25, delta_m=0.25)
        result = z_difference(CAL_50KM, config, 0.0, "cm", "dc")
        assert result.exact == 0.0
        assert result.factored == 0.0

    def test_exact_and_factored_agree_off_center(self):
        params = LinkParams(fiber_length=2e3)
        d = derive(params)
        config = MzConfig(delta_d=0.05, delta_m=0.05 + LAM / 4.0)
        result = z_difference(params, config, 3.0 * d.sigma, "cm", "dc")
        rel = abs(result.exact - result.factored) / abs(result.factored)
        assert rel < 1e-8
        # both stay below the large-length correction plateau of 3*dlam/lam0
        assert abs(result.exact / result.factored - 1.0) < 6e-4

    def test_correction_grows_away_from_center(self):
        params = LinkParams(fiber_length=2e3)
        d = derive(params)
        config = MzConfig(delta_d=0.05, delta_m=0.05 + LAM / 4.0)
        base = (2.0 * math.pi / LAM) * (LAM / 4.0)
        off = z_difference(params, config, 3.0 * d.sigma, "cm", "dc")
        assert abs(off.exact - base) > 0.0
        assert abs(off.exact - base) / base < 1e-3

    def test_validation(self):
        config = MzConfig()
        with pytest.raises(ValueError):
            z_difference(CAL_50KM, config, 0.0, "cm", "xx")
        d = derive(CAL_50KM)
        with pytest.raises(ValueError):
            z_difference(CAL_50KM, config, 6.0 * d.sigma, "cm", "dc")


class TestGTerm:
    def test_zero_without_dispersion(self):
        params = LinkParams(dispersion=0.0, fiber_length=0.0, leg_length=0.0)
        assert g_term_value(derive(params)) == 0.0

    def test_argmax_matches_closed_form(self):
        params = LinkParams()
        lengths = np.linspace(50.0, 2000.0, 1951)
        analysis = g_term_analysis(params, lengths)
        assert analysis.argmax_length == pytest.approx(analysis.analytic_argmax, rel=0.01)

    def test_decays_monotonically_beyond_maximum(self):
        params = LinkParams()
        lengths = np.linspace(50.0, 20000.0, 2000)
        analysis = g_term_analysis(params, lengths)
        magnitudes = np.abs(analysis.g_values)
        peak = int(np.argmax(magnitudes))
        assert np.all(np.diff(magnitudes[peak:]) <= 0)

    def test_small_length_limit(self):
        params = LinkParams(leg_length=0.0)
        analysis = g_term_analysis(params, np.array([0.5, 390.0]))
        assert abs(analysis.g_values[0]) < 0.005 * abs(analysis.g_values[1])

    def test_exactly_zero_at_degenerate_geometry(self):
        params = LinkParams(leg_length=0.0, fiber_length=0.0)
        assert g_term_value(derive(params)) == 0.0

    def test_second_term_plateau(self):
        params = LinkParams()
        analysis = g_term_analysis(params, np.array([100e3]))
        plateau = 3.0 * params.delta_lambda / params.lambda0
        assert analysis.second_terms[0] == pytest.approx(plateau, rel=0.01)

    def test_calibrated_argmax_near_reference(self):
        params = LinkParams(convention="calibrated")
        analysis = g_term_analysis(params, np.array([1000.0]))
        # reference curve places the maximum near 1.236 km
        assert analysis.analytic_argmax == pytest.approx(1236.0, rel=0.01)

    def test_rejects_bad_sweeps(self):
        with pytest.raises(ValueError):
            g_term_analysis(LinkParams(), [])
        with pytest.raises(ValueError):
            g_term_analysis(LinkParams(), [-5.0])
        with pytest.raises(ValueError):
            g_term_analysis(LinkParams(), [10.0, math.nan])

    @pytest.mark.parametrize("fields, message", [
        # 1/(4 dk^2 kappa) would overflow: the spread is refused first
        ({"delta_lambda": 1e-165}, "delta_lambda must lie in [1e-13, 1e-07], got 1e-165"),
        # 4 dk^2 kappa would underflow to 0: the spread is refused first
        ({"delta_lambda": 1e-166, "dispersion": 1e-206},
         "delta_lambda must lie in [1e-13, 1e-07], got 1e-166"),
    ], ids=["overflow", "underflow"])
    def test_rejects_an_argmax_beyond_the_float_range(self, fields, message):
        with pytest.raises(ValueError) as caught:
            LinkParams(**fields)
        assert str(caught.value) == message
        # inside the domain the analytic argmax is finite: at the narrowest
        # spread and the weakest dispersion it reads about 2e14 m
        narrowest = LinkParams(delta_lambda=1e-13, dispersion=dispersion_to_si(1e-3),
                               convention="calibrated")
        assert 0.0 < g_term_analysis(narrowest, [1e3, 1e8]).analytic_argmax < 1e20

    def test_rejects_a_g_that_rounds_to_0_everywhere(self):
        # at a length of 1e-297 m without legs, 16 dk^4 delta1^2 underflows, so
        # gamma is 1 and G is 0 at every length
        with pytest.raises(ValueError, match=r"G rounds to 0 at every length .*"
                                             r"\(delta_k .* kappa .*\)"):
            g_term_analysis(LinkParams(leg_length=0.0), [0.0, 1e-297])

    @pytest.mark.parametrize("leg_length", [1.0, 0.0])
    def test_sweep_equals_scalar_value(self, leg_length):
        params = LinkParams(convention="calibrated", leg_length=leg_length)
        lengths = np.array([0.0, 0.5, 1236.0, 50e3, 500e3])
        analysis = g_term_analysis(params, lengths, delta_c=0.01)
        for length, g, second in zip(lengths, analysis.g_values, analysis.second_terms):
            d = derive(replace(params, fiber_length=float(length)))
            assert g == g_term_value(d)
            assert second == abs(g_term_value(d) * (3.0 * d.sigma - 0.01))


def gauss_legendre_masses(params, config, rho_window, panels=256, nodes=64):
    """Middle-window masses of both exits by composite Gauss-Legendre quadrature.

    Integrates the pointwise term list on ``panels`` equal panels of
    ``nodes`` nodes each; the fringes of the cross terms are resolved by
    many nodes per period at every length tested.
    """
    terms = component_terms(derive(params), [config])
    half = x_rho(derive(params).sigma, rho_window)
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(-half, half, panels + 1)
    center, scale = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x = (center[:, None] + scale[:, None] * t).ravel()
    return (terms.amp[0] @ terms.shapes(x)[0]) @ (scale[:, None] * w).ravel()


@pytest.fixture(scope="module")
def table():
    return detection_table(CAL_50KM, baseline=0.25)


def test_detection_table_derives_the_link_a_fixed_number_of_times(monkeypatch):
    # one derive for the baseline, whose record serves every setting's term
    # list; a loop over the settings would derive once per setting
    d = core.derive(CAL_50KM)
    calls = []
    exact = core.derive

    def counting(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)
    # every module that derives looks the name up in its own namespace
    for module in (bb84, core, design, spectra):
        monkeypatch.setattr(module, "derive", counting)
    detection_table(CAL_50KM, baseline=0.25)
    assert len(calls) == 1
    for n in (1, 8, 50):
        calls.clear()
        exact_window_masses(component_terms(d, [MzConfig(delta_d=0.25, delta_m=0.25 + i * LAM / 8)
                                                for i in range(n)]), MIDDLE_WINDOW_RHO)
        assert calls == []


class TestDetectionTable:
    def test_has_eight_rows(self, table):
        assert len(table.rows) == 8
        combos = {(r.alice_basis, r.bit, r.bob_basis) for r in table.rows}
        assert len(combos) == 8

    def test_matched_bases_route_correctly(self, table):
        assert table.row("X", 0, "X").p_o > 0.999
        assert table.row("X", 1, "X").p_p > 0.999
        assert table.row("Z", 0, "Z").p_o > 0.999
        assert table.row("Z", 1, "Z").p_p > 0.999

    def test_mismatched_bases_are_ambiguous(self, table):
        for alice_basis, bit, bob_basis in (("X", 0, "Z"), ("X", 1, "Z"),
                                            ("Z", 0, "X"), ("Z", 1, "X")):
            row = table.row(alice_basis, bit, bob_basis)
            assert row.p_o == pytest.approx(0.5, abs=0.01)

    def test_bit_flip_swap_scale(self, table):
        # The residual window-position correction leaves a share asymmetry of
        # order (pi*dlam/lam0)^2/4 ~ 1e-7 between the two bits of one basis.
        for basis in ("X", "Z"):
            asym = abs(table.row(basis, 0, basis).p_o - table.row(basis, 1, basis).p_p)
            assert asym < 5e-7

    @staticmethod
    def bit_flip_asymmetry(table):
        return max(abs(table.row(basis, 0, basis).p_o - table.row(basis, 1, basis).p_p)
                   for basis in ("X", "Z"))

    def test_bit_flip_asymmetry_exact_value(self, table):
        # acceptance 6b's asymmetry; (pi*dlam/lam0)^2/4 = 9.87e-8 is 2.7 % high
        assert self.bit_flip_asymmetry(table) == pytest.approx(9.60638e-8, rel=1e-6)
        # far from the neighbouring pulses it is (pi*dlam/lam0)^2/4 times the
        # second moment of the pulse over the +-3 sigma window
        density = math.exp(-4.5) / math.sqrt(2.0 * math.pi)
        moment = 1.0 - 6.0 * density / math.erf(3.0 / math.sqrt(2.0))
        leading = (math.pi * CAL_50KM.delta_lambda / LAM) ** 2 / 4.0 * moment
        far_apart = detection_table(CAL_50KM, baseline=1.5)
        assert self.bit_flip_asymmetry(far_apart) == pytest.approx(leading, rel=1e-6)

    @pytest.mark.parametrize("convention", ["first_principles", "calibrated"])
    @pytest.mark.parametrize("length", [0.0, 1e3, 50e3, 200e3, 500e3])
    def test_shares_match_gauss_legendre_reference(self, length, convention):
        params = LinkParams(fiber_length=length, convention=convention)
        baseline = default_baseline(params)
        for row in detection_table(params, baseline).rows:
            config = MzConfig(delta_d=baseline + row.phi_d, delta_m=baseline + row.phi_m)
            mass_o, mass_p = gauss_legendre_masses(params, config, MIDDLE_WINDOW_RHO)
            assert abs(row.p_o - mass_o / (mass_o + mass_p)) <= 1e-12
            assert abs(row.p_p - mass_p / (mass_o + mass_p)) <= 1e-12

    def test_shares_sum_to_one(self, table):
        for row in table.rows:
            assert row.p_o + row.p_p == pytest.approx(1.0, rel=1e-12)

    def test_baseline_shift_invariance(self):
        t1 = detection_table(CAL_50KM, baseline=0.25)
        t2 = detection_table(CAL_50KM, baseline=0.32)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert r1.p_o == pytest.approx(r2.p_o, abs=1e-6)

    def test_warning_below_separation_bound(self):
        table = detection_table(CAL_50KM, baseline=0.15)
        assert table.warning is not None

    def test_overlapping_baseline_rejected(self):
        with pytest.raises(InfeasibleDesignError):
            detection_table(CAL_50KM, baseline=0.03)

    def test_masses_are_the_lossless_links(self):
        lossy = detection_table(replace(CAL_50KM, t_fiber=0.3, t_leg=1e-160), baseline=0.25)
        assert lossy.rows == detection_table(CAL_50KM, baseline=0.25).rows

    def test_link_length_override(self):
        table = detection_table(replace(CAL_50KM, fiber_length=10e3), baseline=0.25)
        assert table.link_length == 10e3

    def test_default_baseline_rounds_up_to_cm(self):
        value = default_baseline(CAL_50KM)
        bound = 0.42284645578950497
        assert value == pytest.approx(math.ceil(bound / 2.0 * 100.0) / 100.0)
        assert value * 100 == int(value * 100)

    @pytest.mark.parametrize("rho", [1e300, 1e307])
    def test_default_baseline_refuses_a_sum_beyond_the_float_range(self, rho):
        # rho is refused before the bound is formed
        with pytest.raises(ValueError, match=re.escape(f"rho must lie in [0.01, 30], got {rho!r}")):
            default_baseline(CAL_50KM, rho)

    def test_default_baseline_beyond_the_shifter_domain_is_infeasible(self):
        # a 1e5 km link needs a baseline of about 1.3 km for rho = 3
        with pytest.raises(InfeasibleDesignError, match=r"baseline of 1\d{3}(\.\d+)? m, beyond "
                                                        r"the shifters' domain \[0, 1000\] m"):
            default_baseline(LinkParams(fiber_length=1e8))

    def test_window_rho_is_three_sigma(self):
        assert MIDDLE_WINDOW_RHO * math.sqrt(2.0) == pytest.approx(3.0, rel=1e-15)


# ------------------------------------------ the Alice-Bob arm mismatch

MISMATCHES = (9.3e-6, 1e-4, 3e-4, 1e-3)  # m, before rounding to whole lambda0


def worst_wrong_shares(params):
    """The worst matched-basis wrong-exit share at each of MISMATCHES, and the rounded mismatches.

    Each link sits at its ``default_baseline``.  The mismatch, rounded to whole
    lambda0 so that phase tracking removes k0 times it, is added to Alice's
    delta_d on the four matched-basis rows of the truth table.  A row's wrong
    exit is the one that the same row without mismatch lights about 1e-7 of the time.
    """
    table = detection_table(params, default_baseline(params))
    matched = [r for r in table.rows if r.alice_basis == r.bob_basis]
    assert all(min(r.p_o, r.p_p) < 2e-7 for r in matched)
    wrong = np.array([0 if r.p_o < r.p_p else 1 for r in matched])
    deltas = np.array([round(m / params.lambda0) * params.lambda0 for m in MISMATCHES])
    configs = [MzConfig(delta_d=table.baseline + r.phi_d + delta,
                        delta_m=table.baseline + r.phi_m)
               for delta in deltas for r in matched]
    masses = exact_window_masses(component_terms(derive(params), configs), MIDDLE_WINDOW_RHO)
    masses = masses.reshape(len(deltas), len(matched), 2)
    shares = masses[:, np.arange(len(matched)), wrong] / masses.sum(axis=2)
    return shares.max(axis=1), deltas


@pytest.mark.parametrize("convention", ["first_principles", "calibrated"], scope="class")
class TestArmMismatch:
    """The dispersion is common to both interfering paths, so the mismatch an
    error-rate target allows does not depend on the fiber length."""

    @pytest.fixture(scope="class")
    def worst(self, convention):
        return {km: worst_wrong_shares(LinkParams(fiber_length=km * 1e3, convention=convention))
                for km in (0, 50, 500, 5000)}

    def test_independent_of_the_fiber_length(self, worst):
        # largest gap measured 5.5e-4, at 9.3 um calibrated; first-principles
        # reads 1.62400e-5, 1.62445e-5 and 1.62450e-5 at 50, 500 and 5000 km
        for km in (500, 5000):
            np.testing.assert_allclose(worst[km][0], worst[50][0], rtol=1e-3, atol=0.0)

    def test_coarse_mismatch_follows_the_closed_form(self, worst):
        # e = (1 - exp(-delta_k^2 Delta^2 / 2)) / 2; the exact share measured 1.2-2.1 % below it
        delta_k = derive(LinkParams()).delta_k
        for km in (50, 500, 5000):
            shares, deltas = worst[km]
            closed = (1.0 - np.exp(-(delta_k * deltas) ** 2 / 2.0)) / 2.0
            coarse = deltas >= 1e-4
            np.testing.assert_allclose(shares[coarse], closed[coarse], rtol=0.05, atol=0.0)

    def test_zero_km_gap_is_the_measured_one(self, worst):
        # at 0 km sigma is only 0.6 mm; the share sits below the long links'
        # by the measured gap, 1.53 % at 1 mm and under 0.2 % below it
        gap = worst[0][0] / worst[50][0] - 1.0
        assert gap[-1] == pytest.approx(-0.0153, abs=2e-4)
        assert np.all(np.abs(gap[:-1]) < 2e-3)
