import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from mzqkd.core import LinkParams, derive, x_rho
from mzqkd.design import (DETECTOR_PROFILES, build_design_report, max_rate, min_phase_sum,
                          sweep_lengths, visibility_of_rho)
from mzqkd.errors import InfeasibleDesignError
from mzqkd.units import C0


def gaussian_coverage(rho):
    # Brute-force integral of the standard normal over +-rho*sqrt(2).
    value, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
                    -rho * math.sqrt(2.0), rho * math.sqrt(2.0))
    return value


class TestVisibility:
    def test_table_values(self):
        assert visibility_of_rho(1.0) == pytest.approx(0.8427007929497149, abs=1e-12)
        assert visibility_of_rho(2.0) == pytest.approx(0.9953222650189527, abs=1e-12)
        assert visibility_of_rho(3.0) == pytest.approx(0.9999779095030014, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 4.0])
    def test_against_quadrature(self, rho):
        assert abs(visibility_of_rho(rho) - gaussian_coverage(rho)) < 1e-10

    def test_strictly_increasing(self):
        rhos = np.linspace(0.1, 4.0, 40)
        values = [visibility_of_rho(r) for r in rhos]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            visibility_of_rho(0.0)


class TestMinPhaseSum:
    def test_rho_ratios(self):
        params = LinkParams()
        base = min_phase_sum(params, 1.0)
        assert min_phase_sum(params, 2.0) / base == pytest.approx(2.0, rel=1e-14)
        assert min_phase_sum(params, 3.0) / base == pytest.approx(3.0, rel=1e-14)

    def test_detector_term_is_additive(self):
        params = LinkParams()
        ideal = min_phase_sum(params, 3.0)
        slow = min_phase_sum(params, 3.0, t_rising=2.5e-9, t_falling=2.5e-9)
        assert slow - ideal == pytest.approx(C0 * 5e-9, rel=1e-12)
        # a 5 ns response adds roughly a meter and a half
        assert slow - ideal == pytest.approx(1.5, rel=5e-3)

    def test_snspd_profile(self):
        rising, falling = DETECTOR_PROFILES["snspd-5ns"]
        assert rising + falling == 5e-9

    def test_safety_factor_multiplies(self):
        params = LinkParams()
        assert min_phase_sum(params, 3.0, safety_factor=1.3) == pytest.approx(
            1.3 * min_phase_sum(params, 3.0), rel=1e-14)

    def test_calibrated_matches_reference_design_point(self):
        params = LinkParams(fiber_length=50e3, convention="calibrated")
        assert min_phase_sum(params, 3.0) == pytest.approx(0.423, rel=5e-3)

    def test_relates_to_fwhm_multiples(self):
        # 4*X_rho at rho=1,2,3 is 2.402/4.804/7.206 times the FWHM
        params = LinkParams()
        d = derive(params)
        for rho, factor in ((1.0, 2.402), (2.0, 4.804), (3.0, 7.206)):
            assert min_phase_sum(params, rho) / d.fwhm == pytest.approx(factor, rel=1e-3)

    def test_rejects_bad_inputs(self):
        params = LinkParams()
        with pytest.raises(ValueError):
            min_phase_sum(params, 3.0, t_rising=-1e-9)
        with pytest.raises(ValueError):
            min_phase_sum(params, 3.0, safety_factor=0.0)
        with pytest.raises(ValueError):
            min_phase_sum(params, 0.0)


class TestMaxRate:
    def test_rate_times_bound_is_lightspeed(self):
        params = LinkParams()
        for rho in (1.0, 2.0, 3.0):
            product = max_rate(params, rho, "linear") * min_phase_sum(params, rho)
            assert product == pytest.approx(C0, rel=1e-14)

    def test_mode_ratios(self):
        params = LinkParams()
        linear = max_rate(params, 3.0, "linear")
        assert max_rate(params, 3.0, "nonlinear") / linear == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert max_rate(params, 3.0, "general") / linear == pytest.approx(2.0, rel=1e-14)

    def test_calibrated_reference_rates(self):
        params = LinkParams(fiber_length=50e3, convention="calibrated")
        assert max_rate(params, 3.0, "linear") == pytest.approx(710e6, rel=5e-3)
        assert max_rate(params, 3.0, "nonlinear") == pytest.approx(473e6, rel=5e-3)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            max_rate(LinkParams(), 3.0, "warp")


def gate_window(actual_phase_sum, params, rho):
    return build_design_report(params, rho, actual_phase_sum=actual_phase_sum).gate_window


class TestGateWindow:
    def test_boundary_is_zero(self):
        params = LinkParams()
        d = derive(params)
        boundary = 2.0 * x_rho(d.sigma, 3.0)
        assert gate_window(boundary, params, 3.0) == 0.0

    def test_linearity_in_margin(self):
        params = LinkParams()
        d = derive(params)
        two_x = 2.0 * x_rho(d.sigma, 3.0)
        w1 = gate_window(two_x + 0.1, params, 3.0)
        w2 = gate_window(two_x + 0.2, params, 3.0)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_at_minimum_phase_sum(self):
        params = LinkParams()
        d = derive(params)
        window = gate_window(min_phase_sum(params, 3.0), params, 3.0)
        assert window == pytest.approx(2.0 * x_rho(d.sigma, 3.0) / C0, rel=1e-12)

    def test_calibrated_reference_window(self):
        params = LinkParams(fiber_length=50e3, convention="calibrated")
        assert gate_window(0.5, params, 3.0) == pytest.approx(0.962e-9, rel=1e-3)

    def test_infeasible_raises(self):
        params = LinkParams(fiber_length=50e3)
        with pytest.raises(InfeasibleDesignError):
            gate_window(0.01, params, 3.0)


lengths = st.floats(0.0, 5e5)


class TestMonotonicity:
    @given(lengths, lengths, st.floats(0.5, 4.0))
    def test_longer_fiber_tightens_bounds(self, l1, l2, rho):
        lo, hi = sorted((l1, l2))
        p_lo = LinkParams(fiber_length=lo)
        p_hi = LinkParams(fiber_length=hi)
        assert min_phase_sum(p_lo, rho) <= min_phase_sum(p_hi, rho)
        assert max_rate(p_lo, rho) >= max_rate(p_hi, rho)


class TestReportAndSweep:
    def test_report_fields(self):
        params = LinkParams(fiber_length=50e3, convention="calibrated")
        report = build_design_report(params, 3.0, actual_phase_sum=0.5)
        assert report.visibility == pytest.approx(0.99998, abs=5e-4)
        assert report.max_rate_general == pytest.approx(2.0 * report.max_rate_linear, rel=1e-14)
        assert report.max_rate_nonlinear == pytest.approx(
            report.max_rate_linear * 2.0 / 3.0, rel=1e-14)
        assert report.gate_window is not None and report.gate_window > 0

    def test_report_equals_scalar_bounds_and_records_edges(self):
        # the report derives the pulse once; each bound is bit-equal to its
        # scalar function, which derives it again
        params = LinkParams(fiber_length=300e3, convention="calibrated")
        report = build_design_report(params, 2.7, actual_phase_sum=2.0, t_rising=1e-9,
                                     t_falling=2e-9, safety_factor=1.5)
        assert (report.t_rising, report.t_falling, report.safety_factor) == (1e-9, 2e-9, 1.5)
        assert report.min_phase_sum == min_phase_sum(params, 2.7, 1e-9, 2e-9, 1.5)
        sigma = derive(params).sigma
        assert report.gate_window == (2.0 - 2.0 * x_rho(sigma, 2.7)) / C0
        for mode in ("linear", "nonlinear", "general"):
            assert getattr(report, f"max_rate_{mode}") == max_rate(params, 2.7, mode)

    def test_report_without_actual_sum_has_no_window(self):
        report = build_design_report(LinkParams(), 3.0)
        assert report.gate_window is None

    def test_sweep_monotone_columns(self):
        columns = sweep_lengths(LinkParams(), 3.0,
                                np.linspace(10e3, 200e3, 20))
        sums = columns["min_phase_sum_m"]
        rates = columns["rate_linear_hz"]
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("convention", ["first_principles", "calibrated"])
    def test_sweep_rows_equal_scalar_bounds(self, convention):
        params = LinkParams(convention=convention)
        lengths = [0.0, 1.0, 1236.0, 50e3, 405e3, 500e3]
        columns = sweep_lengths(params, 2.7, lengths, 2.5e-9, 1e-9)
        safer = sweep_lengths(params, 2.7, lengths, 2.5e-9, 1e-9, safety_factor=1.7)
        for i, length in enumerate(lengths):
            p = replace(params, fiber_length=length)
            assert columns["length_m"][i] == length
            assert columns["min_phase_sum_m"][i] == min_phase_sum(p, 2.7, 2.5e-9, 1e-9)
            assert safer["min_phase_sum_m"][i] == min_phase_sum(p, 2.7, 2.5e-9, 1e-9, 1.7)
            for mode in ("linear", "nonlinear", "general"):
                assert columns[f"rate_{mode}_hz"][i] == max_rate(p, 2.7, mode)
                assert safer[f"rate_{mode}_hz"][i] == columns[f"rate_{mode}_hz"][i]

    def test_sweep_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep_lengths(LinkParams(), 3.0, [])
        for bad in (0.0, -2.0):
            with pytest.raises(ValueError, match="safety_factor"):
                sweep_lengths(LinkParams(), 3.0, [10e3], safety_factor=bad)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sweep_lengths(LinkParams(), 3.0, [10e3, bad])
