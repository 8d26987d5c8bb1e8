import math
from dataclasses import replace

import numpy as np
import pytest

from mzqkd.compensation import plan, precompensate_input
from mzqkd.core import LinkParams, MzConfig, PrecompMultiplier, derive
from mzqkd.design import max_rate, min_phase_sum
from mzqkd.errors import InfeasibleDesignError
from mzqkd.io import curve_arrays
from mzqkd.spectra import (GridSpec, eval_analytic, eval_oracle,
                           max_normalized_deviation)
from mzqkd.units import C0

CAL_405KM = LinkParams(fiber_length=405e3, convention="calibrated")


# Denominator of c0/(q * X_rho) per rate mode.
MODE_FACTOR = {"linear": 4.0, "nonlinear": 6.0, "general": 2.0}


def closed_form_active_length(params, clock, rho, mode="linear"):
    """Independent inversion of the rate bound."""
    d = derive(params)
    sigma_target = C0 / (clock * MODE_FACTOR[mode] * rho * math.sqrt(2.0))
    gamma_target = (2.0 * d.delta_k * sigma_target) ** 2
    total = math.sqrt((gamma_target - 1.0) / (16.0 * d.delta_k**4)) / d.kappa
    return total - 2.0 * params.leg_length


def reference_plan_lengths(params, clock, rho, mode, t_rising, t_falling, safety_factor):
    """Active length and shifter requirement, every bound from a link cut to its length.

    The planner's search with each rate taken by ``max_rate`` and the
    requirement by ``min_phase_sum``, each of ``replace(params, fiber_length=...)``.
    """
    def rate_at(active):
        return max_rate(replace(params, fiber_length=active), rho, mode)

    active = params.fiber_length
    if clock > rate_at(active):
        d = derive(params)
        sigma = C0 / (MODE_FACTOR[mode] * rho * math.sqrt(2.0) * clock)
        gamma = (2.0 * d.delta_k * sigma) ** 2
        total = math.sqrt(max(gamma - 1.0, 0.0) / (16.0 * d.delta_k**4)) / d.kappa
        active = max(total - 2.0 * params.leg_length, 0.0)
        step = math.ulp(active)
        while rate_at(active) < clock:
            active = max(active - step, 0.0)
            step *= 2.0
    return active, min_phase_sum(replace(params, fiber_length=active), rho,
                                 t_rising, t_falling, safety_factor)


def element(params, l_cp):
    """Compensating element of the link's own kappa over l_cp of fiber."""
    return PrecompMultiplier(a_cp=params.group_index * l_cp,
                             b_cp=derive(params).kappa * l_cp)


class TestPlan:
    def test_slow_clock_needs_no_dcf(self):
        result = plan(LinkParams(fiber_length=100e3), 1e3, 3.0)
        assert result.regime == "no_dcf"
        assert result.active_length == 100e3
        assert result.dcf_equivalent_length == 0.0

    def test_fast_clock_needs_partial_dcf(self):
        result = plan(CAL_405KM, 2.5e9, 3.0)
        assert result.regime == "partial_dcf"
        expected = closed_form_active_length(CAL_405KM, 2.5e9, 3.0)
        assert result.active_length == pytest.approx(expected, rel=1e-12)
        assert result.dcf_equivalent_length == pytest.approx(
            405e3 - result.active_length, abs=1e-9)

    @pytest.mark.parametrize("mode", ["linear", "nonlinear", "general"])
    @pytest.mark.parametrize("params,clock", [
        (CAL_405KM, 2.5e9),
        (CAL_405KM, None),
        (LinkParams(fiber_length=300e3), None),
        (LinkParams(fiber_length=40e3), None),
    ])
    def test_exact_inverse_keeps_the_clock(self, params, clock, mode):
        # None: a clock just above the bound at the full length
        clock = clock or 1.0001 * max_rate(params, 3.0, mode)
        result = plan(params, clock, 3.0, mode)
        assert result.regime == "partial_dcf"
        assert result.active_length == pytest.approx(
            closed_form_active_length(params, clock, 3.0, mode), rel=1e-12)
        rate = max_rate(replace(params, fiber_length=result.active_length), 3.0, mode)
        assert rate >= clock
        assert rate / clock - 1.0 < 1e-12

    @pytest.mark.parametrize("clock, regime", [(2.5e9, "partial_dcf"), (1e6, "no_dcf")])
    def test_requirement_is_design_bound_at_active_length(self, clock, regime):
        result = plan(CAL_405KM, clock, 3.0, "linear", 4e-9, 1e-9, 2.0)
        assert result.regime == regime
        active = replace(CAL_405KM, fiber_length=result.active_length)
        assert result.phase_sum_requirement == min_phase_sum(active, 3.0, 4e-9, 1e-9, 2.0)
        assert (result.safety_factor, result.t_rising, result.t_falling) == (2.0, 4e-9, 1e-9)
        assert result.active_length == plan(CAL_405KM, clock, 3.0).active_length

    def test_phase_sum_requirement_uses_active_length(self):
        result = plan(CAL_405KM, 2.5e9, 3.0)
        expected = min_phase_sum(
            replace(CAL_405KM, fiber_length=result.active_length), 3.0)
        assert result.phase_sum_requirement == pytest.approx(expected, rel=1e-12)

    def test_boundary_clock_stays_uncompensated(self):
        boundary = max_rate(CAL_405KM, 3.0)
        assert plan(CAL_405KM, boundary, 3.0).regime == "no_dcf"
        assert plan(CAL_405KM, boundary * 1.001, 3.0).regime == "partial_dcf"

    def test_infeasible_clock_raises(self):
        with pytest.raises(InfeasibleDesignError):
            plan(CAL_405KM, 100e9, 3.0)

    def test_stricter_mode_needs_more_compensation(self):
        linear = plan(CAL_405KM, 2.5e9, 3.0, "linear")
        nonlinear = plan(CAL_405KM, 2.5e9, 3.0, "nonlinear")
        assert nonlinear.active_length < linear.active_length

    def test_monotone_in_clock_rate(self):
        clocks = np.linspace(0.5e9, 10e9, 25)
        actives = [plan(CAL_405KM, c, 3.0).active_length for c in clocks]
        assert all(b <= a for a, b in zip(actives, actives[1:]))
        equivalents = [plan(CAL_405KM, c, 3.0).dcf_equivalent_length for c in clocks]
        assert all(b >= a for a, b in zip(equivalents, equivalents[1:]))

    @pytest.mark.parametrize("mode", ["linear", "nonlinear", "general"])
    def test_lengths_equal_the_cut_link_route(self, mode):
        rng = np.random.default_rng(["linear", "nonlinear", "general"].index(mode))
        regimes = set()
        for _ in range(200):
            params = LinkParams(fiber_length=float(rng.choice([0.0, rng.uniform(0.0, 1e6)])),
                                leg_length=float(rng.uniform(0.0, 3.0)),
                                convention=str(rng.choice(["first_principles", "calibrated"])))
            rho = float(rng.uniform(0.5, 5.0))
            full = max_rate(params, rho, mode)
            bare = max_rate(replace(params, fiber_length=0.0), rho, mode)
            # from half the full-length bound to the bound of a fully compensated link
            clock = float(full * (bare / full * 2.0) ** rng.uniform(0.0, 1.0) / 2.0)
            edges = (float(rng.uniform(0.0, 5e-9)), float(rng.uniform(0.0, 5e-9)))
            safety_factor = float(rng.uniform(1.0, 2.0))
            result = plan(params, clock, rho, mode, *edges, safety_factor)
            regimes.add(result.regime)
            assert (result.active_length, result.phase_sum_requirement) == \
                reference_plan_lengths(params, clock, rho, mode, *edges, safety_factor)
        assert regimes == {"no_dcf", "partial_dcf"}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan(CAL_405KM, 0.0, 3.0)
        for clock in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                plan(CAL_405KM, clock, 3.0)
        with pytest.raises(ValueError):
            plan(CAL_405KM, 1e9, 3.0, "warp")


class TestPrecompensation:
    def test_multiplier_from_plan(self):
        result = plan(CAL_405KM, 2.5e9, 3.0)
        mult = precompensate_input(CAL_405KM, result)
        d = derive(CAL_405KM)
        assert mult.b_cp == pytest.approx(d.kappa * result.dcf_equivalent_length, rel=1e-12)
        assert mult.b_cp * d.delta1 < 0
        assert mult.a_cp == pytest.approx(
            CAL_405KM.group_index * result.dcf_equivalent_length, rel=1e-12)

    def test_no_dcf_plan_has_no_multiplier(self):
        result = plan(LinkParams(fiber_length=100e3), 1e3, 3.0)
        with pytest.raises(ValueError):
            precompensate_input(LinkParams(fiber_length=100e3), result)

    def test_full_cancellation_matches_dispersionless_link(self):
        params = LinkParams(fiber_length=50e3)
        config = MzConfig(delta_d=0.75, delta_m=0.70)
        mult = element(params, params.fiber_length + 2.0 * params.leg_length)
        grid = GridSpec(n_points=768, x_min=-2.0, x_max=2.0, relative=True)
        compensated = eval_oracle(params, config, grid, precomp=mult)
        reference = eval_analytic(replace(params, dispersion=0.0), config, grid)
        assert max_normalized_deviation(reference, compensated) < 1e-6

    def test_partial_cancellation_matches_active_length_link(self):
        params = LinkParams(fiber_length=50e3)
        active = 20e3
        config = MzConfig(delta_d=0.75, delta_m=0.70)
        mult = element(params, params.fiber_length - active)
        grid = GridSpec(n_points=768, x_min=-2.0, x_max=2.0, relative=True)
        compensated = eval_oracle(params, config, grid, precomp=mult)
        reference = eval_analytic(replace(params, fiber_length=active), config, grid)
        assert max_normalized_deviation(reference, compensated) < 1e-6

    def test_placement_equivalence(self):
        params = LinkParams(fiber_length=50e3)
        config = MzConfig(delta_d=0.75, delta_m=0.70)
        mult = element(params, 30e3)
        grid = GridSpec(n_points=512)
        pre = eval_oracle(params, config, grid, precomp=mult, placement="pre")
        post = eval_oracle(params, config, grid, precomp=mult, placement="post")
        sym = eval_oracle(params, config, grid, precomp=mult, placement="symmetric")
        assert max_normalized_deviation(pre, post) < 1e-12
        assert max_normalized_deviation(pre, sym) < 1e-12

    def test_lossy_dcf_scales_amplitudes(self):
        params = LinkParams(fiber_length=10e3)
        config = MzConfig(delta_d=0.3, delta_m=0.28)
        grid = GridSpec(n_points=512)
        clear = eval_oracle(params, config, grid, precomp=element(params, 5e3))
        # a lossy element's transmission is a factor of t_fiber, applied to the
        # printed absolute intensities
        lossy = eval_oracle(replace(params, t_fiber=0.5), config, grid,
                            precomp=element(params, 5e3))
        _, lossy_o, _ = curve_arrays(lossy, "absolute")
        ratio = lossy_o.max() / clear.intensity_o.max()
        assert ratio == pytest.approx(0.5, rel=1e-9)
