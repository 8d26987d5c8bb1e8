import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzqkd.config import RunConfig
from mzqkd.core import (CALIBRATED_KAPPA_SCALE, LinkParams, MzConfig, PAIRS,
                        derive, effective_kappa, x_rho)
from mzqkd.errors import ConfigError

# Reference values from a 40-digit evaluation of the closed forms at the
# default constants (1550 nm, 0.31 nm, 17 ps/(km*nm), 50 km, 1 m legs).
DELTA_K_REF = 810.7335880231725
KAPPA_REF = 9.743683233306741e-10
GAMMA_50KM_REF = 16408.926837157185
SIGMA_50KM_REF = 0.07900087978527807


def default_derived(**overrides):
    return derive(LinkParams(**overrides), MzConfig())


class TestGoldenValues:
    def test_delta_k(self):
        d = default_derived()
        assert d.delta_k == pytest.approx(DELTA_K_REF, rel=1e-14)

    def test_kappa_magnitude(self):
        d = default_derived()
        assert d.kappa == pytest.approx(KAPPA_REF, rel=1e-14)

    def test_sigma_at_50km(self):
        d = default_derived(fiber_length=50e3)
        assert d.gamma == pytest.approx(GAMMA_50KM_REF, rel=1e-13)
        assert d.sigma == pytest.approx(SIGMA_50KM_REF, rel=1e-13)

    def test_zero_dispersion_identity(self):
        d = default_derived(fiber_length=0.0, leg_length=0.0)
        assert d.delta1 == 0.0
        assert d.gamma == 1.0
        assert d.sigma == 1.0 / (2.0 * d.delta_k)

    def test_calibrated_convention_scales_kappa_only(self):
        fp = default_derived()
        cal = default_derived(convention="calibrated")
        assert fp.kappa / cal.kappa == pytest.approx(CALIBRATED_KAPPA_SCALE, rel=1e-14)
        assert fp.delta_k == cal.delta_k
        assert fp.k0 == cal.k0

    def test_delta1_sign_is_negative_for_positive_dispersion(self):
        d = default_derived()
        assert d.delta1 < 0
        assert d.delta1 == pytest.approx(-d.kappa * (50e3 + 2.0), rel=1e-14)


class TestXRho:
    def test_one_over_e_half_width(self):
        d = default_derived()
        assert x_rho(d.sigma, 1.0) == pytest.approx(math.sqrt(2.0) * d.sigma, rel=1e-15)

    def test_sqrt_ln2_gives_half_fwhm(self):
        d = default_derived()
        assert x_rho(d.sigma, math.sqrt(math.log(2.0))) == pytest.approx(d.fwhm / 2.0,
                                                                          rel=1e-14)

    def test_gamma_one_closed_form(self):
        d = default_derived(fiber_length=0.0, leg_length=0.0)
        # 3*sqrt(2)/(2*delta_k) from the 40-digit reference
        assert x_rho(d.sigma, 3.0) == pytest.approx(0.0026165442938315894, rel=1e-14)

    def test_rejects_non_positive_rho(self):
        d = default_derived()
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                x_rho(d.sigma, bad)

    def test_array_of_widths_matches_scalars(self):
        sigmas = [default_derived(fiber_length=length).sigma for length in (0.0, 50e3, 500e3)]
        assert list(x_rho(np.array(sigmas), 3.0)) == [x_rho(s, 3.0) for s in sigmas]


link_params = st.builds(
    LinkParams,
    lambda0=st.floats(1.2e-6, 1.7e-6),
    delta_lambda=st.floats(5e-11, 1e-9),
    dispersion=st.one_of(st.just(0.0), st.floats(1e-6, 30e-6)),
    group_index=st.floats(1.0, 2.0),
    fiber_length=st.one_of(st.just(0.0), st.floats(100.0, 5e5)),
    leg_length=st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
    t_fiber=st.floats(0.05, 1.0),
    t_leg=st.floats(0.05, 1.0),
)

mz_configs = st.builds(
    MzConfig,
    delta_d=st.floats(0.0, 2.0),
    delta_m=st.floats(0.0, 2.0),
    delta_c=st.floats(0.0, 0.1),
)


class TestDerivedProperties:
    @given(link_params, mz_configs)
    def test_gamma_at_least_one(self, params, config):
        d = derive(params, config)
        assert d.gamma >= 1.0
        assert (d.gamma == 1.0) == (d.delta1 == 0.0)

    @given(link_params, mz_configs)
    def test_sigma_and_fwhm_relations(self, params, config):
        d = derive(params, config)
        assert d.sigma == math.sqrt(d.gamma) / (2.0 * d.delta_k)
        assert d.fwhm / d.sigma == pytest.approx(math.sqrt(8.0 * math.log(2.0)), rel=1e-14)

    @given(link_params, mz_configs, st.floats(0.1, 5.0))
    def test_x_rho_linearity(self, params, config, rho):
        d = derive(params, config)
        assert x_rho(d.sigma, 2.0 * rho) == 2.0 * x_rho(d.sigma, rho)

    @given(link_params, mz_configs)
    def test_mu_ordering_and_differences(self, params, config):
        d = derive(params, config)
        scale = max(abs(d.mu["dm"]), 1.0)
        assert d.mu["dm"] - d.mu["cc"] == pytest.approx(
            config.delta_d + config.delta_m - 2.0 * config.delta_c, abs=1e-12 * scale)
        assert d.mu["cm"] - d.mu["dc"] == pytest.approx(
            config.delta_m - config.delta_d, abs=1e-12 * scale)

    @given(link_params, mz_configs, st.floats(1e3, 1e5))
    def test_mu_differences_independent_of_fiber_length(self, params, config, other_length):
        from dataclasses import replace
        d1 = derive(params, config)
        d2 = derive(replace(params, fiber_length=other_length), config)
        diff1 = d1.mu["dm"] - d1.mu["cm"]
        diff2 = d2.mu["dm"] - d2.mu["cm"]
        scale = max(abs(d1.mu["dm"]), abs(d2.mu["dm"]), 1.0)
        assert diff1 == pytest.approx(diff2, abs=1e-11 * scale)

    @given(link_params)
    def test_sigma_increases_with_dispersion_magnitude(self, params):
        from dataclasses import replace
        if params.dispersion == 0.0 or params.fiber_length == 0.0:
            return
        d_lo = derive(params, MzConfig())
        d_hi = derive(replace(params, fiber_length=params.fiber_length * 2.0), MzConfig())
        assert d_hi.sigma >= d_lo.sigma

    @given(link_params, mz_configs)
    def test_window_center_matches_exterior_midpoint(self, params, config):
        d = derive(params, config)
        mid_exterior = 0.5 * (d.mu["cc"] + d.mu["dm"])
        assert d.window_center == pytest.approx(mid_exterior, rel=1e-14)


# Each field's message for a negative value; NaN and +-inf are refused as not finite.
_NEGATIVE_MESSAGES = {
    LinkParams: {
        "lambda0": "lambda0 must be positive",
        "delta_lambda": "delta_lambda must be positive",
        "dispersion": "dispersion must be non-negative",
        "group_index": "group_index must be positive",
        "fiber_length": "lengths must be non-negative",
        "leg_length": "lengths must be non-negative",
        "t_fiber": "t_fiber must lie in (0, 1], got -0.5",
        "t_leg": "t_leg must lie in (0, 1], got -0.5",
    },
    MzConfig: dict.fromkeys(("delta_d", "delta_m", "delta_c"),
                            "phase shifter lengths must be non-negative"),
}
_INVALID_FIELDS = [
    (cls, name, value, negative if value == -0.5 else f"{name} must be finite, got {value!r}")
    for cls, messages in _NEGATIVE_MESSAGES.items()
    for name, negative in messages.items()
    for value in (math.nan, math.inf, -math.inf, -0.5)]


class TestValidation:
    @pytest.mark.parametrize("cls, name, value, message", _INVALID_FIELDS,
                             ids=[f"{name}={value}" for _, name, value, _ in _INVALID_FIELDS])
    def test_invalid_field_keeps_its_message(self, cls, name, value, message):
        with pytest.raises(ValueError) as caught:
            cls(**{name: value})
        assert str(caught.value) == message

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            LinkParams(fiber_length=-1.0)
        with pytest.raises(ValueError):
            LinkParams(leg_length=-0.5)

    def test_rejects_bad_transmissions(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                LinkParams(t_fiber=bad)
            with pytest.raises(ValueError):
                LinkParams(t_leg=bad)

    def test_rejects_wide_spread(self):
        with pytest.raises(ValueError):
            LinkParams(lambda0=1550e-9, delta_lambda=20e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinkParams(lambda0=float("nan"))
        with pytest.raises(ValueError):
            LinkParams(fiber_length=float("inf"))
        with pytest.raises(ValueError):
            MzConfig(delta_d=float("nan"))

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError):
            LinkParams(convention="mystery")

    def test_rejects_negative_shifters_and_times(self):
        with pytest.raises(ValueError):
            MzConfig(delta_d=-0.1)
        # the detector edge times are checked where the run configuration
        # resolves them
        for rising, message in ((-1.0, "detector edge times must be non-negative"),
                                (math.nan, "t_rising must be finite, got nan")):
            with pytest.raises(ConfigError, match=f"^interferometer: {message}$"):
                RunConfig(t_rising_ns=rising).resolved_edge_times()

    def test_rejects_a_term_exponent_that_underflows(self):
        # delta_k ~ 1.3e-308 1/m is positive, but 2 delta_k^2 / gamma is 0
        with pytest.raises(ValueError, match="wavenumber spread or the pulse width"):
            derive(LinkParams(delta_lambda=5e-321), MzConfig())

    def test_rejects_shifter_sums_whose_square_overflows(self):
        assert derive(LinkParams(), MzConfig(delta_d=1e150, delta_m=1e150)).sigma > 0
        for config in (MzConfig(delta_d=1e200), MzConfig(delta_d=1e154, delta_m=1e154),
                       MzConfig(delta_d=1e308, delta_m=1e308)):
            with pytest.raises(ValueError, match="shifter sums leave the float range"):
                derive(LinkParams(), config)

    def test_pair_sums_in_pairs_order(self):
        config = MzConfig(delta_d=0.3, delta_m=0.2, delta_c=0.05)
        shifter = {"c": config.delta_c, "d": config.delta_d, "m": config.delta_m}
        assert config.pair_sums == tuple(shifter[a] + shifter[b] for a, b in PAIRS)
        assert config.pair_sums == (0.1, 0.25, 0.35, 0.5)

    def test_effective_kappa_matches_derive(self):
        params = LinkParams(convention="calibrated")
        assert effective_kappa(params) == derive(params, MzConfig()).kappa

    def test_pairs_constant(self):
        assert PAIRS == ("cc", "cm", "dc", "dm")
