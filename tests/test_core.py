import math
import random
import re
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzqkd.config import RunConfig
from mzqkd.design import DETECTOR_PROFILES
from mzqkd.core import (CALIBRATED_KAPPA_SCALE, CONVENTIONS, DOMAIN, LinkParams, MzConfig,
                        PAIRS, PrecompMultiplier, check_domain, derive, effective_kappa, x_rho)
from mzqkd.design import _phase_sum_bound
from mzqkd.errors import ConfigError
from mzqkd.spectra import GridSpec, eval_analytic
from mzqkd.units import dispersion_to_si, km_to_m, nm_to_m, ns_to_s

# Reference values from a 40-digit evaluation of the closed forms at the
# default constants (1550 nm, 0.31 nm, 17 ps/(km*nm), 50 km, 1 m legs).
DELTA_K_REF = 810.7335880231725
KAPPA_REF = 9.743683233306741e-10
GAMMA_50KM_REF = 16408.926837157185
SIGMA_50KM_REF = 0.07900087978527807


def default_derived(**overrides):
    return derive(LinkParams(**overrides))


def means(d, config):
    """Each leg-pair component's mean, the record's origin plus the pair's shifter sum, m."""
    return {pair: d.origin + pair_sum for pair, pair_sum in zip(PAIRS, config.pair_sums)}


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
        for bad in (0.0, -1.0, math.nextafter(0.01, 0.0), math.nextafter(30.0, math.inf),
                    math.nan):
            with pytest.raises(ValueError, match=rf"^rho must lie in \[0.01, 30\], got {bad!r}$"):
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
    @given(link_params)
    def test_gamma_at_least_one(self, params):
        d = derive(params)
        assert d.gamma >= 1.0
        assert (d.gamma == 1.0) == (d.delta1 == 0.0)

    @given(link_params)
    def test_sigma_and_fwhm_relations(self, params):
        d = derive(params)
        assert d.sigma == math.sqrt(d.gamma) / (2.0 * d.delta_k)
        assert d.fwhm / d.sigma == pytest.approx(math.sqrt(8.0 * math.log(2.0)), rel=1e-14)

    @given(link_params, st.floats(0.1, 5.0))
    def test_x_rho_linearity(self, params, rho):
        d = derive(params)
        assert x_rho(d.sigma, 2.0 * rho) == 2.0 * x_rho(d.sigma, rho)

    @given(link_params, mz_configs)
    def test_mu_ordering_and_differences(self, params, config):
        mu = means(derive(params), config)
        scale = max(abs(mu["dm"]), 1.0)
        assert mu["dm"] - mu["cc"] == pytest.approx(
            config.delta_d + config.delta_m - 2.0 * config.delta_c, abs=1e-12 * scale)
        assert mu["cm"] - mu["dc"] == pytest.approx(
            config.delta_m - config.delta_d, abs=1e-12 * scale)

    @given(link_params, mz_configs, st.floats(1e3, 1e5))
    def test_mu_differences_independent_of_fiber_length(self, params, config, other_length):
        from dataclasses import replace
        mu1 = means(derive(params), config)
        mu2 = means(derive(replace(params, fiber_length=other_length)), config)
        diff1 = mu1["dm"] - mu1["cm"]
        diff2 = mu2["dm"] - mu2["cm"]
        scale = max(abs(mu1["dm"]), abs(mu2["dm"]), 1.0)
        assert diff1 == pytest.approx(diff2, abs=1e-11 * scale)

    @given(link_params)
    def test_sigma_increases_with_dispersion_magnitude(self, params):
        from dataclasses import replace
        if params.dispersion == 0.0 or params.fiber_length == 0.0:
            return
        d_lo = derive(params)
        d_hi = derive(replace(params, fiber_length=params.fiber_length * 2.0))
        assert d_hi.sigma >= d_lo.sigma

    @given(link_params, mz_configs)
    def test_window_center_matches_exterior_midpoint(self, params, config):
        mu = means(derive(params), config)
        mid_exterior = 0.5 * (mu["cc"] + mu["dm"])
        center = eval_analytic(params, config, GridSpec(n_points=2)).window_center
        assert center == pytest.approx(mid_exterior, rel=1e-14)

    def test_takes_no_shifter_setting(self):
        # the record belongs to the link alone; a stale call fails at the call
        with pytest.raises(TypeError):
            derive(LinkParams(), MzConfig())


# Each validated field's domain row as its message states it.  Every value
# outside the row (NaN, +-inf, a negative value and the two floats just
# outside its ends) is refused with "<field> must <row>, got <value>".
_ROWS = {
    LinkParams: {
        "lambda0": "lie in [2e-07, 2e-05]",
        "delta_lambda": "lie in [1e-13, 1e-07]",
        "dispersion": "be 0 or lie in [1e-09, 0.001]",
        "group_index": "lie in [1, 5]",
        "fiber_length": "lie in [0, 1e+08]",
        "leg_length": "lie in [0, 100]",
        "t_fiber": "lie in (0, 1]",
        "t_leg": "lie in (0, 1]",
    },
    MzConfig: dict.fromkeys(("delta_d", "delta_m", "delta_c"), "lie in [0, 1000]"),
    PrecompMultiplier: {"a_cp": "lie in [-1e+12, 1e+12]", "b_cp": "lie in [-1e+06, 1e+06]"},
    GridSpec: {"pad_sigmas": "lie in [5, 1000]"},
}
_ROW_NAMES = {"delta_d": "shifter", "delta_m": "shifter", "delta_c": "shifter"}


def _outside(name):
    """NaN, +-inf, -0.5 where it lies outside, and the floats just outside both ends."""
    lo, hi = DOMAIN[_ROW_NAMES.get(name, name)]
    below = lo if name in ("t_fiber", "t_leg") else math.nextafter(lo, -math.inf)
    values = [math.nan, math.inf, -math.inf, below, math.nextafter(hi, math.inf)]
    return values + ([-0.5] if lo > -0.5 else [])


_INVALID_FIELDS = [
    (cls, name, value, f"{name} must {row}, got {value!r}")
    for cls, rows in _ROWS.items() for name, row in rows.items() for value in _outside(name)]


class TestValidation:
    @pytest.mark.parametrize("cls, name, value, message", _INVALID_FIELDS,
                             ids=[f"{name}={value}" for _, name, value, _ in _INVALID_FIELDS])
    def test_invalid_field_keeps_its_message(self, cls, name, value, message):
        with pytest.raises(ValueError) as caught:
            cls(**{name: value})
        assert str(caught.value) == message

    @pytest.mark.parametrize("cls, name", [(cls, name) for cls, rows in _ROWS.items()
                                           for name in rows],
                             ids=lambda v: getattr(v, "__name__", v))
    def test_domain_ends_are_accepted(self, cls, name):
        lo, hi = DOMAIN[_ROW_NAMES.get(name, name)]
        # the widest spread keeps delta_lambda/lambda0 < 1e-2 at the longest lambda0
        others = {"lambda0": DOMAIN["lambda0"][1]} if name == "delta_lambda" else {}
        for value in ((hi,) if name in ("t_fiber", "t_leg") else (lo, hi)):
            assert getattr(cls(**{name: value}, **others), name) == value

    @pytest.mark.parametrize("row, call", [
        ("rho", lambda value: x_rho(1.0, value)),
        ("safety_factor", lambda value: _phase_sum_bound(1.0, 0.0, 0.0, value)),
        ("edge_time", lambda value: _phase_sum_bound(1.0, value, value, 1.0)),
    ], ids=["rho", "safety_factor", "edge_time"])
    def test_bare_float_rows_hold_their_ends(self, row, call):
        # the rows that library callers pass as bare floats, not fields
        lo, hi = DOMAIN[row]
        for value in (lo, hi):
            call(value)
        for value in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan):
            with pytest.raises(ValueError,
                               match=rf" must lie in \[.*\], got {re.escape(repr(value))}$"):
                call(value)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError, match=r"^fiber_length must lie in \[0, 1e\+08\], got -1.0$"):
            LinkParams(fiber_length=-1.0)
        with pytest.raises(ValueError, match=r"^leg_length must lie in \[0, 100\], got -0.5$"):
            LinkParams(leg_length=-0.5)

    def test_rejects_bad_transmissions(self):
        for bad in (0.0, -0.2, 1.5):
            for name in ("t_fiber", "t_leg"):
                with pytest.raises(ValueError,
                                   match=rf"^{name} must lie in \(0, 1\], got {bad!r}$"):
                    LinkParams(**{name: bad})

    def test_rejects_wide_spread(self):
        # both inside their rows, but the spread is not small against lambda0
        with pytest.raises(ValueError, match=r"^delta_lambda must be small compared to lambda0 "
                                             r"\(ratio 0.0129 >= 1e-2\)$"):
            LinkParams(lambda0=1550e-9, delta_lambda=20e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"^lambda0 must lie in \[2e-07, 2e-05\], got nan$"):
            LinkParams(lambda0=float("nan"))
        with pytest.raises(ValueError, match=r"^fiber_length must lie in \[0, 1e\+08\], got inf$"):
            LinkParams(fiber_length=float("inf"))
        with pytest.raises(ValueError, match=r"^delta_d must lie in \[0, 1000\], got nan$"):
            MzConfig(delta_d=float("nan"))

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError):
            LinkParams(convention="mystery")

    @pytest.mark.parametrize("cls, name, value", [
        (LinkParams, "lambda0", "1550e-9"), (LinkParams, "t_fiber", None),
        (MzConfig, "delta_d", None), (MzConfig, "delta_c", 1j),
    ], ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_non_number_raises_type_error(self, cls, name, value):
        with pytest.raises(TypeError):
            cls(**{name: value})

    @pytest.mark.parametrize("cls", [LinkParams, MzConfig], ids=lambda cls: cls.__name__)
    def test_record_built_exactly_when_every_field_is_in_its_row(self, cls):
        # several fields at once, each at an end, just outside one, NaN or inside
        rng = random.Random(2006)
        defaults = cls()
        for _ in range(500):
            values = {}
            for name in _ROWS[cls]:
                if rng.random() < 0.5:
                    lo, hi = DOMAIN[_ROW_NAMES.get(name, name)]
                    values[name] = rng.choice([lo, hi, math.nextafter(lo, -math.inf),
                                               math.nextafter(hi, math.inf), math.nan,
                                               rng.uniform(lo, hi)])
            if cls is LinkParams and rng.random() < 0.1:
                values["convention"] = rng.choice(CONVENTIONS + ("mystery",))
            record = {**vars(defaults), **values}
            faults = []
            for name in _ROWS[cls]:
                try:
                    check_domain(_ROW_NAMES.get(name, name), record[name], name)
                except ValueError:
                    faults.append(name)
            if cls is LinkParams and not faults:
                if not record["delta_lambda"] / record["lambda0"] < 1e-2:
                    faults.append("delta_lambda")
                elif record["convention"] not in CONVENTIONS:
                    faults.append("convention")
            if faults:
                with pytest.raises(ValueError, match=rf"^{faults[0]} must "):
                    cls(**values)
            else:
                assert vars(cls(**values)) == record

    def test_rejects_negative_shifters_and_times(self):
        with pytest.raises(ValueError, match=r"^delta_d must lie in \[0, 1000\], got -0.1$"):
            MzConfig(delta_d=-0.1)
        # the detector edge times are checked, in ns, where the run
        # configuration resolves them
        for rising in (-1.0, math.nan, 1e3 * (1.0 + 1e-15)):
            with pytest.raises(ConfigError, match=rf"^interferometer: t_rising_ns must lie in "
                                                  rf"\[0, 1000\], got {rising!r}$"):
                RunConfig(t_rising_ns=rising).resolved_edge_times()
        assert RunConfig(t_rising_ns=1e3).resolved_edge_times() == (ns_to_s(1e3), 0.0)

    def test_rejects_a_term_exponent_that_underflows(self):
        # delta_k ~ 1.3e-308 1/m would be positive, but 2 delta_k^2 / gamma 0:
        # the spread lies far outside the domain
        with pytest.raises(ValueError, match=r"^delta_lambda must lie in \[1e-13, 1e-07\], "
                                             r"got 5e-321$"):
            LinkParams(delta_lambda=5e-321)

    def test_rejects_shifter_sums_whose_square_overflows(self):
        # the domain's largest shifters place a finite window center
        widest = MzConfig(delta_d=1e3, delta_m=1e3, delta_c=1e3)
        curve = eval_analytic(LinkParams(), widest, GridSpec(n_points=64))
        assert math.isfinite(curve.window_center)
        for fields in ({"delta_d": 1e200}, {"delta_d": 1e154, "delta_m": 1e154},
                       {"delta_d": 1e308, "delta_m": 1e308}):
            with pytest.raises(ValueError, match=r"^delta_d must lie in \[0, 1000\], got 1e\+"):
                MzConfig(**fields)

    def test_pair_sums_in_pairs_order(self):
        config = MzConfig(delta_d=0.3, delta_m=0.2, delta_c=0.05)
        shifter = {"c": config.delta_c, "d": config.delta_d, "m": config.delta_m}
        assert config.pair_sums == tuple(shifter[a] + shifter[b] for a, b in PAIRS)
        assert config.pair_sums == (0.1, 0.25, 0.35, 0.5)

    def test_effective_kappa_matches_derive(self):
        params = LinkParams(convention="calibrated")
        assert effective_kappa(params) == derive(params).kappa

    def test_pairs_constant(self):
        assert PAIRS == ("cc", "cm", "dc", "dm")


# Each row with the conversion a RunConfig field checks it with (None: already
# SI), and each row that no field has, in SI.
_FIELD_ROWS = [f.metadata["domain"] for f in fields(RunConfig) if f.metadata["domain"]]
_ROW_CONVERSIONS = list(dict.fromkeys(
    _FIELD_ROWS + [(row, None) for row in DOMAIN if row not in dict(_FIELD_ROWS)]))


def _spelled_ends(row, to_si):
    """The row's ends in the unit of ``to_si``, as the refusal spells them; an
    end open at 0 is replaced by the smallest positive float."""
    unit = 1.0 if to_si is None else to_si(1.0)
    lo, hi = (float(f"{end / unit:g}") for end in DOMAIN[row])
    return (math.ulp(0.0) if lo == 0.0 and row in ("t_fiber", "t_leg") else lo), hi


class TestOneConversion:
    """check_domain returns the SI value it checked, and RunConfig builds its
    records from those values alone."""

    @pytest.mark.parametrize("row, to_si", _ROW_CONVERSIONS,
                             ids=[f"{row}-{getattr(to_si, '__name__', 'si')}"
                                  for row, to_si in _ROW_CONVERSIONS])
    def test_check_domain_returns_the_value_it_checked(self, row, to_si):
        lo, hi = _spelled_ends(row, to_si)
        for value in (lo, hi, 0.5 * (lo + hi)):
            returned = check_domain(row, value, "x", to_si)
            if to_si is None:
                assert returned is value
            else:
                assert returned.hex() == to_si(value).hex()

    @staticmethod
    def _draw(rng, name):
        row, to_si = RunConfig.__dataclass_fields__[name].metadata["domain"]
        lo, hi = _spelled_ends(row, to_si)
        pick = rng.random()
        if pick < 0.1:
            return lo
        if pick < 0.2:
            return hi
        if lo > 0.0 and pick < 0.6:
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))
        return rng.uniform(lo, hi)

    def test_records_equal_the_hand_converted_ones(self):
        rng = random.Random(2006)
        for _ in range(500):
            values = {f.name: self._draw(rng, f.name) for f in fields(RunConfig)
                      if f.metadata["domain"]}
            # the spread stays small against lambda0
            values["delta_lambda_nm"] = min(values["delta_lambda_nm"],
                                            0.99e-2 * values["lambda0_nm"])
            for name in ("t_rising_ns", "t_falling_ns"):
                if rng.random() < 0.3:
                    values[name] = None
            config = RunConfig(**values, convention=rng.choice(CONVENTIONS),
                               detector_profile=rng.choice([None, *DETECTOR_PROFILES]))
            link = LinkParams(
                lambda0=nm_to_m(config.lambda0_nm), delta_lambda=nm_to_m(config.delta_lambda_nm),
                dispersion=dispersion_to_si(config.dispersion_ps_per_km_nm),
                group_index=config.group_index, fiber_length=km_to_m(config.length_km),
                leg_length=config.leg_length_m, t_fiber=config.t_fiber, t_leg=config.t_leg,
                convention=config.convention)
            mz = MzConfig(delta_d=config.delta_d_m, delta_m=config.delta_m_m,
                          delta_c=config.delta_c_m)
            profile = DETECTOR_PROFILES.get(config.detector_profile, (0.0, 0.0))
            edges = tuple(profile[i] if value is None else ns_to_s(value)
                          for i, value in enumerate((config.t_rising_ns, config.t_falling_ns)))
            # repr keeps every bit of a float, the sign of a zero included
            assert repr(astuple(config.link_params())) == repr(astuple(link))
            assert repr(astuple(config.mz_config())) == repr(astuple(mz))
            assert repr(config.resolved_edge_times()) == repr(edges)
