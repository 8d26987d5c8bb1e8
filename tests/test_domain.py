"""Every computation over the input domain returns finite values or a refusal that stays.

``core.DOMAIN`` is the one statement of the inputs the toolkit accepts.  Over
it no derived scalar, bound, term or mass leaves the float range, so the
library keeps no float-range refusals of its own.  A seeded sweep draws links
log-uniformly over the whole domain, both ends of every row included, and
runs each library entry point under numpy's strictest error state.
"""

import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from mzqkd import spectra
from mzqkd.bb84 import MIDDLE_WINDOW_RHO, default_baseline, detection_table, g_term_analysis
from mzqkd.compensation import plan
from mzqkd.core import CONVENTIONS, DOMAIN, LinkParams, MzConfig, PrecompMultiplier, derive
from mzqkd.design import RATE_MODES, build_design_report, sweep_lengths
from mzqkd.errors import InfeasibleDesignError, ResolutionError
from mzqkd.io import curve_arrays
from mzqkd.spectra import (GridSpec, component_terms, eval_analytic, eval_oracle,
                           exact_window_masses, max_normalized_deviation)

# the smallest positive float stands for the transmissions' open end at 0
_SMALLEST = math.ulp(0.0)


def _draw(rng, row, end=None, hi=None):
    """One value of ``row``: its low or high end, or log-uniform in between."""
    lo, top = DOMAIN[row]
    top = top if hi is None else hi
    if row in ("t_fiber", "t_leg"):
        lo = _SMALLEST
    if end is None:
        end = ("lo", "hi", None, None, None, None)[int(rng.integers(6))]
    if end is not None:
        return lo if end == "lo" else top
    # a row that starts at 0 is drawn over its top 12 decades
    floor = lo if lo > 0.0 else top * 1e-12
    return float(math.exp(rng.uniform(math.log(floor), math.log(top))))


def _link(rng, index, end=None):
    """A link, shifters, a compensating element and design inputs over the domain."""
    lambda0 = _draw(rng, "lambda0", end)
    # the spread also keeps delta_lambda/lambda0 < 1e-2
    widest = min(DOMAIN["delta_lambda"][1], 1e-2 * lambda0 * (1.0 - 2.0**-50))
    dispersion = 0.0 if end is None and rng.random() < 0.1 else _draw(rng, "dispersion", end)
    params = LinkParams(
        lambda0=lambda0, delta_lambda=_draw(rng, "delta_lambda", end, widest),
        dispersion=dispersion, group_index=_draw(rng, "group_index", end),
        fiber_length=_draw(rng, "fiber_length", end), leg_length=_draw(rng, "leg_length", end),
        t_fiber=_draw(rng, "t_fiber", end), t_leg=_draw(rng, "t_leg", end),
        convention=CONVENTIONS[index % 2])
    config = MzConfig(*(_draw(rng, "shifter", end) for _ in range(3)))
    sign = -1.0 if rng.random() < 0.5 else 1.0
    precomp = PrecompMultiplier(sign * _draw(rng, "a_cp", end), -sign * _draw(rng, "b_cp", end))
    edges = {"t_rising": _draw(rng, "edge_time", end), "t_falling": _draw(rng, "edge_time", end),
             "safety_factor": _draw(rng, "safety_factor", end)}
    return params, config, precomp, _draw(rng, "rho", end), edges


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def test_domain_sweep_returns_finite_values_or_a_refusal_that_stays():
    rng = np.random.default_rng(1)
    outcomes = collections.Counter()
    links = [_link(rng, 0, "lo"), _link(rng, 1, "hi")] + [_link(rng, i, None) for i in range(300)]
    for index, (params, config, precomp, rho, edges) in enumerate(links):
        lengths = np.sort([_draw(rng, "fiber_length") for _ in range(4)])
        actual = None if index % 2 else _draw(rng, "shifter")
        clock = math.exp(rng.uniform(math.log(1e3), math.log(1e18)))

        def table():
            t = detection_table(params, default_baseline(params, rho))
            return [(r.mass_o, r.mass_p, r.p_o, r.p_p) for r in t.rows]

        calls = {
            "derive": lambda: derive(params, precomp=precomp),
            "window masses": lambda: exact_window_masses(
                component_terms(derive(params, precomp=precomp), [config, MzConfig()]),
                MIDDLE_WINDOW_RHO),
            "eval_analytic": lambda: eval_analytic(
                params, config, GridSpec(n_points=64, pad_sigmas=_draw(rng, "pad_sigmas"))),
            # the widest explicit grid bounds the domain admits
            "eval_analytic bounds": lambda: eval_analytic(
                params, config, GridSpec(n_points=64, x_min=DOMAIN["grid_bound"][0],
                                         x_max=DOMAIN["grid_bound"][1], relative=True)),
            "design report": lambda: build_design_report(params, rho, actual_phase_sum=actual,
                                                         **edges),
            "sweep": lambda: sweep_lengths(params, rho, lengths, **edges),
            "bb84": table,
            "gterm": lambda: g_term_analysis(params, lengths, config.delta_c),
            "plan": lambda: plan(params, clock, rho, RATE_MODES[index % 3], **edges),
        }
        for name, call in calls.items():
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    result = call()
            except InfeasibleDesignError:
                outcomes[name, "infeasible"] += 1
                continue
            except ResolutionError:
                outcomes[name, "resolution"] += 1
                continue
            except ValueError as exc:
                assert name == "gterm" and ("G vanishes" in str(exc) or "G rounds to 0" in str(exc))
                outcomes[name, "no G maximum"] += 1
                continue
            outcomes[name, "finite"] += 1
            assert _finite(*_numbers(result)), (name, params, config, precomp, rho, edges)
    # every entry point ran to a finite result on most links
    for name in calls:
        assert outcomes[name, "finite"] > 100, outcomes


def _numbers(result):
    """The numeric values of a result: arrays, floats and dataclass fields."""
    if isinstance(result, spectra.SpectrumCurve):
        return [result.intensity_o, result.intensity_p]
    if isinstance(result, dict):
        return list(result.values())
    if hasattr(result, "__dataclass_fields__"):
        values = [getattr(result, f) for f in result.__dataclass_fields__]
        return [v for v in values if isinstance(v, (float, int, np.ndarray))]
    return [result]


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_domain_ends_derive_finite_records(end):
    params, config, precomp, _, _ = _link(np.random.default_rng(0), 0, end)
    d = derive(params, precomp=precomp)
    assert _finite(d.delta_k, d.k0, d.kappa, d.delta1, d.gamma, d.sigma, d.fwhm, d.origin)
    assert d.delta_k > 0 and d.sigma > 0 and 2.0 * d.delta_k**2 / d.gamma > 0


@pytest.mark.parametrize("params", [
    pytest.param(LinkParams(fiber_length=50e3, convention="calibrated", t_fiber=1.5e-320),
                 id="50km-calibrated-t_fiber-1.5e-320"),
    pytest.param(LinkParams(fiber_length=500e3, t_fiber=1.5e-320), id="500km-t_fiber-1.5e-320"),
    pytest.param(LinkParams(fiber_length=500e3, t_leg=3e-157), id="500km-t_leg-3e-157"),
])
def test_subnormal_transmissions_scale_the_lossless_link(params):
    # Amplitudes that carried a subnormal t_fiber t_leg^2 would keep a few bits,
    # and terms that cancel would leave negatives beyond the rounding-noise
    # test; both routes return the lossless link, which the printed absolute
    # intensities scale once.  A peak-normalized curve and the routes'
    # deviation then read the lossless link's values, not its subnormal tails.
    baseline = default_baseline(params)
    config = MzConfig(delta_d=baseline, delta_m=baseline)
    configs = [config, MzConfig(delta_d=baseline, delta_m=baseline + 0.5 * params.lambda0)]
    lossless = replace(params, t_fiber=1.0, t_leg=1.0)
    factor = params.t_fiber * params.t_leg**2
    grid = GridSpec(n_points=1024)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        curves = eval_analytic(params, config, grid), eval_oracle(params, config, grid)
        masses = exact_window_masses(component_terms(derive(params), configs),
                                     MIDDLE_WINDOW_RHO)
    units = eval_analytic(lossless, config, grid), eval_oracle(lossless, config, grid)
    for curve, unit in zip(curves, units):
        assert np.array_equal(curve.intensity_o, unit.intensity_o)
        assert np.array_equal(curve.intensity_p, unit.intensity_p)
        _, yo, yp = curve_arrays(curve, "absolute")
        assert np.array_equal(yo, unit.intensity_o * factor)
        assert np.array_equal(yp, unit.intensity_p * factor)
        for got, want in zip(curve_arrays(curve, "peak"), curve_arrays(unit, "peak")):
            assert np.array_equal(got, want)
    assert max_normalized_deviation(*curves) == max_normalized_deviation(*units)
    unit_masses = exact_window_masses(component_terms(derive(lossless), configs),
                                      MIDDLE_WINDOW_RHO)
    assert np.array_equal(masses, unit_masses) and np.all(masses > 0.0)
