"""End-to-end acceptance criteria for the toolkit.

Each test prints one ``ACCEPTANCE <id> <name>: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite doubles as a checklist.  Random
draws are seeded; every tolerance is fixed here, not tuned at runtime.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mzqkd.bb84 import detection_table, g_term_analysis
from mzqkd.compensation import plan
from mzqkd.core import LinkParams, MzConfig, PrecompMultiplier, derive, x_rho
from mzqkd.design import max_rate, min_phase_sum, sweep_lengths, visibility_of_rho
from mzqkd.spectra import (GridSpec, eval_analytic, eval_oracle,
                           max_normalized_deviation, middle_window_masses)
from mzqkd.units import C0

_trapz = getattr(np, "trapezoid", None) or np.trapz


def report(criterion: str, name: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:<3} {name}: {status}{suffix}")
    return passed


def test_01_visibility_table():
    targets = {1.0: 0.8427, 2.0: 0.99532, 3.0: 0.99998}
    errors = {rho: abs(visibility_of_rho(rho) - want) for rho, want in targets.items()}
    ok = all(err <= 5e-4 for err in errors.values())
    detail = ", ".join(f"rho={rho:g} err={err:.2e}" for rho, err in errors.items())
    assert report("1", "visibility-table", ok, detail)


def test_02_exact_algebraic_identities():
    rng = np.random.default_rng(20260810)
    n_draws = 1000
    worst_product = worst_ratio = worst_rho_ratio = 0.0
    for _ in range(n_draws):
        params = LinkParams(
            lambda0=rng.uniform(1.3e-6, 1.6e-6),
            delta_lambda=rng.uniform(1e-10, 6e-10),
            dispersion=rng.uniform(1e-6, 25e-6),
            fiber_length=rng.uniform(0.0, 5e5),
            leg_length=rng.uniform(0.0, 5.0),
            convention=rng.choice(["first_principles", "calibrated"]),
        )
        rho = rng.uniform(0.5, 4.0)
        product = max_rate(params, rho, "linear") * min_phase_sum(params, rho)
        worst_product = max(worst_product, abs(product / C0 - 1.0))
        linear = max_rate(params, rho, "linear")
        worst_ratio = max(
            worst_ratio,
            abs(max_rate(params, rho, "nonlinear") / linear - 2.0 / 3.0) / (2.0 / 3.0),
            abs(max_rate(params, rho, "general") / linear - 2.0) / 2.0)
        base = min_phase_sum(params, rho)
        worst_rho_ratio = max(
            worst_rho_ratio,
            abs(min_phase_sum(params, 2.0 * rho) / base - 2.0) / 2.0,
            abs(min_phase_sum(params, 3.0 * rho) / base - 3.0) / 3.0)
    ok = worst_product <= 1e-12 and worst_ratio <= 1e-12 and worst_rho_ratio <= 1e-12
    assert report("2", "exact-identities", ok,
                  f"{n_draws} draws, worst rel errs: product={worst_product:.2e}, "
                  f"mode-ratios={worst_ratio:.2e}, rho-ratios={worst_rho_ratio:.2e}")


def test_03_worked_example_chain():
    phase_sum = 0.423
    rate_linear = C0 / phase_sum
    rate_nonlinear = C0 / (1.5 * phase_sum)
    gate = (0.5 - phase_sum / 2.0) / C0
    checks = {
        "linear vs 710 Mbps": abs(rate_linear - 710e6) / 710e6 <= 5e-3,
        "nonlinear vs 473 Mbps": abs(rate_nonlinear - 473e6) / 473e6 <= 5e-3,
        "gate vs 0.962 ns": abs(gate - 0.962e-9) / 0.962e-9 <= 1e-3,
    }
    ok = all(checks.values())
    assert report("3", "worked-example-chain", ok,
                  f"{rate_linear / 1e6:.1f} Mbps, {rate_nonlinear / 1e6:.1f} Mbps, "
                  f"{gate * 1e9:.4f} ns")


def test_04_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.time()
    worst = 0.0
    grid = GridSpec(n_points=1024)
    for length in (0.0, 1e3, 50e3):
        params = LinkParams(fiber_length=length)
        x3 = x_rho(derive(params).sigma, 3.0)
        for _ in range(5):
            config = MzConfig(delta_d=rng.uniform(1.05, 1.8) * 2.0 * x3,
                              delta_m=rng.uniform(1.05, 1.8) * 2.0 * x3)
            deviation = max_normalized_deviation(
                eval_analytic(params, config, grid),
                eval_oracle(params, config, grid))
            worst = max(worst, deviation)
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    assert report("4", "oracle-equivalence", ok,
                  f"worst deviation {worst:.2e}, {elapsed:.1f}s for 15 curves")


def test_05_unitarity_under_phase_sweeps():
    params = LinkParams(fiber_length=50e3)
    lam = params.lambda0
    offsets = (0.0, lam / 4.0, lam / 2.0, 3.0 * lam / 4.0)
    baseline = 0.75  # sum 1.5 m clears 4*X_3 = 1.34 m at 50 km
    grid = GridSpec(n_points=2048, pad_sigmas=8.0)
    curves = [eval_analytic(params, MzConfig(delta_d=baseline + pd, delta_m=baseline + pm), grid)
              for pd in offsets for pm in offsets]
    totals = [_trapz(c.intensity_o, c.x_relative) + _trapz(c.intensity_p, c.x_relative)
              for c in curves]
    spread = (max(totals) - min(totals)) / max(totals)
    ok = spread <= 1e-6
    assert report("5", "unitarity-phase-sweep", ok,
                  f"relative spread {spread:.2e} over 16 settings")


@pytest.fixture(scope="module")
def truth_table():
    params = LinkParams(fiber_length=50e3, convention="calibrated")
    return detection_table(params, baseline=0.25)


def test_06a_matched_basis_shares(truth_table):
    shares = {
        ("X", 0): truth_table.row("X", 0, "X").p_o,
        ("X", 1): truth_table.row("X", 1, "X").p_p,
        ("Z", 0): truth_table.row("Z", 0, "Z").p_o,
        ("Z", 1): truth_table.row("Z", 1, "Z").p_p,
    }
    ok = all(v >= 0.999 for v in shares.values())
    assert report("6a", "bb84-matched-shares", ok,
                  "min correct share " + format(min(shares.values()), ".9f"))


def test_06b_bit_flip_swaps_shares():
    # The exact model keeps a window-position phase correction whose share
    # asymmetry is (pi*delta_lambda/lambda0)^2/4 ~ 1e-7; the 1e-9 target
    # below is stated for the idealized sign flip and is expected to fail.
    table = detection_table(LinkParams(fiber_length=50e3, convention="calibrated"),
                            baseline=0.25)
    asymmetry = max(
        abs(table.row("X", 0, "X").p_o - table.row("X", 1, "X").p_p),
        abs(table.row("Z", 0, "Z").p_o - table.row("Z", 1, "Z").p_p),
    )
    ok = asymmetry <= 1e-9
    report("6b", "bb84-bit-flip-swap", ok, f"measured asymmetry {asymmetry:.3e}")
    assert ok, (
        f"bit-flip share asymmetry {asymmetry:.3e} exceeds 1e-9; the exact "
        "interference phase carries a (pi*delta_lambda/lambda0)^2/4 ~ 1e-7 "
        "window-position correction, so an exact swap is unattainable")


def test_06c_mismatched_bases_ambiguous(truth_table):
    deviations = [
        abs(truth_table.row(alice, bit, bob).p_o - 0.5)
        for alice, bob in (("X", "Z"), ("Z", "X"))
        for bit in (0, 1)
    ]
    ok = max(deviations) <= 0.01
    assert report("6c", "bb84-mismatched-shares", ok,
                  f"max |share-0.5| = {max(deviations):.2e}")


def test_07_precompensation():
    params = LinkParams(fiber_length=50e3)
    config = MzConfig(delta_d=0.75, delta_m=0.70)
    grid = GridSpec(n_points=768, x_min=-2.0, x_max=2.0, relative=True)

    d = derive(params)
    span = params.fiber_length + 2.0 * params.leg_length
    full = PrecompMultiplier(a_cp=params.group_index * span, b_cp=d.kappa * span)
    dev_full = max_normalized_deviation(
        eval_analytic(replace(params, dispersion=0.0), config, grid),
        eval_oracle(params, config, grid, precomp=full))

    active = 20e3
    span = params.fiber_length - active
    partial = PrecompMultiplier(a_cp=params.group_index * span, b_cp=d.kappa * span)
    dev_partial = max_normalized_deviation(
        eval_analytic(replace(params, fiber_length=active), config, grid),
        eval_oracle(params, config, grid, precomp=partial))

    ok = dev_full <= 1e-6 and dev_partial <= 1e-6
    assert report("7", "precompensation", ok,
                  f"full {dev_full:.2e}, partial {dev_partial:.2e}")


def test_08_g_term_maximum():
    params = LinkParams()
    lengths = np.arange(50.0, 2000.0, 1.0)
    analysis = g_term_analysis(params, lengths)
    rel_err = abs(analysis.argmax_length - analysis.analytic_argmax) \
        / analysis.analytic_argmax
    magnitudes = np.abs(analysis.g_values)
    peak = int(np.argmax(magnitudes))
    monotone = bool(np.all(np.diff(magnitudes[peak:]) <= 0.0))

    cal = g_term_analysis(LinkParams(convention="calibrated"), np.array([1000.0]))
    ok = rel_err <= 0.01 and monotone
    assert report("8", "g-term-maximum", ok,
                  f"argmax {analysis.argmax_length:.0f} m vs analytic "
                  f"{analysis.analytic_argmax:.0f} m (err {rel_err:.2%}); "
                  f"calibrated analytic argmax {cal.analytic_argmax:.0f} m, "
                  "reference 1236 m (reported, not asserted)")


def test_09_sweep_shapes():
    lengths = np.linspace(50e3, 500e3, 46)

    sweep_fp = sweep_lengths(LinkParams(), 3.0, lengths)
    sums_fp = sweep_fp["min_phase_sum_m"]
    slope_fp, intercept = np.polyfit(lengths, sums_fp, 1)
    fitted = slope_fp * lengths + intercept
    ss_res = float(np.sum((sums_fp - fitted) ** 2))
    ss_tot = float(np.sum((sums_fp - sums_fp.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot

    products = sweep_fp["rate_linear_hz"] * lengths
    product_spread = float(products.max() / products.min() - 1.0)

    sums_cal = sweep_lengths(LinkParams(convention="calibrated"), 3.0,
                             lengths)["min_phase_sum_m"]
    slope_cal = np.polyfit(lengths, sums_cal, 1)[0] * 1e5  # m per 100 km
    slope_err = abs(slope_cal - 0.8454) / 0.8454

    ok = r_squared > 0.999 and product_spread < 0.01 and slope_err <= 0.02
    assert report("9", "sweep-shapes", ok,
                  f"R^2={r_squared:.6f}, rate*L spread {product_spread:.2%}, "
                  f"calibrated slope {slope_cal:.4f} m/100km (err {slope_err:.2%}); "
                  f"first-principles slope {slope_fp * 1e5:.4f} m/100km (recorded)")


def test_10_planner_monotonicity_and_scenario():
    params = LinkParams(fiber_length=405e3, convention="calibrated")
    clocks = np.geomspace(0.05e9, 20e9, 100)
    actives = []
    feasible = True
    for clock in clocks:
        result = plan(params, float(clock), 3.0)
        actives.append(result.active_length)
        rate = max_rate(replace(params, fiber_length=result.active_length), 3.0)
        feasible = feasible and rate >= clock
    non_increasing = all(b <= a + 1e-9 for a, b in zip(actives, actives[1:]))

    scenario = plan(params, 2.5e9, 3.0)
    arithmetic = scenario.dcf_equivalent_length == pytest.approx(
        scenario.link_length - scenario.active_length, abs=1e-9)
    ok = non_increasing and feasible and scenario.regime == "partial_dcf" and arithmetic
    assert report("10", "planner", ok,
                  f"active {scenario.active_length / 1e3:.2f} km, compensate "
                  f"{scenario.dcf_equivalent_length / 1e3:.2f} km; published "
                  "scenario quotes 20/385 km (documented discrepancy)")
