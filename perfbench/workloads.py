"""The benchmark's workloads: seeded inputs, one operation, output check.

Every workload is a closed loop with one client: a link designer who waits
for each answer before asking the next.  Inputs come in fixed blocks.  The
position of each operation in a block fixes its kind and so its cost class;
the seed draws the physical parameters inside each kind and the order of the
block.  Whole blocks keep the cost mix identical between seeds, which keeps
the median and tail latencies inside one cost class instead of on the edge
between two.  The share of each kind in a block is an assumption chosen for
that steadiness; no recorded use of the toolkit stands behind it.

Operations call the toolkit through module attributes (``spectra.eval_oracle``,
``cli.main``) so that the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from mzqkd import cli, compensation, spectra
from mzqkd.core import CONVENTIONS, LinkParams, MzConfig
from mzqkd.spectra import GridSpec

import reference

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Output tolerances (see README.md, "Output checks").
ORACLE_MAX_DEVIATION = 1e-6
ORACLE_NORM_TOL = 1e-8
ROUNDING = 1e-9           # unitarity remainder may dip below zero by this much
PRINTED_RTOL = 1e-9       # outputs print 12 significant digits
REFERENCE_RTOL = 5e-3     # published 0.423 m / 710 / 473 Mbps design values
PLANNER_RTOL = 1e-4       # max_rate(active length) against the clock
MATCHED_SHARE_MIN = 0.999
MISMATCHED_SHARE_TOL = 1e-3
SPECTRUM_MASS_TOL = 1e-6  # both exits together carry t_fiber*t_leg^2/2
MASS_CHECK_MIN_POINTS = 4096  # coarser grids under-sample the fringes


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(value: float, expected: float, rtol: float, what: str) -> None:
    _require(abs(value - expected) <= rtol * abs(expected),
             f"{what}: got {value!r}, expected {expected!r} (rtol {rtol:g})")


def _mm(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


@dataclass(frozen=True)
class Workload:
    name: str
    make_block: Callable[[random.Random], list]
    run: Callable[[object], object]
    check: Callable[[object, object], None]
    warmup_ops: int       # operations run untimed before measuring


def blocks(workload: Workload, seed: int) -> Iterator[list]:
    """Endless sequence of input blocks; the same seed gives the same blocks."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.make_block(rng)


# --------------------------------------------------------------- oracle_verify

@dataclass(frozen=True)
class OracleOp:
    params: LinkParams
    config: MzConfig
    grid: GridSpec
    clock_hz: float | None = None    # set: compensated link planned for this clock
    placement: str = "pre"


def _plain_oracle_op(rng: random.Random, length_km: float, convention: str,
                     n_points: int, shifter_range: tuple[float, float]) -> OracleOp:
    return OracleOp(
        params=LinkParams(fiber_length=length_km * 1e3, convention=convention),
        config=MzConfig(delta_d=_mm(rng, *shifter_range), delta_m=_mm(rng, *shifter_range)),
        grid=GridSpec(n_points=n_points))


def _compensated_oracle_op(rng: random.Random) -> OracleOp:
    length_km, convention = rng.choice(
        ((50.0, "first_principles"), (50.0, "calibrated"), (500.0, "calibrated")))
    # Up to half the link stays uncompensated; beyond that the 500 km link
    # needs twice the wavenumber samples and leaves this cost class.
    active_m = length_km * 1e3 * rng.uniform(0.05, 0.5)
    return OracleOp(
        params=LinkParams(fiber_length=length_km * 1e3, convention=convention),
        config=MzConfig(delta_d=_mm(rng, 0.6, 0.8), delta_m=_mm(rng, 0.6, 0.8)),
        grid=GridSpec(n_points=1024, x_min=-2.0, x_max=2.0, relative=True),
        clock_hz=reference.max_rate(active_m, convention, 3.0),
        placement=rng.choice(("pre", "post", "symmetric")))


def make_oracle_block(rng: random.Random) -> list[OracleOp]:
    """12 operations whose cost is fixed by the wavenumber sample count n_k,
    which the shifter ranges pin down for each kind:

    - 4 links at 0, 1 or 50 km, either convention, 1024 points (n_k 16384);
    - 3 links at 50 km first-principles with wide shifters, 1024 points
      (n_k 32768): the median falls in this class;
    - 3 compensated links, 1024 points (n_k 32768, plus the planner): the
      tail percentile falls in this class for three or four blocks;
    - 1 link at 4096 points (n_k 16384) and 1 at 500 km calibrated (n_k 65536).
    """
    def short_link(n_points: int) -> OracleOp:
        return _plain_oracle_op(rng, rng.choice((0.0, 1.0, 50.0)), rng.choice(CONVENTIONS),
                                n_points, (0.2, 0.3))

    ops = [short_link(1024) for _ in range(4)]
    ops += [_plain_oracle_op(rng, 50.0, "first_principles", 1024, (0.6, 0.8))
            for _ in range(3)]
    ops += [_compensated_oracle_op(rng) for _ in range(3)]
    ops.append(short_link(4096))
    ops.append(_plain_oracle_op(rng, 500.0, "calibrated", 1024, (0.5, 0.8)))
    rng.shuffle(ops)
    return ops


def run_oracle(op: OracleOp):
    """One verified curve pair: analytic spectra, oracle spectra, deviation."""
    if op.clock_hz is None:
        analytic = spectra.eval_analytic(op.params, op.config, op.grid)
        oracle = spectra.eval_oracle(op.params, op.config, op.grid)
    else:
        plan = compensation.plan(op.params, op.clock_hz, 3.0)
        multiplier = compensation.precompensate_input(op.params, plan)
        oracle = spectra.eval_oracle(op.params, op.config, op.grid,
                                     precomp=multiplier, placement=op.placement)
        analytic = spectra.eval_analytic(
            replace(op.params, fiber_length=plan.active_length), op.config, op.grid)
    deviation = spectra.max_normalized_deviation(analytic, oracle)
    return analytic, oracle, deviation


def check_oracle(op: OracleOp, result) -> None:
    analytic, oracle, _ = result
    # Recomputed here rather than trusted from the operation.
    _require(analytic.x.size == oracle.x.size, "curves differ in size")
    _require(bool(np.allclose(analytic.x_relative, oracle.x_relative, rtol=0, atol=1e-9)),
             "curves sampled on different relative grids")
    deviation = 0.0
    for ya, yb in ((analytic.intensity_o, oracle.intensity_o),
                   (analytic.intensity_p, oracle.intensity_p)):
        peak = max(float(ya.max()), float(yb.max()))
        _require(peak > 0, "all-zero curve")
        deviation = max(deviation, float(np.max(np.abs(ya - yb))) / peak)
    _require(deviation <= ORACLE_MAX_DEVIATION,
             f"analytic/oracle deviation {deviation:.3e} > {ORACLE_MAX_DEVIATION:g}")
    checks = oracle.checks
    _require(abs(checks["norm_in"] - 1.0) <= ORACLE_NORM_TOL,
             f"input norm {checks['norm_in']!r}")
    _require(checks["unused_exit_remainder"] >= -ROUNDING,
             f"negative unitarity remainder {checks['unused_exit_remainder']!r}")


# ------------------------------------------------------ design_mix and start-up

@dataclass(frozen=True)
class CliOp:
    kind: str                     # subcommand-format, selects the check
    argv: tuple[str, ...]
    spec: dict                    # the drawn inputs the check needs


def _length_km(rng: random.Random) -> float:
    return round(rng.uniform(0.0, 500.0), 3)


def _design_op(rng, fmt: str) -> CliOp:
    if fmt == "text":
        # The published reference case: 50 km, calibrated, rho = 3.
        spec = {"length_km": 50.0, "convention": "calibrated", "rho": 3.0, "sum_m": None}
    else:
        spec = {"length_km": _length_km(rng), "convention": rng.choice(CONVENTIONS),
                "rho": round(rng.uniform(2.0, 3.5), 2)}
        bound = reference.min_phase_sum(spec["length_km"] * 1e3, spec["convention"], spec["rho"])
        spec["sum_m"] = round(bound * rng.uniform(1.0, 1.5), 4)
    argv = ["design", "--length-km", repr(spec["length_km"]),
            "--convention", spec["convention"], "--rho", repr(spec["rho"]), "--format", fmt]
    if spec["sum_m"] is not None:
        argv += ["--sum-m", repr(spec["sum_m"])]
    return CliOp(f"design-{fmt}", tuple(argv), spec)


def _compensate_op(rng, fmt: str) -> CliOp:
    length_km = round(rng.uniform(50.0, 500.0), 3)
    convention = rng.choice(CONVENTIONS)
    mode = rng.choice(("linear", "nonlinear"))
    # Active lengths of 20 km and more keep the planner's 1 m bisection
    # tolerance below 1e-4 of the rate.
    active_m = length_km * 1e3 * rng.uniform(0.4, 0.9)
    clock_ghz = round(reference.max_rate(active_m, convention, 3.0, mode) / 1e9, 6)
    spec = {"length_km": length_km, "convention": convention, "mode": mode,
            "clock_ghz": clock_ghz}
    argv = ("compensate", "--length-km", repr(length_km), "--convention", convention,
            "--mode", mode, "--clock-ghz", repr(clock_ghz), "--format", fmt)
    return CliOp(f"compensate-{fmt}", argv, spec)


def _sweep_op(rng, fmt: str) -> CliOp:
    l_min = round(rng.uniform(0.0, 250.0), 3)
    l_max = round(rng.uniform(l_min + 50.0, 500.0), 3)
    spec = {"l_min_km": l_min, "l_max_km": l_max, "steps": 46,
            "convention": rng.choice(CONVENTIONS), "rho": round(rng.uniform(2.0, 3.5), 2)}
    argv = ["sweep", "--l-min-km", repr(l_min), "--l-max-km", repr(l_max),
            "--steps", str(spec["steps"]), "--convention", spec["convention"],
            "--rho", repr(spec["rho"]), "--format", fmt]
    if fmt == "svg-plot":
        argv += ["--quantity", rng.choice(("phase-sum", "rate"))]
    return CliOp(f"sweep-{fmt}", tuple(argv), spec)


def _spectra_op(rng, fmt: str, n_points: int) -> CliOp:
    spec = {"length_km": _length_km(rng), "convention": rng.choice(CONVENTIONS),
            "n_points": n_points}
    argv = ["spectra", "--length-km", repr(spec["length_km"]),
            "--convention", spec["convention"], "--n-points", str(n_points), "--format", fmt]
    if fmt == "svg-plot":
        argv += ["--normalize", "peak", "--relative-axis"]
    return CliOp(f"spectra-{fmt}", tuple(argv), spec)


def _bb84_op(rng, fmt: str) -> CliOp:
    spec = {"length_km": _length_km(rng), "convention": rng.choice(CONVENTIONS)}
    argv = ("bb84", "--length-km", repr(spec["length_km"]),
            "--convention", spec["convention"], "--format", fmt)
    return CliOp(f"bb84-{fmt}", argv, spec)


def _gterm_op(rng, steps: int) -> CliOp:
    l_min = round(rng.uniform(0.05, 5.0), 3)
    l_max = round(rng.uniform(l_min + 5.0, 500.0), 3)
    spec = {"l_min_km": l_min, "l_max_km": l_max, "steps": steps,
            "convention": rng.choice(CONVENTIONS)}
    argv = ("gterm", "--l-min-km", repr(l_min), "--l-max-km", repr(l_max),
            "--steps", str(steps), "--convention", spec["convention"])
    return CliOp("gterm-csv", argv, spec)


def make_cli_block(rng: random.Random, small: bool = False) -> list[CliOp]:
    """15 operations, every subcommand but oracle-check and every formatter.

    Cost classes in process: six 3-6 ms design/compensate/sweep calls, one
    15 ms spectra plot, seven ~20 ms eval_analytic calls (two spectra
    exports, five bb84 tables) and one ~100 ms 4001-step gterm.  The median
    falls inside the ~20 ms class and the tail inside gterm.  These weights
    are assumed, not measured: with equal weights per subcommand the median
    would sit on the edge between the 5 ms and the 15 ms classes.  ``small``
    shrinks the grids for the cold-process start-up probe.
    """
    n_points, steps = (512, 201) if small else (4096, 4001)
    ops = [_design_op(rng, "text"), _design_op(rng, "json"),
           _compensate_op(rng, "text"), _compensate_op(rng, "json"),
           _sweep_op(rng, "csv"), _sweep_op(rng, "svg-plot"),
           _spectra_op(rng, "svg-plot", n_points), _spectra_op(rng, "csv", n_points),
           _spectra_op(rng, "json", n_points)]
    ops += [_bb84_op(rng, fmt) for fmt in ("csv", "json", "csv", "json", "csv")]
    ops.append(_gterm_op(rng, steps))
    rng.shuffle(ops)
    return ops


def run_cli_in_process(op: CliOp) -> tuple[int, str]:
    """One ``cli.main(argv)`` call with its output captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def check_cli(op: CliOp, result) -> None:
    code, text = result
    _require(code == 0, f"exit code {code}")
    _CLI_CHECKS[op.kind.split("-")[0]](op, text)


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_design(op: CliOp, text: str) -> None:
    s = op.spec
    length_m = s["length_km"] * 1e3
    if op.kind == "design-text":
        values = {}
        for line in text.splitlines():
            name, value = line.split()[:2]
            values[name] = float(value)
        report = {"visibility": values["visibility"],
                  "min_phase_sum_m": values["min_phase_sum"],
                  "max_rate_linear_hz": values["max_rate_linear"],
                  "max_rate_nonlinear_hz": values["max_rate_nonlinear"],
                  "max_rate_general_hz": values["max_rate_general"]}
    else:
        report = json.loads(text)["report"]
    expected = {
        "visibility": math.erf(s["rho"]),
        "min_phase_sum_m": reference.min_phase_sum(length_m, s["convention"], s["rho"]),
        "max_rate_linear_hz": reference.max_rate(length_m, s["convention"], s["rho"], "linear"),
        "max_rate_nonlinear_hz": reference.max_rate(length_m, s["convention"], s["rho"],
                                                    "nonlinear"),
        "max_rate_general_hz": reference.max_rate(length_m, s["convention"], s["rho"],
                                                  "general"),
    }
    for key, value in expected.items():
        _close(report[key], value, PRINTED_RTOL, key)
    if s["sum_m"] is not None:
        gate = (s["sum_m"] - 2.0 * reference.x_rho(length_m, s["convention"], s["rho"])) \
            / reference.C0
        _close(report["gate_window_s"], gate, PRINTED_RTOL, "gate_window_s")
    if (s["length_km"], s["convention"], s["rho"]) == (50.0, "calibrated", 3.0):
        _close(report["min_phase_sum_m"], 0.423, REFERENCE_RTOL, "reference shifter sum")
        _close(report["max_rate_linear_hz"], 710e6, REFERENCE_RTOL, "reference linear rate")
        _close(report["max_rate_nonlinear_hz"], 473e6, REFERENCE_RTOL,
               "reference nonlinear rate")


def _check_compensate(op: CliOp, text: str) -> None:
    s = op.spec
    if op.kind == "compensate-json":
        payload = json.loads(text)
        regime, active = payload["regime"], payload["active_length_m"]
        span = payload["dcf_equivalent_length_m"]
    else:
        fields = {line.split()[0]: line.split()[1] for line in text.splitlines()
                  if not line.startswith("dcf ")}
        regime, active = fields["regime"], float(fields["active_length"])
        span = float(fields["dcf_equivalent_length"])
    link = s["length_km"] * 1e3
    _require(regime == "partial_dcf", f"regime {regime!r}")
    _close(active + span, link, PRINTED_RTOL, "active + compensated length")
    clock = s["clock_ghz"] * 1e9
    _close(reference.max_rate(active, s["convention"], 3.0, s["mode"]), clock,
           PLANNER_RTOL, "max_rate at the active length")


def _check_sweep(op: CliOp, text: str) -> None:
    s = op.spec
    if op.kind == "sweep-svg-plot":
        _check_svg(text, series=1, points=s["steps"])
        return
    header, rows = _parse_csv(text)
    _require(header[0] == "length_km" and len(rows) == s["steps"], "sweep table shape")
    for row in rows:
        length_m, phase_sum, linear, nonlinear, general = (float(v) for v in row)
        length_m *= 1e3
        _close(phase_sum, reference.min_phase_sum(length_m, s["convention"], s["rho"]),
               PRINTED_RTOL, "sweep min_phase_sum")
        for mode, value in (("linear", linear), ("nonlinear", nonlinear), ("general", general)):
            _close(value, reference.max_rate(length_m, s["convention"], s["rho"], mode),
                   PRINTED_RTOL, f"sweep rate_{mode}")


def _check_svg(text: str, series: int, points: int) -> None:
    polylines = [line for line in text.splitlines() if line.startswith("<polyline")]
    _require(text.startswith("<svg") and text.rstrip().endswith("</svg>"), "not an svg")
    _require(len(polylines) == series, f"{len(polylines)} series, expected {series}")
    for line in polylines:
        count = len(line.split('points="')[1].split('"')[0].split())
        _require(count == points, f"polyline has {count} points, expected {points}")


def _check_curve(x: np.ndarray, yo: np.ndarray, yp: np.ndarray, n_points: int) -> None:
    _require(x.size == n_points and yo.size == n_points and yp.size == n_points,
             "spectrum length")
    _require(bool(np.all(np.diff(x) > 0)), "x not increasing")
    _require(bool(np.all(yo >= 0) and np.all(yp >= 0)), "negative intensity")
    if n_points >= MASS_CHECK_MIN_POINTS:
        # The grid is uniform; printed absolute positions are too coarse to
        # difference point by point.
        dx = (x[-1] - x[0]) / (n_points - 1)
        total = yo + yp
        mass = float(dx * (np.sum(total) - 0.5 * (total[0] + total[-1])))
        _require(abs(mass - 0.5) <= SPECTRUM_MASS_TOL, f"total mass {mass!r}, expected 0.5")


def _check_spectra(op: CliOp, text: str) -> None:
    n_points = op.spec["n_points"]
    if op.kind == "spectra-svg-plot":
        _check_svg(text, series=2, points=n_points)
    elif op.kind == "spectra-json":
        payload = json.loads(text)
        _check_curve(np.array(payload["x"]), np.array(payload["intensity_o"]),
                     np.array(payload["intensity_p"]), n_points)
    else:
        header, rows = _parse_csv(text)
        _require(header == ["x_m", "intensity_o_per_m", "intensity_p_per_m"], "spectra header")
        data = np.array(rows, dtype=float).reshape(-1, 3)
        _check_curve(data[:, 0], data[:, 1], data[:, 2], n_points)


def _check_bb84(op: CliOp, text: str) -> None:
    if op.kind == "bb84-json":
        rows = {(r["alice_basis"], r["bit"], r["bob_basis"]): r["p_o"]
                for r in json.loads(text)["rows"]}
    else:
        _, body = _parse_csv(text)
        rows = {(r[0], int(r[1]), r[2]): float(r[5]) for r in body}
    _require(len(rows) == 8, "truth table needs 8 rows")
    for basis in ("X", "Z"):
        # bit 0 exits at o, bit 1 at p
        _require(rows[(basis, 0, basis)] >= MATCHED_SHARE_MIN, f"{basis}0 matched share")
        _require(1.0 - rows[(basis, 1, basis)] >= MATCHED_SHARE_MIN, f"{basis}1 matched share")
    for alice, bob in (("X", "Z"), ("Z", "X")):
        for bit in (0, 1):
            _require(abs(rows[(alice, bit, bob)] - 0.5) <= MISMATCHED_SHARE_TOL,
                     f"{alice}{bit}/{bob} mismatched share")


def _check_gterm(op: CliOp, text: str) -> None:
    s = op.spec
    header, rows = _parse_csv(text)
    _require(header == ["length_km", "g_per_m", "second_term"] and len(rows) == s["steps"],
             "gterm table shape")
    data = np.array(rows, dtype=float)
    lengths = data[:, 0] * 1e3
    g = np.array([reference.g_term(length, s["convention"]) for length in lengths])
    sigma = np.array([reference.sigma(length, s["convention"]) for length in lengths])
    _require(bool(np.allclose(data[:, 1], g, rtol=PRINTED_RTOL, atol=0)), "G values")
    _require(bool(np.allclose(data[:, 2], np.abs(3.0 * g * sigma), rtol=PRINTED_RTOL, atol=0)),
             "second-term values")
    footer = dict(line[2:].split(",") for line in text.splitlines() if line.startswith("# "))
    _close(float(footer["analytic_argmax_m"]), reference.g_argmax(s["convention"]),
           PRINTED_RTOL, "analytic argmax")
    _close(float(footer["argmax_length_m"]), float(lengths[np.argmax(np.abs(g))]),
           PRINTED_RTOL, "sweep argmax")


_CLI_CHECKS = {"design": _check_design, "compensate": _check_compensate,
               "sweep": _check_sweep, "spectra": _check_spectra,
               "bb84": _check_bb84, "gterm": _check_gterm}


# --------------------------------------------------------------- cold start-up

@dataclass(frozen=True)
class ChildResult:
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: list[str]) -> ChildResult:
    """Run one Python child to completion.

    The package is not installed: the child finds it through PYTHONPATH.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MZQKD_CONFIG", None)
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=ROOT, env=env, check=False)
    return ChildResult(done.returncode, done.stdout, done.stderr)


def run_cli_cold(op: CliOp) -> ChildResult:
    return run_child(["-m", "mzqkd.cli", *op.argv])


def run_cli_cold_importtime(op: CliOp) -> ChildResult:
    """A cold call whose child also reports its import times."""
    return run_child(["-X", "importtime", "-m", "mzqkd.cli", *op.argv])


def check_cli_cold(op: CliOp, result: ChildResult) -> None:
    reference_result = run_cli_in_process(op)
    check_cli(op, reference_result)
    _require(result.returncode == 0, f"child exit code {result.returncode}: "
             f"{result.stderr.strip()[-200:]}")
    _require(result.stdout == reference_result[1],
             "child stdout differs from the in-process output")


WORKLOADS = {
    "oracle_verify": Workload("oracle_verify", make_oracle_block, run_oracle, check_oracle,
                              warmup_ops=1),
    "design_mix": Workload("design_mix", make_cli_block, run_cli_in_process, check_cli,
                           warmup_ops=15),
}

# Cold `python -m mzqkd.cli` calls with small inputs, measured in the traced
# run only: on this kind of shared host their latency swings too much from
# run to run to gate on (see README.md).
STARTUP = Workload("startup", lambda rng: make_cli_block(rng, small=True),
                   run_cli_cold, check_cli_cold, warmup_ops=1)
