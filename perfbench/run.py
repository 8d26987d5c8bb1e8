"""Benchmark of the mzqkd toolkit: one seeded workload per run, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_verify --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload with tracing
off, its timings scaled to a reference host speed (``HostSpeed``).
``--trace 1`` is the separate traced run: for every workload it runs
each operation of one input block untraced and traced, and reports per-layer
metrics named ``<workload>.<layer>.<function>.<quantity>``; it also times
cold ``python -m mzqkd.cli`` calls and their imports (``startup.*``).  The
last line of standard output is the result object; lines before it start
with ``#`` and record the machine and the details.  Files go to
``.perfbench_out/``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"   # every file the benchmark writes

WORKLOAD_NAMES = ("oracle_verify", "design_mix")
SETUP_REPEATS = 9         # timed set-up processes per run; setup_s is their median
INTERPRETER_REPEATS = 5   # bare interpreter starts in the start-up probe
TAIL_BEYOND = 10          # the tail percentile leaves at least this many samples above it
# Whole blocks measured at least, so that the sorted latencies of a slow
# workload keep the same class layout however fast the machine runs.
MIN_BLOCKS = 3
# Host-speed reference (see HostSpeed): share of the measured time it takes,
# loop steps of one sample, and the time one sample takes at reference speed
# (about its quiet-host time on the 2-core host the benchmark was built on).
REFERENCE_SHARE = 0.05
REFERENCE_LOOP = 80000
REFERENCE_NOMINAL_S = 0.005

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics of the traced run, per section (each workload and the
# start-up probe): (name, unit).  A name with no span or counter in the
# traced block reports 0.
LAYER_METRICS = {
    "oracle_verify": (
        ("spectra.eval_oracle.self_ms", "ms"),
        ("spectra.eval_oracle.calls", "count"),
        ("spectra.eval_oracle.kernel_exp_evals", "evals_dense_eq"),
        ("spectra.eval_oracle.kernel_bytes", "bytes_dense_eq"),
        ("spectra.eval_oracle.n_k_max", "count"),
        ("spectra.eval_analytic.self_ms", "ms"),
        ("spectra.max_normalized_deviation.self_ms", "ms"),
        ("compensation.plan.self_ms", "ms"),
        ("block_ms", "ms"),
        ("trace_overhead_ms", "ms"),
    ),
    "design_mix": (
        ("core.derive.calls", "count"),
        ("core.derive.self_ms", "ms"),
        ("bb84.g_term_analysis.self_ms", "ms"),
        ("design.sweep_lengths.self_ms", "ms"),
        ("design.build_design_report.self_ms", "ms"),
        ("compensation.plan.self_ms", "ms"),
        ("bb84.detection_table.self_ms", "ms"),
        ("spectra.eval_analytic.self_ms", "ms"),
        ("spectra.eval_analytic.points", "count"),
        ("spectra.middle_window_masses.self_ms", "ms"),
        ("spectra.eval_oracle.calls", "count"),
        ("io.design_report_text.self_ms", "ms"),
        ("io.design_report_json.self_ms", "ms"),
        ("io.sweep_csv.self_ms", "ms"),
        ("io.curve_csv.self_ms", "ms"),
        ("io.curve_json.self_ms", "ms"),
        ("io.svg_line_chart.self_ms", "ms"),
        ("io.detection_table_csv.self_ms", "ms"),
        ("io.detection_table_json.self_ms", "ms"),
        ("io.gterm_csv.self_ms", "ms"),
        ("io.plan_text.self_ms", "ms"),
        ("io.plan_json.self_ms", "ms"),
        ("io.emit.self_ms", "ms"),
        ("io.bytes_out", "bytes"),
        ("cli.main.self_ms", "ms"),
        ("block_ms", "ms"),
        ("trace_overhead_ms", "ms"),
    ),
    "startup": (
        ("cli_cold_p50_ms", "ms"),
        ("import.mzqkd_ms", "ms"),
        ("import.numpy_ms", "ms"),
        ("import.scipy_special_ms", "ms"),
        ("interpreter_ms", "ms"),
        ("block_ms", "ms"),
    ),
}

# -X importtime module name -> per-layer metric
IMPORT_METRICS = {"mzqkd": "import.mzqkd_ms", "numpy": "import.numpy_ms",
                  "scipy.special": "import.scipy_special_ms"}


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def execute(self, workload, op):
        """Run one operation, time it, check its output.  Returns (seconds, output)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = workload.run(op)
        except Exception as exc:  # a failed operation must not stop the run
            elapsed = time.perf_counter() - start
            self._fail(op, f"raised {exc!r}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            workload.check(op, output)
        except Exception as exc:  # a malformed output fails its parser, not the run
            self._fail(op, f"wrong output: {exc}")
        return elapsed, output

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{getattr(op, 'argv', op)}: {message}")
            print(f"# failed: {self.messages[-1]}", file=sys.stderr)


# ------------------------------------------------------------------ timed run

class HostSpeed:
    """Times a fixed pure-Python loop that uses nothing of mzqkd.

    On a shared host the same work runs up to twice as slow from one minute
    to the next.  The loop is sampled between the operations, in a fixed
    share of their time, so it sees the same host as they do; the timed
    metrics are scaled by ``factor`` to the speed at which one sample takes
    REFERENCE_NOMINAL_S.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i % 7
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def keep_up(self, measured_s: float) -> None:
        """Sample until the reference has had its share of the measured time."""
        while self.spent < REFERENCE_SHARE * measured_s:
            self.sample()

    def factor(self) -> float:
        """Reference-speed seconds per measured second (below 1 on a slow host)."""
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


class SetupTimer:
    """Times fresh processes that import mzqkd and generate the workload's inputs.

    The first start writes bytecode caches and is not timed.  The timed starts
    are spread over the measured period, so that their median sees the same
    host as the operations rather than a few seconds of it.
    """

    def __init__(self, name: str, seed: int, workloads) -> None:
        self._argv = [str(Path(__file__).resolve()), "--workload", name,
                      "--seed", str(seed), "--setup-only"]
        self._workloads = workloads
        self.times: list[float] = []
        self._start()

    def _start(self) -> float:
        start = time.perf_counter()
        child = self._workloads.run_child(self._argv)
        elapsed = time.perf_counter() - start
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed: {child.stderr.strip()[-500:]}")
        return elapsed

    def sample(self) -> float:
        """Time one more start; returns its seconds."""
        elapsed = self._start()
        self.times.append(elapsed)
        return elapsed


def latency_summary(latencies_s: list[float]) -> dict:
    ordered = sorted(t * 1e3 for t in latencies_s)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {"p50_ms": statistics.median(ordered), "tail_ms": ordered[index],
            "tail_percentile": 100.0 * (index + 1) / n, "samples": n}


def timed_run(name: str, seed: int, seconds: float, workloads) -> tuple[dict, Tally, dict]:
    workload = workloads.WORKLOADS[name]
    setup = SetupTimer(name, seed, workloads)
    tally = Tally()
    stream = workloads.blocks(workload, seed)
    for op in next(stream)[:workload.warmup_ops]:
        tally.execute(workload, op)

    host = HostSpeed()
    host.sample()
    latencies, n_blocks, setup_spent, measured = [], 0, 0.0, 0.0
    start = time.perf_counter()
    # Whole blocks only, so every run measures the same mix of operations.
    # A set-up start is due after each SETUP_REPEATS-th share of the period;
    # its time is not counted towards the period.
    while True:
        for op in next(stream):
            latencies.append(tally.execute(workload, op)[0])
            measured += latencies[-1]
            host.keep_up(measured)
            wall = time.perf_counter() - start - setup_spent - host.spent
            if len(setup.times) < SETUP_REPEATS and \
                    wall >= len(setup.times) * seconds / SETUP_REPEATS:
                setup_spent += setup.sample()
        n_blocks += 1
        wall = time.perf_counter() - start - setup_spent - host.spent
        if wall >= seconds and n_blocks >= MIN_BLOCKS:
            break
    while len(setup.times) < SETUP_REPEATS:
        setup.sample()

    stats = latency_summary(latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {"setup_s": statistics.median(setup.times),
           "ops_per_s": len(latencies) / sum(latencies),
           "latency_p50_ms": stats["p50_ms"],
           "latency_tail_ms": stats["tail_ms"]}
    factor = host.factor()
    metrics = {
        "setup_s": {"value": raw["setup_s"] * factor, "unit": "s"},
        "ops_per_s": {"value": raw["ops_per_s"] / factor, "unit": "1/s"},
        "latency_p50_ms": {"value": raw["latency_p50_ms"] * factor, "unit": "ms"},
        "latency_tail_ms": {"value": raw["latency_tail_ms"] * factor, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }
    detail = {"workload": name, "blocks": n_blocks, "wall_s": wall,
              "tail_percentile": stats["tail_percentile"], "samples": stats["samples"],
              "failed_ratio": tally.failed / tally.attempted,
              "setup_samples_s": setup.times,
              "host_factor": factor,
              "reference_p50_ms": statistics.median(host.samples) * 1e3,
              "reference_samples": len(host.samples),
              "unscaled": raw}
    return metrics, tally, detail


# ----------------------------------------------------------------- traced run

def import_times_ms(stderr: str) -> dict[str, float]:
    """Cumulative import time per module from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            micros = int(fields[1])
        except ValueError:  # the column header line
            continue
        cumulative.setdefault(fields[2].strip(), micros / 1e3)
    return cumulative


def _paired(block, run_plain, run_traced) -> tuple[float, float]:
    """Run every operation once plain and once traced, alternating which goes
    first, so that a drift of the host's speed falls on both sides evenly.
    Returns the plain and the traced seconds summed over the block."""
    plain = traced = 0.0
    for i, op in enumerate(block):
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if tracing:
                traced += run_traced(op)
            else:
                plain += run_plain(op)
    return plain, traced


def traced_workload(name: str, seed: int, workloads, tally: Tally) -> tuple[dict, list]:
    """One block run plain and traced operation by operation; per-layer values and spans."""
    workload = workloads.WORKLOADS[name]
    stream = workloads.blocks(workload, seed)
    for op in next(stream)[:workload.warmup_ops]:
        tally.execute(workload, op)
    spans = tracer.Tracer()

    def run_traced(op) -> float:
        with spans.installed():
            return tally.execute(workload, op)[0]
    untraced, traced = _paired(next(stream), lambda op: tally.execute(workload, op)[0],
                               run_traced)
    values = spans.summary()
    values["block_ms"] = untraced * 1e3
    values["trace_overhead_ms"] = len(spans.spans) * tracer.wrapper_cost_s() * 1e3
    values["traced_minus_untraced_ms"] = (traced - untraced) * 1e3
    return values, spans.spans


def startup_probe(seed: int, workloads, tally: Tally) -> dict:
    """Cold CLI calls: one block, each call run plainly and with -X importtime."""
    probe = workloads.STARTUP
    stream = workloads.blocks(probe, seed)
    for op in next(stream)[:probe.warmup_ops]:
        tally.execute(probe, op)
    importtime = dataclasses.replace(probe, run=workloads.run_cli_cold_importtime)
    latencies: list[float] = []
    samples: dict[str, list[float]] = {metric: [] for metric in IMPORT_METRICS.values()}

    def run_plain(op) -> float:
        latencies.append(tally.execute(probe, op)[0])
        return latencies[-1]

    def run_importtime(op) -> float:
        elapsed, child = tally.execute(importtime, op)
        if child is not None:
            cumulative = import_times_ms(child.stderr)
            for module, metric in IMPORT_METRICS.items():
                if module in cumulative:
                    samples[metric].append(cumulative[module])
        return elapsed
    plain, traced = _paired(next(stream), run_plain, run_importtime)
    values = {metric: statistics.median(v) for metric, v in samples.items() if v}

    starts = []
    for _ in range(INTERPRETER_REPEATS):
        start = time.perf_counter()
        workloads.run_child(["-c", "pass"])
        starts.append((time.perf_counter() - start) * 1e3)
    values["interpreter_ms"] = statistics.median(starts)
    values["cli_cold_p50_ms"] = statistics.median(latencies) * 1e3
    values["block_ms"] = plain * 1e3
    values["traced_minus_untraced_ms"] = (traced - plain) * 1e3
    return values


def traced_run(seed: int, workloads) -> tuple[dict, Tally, dict]:
    tally = Tally()
    sections, detail, trace_file = {}, {}, {}
    for name in WORKLOAD_NAMES:
        values, spans = traced_workload(name, seed, workloads, tally)
        sections[name] = values
        trace_file[name] = {"values": values, "spans": spans}
    sections["startup"] = trace_file["startup"] = startup_probe(seed, workloads, tally)

    metrics = {}
    for section, values in sections.items():
        for metric, unit in LAYER_METRICS[section]:
            metrics[f"{section}.{metric}"] = {"value": values.get(metric, 0), "unit": unit}
        detail[section] = {key: values[key] for key in
                           ("block_ms", "trace_overhead_ms", "traced_minus_untraced_ms")
                           if key in values}
        if "spectra.max_deviation" in values:
            detail[section]["max_deviation"] = values["spectra.max_deviation"]
    detail["failed_ratio"] = tally.failed / tally.attempted
    detail["spans_file"] = _write_out(f"trace-seed{seed}.json", trace_file)
    return metrics, tally, detail


# -------------------------------------------------------------------- machine

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def _cpu_caches() -> dict[str, str]:
    if shutil.which("lscpu") is None:
        return {}
    done = subprocess.run(["lscpu"], capture_output=True, text=True, check=False,
                          env=dict(os.environ, LC_ALL="C"))
    return {key.strip(): value.strip() for key, _, value in
            (line.partition(":") for line in done.stdout.splitlines())
            if "cache" in key.lower()}


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "seed": seed,
        "caches": _cpu_caches(),
    }


def _write_out(filename: str, payload) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / filename
    path.write_text(json.dumps(payload) + "\n")
    return str(path.relative_to(ROOT))


# ----------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="minimum measured time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the toolkit, generate the inputs and exit")
    args = parser.parse_args(argv)

    if not (SRC / "mzqkd" / "__init__.py").is_file():
        print(f"error: no mzqkd sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MZQKD_CONFIG", None)
    # One BLAS thread in this process and its children: on a host of a few
    # shared cores a second, spinning BLAS thread only adds contention.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    import workloads

    if args.setup_only:
        stream = workloads.blocks(workloads.WORKLOADS[args.workload], args.seed)
        next(stream)
        next(stream)
        return 0

    machine = machine_info(args.seed)
    if args.trace:
        metrics, tally, detail = traced_run(args.seed, workloads)
    else:
        metrics, tally, detail = timed_run(args.workload, args.seed, args.seconds, workloads)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail["result_file"] = _write_out(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"machine": machine, "detail": detail, "result": result})
    print("# machine " + json.dumps(machine, sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
