"""Self-check of the benchmark harness at tiny size.

Run from the repository root:

    python3 perfbench/selfcheck.py

Every workload and the start-up probe run with blocks cut to two
operations and one set-up process.  The check fails unless a timed run emits
exactly the end-to-end metrics BENCHMARK.json names, with their units, and
no failures; a traced run emits exactly the per-layer metrics; and a run
whose first output is deliberately corrupted reports that operation as
failed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_OPS = 2
SEED = 7


def _corrupt_oracle(output):
    analytic, oracle, deviation = output
    bad = dataclasses.replace(oracle, intensity_o=oracle.intensity_o * 1.01)
    return analytic, bad, deviation


def _corrupt_cli(output):
    code, text = output
    return code, text[: len(text) // 2]


def _corrupt_child(output):
    return dataclasses.replace(output, stdout=output.stdout + " ")


CORRUPT = {"oracle_verify": _corrupt_oracle, "design_mix": _corrupt_cli}


def _tiny(workload: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(workload,
                               make_block=lambda rng: workload.make_block(rng)[:TINY_OPS])


def _corrupt_first(workload: workloads.Workload, corrupt) -> workloads.Workload:
    calls = []

    def run_op(op):
        output = workload.run(op)
        calls.append(op)
        return corrupt(output) if len(calls) == 1 else output
    return dataclasses.replace(workload, run=run_op)


def _expect_metrics(emitted: dict, declared: list, what: str) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: value["unit"] for name, value in emitted.items()}
    if got != expected:
        raise SystemExit(f"{what}: emitted metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(expected) - set(got))}, "
                         f"extra {sorted(set(got) - set(expected))}, "
                         f"units {[(n, got[n], expected[n]) for n in got if n in expected and got[n] != expected[n]]}")
    for name, value in emitted.items():
        if not isinstance(value["value"], (int, float)):
            raise SystemExit(f"{what}: {name} is not a number")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    originals = dict(workloads.WORKLOADS)
    startup = workloads.STARTUP
    run.SETUP_REPEATS = 1
    run.MIN_BLOCKS = 1
    run.INTERPRETER_REPEATS = 1
    try:
        for name, workload in originals.items():
            workloads.WORKLOADS[name] = _tiny(workload)
            metrics, tally, _ = run.timed_run(name, SEED, 0.0, workloads)
            _expect_metrics(metrics, declared["end_to_end"], f"{name} timed run")
            if tally.failed:
                raise SystemExit(f"{name}: clean tiny run had {tally.failed} failures")

            workloads.WORKLOADS[name] = _corrupt_first(_tiny(workload), CORRUPT[name])
            _, tally, _ = run.timed_run(name, SEED, 0.0, workloads)
            if tally.failed != 1:
                raise SystemExit(f"{name}: corrupted output counted {tally.failed} "
                                 "failures, expected 1")
            workloads.WORKLOADS[name] = _tiny(workload)
            print(f"selfcheck: {name}: metrics and corrupted-output detection ok")

        workloads.STARTUP = _corrupt_first(_tiny(startup), _corrupt_child)
        tally = run.Tally()
        run.startup_probe(SEED, workloads, tally)
        if tally.failed != 1:
            raise SystemExit(f"startup: corrupted child output counted {tally.failed} "
                             "failures, expected 1")
        print("selfcheck: startup: corrupted-output detection ok")

        workloads.STARTUP = _tiny(startup)
        metrics, tally, _ = run.traced_run(SEED, workloads)
        _expect_metrics(metrics, declared["per_layer"], "traced run")
        if tally.failed:
            raise SystemExit(f"traced run had {tally.failed} failures")
        print("selfcheck: traced run metrics ok")
    finally:
        workloads.WORKLOADS.update(originals)
        workloads.STARTUP = startup
    return 0


if __name__ == "__main__":
    sys.exit(main())
