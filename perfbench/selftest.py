"""Smoke self-test of the benchmark on tiny inputs, about a minute in all.

usage: python3 perfbench/selftest.py   (from the root of the source tree)

For every workload it checks that
  - an untraced run is correct and prints every end-to-end metric of
    BENCHMARK.json, with its unit;
  - a traced run is correct and prints every per-layer metric, with its
    unit, unless the info line names the hook as missing;
  - two traced runs give identical per-layer counts;
  - a run with one reference deliberately corrupted reports a failure.
Exits 1 and names each broken check if any fails.
"""

from __future__ import annotations

import json
import sys

import run

# a reference each workload's tiny task list consults
CORRUPT = {
    "unit-group": "torus_order",
    "abelianize": "span_rref",
    "charts": "sphere_group",
    "cli": "torus_order",
}


def units(section) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def deterministic(metrics) -> dict:
    """Per-layer values made of counts only (times and the overhead vary)."""
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s" and k != "trace.overhead_frac"}


def check_workload(name) -> list:
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(f"{name}: {what}")

    info, result = run.run_workload(name, 1, 0, False, tiny=True)
    expect(result["correct"], f"untraced run failed: {info['failures']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units("end_to_end"), f"end-to-end metrics {got}")

    traced = []
    for _ in range(2):
        info, result = run.run_workload(name, 1, 0, True, tiny=True)
        expect(result["correct"], f"traced run failed: {info['failures']} {info['traced_output_mismatches']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = units("per_layer")
        absent = set(want) - set(got)
        expect(not absent or info["missing_hooks"], f"per-layer metrics absent: {sorted(absent)}")
        expect(all(want.get(k) == u for k, u in got.items()), f"per-layer units {got}")
        traced.append(deterministic(result["metrics"]))
    expect(traced[0] == traced[1], "per-layer counts differ between two traced runs")

    info, result = run.run_workload(name, 1, 0, False, tiny=True, corrupt=CORRUPT[name])
    expect(not result["correct"] and result["failed"] >= 1, "a corrupted reference went unnoticed")
    return problems


def main() -> int:
    problems = []
    for name in run.WORKLOADS:
        found = check_workload(name)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
