"""The morava benchmark: one workload, one run, one JSON result line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds src/morava.  All load comes
from one child process at a time, with no threads:

  unit-group, abelianize, charts
      child.py builds the seeded task list, sets up, and runs one round
      (every task once) per request.
  cli
      each command of a seeded corpus runs in its own interpreter through
      launcher.py; a round is one pass over the corpus.

Rounds repeat for S seconds and at least MIN_TASKS tasks.  Between rounds
a fresh interpreter times set-up alone, so the set-up samples spread over
the run.  Every task's output is checked against refs.py.

--trace 0 prints the end-to-end metrics.  --trace 1 also runs the workload
under the hooks of hooks.py (two rounds in one child, or one pass of traced
commands) and prints the per-layer metrics and trace.overhead_frac; a
traced output that differs from the untraced one counts as a failure.
The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the run's context: sample counts, failures, missing
hooks, git sha, Python version, CPU count.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

import hooks
import refs
import workloads
from child import corrupt_reference
from launcher import TRACE_MARK
from probe import PROBE_SECONDS, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("unit-group", "abelianize", "charts", "cli")
MIN_TASKS = 100
TRACED_ROUNDS = 2  # the first cold, the second warm
RUN_LIMIT = 170  # seconds; the whole run stays under three minutes
# children skip the site module: morava needs no installed package, and
# scanning site-packages costs a noisy 35 ms per interpreter on its own
PYTHON = [sys.executable, "-S"]


class BenchError(RuntimeError):
    """A child process failed or overran; the run prints no result."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            raise BenchError("the run overran its time limit")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, deadline: Deadline) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=deadline.left()
    )


def spawn_json(cmd, deadline: Deadline) -> dict:
    proc = spawn(cmd, deadline)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Child:
    """A child.py process that answers each request with one JSON line."""

    def __init__(self, cmd, deadline: Deadline):
        self.cmd = cmd
        self.deadline = deadline
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)

    def read(self) -> dict:
        if not self.sel.select(self.deadline.left()):
            raise BenchError(f"{' '.join(self.cmd[2:])} did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait()
            raise BenchError(f"{' '.join(self.cmd[2:])} exited {code}: {self.proc.stderr.read()[-2000:]}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sel.close()
        for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            pipe.close()


def peak_rss_mb() -> float:
    """Largest resident set of any child waited for so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered)) - 1, 0)]


def repeat(do_round, between, seconds, tiny, count=None) -> list:
    """Rounds until `seconds` have passed and MIN_TASKS tasks ran (or `count` rounds)."""
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(do_round(not rounds))
        if count is not None:
            if len(rounds) == count:
                return rounds
        elif perf_counter() - start >= seconds and (
            tiny or sum(len(r["latencies"]) for r in rounds) >= MIN_TASKS
        ):
            return rounds
        if between is not None:
            between()


def run_in_process(name, seed, seconds, trace, tiny, corrupt, deadline):
    base = PYTHON + [str(HERE / "child.py"), name, str(seed)]
    flags = (["--tiny"] if tiny else []) + (["--corrupt", corrupt] if corrupt else [])
    setups = []

    def sample_setup():
        setups.append(spawn_json(base + ["setup"] + flags, deadline))

    def measured(mode, between, seconds, count=None):
        child = Child(base + [mode] + flags, deadline)
        try:
            setup = child.read()
            rounds = repeat(lambda first: child.ask("round"), between, seconds, tiny, count)
            final = child.ask("done")
        finally:
            child.close()
        return setup, rounds, final

    setup, rounds, _ = measured("plain", None if trace else sample_setup, seconds)
    out = {"setups": setups + [setup], "rounds": rounds, "rss_mb": peak_rss_mb()}
    if trace:
        _, traced, final = measured("traced", None, 0, TRACED_ROUNDS)
        out.update(traced=traced, trace=final["trace"], cli_import_s=final["cli_import_s"])
    return out


def check_command(kind, argv, params, proc) -> bool:
    """True when the command exited 0 and its payload matches the references."""
    if proc.returncode != 0:
        return False
    try:
        observed, expected = workloads.cli_check(kind, argv, params, json.loads(proc.stdout))
    except (ValueError, KeyError, TypeError, ArithmeticError):
        return False
    return observed == expected


def run_cli(name, seed, seconds, trace, tiny, corrupt, deadline):
    launcher = PYTHON + [str(HERE / "launcher.py")]
    tasks = workloads.cli_tasks(workloads.task_rng(seed, name), tiny)
    setups, snaps, imports = [], [], []

    def sample_setup():
        setups.append(spawn_json(launcher + ["setup"], deadline))

    def cli_round(mode, first):
        latencies, probes, failures, digests = [], [probe()], [], []
        for i, (kind, argv, params) in enumerate(tasks):
            t = perf_counter()
            proc = spawn(launcher + [mode] + argv, deadline)
            ok = check_command(kind, argv, params, proc)
            latencies.append(perf_counter() - t)
            probes.append(probe())
            if not ok:
                failures.append([i, " ".join(argv), proc.stderr[-300:]])
            if first:
                digests.append(hashlib.sha1(proc.stdout.encode()).hexdigest())
            if mode == "traced":
                marks = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_MARK)]
                if not marks:
                    raise BenchError(f"traced {' '.join(argv)} wrote no trace: {proc.stderr[-2000:]}")
                snap = json.loads(marks[-1][len(TRACE_MARK):])
                snaps.append(snap["trace"])
                imports.append(snap["cli_import_s"])
        return {"latencies": latencies, "probes": probes, "failures": failures, "digests": digests}

    saved = corrupt_reference(corrupt) if corrupt else None
    try:
        if not trace:
            sample_setup()
        between = None if trace else sample_setup
        rounds = repeat(lambda first: cli_round("plain", first), between, seconds, tiny)
        out = {"setups": setups, "rounds": rounds, "rss_mb": peak_rss_mb()}
        if trace:
            traced = repeat(lambda first: cli_round("traced", first), None, 0, tiny, 1)
            out.update(traced=traced, trace=hooks.merge(snaps), cli_import_s=statistics.median(imports))
        return out
    finally:
        if corrupt:
            setattr(refs, corrupt, saved)


def per_task(rounds, scaled=True) -> list:
    """Each task's median time over the rounds, scaled to the probe speed.

    A round probes before its first task and after each task; a task's time
    is scaled by the mean of the probes on either side of it (probe.py).
    """
    times = zip(*(r["latencies"] for r in rounds))
    if not scaled:
        return [statistics.median(ts) for ts in times]
    speeds = zip(*([(a + b) / 2 for a, b in zip(r["probes"], r["probes"][1:])] for r in rounds))
    return [
        statistics.median(t / k for t, k in zip(ts, ks)) * PROBE_SECONDS
        for ts, ks in zip(times, speeds)
    ]


def run_workload(name, seed, seconds, trace, tiny=False, corrupt=None):
    """(info, result) of one run of one workload."""
    runner = run_cli if name == "cli" else run_in_process
    run = runner(name, seed, seconds, trace, tiny, corrupt, Deadline(RUN_LIMIT))
    rounds, traced = run["rounds"], run.get("traced", [])
    failures = [[r] + f for r, rnd in enumerate(rounds) for f in rnd["failures"]]
    failures += [["traced", r] + f for r, rnd in enumerate(traced) for f in rnd["failures"]]
    mismatches = []
    if traced:
        pairs = zip(rounds[0]["digests"], traced[0]["digests"])
        mismatches = [i for i, (a, b) in enumerate(pairs) if a != b]
    attempted = sum(len(r["latencies"]) for r in rounds + traced)
    failed = len(failures) + len(mismatches)
    tasks = per_task(rounds)
    wall = sum(tasks)
    setups = [s["setup_s"] * PROBE_SECONDS / s["probe"] for s in run["setups"]]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in hooks.layer_metrics(run["trace"]).items()}
        metrics["cli.import_s"] = {"value": run["cli_import_s"], "unit": "s"}
        overhead = sum(per_task(traced)) / wall - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "task_p50_ms": {"value": 1000 * nearest_rank(tasks, 0.5), "unit": "ms"},
            "task_p90_ms": {"value": 1000 * nearest_rank(tasks, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": run["rss_mb"], "unit": "MB"},
        }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "tasks_per_round": len(tasks),
        "rounds": len(rounds),
        "tasks_beyond_p90": sum(1 for x in tasks if x > nearest_rank(tasks, 0.9)),
        "setup_samples": len(setups),
        "unscaled_wall_s": sum(per_task(rounds, scaled=False)),
        "unscaled_setup_s": statistics.median(s["setup_s"] for s in run["setups"]) if setups else None,
        "probe_s": statistics.median(k for r in rounds for k in r["probes"]),
        "failed_frac": failed / attempted,
        "failures": failures[:5],
        "traced_output_mismatches": mismatches,
        "missing_hooks": run.get("trace", {}).get("missing", []),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def git_sha() -> str:
    """HEAD of the source tree when it is a git checkout, else "unknown"."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        if (git / ref[5:]).is_file():
            return (git / ref[5:]).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "morava" / "__init__.py").is_file():
        print(f"error: no morava package under {SRC}; run from a morava source tree", file=sys.stderr)
        return 2
    # set-up should time loading the package, not compiling it
    compileall.compile_dir(SRC / "morava", quiet=1)
    try:
        info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
