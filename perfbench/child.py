"""One in-process workload in a fresh interpreter, driven over stdin/stdout.

usage: child.py WORKLOAD SEED setup|plain|traced [--tiny] [--corrupt REF]

The task list is built from the seed before morava is imported.  Set-up is
`import morava` plus every ring and field the tasks use; the child prints
{"setup_s", "probe"} and, unless MODE is "setup", then reads one command per line:
"round" runs every task once, with a probe (probe.py) before the first
task and after each, and prints the latencies, probe times, failures and
(first round only) output digests; "done" prints the trace totals (traced mode)
and exits.  "traced" installs the hooks between the import and the rings.
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter

import refs
import workloads
from probe import probe


def corrupt_reference(name: str):
    """Make refs.<name> answer wrongly, to show that a bad answer is caught.

    Returns the original, for putting back."""
    orig = getattr(refs, name)
    setattr(refs, name, lambda *a, **k: ("corrupted", orig(*a, **k)))
    return orig


def digest(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()


def run_round(mv, env, run, tasks, first: bool) -> dict:
    latencies, probes, failures, results = [], [probe()], [], []
    for i, task in enumerate(tasks):
        t = perf_counter()
        try:
            result, observed, expected = run(mv, env, task)
            ok = observed == expected
        except Exception as exc:  # a failing task is counted, not fatal
            result, ok = ("raised", type(exc).__name__, str(exc)), False
        latencies.append(perf_counter() - t)
        probes.append(probe())
        if not ok:
            failures.append([i, repr(task)[:200], repr(result)[:200]])
        if first:
            results.append(result)
    digests = [digest(r) for r in results]
    return {"latencies": latencies, "probes": probes, "failures": failures, "digests": digests}


def say(obj) -> None:
    print(json.dumps(obj), flush=True)


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    tiny = "--tiny" in argv
    if "--corrupt" in argv:
        corrupt_reference(argv[argv.index("--corrupt") + 1])
    make_tasks, setup, run = workloads.IN_PROCESS[name]
    tasks = make_tasks(workloads.task_rng(seed, name), tiny)

    t0 = perf_counter()
    import morava as mv

    tracer = None
    if mode == "traced":
        import hooks

        t = perf_counter()
        import morava.cli  # noqa: F401  (the hooks reach into it)

        cli_import_s = perf_counter() - t
        tracer = hooks.Tracer()
        tracer.install()
    env = setup(mv, tasks)
    setup_s = perf_counter() - t0
    say({"setup_s": setup_s, "probe": probe()})
    if mode == "setup":
        return 0
    first = True
    for line in sys.stdin:
        if line.strip() != "round":
            break
        say(run_round(mv, env, run, tasks, first))
        first = False
    say({"trace": tracer.snapshot(), "cli_import_s": cli_import_s} if tracer else {})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
