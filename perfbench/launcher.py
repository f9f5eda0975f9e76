"""Run one morava command in a fresh interpreter, as the `morava` script does.

usage: launcher.py setup | plain ARGV... | traced ARGV...

"setup" times `import morava.cli` and prints it with a probe time
(probe.py) as {"setup_s", "probe"}.  "plain"
imports morava.cli and calls run_command(ARGV).  "traced" does the same
after installing the hooks, then writes a last stderr line starting with
TRACE_MARK that holds the import time and the trace totals.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

TRACE_MARK = "@@perfbench-trace "


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    t0 = perf_counter()
    import morava.cli

    import_s = perf_counter() - t0
    if mode == "setup":
        from probe import probe

        print(json.dumps({"setup_s": import_s, "probe": probe()}))
        return 0
    tracer = None
    if mode == "traced":
        import hooks

        tracer = hooks.Tracer()
        tracer.install()
    code = morava.cli.run_command(rest)
    if tracer is not None:
        sys.stdout.flush()
        snap = {"cli_import_s": import_s, "trace": tracer.snapshot()}
        print(TRACE_MARK + json.dumps(snap), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
