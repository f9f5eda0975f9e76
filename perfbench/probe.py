"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

On a shared machine the speed of one core drifts by a fifth and more, for
seconds to minutes at a time, as other tenants load the hardware; the best
of a task's times then drifts with it.  The benchmark times this kernel
next to every task and every set-up sample and reports time scaled to a
fixed probe speed:

    scaled = measured * PROBE_SECONDS / probe time measured next to it

that is, seconds on a machine where the probe takes PROBE_SECONDS.  A
change to morava cannot move the probe, so it moves only the scaled times.
The unscaled times are printed on the run's info line.
"""

from __future__ import annotations

from time import perf_counter

# the probe's time on an idle core (2-CPU x86-64 VM, CPython 3.11)
PROBE_SECONDS = 0.00056


def _kernel() -> int:
    # small and big ints, tuples, dict updates: the mix morava's loops run
    acc = 0
    d = {}
    x = 1234567
    m = 3 ** 40
    for i in range(1500):
        t = (i, i * 7 % 13, (i << 3) ^ 5)
        d[t[1]] = d.get(t[1], 0) + t[2]
        x = x * 1000003 % m
        acc += len(t) + (x & 7)
    return acc + len(d)


def probe() -> float:
    """Seconds the kernel takes now."""
    t = perf_counter()
    _kernel()
    return perf_counter() - t
