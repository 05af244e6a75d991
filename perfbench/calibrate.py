"""Host speed calibration with a fixed kernel independent of repro.

Shared hosts change speed from minute to minute (other tenants on
sibling hardware threads, hypervisor scheduling) by more than a useful
regression bound. Every closed-loop run times this kernel after each
op and scales its time metrics by ``NOMINAL_S / median kernel time``,
so a run on a busy host and one on an idle host report about the same
numbers for the same work. The kernel mixes what the program spends its time
on: small-array numpy, a small dense product, and interpreter-bound
dict and loop work. It must never call into ``repro``, so that a
change to the program cannot move it.

The open loop's latencies are wall time, which the kernel's CPU clock
cannot follow: there the machine's stolen CPU time is read instead
(:func:`cpu_ticks`, :func:`run_share`).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

#: The kernel's time on the reference host, in seconds. Scaled
#: metrics read as seconds on a host where the kernel takes this long.
NOMINAL_S = 0.006


def kernel() -> float:
    rng = np.random.default_rng(12345)
    grid = np.zeros((24, 24))
    total = 0.0
    for _ in range(120):
        frame = np.clip(grid + rng.normal(0.0, 0.01, grid.shape), 0.0, 1.0)
        total += float(frame.mean())
    dense = rng.normal(size=(48, 48))
    for _ in range(12):
        dense = np.tanh(dense @ dense.T / 48.0)
    table = {}
    for i in range(6000):
        table[i % 101] = table.get(i % 101, 0) + i
    return total + float(dense.sum()) + len(table)


def sample(clock: Callable[[], float]) -> float:
    """One timed run of the kernel on ``clock``."""
    began = clock()
    kernel()
    return clock() - began




def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(busy, stolen) CPU ticks of the whole machine, or None.

    Read from Linux's ``/proc/stat``. Stolen ticks are time the
    hypervisor gave to other guests while a virtual CPU of this one
    had work to run.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def run_share(before, after) -> float:
    """Share of wanted CPU time the guest got between two readings.

    1.0 when either reading is missing (no steal accounting).
    """
    if before is None or after is None:
        return 1.0
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0
