"""A fixed reference computation that measures the host's speed.

The benchmark's host is shared: its speed changes by up to 1.7x within
seconds, on each vCPU separately, and every timing moves with it (see
README.md).  Each timed spec and each set-up probe is therefore paired
with runs of this reference, timed just before and just after it, and
the end-to-end times are reported as their ratio to it.

The reference is the benchmark's own code, so no change to the
simulator can change it.  It does the kind of host work the simulator
does: object allocation, attribute access, dict probes over a working
set of a few MB, and heap operations.  It runs with the cyclic garbage
collector off, so the heap the simulator has built up cannot slow it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: nodes in the reference's object graph
_NODES = 20_000
#: dict probes and heap operations over the graph
_PROBES = 40_000
#: the unit of a *reference second*: a measured second is
#: ``REFERENCE_S / reference time`` reference seconds.  45 ms is about
#: the reference's time in the runs in README.md (medians of 41-56 ms
#: per sweep and workload); it sets the unit and was fitted to nothing.
REFERENCE_S = 0.045


class _Node:
    __slots__ = ("key", "next", "hits")

    def __init__(self, key: int, nxt: "_Node | None") -> None:
        self.key = key
        self.next = nxt
        self.hits = 0


def _work() -> int:
    index: dict[int, _Node] = {}
    node = None
    for i in range(_NODES):
        key = (i * 2654435761) % 1_000_003
        node = index[key] = _Node(key, node)
    keys = list(index)
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(_PROBES):
        node = index[keys[(i * 40503) % _NODES]]
        node.hits += 1
        if node.next is not None:
            acc ^= node.next.key
        heapq.heappush(heap, (node.key, i))
        if len(heap) > 256:
            acc += heapq.heappop(heap)[1]
    return acc


def reference_seconds() -> float:
    """Host seconds one run of the reference computation takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def in_reference_s(seconds: float, reference_s: float) -> float:
    """``seconds``, measured while the reference took ``reference_s``,
    in reference seconds."""
    return seconds * REFERENCE_S / reference_s
