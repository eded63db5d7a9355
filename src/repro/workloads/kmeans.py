"""kmeans — iterative clustering (Table IV: short tx, low contention).

Threads partition the points; each iteration they compute the nearest
centre for their points (non-transactional reads + compute) and apply a
short transaction per point to fold it into that centre's accumulator
(sums and count).  A barrier separates assignment from re-centering,
which thread 0 performs.  With enough centres, transactions rarely
collide — the paper's "Low" contention class.

The verifier recomputes the final membership counts sequentially from
the same inputs and demands an exact match.
"""

from __future__ import annotations

import numpy as np

from repro.htm.ops import Barrier, Read, Tx, Work, Write
from repro.workloads.base import AddressSpace, Program, mem_get


def make_kmeans(
    n_threads: int = 16,
    seed: int = 1,
    n_points: int = 256,
    n_dims: int = 4,
    n_clusters: int = 16,
    n_iterations: int = 3,
    work_distance: int = 8,
) -> Program:
    """Build the kmeans program (paper: -m40 -n40, random-n2048-d16-c16)."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 1000, size=(n_points, n_dims)).astype(np.int64)
    # the same inputs as Python ints: the threads read them on every
    # distance term, where numpy scalar indexing costs several times more
    rows = points.tolist()

    space = AddressSpace()
    centers = space.alloc("centers", n_clusters * n_dims)
    # per-cluster accumulators are line-aligned: STAMP pads these to
    # avoid false sharing between adjacent clusters
    dims_per_cluster = ((n_dims + 7) // 8) * 8
    sums = space.alloc("sums", n_clusters * dims_per_cluster)
    counts = space.alloc("counts", n_clusters, pad_lines=True)

    def center_addr(c: int, d: int) -> int:
        return space.word(centers, c * n_dims + d)

    def sum_addr(c: int, d: int) -> int:
        return space.word(sums, c * dims_per_cluster + d)

    # deterministic reference run (golden model)
    def reference() -> np.ndarray:
        ctr = points[:n_clusters].astype(np.float64).copy()
        member = np.zeros(n_points, dtype=np.int64)
        for _ in range(n_iterations):
            d2 = ((points[:, None, :] - ctr[None, :, :]) ** 2).sum(axis=2)
            member = d2.argmin(axis=1)
            for c in range(n_clusters):
                sel = points[member == c]
                if len(sel):
                    ctr[c] = np.floor(sel.mean(axis=0))
        final_counts = np.bincount(member, minlength=n_clusters)
        return final_counts

    expected_counts = reference()
    my_points = [list(range(t, n_points, n_threads)) for t in range(n_threads)]

    def make_thread(tid: int):
        def thread():
            if tid == 0:
                # initialize centres to the first k points
                for c in range(n_clusters):
                    for d in range(n_dims):
                        yield Write(center_addr(c, d), rows[c][d])
            yield Barrier(0)

            for it in range(n_iterations):
                for p in my_points[tid]:
                    # nearest-centre search: transactional reads are not
                    # needed (centres are stable within an iteration)
                    best_c, best_d2 = -1, None
                    for c in range(n_clusters):
                        d2 = 0
                        for d in range(n_dims):
                            cv = yield Read(center_addr(c, d))
                            diff = rows[p][d] - cv
                            d2 += diff * diff
                        yield Work(work_distance)
                        if best_d2 is None or d2 < best_d2:
                            best_c, best_d2 = c, d2

                    def fold(c=best_c, p=p):
                        cnt = yield Read(space.word(counts, c, padded=True))
                        yield Write(space.word(counts, c, padded=True), cnt + 1)
                        for d in range(n_dims):
                            s = yield Read(sum_addr(c, d))
                            yield Write(sum_addr(c, d), s + rows[p][d])
                    yield Tx(fold, site=10 + it)

                yield Barrier(1000 + 2 * it)
                if tid == 0:
                    # re-center from the accumulators, then reset them;
                    # single-threaded phase, still transactional per centre
                    for c in range(n_clusters):
                        def recenter(c=c, last=(it == n_iterations - 1)):
                            cnt = yield Read(space.word(counts, c, padded=True))
                            for d in range(n_dims):
                                s = yield Read(sum_addr(c, d))
                                if cnt and not last:
                                    yield Write(center_addr(c, d), s // cnt)
                                if not last:
                                    yield Write(sum_addr(c, d), 0)
                            if not last:
                                yield Write(space.word(counts, c, padded=True), 0)
                        yield Tx(recenter, site=50)
                yield Barrier(1001 + 2 * it)
        return thread

    def verifier(memory: dict[int, int]) -> None:
        got = [mem_get(memory, space.word(counts, c, padded=True)) for c in range(n_clusters)]
        assert got == expected_counts.tolist(), (
            f"membership counts {got} != reference {expected_counts.tolist()}"
        )

    return Program(
        name="kmeans",
        threads=[make_thread(t) for t in range(n_threads)],
        params=dict(
            n_points=n_points, n_dims=n_dims, n_clusters=n_clusters,
            n_iterations=n_iterations,
        ),
        contention="low",
        verifier=verifier,
    )
