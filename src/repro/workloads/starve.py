"""Starvation-freedom stress: one huge reader vs. many small writers.

Thread 0 runs a single *declared read-only* transaction that scans every
slot of a shared array (``site=1``); every other thread streams short
read-modify-write transactions that increment randomly chosen slots
(``site=2``).  Under plain SUV with the holder yielding
(``redirect+eager+abort_responder``) the huge reader's read set conflicts with every writer commit, so it is
doomed over and over and only commits once the writers drain — the
classic reader-starvation pathology.  Under mvsuv the reader runs in
snapshot mode over the version chains: it is invisible to conflict
detection and commits first try.

The reader accumulates a checksum locally but deliberately does **not**
store it: the sum depends on how many writer transactions serialized
before the reader's snapshot, which is timing- (and scheme-) dependent,
and the functional verifier must stay scheme-independent.  The verifier
checks only the writers' pre-planned increments.
"""

from __future__ import annotations

import numpy as np

from repro.htm.ops import Read, Tx, Work, Write
from repro.workloads.base import AddressSpace, Program, mem_get


def make_starve(
    n_threads: int = 16,
    seed: int = 1,
    reader_slots: int = 64,
    tx_per_writer: int = 6,
    writes_per_tx: int = 2,
    work_per_access: int = 10,
) -> Program:
    """Build the starvation stress.

    ``reader_slots`` sets the size of the shared array (and thus of the
    huge reader's read set); ``tx_per_writer`` and ``writes_per_tx``
    control how much writer traffic the reader must survive.
    """
    if n_threads < 2:
        raise ValueError("starve needs at least one reader and one writer")
    space = AddressSpace()
    slot_base = space.alloc("slots", reader_slots)
    rng = np.random.default_rng(seed)

    # pre-plan every writer increment so the final counts are known
    n_writers = n_threads - 1
    plans: list[list[list[int]]] = []
    expected: dict[int, int] = {}
    for _w in range(n_writers):
        writer_plan = []
        for _x in range(tx_per_writer):
            tx_plan = []
            for _a in range(writes_per_tx):
                addr = space.word(slot_base, int(rng.integers(reader_slots)))
                tx_plan.append(addr)
                expected[addr] = expected.get(addr, 0) + 1
            writer_plan.append(tx_plan)
        plans.append(writer_plan)

    def reader_thread():
        def body():
            checksum = 0
            for idx in range(reader_slots):
                value = yield Read(space.word(slot_base, idx))
                checksum += value
                yield Work(work_per_access)
            # the checksum is never stored: see the module docstring
        yield Tx(body, site=1, read_only=True)

    def make_writer(wid: int):
        def thread():
            for tx_plan in plans[wid]:
                def body(plan=tx_plan):
                    for addr in plan:
                        value = yield Read(addr)
                        yield Work(work_per_access)
                        yield Write(addr, value + 1)
                yield Tx(body, site=2)
                yield Work(work_per_access)
        return thread

    def verifier(memory: dict[int, int]) -> None:
        for addr, count in expected.items():
            got = mem_get(memory, addr)
            assert got == count, (
                f"slot {addr:#x}: expected {count} increments, found {got}"
            )

    return Program(
        name="starve",
        threads=[reader_thread] + [make_writer(w) for w in range(n_writers)],
        params=dict(
            reader_slots=reader_slots,
            tx_per_writer=tx_per_writer,
            writes_per_tx=writes_per_tx,
            work_per_access=work_per_access,
        ),
        contention="high",
        verifier=verifier,
    )
