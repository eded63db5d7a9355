"""The operation protocol between programs and the simulator.

A *thread* is a generator yielding these operations; the simulator
advances it, charging simulated time, and sends back the value of each
:class:`Read`.  A :class:`Tx` wraps a *body factory*: a zero-argument
callable returning a fresh generator over the same protocol.  Retrying
an aborted transaction re-invokes the factory — the architectural
equivalent of restoring the register checkpoint taken at ``begin``.

Example::

    def thread(tid, mem):
        def body():
            v = yield Read(mem.counter)
            yield Work(20)
            yield Write(mem.counter, v + 1)
        yield Work(100)           # non-transactional
        yield Tx(body, site=1)    # transactional; retried on abort
        yield Barrier(0)

Host-performance note (DESIGN §11): a workload builds one op per
operation, so the ops are plain ``slots`` dataclasses, not frozen ones.
A frozen ``__init__`` stores each field through ``object.__setattr__``
and costs about twice as much (``Write`` 401 ns against 162 ns on a
2-vCPU x86 host).  Nothing mutates an op once it is yielded, and
nothing hashes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator


@dataclass(slots=True)
class Work:
    """Compute for ``cycles`` without touching memory."""

    cycles: int


@dataclass(slots=True)
class Read:
    """Load the 8-byte word at ``addr``; its value is sent back."""

    addr: int


@dataclass(slots=True)
class Write:
    """Store ``value`` to the 8-byte word at ``addr``."""

    addr: int
    value: int


@dataclass(slots=True)
class Tx:
    """Run ``body()`` as a transaction (nested if yielded inside one).

    ``site`` identifies the static transaction site, used by DynTM's
    history-based mode selector.  ``read_only`` declares the body free
    of transactional stores; under a multiversioned scheme
    (``vm=mvsuv``) a declared read-only transaction runs as a snapshot
    reader that never joins the conflict graph.  Other schemes ignore
    the flag.  A declared-read-only body that stores anyway is aborted
    and demoted to an ordinary (conflict-detected) transaction.
    """

    body: Callable[[], Generator]
    site: int = 0
    read_only: bool = False


@dataclass(slots=True)
class OpenTx:
    """Run ``body()`` as an *open-nested* transaction (paper §IV-C).

    When an open-nested transaction commits, its writes publish
    immediately and its isolation is released — freeing conflicting
    threads before the enclosing transaction ends.  If the enclosing
    transaction later aborts, the registered ``compensate`` body runs
    (atomically, as a prologue of the parent's retry) to logically undo
    the published effects.
    """

    body: Callable[[], Generator]
    compensate: Callable[[], Generator] | None = None
    site: int = 0


@dataclass(slots=True)
class Barrier:
    """Block until every live thread reaches barrier ``bid``."""

    bid: int


Op = Work | Read | Write | Tx | OpenTx | Barrier
