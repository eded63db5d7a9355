"""A minimal deterministic discrete-event queue.

The CMP simulator schedules one outstanding event per core plus a handful
of bookkeeping events.  Events at equal timestamps are delivered in
insertion order, which keeps runs bit-reproducible.

Host-performance notes (DESIGN §11): this queue is the innermost loop of
the whole simulator, so it avoids per-event Python overhead wherever the
semantics allow:

* :class:`Event` is a ``__slots__`` class and the heap is keyed by plain
  ``(time, seq)`` tuples, so ``heapq`` compares tuples in C instead of
  calling a generated dataclass ``__lt__``;
* **zero-delay events skip the heap**: an event scheduled for the
  current cycle goes to a FIFO of ``(seq, event)`` pairs.  Delivery
  interleaves the FIFO with the heap strictly by ``(time, seq)``, so
  the executed order is *identical* to an all-heap queue — the fast
  path can change host time only, never simulated order;
* the live-event count is maintained incrementally (``__len__`` is
  O(1)) and :attr:`peak_queue` tracks **live** events only — cancelled
  events awaiting pop are queue garbage, not queue pressure;
* cancelled events are compacted lazily: when more than half the heap
  is dead weight the heap is rebuilt, keeping pop cost bounded without
  paying O(n) removal on every cancel.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Callable

from repro.errors import BudgetExhausted

# Event lifecycle states (ints, not an enum: this is the hot path)
_PENDING = 0
_DONE = 1
_CANCELLED = 2

#: rebuild the heap once it holds this many cancelled entries *and*
#: they outnumber the live ones (amortized O(1) per cancel)
_COMPACT_MIN = 64


class Event:
    """A scheduled callback.  Ordering key is ``(time, seq)``."""

    __slots__ = ("time", "seq", "fn", "_state", "_queue")

    def __init__(self, time: int, seq: int, fn: Callable[[], None],
                 queue: "EventQueue | None" = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self._state = _PENDING
        self._queue = queue

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        if self._state != _PENDING:
            return
        self._state = _CANCELLED
        q = self._queue
        if q is not None:
            q._live -= 1
            q._dead += 1
            q._maybe_compact()


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        #: (time, seq, event) triples — tuple ordering, no Event.__lt__
        self._heap: list[tuple[int, int, Event]] = []
        #: (seq, event) FIFO of events scheduled for the *current* cycle;
        #: always drained before ``now`` may advance
        self._zero: list[tuple[int, int, Event]] = []
        self._zero_head = 0
        self._seq = 0
        self._live = 0
        self._dead = 0
        self.now = 0
        #: most *live* events ever outstanding at once — a queue-pressure
        #: gauge surfaced on ``SimResult.phase_breakdown["kernel"]``
        self.peak_queue = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        # Event.__init__ bypassed: schedule() runs once or twice per
        # simulated event, and the constructor call frame is pure
        # overhead for five slot stores
        ev = Event.__new__(Event)
        ev.fn = fn
        ev._state = _PENDING
        ev._queue = self
        ev.seq = seq
        if delay == 0:
            ev.time = now = self.now
            self._zero.append((now, seq, ev))
        else:
            ev.time = when = self.now + int(delay)
            heappush(self._heap, (when, seq, ev))
        live = self._live + 1
        self._live = live
        if live > self.peak_queue:
            self.peak_queue = live
        return ev

    def at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at an absolute timestamp ``time >= now``."""
        return self.schedule(time - self.now, fn)

    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        """Drop cancelled heap entries once they dominate the queue."""
        if self._dead < _COMPACT_MIN or self._dead <= self._live:
            return
        # compact IN PLACE: run()'s inner loop holds local aliases of
        # both lists, so rebinding self._heap/self._zero here would
        # silently detach them
        self._heap[:] = [
            item for item in self._heap if item[2]._state == _PENDING
        ]
        heapq.heapify(self._heap)
        start = self._zero_head
        if start:
            del self._zero[:start]
            self._zero_head = 0
        self._zero[:] = [
            item for item in self._zero if item[2]._state == _PENDING
        ]
        self._dead = 0

    def _pop_next(self) -> Event | None:
        """The next live event in strict ``(time, seq)`` order, or None.

        The zero-FIFO holds only events stamped with the current ``now``,
        and every heap entry has ``time >= now``; comparing the two front
        keys therefore reproduces exactly the order a single heap would
        deliver.
        """
        heap = self._heap
        zero = self._zero
        while True:
            zi = self._zero_head
            # (time, seq) is globally unique, so comparing the triples
            # never reaches the Event element
            if zi < len(zero) and (not heap or heap[0] > zero[zi]):
                ev = zero[zi][2]
                self._zero_head = zi + 1
                if self._zero_head >= len(zero):
                    del zero[:]
                    self._zero_head = 0
            elif heap:
                ev = heappop(heap)[2]
            else:
                return None
            if ev._state == _PENDING:
                return ev
            # cancelled entry finally popped: no longer dead weight
            self._dead -= 1

    def _peek_next(self) -> Event | None:
        """The next live event without removing it (budget checks)."""
        heap = self._heap
        zero = self._zero
        while True:
            zi = self._zero_head
            if zi < len(zero) and (not heap or heap[0] > zero[zi]):
                ev = zero[zi][2]
                if ev._state == _PENDING:
                    return ev
                self._zero_head = zi + 1
                self._dead -= 1
            elif heap:
                ev = heap[0][2]
                if ev._state == _PENDING:
                    return ev
                heappop(heap)
                self._dead -= 1
            else:
                return None

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next live event; returns False when the queue is empty."""
        ev = self._pop_next()
        if ev is None:
            return False
        ev._state = _DONE
        self._live -= 1
        self.now = ev.time
        ev.fn()
        return True

    def run(self, max_events: int | None = None, max_time: int | None = None) -> int:
        """Drain the queue; returns the number of events executed.

        ``max_events``/``max_time`` guard against runaway simulations
        (e.g. a livelocked conflict-resolution policy under test).
        """
        executed = 0
        if max_time is None:
            # fast path (also covers a pure event budget): no peek per
            # event — the budget check is one int compare, and the next
            # event is only peeked once the budget is actually hit, to
            # distinguish "drained" from "exhausted"
            budget = -1 if max_events is None else max_events
            heap = self._heap
            zero = self._zero
            while True:
                if executed == budget:
                    if self._peek_next() is None:
                        return executed
                    raise BudgetExhausted(
                        f"event budget exhausted ({max_events} events)",
                        cycle=self.now, events=executed,
                    )
                # _pop_next inlined: this loop is the innermost loop of
                # the whole simulator (see the module docstring)
                while True:
                    zi = self._zero_head
                    if zi < len(zero) and (not heap or heap[0] > zero[zi]):
                        ev = zero[zi][2]
                        self._zero_head = zi + 1
                        if self._zero_head >= len(zero):
                            del zero[:]
                            self._zero_head = 0
                    elif heap:
                        ev = heappop(heap)[2]
                    else:
                        return executed
                    if ev._state == _PENDING:
                        break
                    self._dead -= 1
                ev._state = _DONE
                self._live -= 1
                self.now = ev.time
                ev.fn()
                executed += 1
        while True:
            nxt = self._peek_next()
            if nxt is None:
                return executed
            if max_events is not None and executed >= max_events:
                raise BudgetExhausted(
                    f"event budget exhausted ({max_events} events)",
                    cycle=self.now, events=executed,
                )
            if nxt.time > max_time:
                raise BudgetExhausted(
                    f"time budget exhausted (t={nxt.time} > {max_time})",
                    cycle=self.now, events=executed,
                )
            ev = self._pop_next()
            assert ev is nxt
            ev._state = _DONE
            self._live -= 1
            self.now = ev.time
            ev.fn()
            executed += 1
