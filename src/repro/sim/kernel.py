"""A minimal deterministic discrete-event queue.

The CMP simulator schedules one outstanding event per core plus a handful
of bookkeeping events.  Events at equal timestamps are delivered in
insertion order, which keeps runs bit-reproducible.

Host-performance notes (DESIGN §11): this queue is the innermost loop of
the whole simulator, so it avoids per-event Python overhead wherever the
semantics allow:

* :class:`Event` is a ``__slots__`` class and the heap is keyed by plain
  ``(time, seq)`` tuples, so ``heapq`` compares tuples in C instead of
  calling a generated dataclass ``__lt__``; the key lives only in the
  queue entry, never on the event;
* **zero-delay events skip the heap**: an event scheduled for the
  current cycle goes to a FIFO of ``(time, seq, event)`` entries.
  Delivery interleaves the FIFO with the heap strictly by
  ``(time, seq)``, so the executed order is *identical* to an all-heap
  queue — the fast path can change host time only, never simulated
  order;
* **parked events re-arm in the kernel**: a periodic event whose
  callback would only schedule itself again one period later can be
  :meth:`Event.park`-ed.  When it reaches the front the queue re-keys
  it to ``(time + period, seq)``, drawing ``seq`` exactly as
  :meth:`EventQueue.schedule` would from inside the callback, and counts
  the re-arm as one executed event — the same order and count as the
  rescheduling chain, without calling back into Python;
* the live-event count is maintained incrementally (``__len__`` is
  O(1)) and :attr:`peak_queue` tracks **live** events only — cancelled
  events awaiting pop are queue garbage, not queue pressure;
* cancelled events are compacted lazily: when more than half the heap
  is dead weight the heap is rebuilt, keeping pop cost bounded without
  paying O(n) removal on every cancel.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush, heapreplace
from typing import Callable

from repro.errors import BudgetExhausted

# Event lifecycle states (ints, not an enum: this is the hot path).
# _PENDING is 0 so "not pending" is one truth test in the drain loop.
_PENDING = 0
_DONE = 1
_CANCELLED = 2
_PARKED = 3

#: rebuild the heap once it holds this many cancelled entries *and*
#: they outnumber the live ones (amortized O(1) per cancel)
_COMPACT_MIN = 64


class Event:
    """A scheduled callback; its ``(time, seq)`` key lives in the queue."""

    __slots__ = ("fn", "period", "_state", "_queue")

    def __init__(self, fn: Callable[[], None],
                 queue: "EventQueue | None" = None) -> None:
        self.fn = fn
        self.period = 0
        self._state = _PENDING
        self._queue = queue

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def parked(self) -> bool:
        return self._state == _PARKED

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        if self._state != _PENDING and self._state != _PARKED:
            return
        self._state = _CANCELLED
        q = self._queue
        if q is not None:
            q._live -= 1
            q._dead += 1
            q._maybe_compact()

    def park(self, period: int) -> None:
        """Re-arm this event every ``period`` cycles instead of firing it.

        Each time the parked event reaches the front of the queue it is
        re-keyed ``period`` cycles later with a fresh ``seq`` — what its
        callback would do by rescheduling itself — until :meth:`unpark`
        or :meth:`cancel`.
        """
        if self._state != _PENDING:
            raise ValueError("only a pending event can be parked")
        if period <= 0:
            raise ValueError(f"park period must be positive, got {period}")
        self._state = _PARKED
        self.period = period

    def unpark(self) -> None:
        """Fire the callback at the event's current slot again."""
        if self._state == _PARKED:
            self._state = _PENDING


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        #: (time, seq, event) triples — tuple ordering, no Event.__lt__
        self._heap: list[tuple[int, int, Event]] = []
        #: (time, seq, event) FIFO of events scheduled for the *current*
        #: cycle; always drained before ``now`` may advance
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
        # overhead for three slot stores (``period`` is only read once
        # park() has set it)
        ev = Event.__new__(Event)
        ev.fn = fn
        ev._state = _PENDING
        ev._queue = self
        if delay == 0:
            self._zero.append((self.now, seq, ev))
        else:
            heappush(self._heap, (self.now + int(delay), seq, ev))
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
        # silently detach them.  Parked events are live and stay.
        self._heap[:] = [
            item for item in self._heap if item[2]._state != _CANCELLED
        ]
        heapq.heapify(self._heap)
        start = self._zero_head
        if start:
            del self._zero[:start]
            self._zero_head = 0
        self._zero[:] = [
            item for item in self._zero if item[2]._state != _CANCELLED
        ]
        self._dead = 0

    def _front(self) -> tuple[int, int, Event] | None:
        """The next live entry in strict ``(time, seq)`` order, or None.

        Cancelled entries in front of it are dropped.  The zero-FIFO
        holds only entries stamped with the current ``now``, and every
        heap entry has ``time >= now``; comparing the two front keys
        therefore reproduces exactly the order a single heap would
        deliver.
        """
        heap = self._heap
        zero = self._zero
        while True:
            zi = self._zero_head
            # (time, seq) is globally unique, so comparing the triples
            # never reaches the Event element
            if zi < len(zero) and (not heap or heap[0] > zero[zi]):
                item = zero[zi]
                if item[2]._state != _CANCELLED:
                    return item
                self._advance_zero()
            elif heap:
                item = heap[0]
                if item[2]._state != _CANCELLED:
                    return item
                heappop(heap)
            else:
                return None
            # cancelled entry finally popped: no longer dead weight
            self._dead -= 1

    def _advance_zero(self) -> None:
        zi = self._zero_head + 1
        if zi >= len(self._zero):
            del self._zero[:]
            zi = 0
        self._zero_head = zi

    def _fire(self, item: tuple[int, int, Event]) -> None:
        """Execute the front entry ``item`` from :meth:`_front`: re-arm
        it if parked, else run its callback."""
        when, _, ev = item
        self.now = when
        zero = self._zero
        from_zero = self._zero_head < len(zero) and zero[self._zero_head] is item
        if ev._state == _PARKED:
            seq = self._seq
            self._seq = seq + 1
            entry = (when + ev.period, seq, ev)
            if from_zero:
                self._advance_zero()
                heappush(self._heap, entry)
            else:
                heapreplace(self._heap, entry)
            return
        if from_zero:
            self._advance_zero()
        else:
            heappop(self._heap)
        ev._state = _DONE
        self._live -= 1
        ev.fn()

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event (a parked one re-arms); returns
        False when the queue is empty."""
        item = self._front()
        if item is None:
            return False
        self._fire(item)
        return True

    def run(self, max_events: int | None = None, max_time: int | None = None) -> int:
        """Drain the queue; returns the number of events executed.

        A parked event's re-arm counts as one executed event.
        ``max_events``/``max_time`` guard against runaway simulations
        (e.g. a livelocked conflict-resolution policy under test).
        """
        executed = 0
        if max_time is None:
            # fast path (also covers a pure event budget): no peek per
            # event — the budget check is one int compare, and the next
            # event is only peeked once the budget is actually hit, to
            # distinguish "drained" from "exhausted".  _front/_fire are
            # inlined: this loop is the innermost loop of the whole
            # simulator (see the module docstring)
            budget = -1 if max_events is None else max_events
            heap = self._heap
            zero = self._zero
            while True:
                if executed == budget:
                    if self._front() is None:
                        return executed
                    raise BudgetExhausted(
                        f"event budget exhausted ({max_events} events)",
                        cycle=self.now, events=executed,
                    )
                # the FIFO is cleared once drained, so a non-empty FIFO
                # always has an entry at its head
                if zero and (not heap or heap[0] > zero[self._zero_head]):
                    zi = self._zero_head
                    when, _, ev = zero[zi]
                    if ev._state:
                        # parked (rare here) or cancelled: the general path
                        if ev._state == _PARKED:
                            self._fire(zero[zi])
                            executed += 1
                        else:
                            self._advance_zero()
                            self._dead -= 1
                        continue
                    zi += 1
                    if zi >= len(zero):
                        del zero[:]
                        zi = 0
                    self._zero_head = zi
                elif heap:
                    when, _, ev = heap[0]
                    if ev._state:
                        if ev._state == _PARKED:
                            # re-arm in place: the key the rescheduling
                            # callback would have drawn, no callback
                            seq = self._seq
                            self._seq = seq + 1
                            self.now = when
                            heapreplace(heap, (when + ev.period, seq, ev))
                            executed += 1
                        else:
                            heappop(heap)
                            self._dead -= 1
                        continue
                    heappop(heap)
                else:
                    return executed
                ev._state = _DONE
                self._live -= 1
                self.now = when
                ev.fn()
                executed += 1
        while True:
            item = self._front()
            if item is None:
                return executed
            if max_events is not None and executed >= max_events:
                raise BudgetExhausted(
                    f"event budget exhausted ({max_events} events)",
                    cycle=self.now, events=executed,
                )
            if item[0] > max_time:
                raise BudgetExhausted(
                    f"time budget exhausted (t={item[0]} > {max_time})",
                    cycle=self.now, events=executed,
                )
            self._fire(item)
            executed += 1
