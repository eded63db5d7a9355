"""A minimal deterministic discrete-event queue.

The CMP simulator schedules one outstanding event per core plus a handful
of bookkeeping events.  Events at equal timestamps are delivered in
insertion order, which keeps runs bit-reproducible.

Host-performance notes (DESIGN §11): this queue is the innermost loop of
the whole simulator, so it is one heap and one :meth:`EventQueue.run`
loop:

* :class:`Event` is a ``__slots__`` class and the heap is keyed by plain
  ``(time, seq)`` tuples, so ``heapq`` compares tuples in C instead of
  calling a generated dataclass ``__lt__``; the key lives only in the
  queue entry, never on the event;
* **parked events re-arm in the kernel**: a periodic event whose
  callback would only schedule itself again one period later can be
  :meth:`Event.park`-ed.  When it reaches the front the queue re-keys
  it to ``(time + period, seq)``, drawing ``seq`` exactly as
  :meth:`EventQueue.schedule` would from inside the callback, and counts
  the re-arm as one executed event — the same order and count as the
  rescheduling chain, without calling back into Python;
* the live-event count is maintained incrementally (``__len__`` is
  O(1)) and :attr:`peak_queue` tracks **live** events only — cancelled
  events stay in the heap as garbage until they reach the front, where
  they are dropped.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Callable

from repro.errors import BudgetExhausted

# Event lifecycle states (ints, not an enum: this is the hot path).
# _PENDING is 0 so "not pending" is one truth test in the drain loop.
_PENDING = 0
_DONE = 1
_CANCELLED = 2
_PARKED = 3


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
        if self._queue is not None:
            self._queue._live -= 1

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
        #: (time, seq, event) triples — tuple ordering, no Event.__lt__;
        #: (time, seq) is unique, so a comparison never reaches the Event
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0
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
        heappush(self._heap, (self.now + int(delay), seq, ev))
        live = self._live + 1
        self._live = live
        if live > self.peak_queue:
            self.peak_queue = live
        return ev

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events executed.

        A parked event's re-arm counts as one executed event.
        ``max_events`` guards against runaway simulations (e.g. a
        livelocked conflict-resolution policy under test): with that
        many events executed and a live one still queued, it raises
        :class:`BudgetExhausted` and leaves the rest queued, so a second
        ``run`` resumes where this one stopped.
        """
        executed = 0
        budget = -1 if max_events is None else max_events
        heap = self._heap
        while heap:
            when, _, ev = heap[0]
            if ev._state:
                if ev._state == _CANCELLED:
                    heappop(heap)
                    continue
                # parked: re-arm in place with the key the rescheduling
                # callback would have drawn, without calling it
                if executed == budget:
                    raise self._exhausted(max_events, executed)
                seq = self._seq
                self._seq = seq + 1
                self.now = when
                heapreplace(heap, (when + ev.period, seq, ev))
                executed += 1
                continue
            if executed == budget:
                raise self._exhausted(max_events, executed)
            heappop(heap)
            ev._state = _DONE
            self._live -= 1
            self.now = when
            ev.fn()
            executed += 1
        return executed

    def _exhausted(self, max_events: int | None, executed: int) -> BudgetExhausted:
        return BudgetExhausted(
            f"event budget exhausted ({max_events} events)",
            cycle=self.now, events=executed,
        )
