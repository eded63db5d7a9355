"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.errors import BudgetExhausted
from repro.sim.kernel import EventQueue


def test_events_run_in_time_order():
    q = EventQueue()
    order = []
    q.schedule(30, lambda: order.append("c"))
    q.schedule(10, lambda: order.append("a"))
    q.schedule(20, lambda: order.append("b"))
    q.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    q = EventQueue()
    order = []
    for tag in "xyz":
        q.schedule(5, lambda t=tag: order.append(t))
    q.run()
    assert order == ["x", "y", "z"]


def test_now_advances_to_event_time():
    q = EventQueue()
    seen = []
    q.schedule(7, lambda: seen.append(q.now))
    q.schedule(42, lambda: seen.append(q.now))
    q.run()
    assert seen == [7, 42]


def test_nested_scheduling_is_relative_to_current_time():
    q = EventQueue()
    seen = []

    def outer():
        q.schedule(5, lambda: seen.append(q.now))

    q.schedule(10, outer)
    q.run()
    assert seen == [15]


def test_cancelled_event_is_skipped():
    q = EventQueue()
    hit = []
    ev = q.arm(1, lambda: hit.append(1))
    ev.cancel()
    q.schedule(2, lambda: hit.append(2))
    q.run()
    assert hit == [2]


def test_negative_delay_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule(-1, lambda: None)
    with pytest.raises(ValueError):
        q.arm(-1, lambda: None)
    assert len(q) == 0


def test_only_arm_returns_a_handle():
    q = EventQueue()
    assert q.schedule(1, lambda: None) is None
    ev = q.arm(1, lambda: None)
    assert not ev.cancelled and not ev.parked


def test_bare_and_armed_events_share_one_order():
    q = EventQueue()
    log = []
    q.arm(2, lambda: log.append("armed-2"))
    q.schedule(1, lambda: log.append("bare-1"))
    q.schedule(2, lambda: log.append("bare-2"))
    q.arm(2, lambda: log.append("armed-2b"))
    assert len(q) == 4 and q.peak_queue == 4
    assert q.run() == 4
    assert log == ["bare-1", "armed-2", "bare-2", "armed-2b"]
    assert len(q) == 0


def test_event_budget_resumes_an_armed_event_at_the_head():
    # the budget check precedes every state change: the armed event at
    # the head stays pending and fires once, in order, on the next run
    q = EventQueue()
    log = []
    q.schedule(1, lambda: log.append("a"))
    ev = q.arm(2, lambda: log.append("armed"))
    q.schedule(2, lambda: log.append("b"))
    with pytest.raises(BudgetExhausted) as exc_info:
        q.run(max_events=1)
    assert exc_info.value.cycle == 1 and log == ["a"]
    assert len(q) == 2 and not ev.parked and not ev.cancelled
    # bounded: a kernel that took the event for a parked one would re-arm
    # it for ever instead of firing it
    assert q.run(max_events=10) == 2
    assert log == ["a", "armed", "b"]
    assert q.now == 2 and len(q) == 0


def test_event_budget_guard():
    q = EventQueue()

    def rearm():
        q.schedule(1, rearm)

    q.schedule(1, rearm)
    with pytest.raises(RuntimeError, match="event budget"):
        q.run(max_events=100)


def test_len_counts_live_events():
    q = EventQueue()
    a = q.arm(1, lambda: None)
    q.schedule(2, lambda: None)
    assert len(q) == 2
    a.cancel()
    assert len(q) == 1


def test_run_returns_executed_count():
    q = EventQueue()
    for i in range(5):
        q.schedule(i, lambda: None)
    assert q.run() == 5


def test_peak_queue_tracks_live_events_only():
    # regression: cancelled entries awaiting pop are queue garbage, not
    # queue pressure — peak_queue must not count them
    q = EventQueue()
    events = [q.arm(5, lambda: None) for _ in range(10)]
    assert q.peak_queue == 10
    for ev in events[:8]:
        ev.cancel()
    q.schedule(1, lambda: None)  # live: 2 pending + this = 3 < 10
    q.run()
    assert q.peak_queue == 10

    q2 = EventQueue()
    for _ in range(4):
        q2.arm(3, lambda: None).cancel()
    q2.schedule(2, lambda: None)
    q2.run()
    # each event is cancelled before the next schedule, so at most one
    # event is ever live; counting cancelled garbage would report 5 here
    assert q2.peak_queue == 1


def test_zero_delay_mid_drain_runs_same_cycle():
    q = EventQueue()
    log = []

    def chain(n):
        log.append((q.now, n))
        if n < 3:
            q.schedule(0, lambda: chain(n + 1))

    q.schedule(5, lambda: chain(0))
    q.schedule(6, lambda: log.append((q.now, "later")))
    q.run()
    assert log == [(5, 0), (5, 1), (5, 2), (5, 3), (6, "later")]


def test_cancelling_one_of_two_same_time_events_keeps_the_other():
    q = EventQueue()
    log = []
    keep = q.arm(3, lambda: log.append("keep"))
    kill = q.arm(3, lambda: log.append("kill"))
    q.schedule(4, lambda: log.append("tail"))
    kill.cancel()
    assert len(q) == 2
    q.run()
    assert log == ["keep", "tail"]
    assert not keep.cancelled


def test_event_budget_leaves_the_tail_resumable():
    q = EventQueue()
    log = []
    for i in range(6):
        q.schedule(i, lambda i=i: log.append(i))
    with pytest.raises(BudgetExhausted) as exc_info:
        q.run(max_events=3)
    assert log == [0, 1, 2]
    assert exc_info.value.cycle == 2
    assert exc_info.value.context["events"] == 3
    # a second run executes the intact tail and returns its count
    assert q.run() == 3
    assert log == [0, 1, 2, 3, 4, 5]


def test_event_budget_ignores_a_cancelled_tail():
    q = EventQueue()
    log = []
    q.schedule(1, lambda: log.append(1))
    q.arm(9, lambda: log.append(9)).cancel()
    assert q.run(max_events=1) == 1  # no raise: nothing live is left
    assert log == [1]


def test_budgeted_run_advances_now_and_len():
    q = EventQueue()
    q.schedule(4, lambda: None)
    q.schedule(7, lambda: None)
    assert len(q) == 2
    with pytest.raises(BudgetExhausted):
        q.run(max_events=1)
    assert (q.now, len(q)) == (4, 1)
    assert q.run(max_events=1) == 1
    assert (q.now, len(q)) == (7, 0)
    assert q.run(max_events=0) == 0


# -- parked events ------------------------------------------------------
def _poll_log(parked: bool, period: int = 10, slots: int = 4):
    """A poll with ``slots`` slots every ``period`` cycles, tied at every
    slot with two periodic chains: one scheduled before the poll, one
    after, each rescheduling itself one period ahead.  The poll either
    reschedules itself from its callback (logging only its last slot) or
    is parked and un-parked just before its last slot.  Returns the
    delivery log and the executed count."""
    q = EventQueue()
    log = []
    last = period * slots

    def chain(tag):
        def fn():
            log.append((tag, q.now))
            if q.now < last:
                q.schedule(period, fn)
        return fn

    def poll():
        if q.now == last:
            log.append(("poll", q.now))
        else:
            q.schedule(period, poll)

    q.schedule(period, chain("before"))
    ev = q.arm(period, poll)
    q.schedule(period, chain("after"))
    if parked:
        ev.park(period)
    # the un-park, or a no-op in the same slot for the rescheduling chain
    q.schedule(last - period + 1, ev.unpark if parked else (lambda: None))
    return log, q.run()


def test_parked_poll_keeps_the_rescheduling_chains_slots():
    chained, n_chained = _poll_log(parked=False)
    parked, n_parked = _poll_log(parked=True)
    assert parked == chained
    # the last slot's tie order: scheduled-before, poll, scheduled-after
    assert chained[-3:] == [("before", 40), ("poll", 40), ("after", 40)]
    # every re-arm counts as one executed event
    assert n_parked == n_chained


def test_rearms_count_against_the_event_budget():
    q = EventQueue()
    q.arm(1, lambda: None).park(1)
    with pytest.raises(BudgetExhausted) as exc_info:
        q.run(max_events=10)
    assert exc_info.value.context["events"] == 10
    assert exc_info.value.cycle == 10


def test_event_budget_rearms_parked_events():
    q = EventQueue()
    log = []
    ev = q.arm(4, lambda: log.append(q.now))
    ev.park(3)
    for now in (4, 7):
        with pytest.raises(BudgetExhausted):
            q.run(max_events=1)
        assert q.now == now and len(q) == 1 and log == []
    with pytest.raises(BudgetExhausted) as exc_info:
        q.run(max_events=4)
    # re-armed at 10, 13, 16, 19; the budget stops it before 22
    assert exc_info.value.context["events"] == 4
    assert exc_info.value.cycle == 19
    ev.unpark()
    assert q.run() == 1 and log == [22]


def test_cancelled_parked_event_is_dropped():
    q = EventQueue()
    hit = []
    ev = q.arm(2, lambda: hit.append(q.now))
    ev.park(2)
    q.schedule(7, ev.cancel)
    assert q.run() == 4  # re-arms at 2, 4, 6, then the cancel at 7
    assert hit == [] and ev.cancelled and len(q) == 0


def test_unparked_event_fires_in_its_current_slot():
    q = EventQueue()
    hit = []
    ev = q.arm(5, lambda: hit.append(q.now))
    ev.park(5)
    q.schedule(12, ev.unpark)  # after the re-arms at 5 and 10
    q.run()
    assert hit == [15]


def test_parked_events_are_live_for_len_and_peak():
    q = EventQueue()
    parked = q.arm(3, lambda: None)
    parked.park(3)
    assert len(q) == 1 and q.peak_queue == 1
    with pytest.raises(BudgetExhausted):
        q.run(max_events=1)  # a re-arm: still one live event
    assert len(q) == 1 and q.peak_queue == 1
    # cancelled garbage is not live: it moves neither len nor the peak
    for _ in range(100):
        q.arm(50, lambda: None).cancel()
    assert len(q) == 1 and q.peak_queue == 2
    with pytest.raises(BudgetExhausted):
        q.run(max_events=1)
    assert q.now == 6 and parked.parked


def test_only_pending_events_park_and_periods_are_positive():
    q = EventQueue()
    ev = q.arm(1, lambda: None)
    with pytest.raises(ValueError):
        ev.park(0)
    ev.cancel()
    with pytest.raises(ValueError):
        ev.park(5)


# -- reference model ----------------------------------------------------
class _RefEvent:
    def __init__(self, fn):
        self.fn, self.state, self.period = fn, "pending", 0

    def cancel(self):
        if self.state in ("pending", "parked"):
            self.state = "cancelled"

    def park(self, period):
        self.state, self.period = "parked", period

    def unpark(self):
        if self.state == "parked":
            self.state = "pending"


class _RefQueue:
    """The kernel's contract as a list sorted by ``(time, seq)``: a
    parked event re-arms with a fresh ``seq`` and counts as executed.
    A bare entry is a pending event no one holds."""

    def __init__(self):
        self.items, self.seq, self.now, self.peak_queue = [], 0, 0, 0

    def __len__(self):
        return sum(ev.state in ("pending", "parked") for *_, ev in self.items)

    def _push(self, time, ev):
        self.items = sorted(self.items + [(time, self.seq, ev)],
                            key=lambda item: item[:2])
        self.seq += 1

    def arm(self, delay, fn):
        ev = _RefEvent(fn)
        self._push(self.now + delay, ev)
        self.peak_queue = max(self.peak_queue, len(self))
        return ev

    def schedule(self, delay, fn):
        self.arm(delay, fn)

    def run(self, max_events=None):
        executed = 0
        while True:
            self.items = [i for i in self.items if i[2].state != "cancelled"]
            if not self.items:
                return executed
            if executed == max_events:
                raise BudgetExhausted("budget", cycle=self.now, events=executed)
            self.now, _, ev = self.items.pop(0)
            executed += 1
            if ev.state == "parked":
                self._push(self.now + ev.period, ev)
            else:
                ev.state = "done"
                ev.fn()


def _random_program(seed: int, queue) -> list:
    """Run a seeded random callback program on ``queue``; returns its
    observable trace.  Callbacks schedule bare or armed events with
    delays 0-5 (so bare and armed ones tie often), and cancel, park and
    unpark armed ones; the program runs in up to three event budgets,
    with parked events released between them.  The RNG is drawn in
    delivery order, so two queues agree on the trace only if they
    deliver alike."""
    rng = random.Random(seed)
    trace, events, status = [], [], []

    def pick(state):
        cands = [i for i, s in enumerate(status) if s == state]
        return rng.choice(cands) if cands else None

    def spawn():
        tag = len(events)
        delay = rng.randint(0, 5)
        if rng.random() < 0.5:
            status.append("pending")
            events.append(queue.arm(delay, lambda: fire(tag)))
        else:
            # a bare entry: nothing can cancel or park it
            status.append("bare")
            events.append(queue.schedule(delay, lambda: fire(tag)))

    def fire(tag):
        status[tag] = "done"
        trace.append((tag, queue.now))
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.45:
                if len(events) < 60:
                    spawn()
            elif roll < 0.65:
                if (i := pick(rng.choice(("pending", "parked")))) is not None:
                    events[i].cancel()
                    status[i] = "cancelled"
            elif roll < 0.85:
                if (i := pick("pending")) is not None:
                    events[i].park(rng.randint(1, 5))
                    status[i] = "parked"
            elif (i := pick("parked")) is not None:
                events[i].unpark()
                status[i] = "pending"

    for _ in range(rng.randint(1, 6)):
        spawn()
    for _ in range(3):
        try:
            trace.append(("drained", queue.run(max_events=rng.randint(1, 80))))
        except BudgetExhausted as exc:
            trace.append(("budget", exc.cycle, exc.context["events"]))
        trace.append(("len", len(queue), queue.peak_queue))
        for i, s in enumerate(status):
            if s == "parked":
                events[i].unpark()
                status[i] = "pending"
    assert all(events[i] is None for i, s in enumerate(status) if s == "bare")
    return trace


@pytest.mark.parametrize("seed", range(200))
def test_random_programs_match_the_reference_queue(seed):
    trace = _random_program(seed, EventQueue())
    assert trace == _random_program(seed, _RefQueue())
