"""Unit tests for the discrete-event kernel."""

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
    ev = q.schedule(1, lambda: hit.append(1))
    ev.cancel()
    q.schedule(2, lambda: hit.append(2))
    q.run()
    assert hit == [2]


def test_negative_delay_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule(-1, lambda: None)


def test_at_schedules_absolute_time():
    q = EventQueue()
    seen = []
    q.schedule(3, lambda: q.at(9, lambda: seen.append(q.now)))
    q.run()
    assert seen == [9]


def test_event_budget_guard():
    q = EventQueue()

    def rearm():
        q.schedule(1, rearm)

    q.schedule(1, rearm)
    with pytest.raises(RuntimeError, match="event budget"):
        q.run(max_events=100)


def test_time_budget_guard():
    q = EventQueue()

    def rearm():
        q.schedule(10, rearm)

    q.schedule(10, rearm)
    with pytest.raises(RuntimeError, match="time budget"):
        q.run(max_time=1000)


def test_len_counts_live_events():
    q = EventQueue()
    a = q.schedule(1, lambda: None)
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
    events = [q.schedule(5, lambda: None) for _ in range(10)]
    assert q.peak_queue == 10
    for ev in events[:8]:
        ev.cancel()
    q.schedule(1, lambda: None)  # live: 2 pending + this = 3 < 10
    q.run()
    assert q.peak_queue == 10

    q2 = EventQueue()
    for _ in range(4):
        q2.schedule(3, lambda: None).cancel()
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
    keep = q.schedule(3, lambda: log.append("keep"))
    kill = q.schedule(3, lambda: log.append("kill"))
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


def test_time_budget_reports_the_last_executed_cycle():
    q = EventQueue()
    log = []
    q.schedule(1, lambda: log.append(1))
    q.schedule(9, lambda: log.append(9))
    with pytest.raises(BudgetExhausted, match="time budget") as exc_info:
        q.run(max_time=5)
    assert log == [1]
    assert exc_info.value.cycle == 1


def test_time_budget_ignores_a_cancelled_tail():
    q = EventQueue()
    log = []
    q.schedule(1, lambda: log.append(1))
    q.schedule(9, lambda: log.append(9)).cancel()
    assert q.run(max_time=5) == 1  # no raise: nothing live lies past 5
    assert log == [1]


def test_step_advances_now_and_len():
    q = EventQueue()
    q.schedule(4, lambda: None)
    q.schedule(7, lambda: None)
    assert len(q) == 2
    assert q.step()
    assert (q.now, len(q)) == (4, 1)
    assert q.step()
    assert (q.now, len(q)) == (7, 0)
    assert not q.step()


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
    ev = q.schedule(period, poll)
    q.schedule(period, chain("after"))
    if parked:
        ev.park(period)
    # the un-park, or a no-op in the same slot for the rescheduling chain
    q.at(last - period + 1, ev.unpark if parked else (lambda: None))
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
    q.schedule(1, lambda: None).park(1)
    with pytest.raises(BudgetExhausted) as exc_info:
        q.run(max_events=10)
    assert exc_info.value.context["events"] == 10
    assert exc_info.value.cycle == 10


def test_step_and_time_budget_rearm_parked_events():
    q = EventQueue()
    log = []
    ev = q.schedule(4, lambda: log.append(q.now))
    ev.park(3)
    assert q.step() and q.now == 4 and len(q) == 1
    assert q.step() and q.now == 7 and log == []
    with pytest.raises(BudgetExhausted, match="time budget") as exc_info:
        q.run(max_time=20)
    # re-armed at 10, 13, 16, 19; the next slot (22) lies past the budget
    assert exc_info.value.context["events"] == 4
    assert exc_info.value.cycle == 19
    ev.unpark()
    assert q.run() == 1 and log == [22]


def test_cancelled_parked_event_is_dropped():
    q = EventQueue()
    hit = []
    ev = q.schedule(2, lambda: hit.append(q.now))
    ev.park(2)
    q.schedule(7, ev.cancel)
    assert q.run() == 4  # re-arms at 2, 4, 6, then the cancel at 7
    assert hit == [] and ev.cancelled and len(q) == 0


def test_unparked_event_fires_in_its_current_slot():
    q = EventQueue()
    hit = []
    ev = q.schedule(5, lambda: hit.append(q.now))
    ev.park(5)
    q.schedule(12, ev.unpark)  # after the re-arms at 5 and 10
    q.run()
    assert hit == [15]


def test_parked_events_are_live_for_len_peak_and_compaction():
    q = EventQueue()
    parked = q.schedule(3, lambda: None)
    parked.park(3)
    assert len(q) == 1 and q.peak_queue == 1
    q.step()  # a re-arm: still one live event, no new queue pressure
    assert len(q) == 1 and q.peak_queue == 1
    # enough cancelled garbage to force a compaction
    for _ in range(100):
        q.schedule(50, lambda: None).cancel()
    assert q._dead < 100  # compacted at least once
    assert [item[2] for item in q._heap if not item[2].cancelled] == [parked]
    assert len(q) == 1 and q.peak_queue == 2
    assert q.step() and q.now == 6 and parked.parked


def test_only_pending_events_park_and_periods_are_positive():
    q = EventQueue()
    ev = q.schedule(1, lambda: None)
    with pytest.raises(ValueError):
        ev.park(0)
    ev.cancel()
    with pytest.raises(ValueError):
        ev.park(5)
