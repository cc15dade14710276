"""Tests for the event-loop kernel.

The event order as a whole is checked against a sorted-list reference
in ``test_kernel_reference.py``; these are the named edge cases.
"""

import gc
import weakref

import pytest

from repro.sim import (
    EventLimitExceeded,
    ScheduleInPastError,
    SimulationError,
    Simulator,
)


@pytest.fixture(params=["heap"])
def sim(request):
    """The one event queue, a binary heap; the id keeps the test names."""
    return Simulator()


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order(sim):
    order = []
    for tag in ["first", "second", "third"]:
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected(sim):
    with pytest.raises(ScheduleInPastError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected(sim):
    """``nan < 0`` is False, so a sign test alone lets NaN in — and a NaN
    key compares False both ways, silently breaking the heap order."""
    with pytest.raises(ScheduleInPastError, match="negative or NaN"):
        sim.schedule(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_run_until_before_now_is_refused(sim):
    """The clock never moves backwards: an ``until`` behind ``now`` would
    let the next zero-delay event land before events that already fired."""
    fired = []
    sim.schedule(5.0, fired.append, "f")
    sim.run(until=10.0)
    sim.schedule(5.0, fired.append, "g")
    with pytest.raises(SimulationError, match=r"until=3\.0.*10\.0"):
        sim.run(until=3.0)
    assert sim.now == 10.0
    assert sim.run(until=10.0) == 10.0          # until == now stays legal
    sim.run()
    assert fired == ["f", "g"] and sim.now == 15.0


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_a_cancelled_event_lets_go_of_its_work(sim):
    """A cancelled event waits in the heap for its turn or a compaction,
    holding its heap tuple only: what it would have run is freed at once."""

    class Payload:
        pass

    payload = Payload()
    gone = weakref.ref(payload)
    blocker = sim.schedule(1.0, int)                # a live head: no pop
    event = sim.schedule(2.0, print, payload, label="retry:a->b")
    del payload
    event.cancel()
    assert gone() is None
    assert event.fn is None and event.args is None and event.label == ""
    assert (2.0, 1, event) in sim._heap
    assert not blocker.cancelled and sim.run() == 1.0


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["a", "b"]


def test_until_is_inclusive(sim):
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_guards_livelock(sim):
    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(EventLimitExceeded):
        sim.run(max_events=100)


def test_an_exceeded_event_budget_loses_no_event(sim):
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, fired.append, t)
    with pytest.raises(EventLimitExceeded, match="t=2"):
        sim.run(max_events=1)
    assert (fired, sim.now, sim.events_processed) == ([1.0], 1.0, 1)
    sim.run()
    assert (fired, sim.events_processed) == ([1.0, 2.0, 3.0], 3)


def test_stop_breaks_run_loop(sim):
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_schedule_at_absolute_time(sim):
    seen = []
    sim.schedule_at(4.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.5]


def test_pending_events_and_peek(sim):
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    assert sim.peek_time() == 1.0
    e1.cancel()
    assert sim.pending_events == 1
    assert sim.peek_time() == 2.0


def test_step_executes_one_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == ["a", "b"]


def test_events_processed_counter(sim):
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_events_counter_stays_exact(sim):
    """pending_events is O(1) counter-maintained; it must agree with a
    queue scan through every schedule/cancel/execute combination."""
    events = [sim.schedule(float(i), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    events[0].cancel()
    events[0].cancel()  # idempotent: no double decrement
    assert sim.pending_events == 9
    events[5].cancel()
    assert sim.pending_events == 8
    sim.run(until=3.0)  # fires t=1,2,3 (t=0 was cancelled)
    assert sim.pending_events == 5
    sim.run()
    assert sim.pending_events == 0


def test_pending_events_exact_after_step(sim):
    sim.schedule(1.0, lambda: None)
    e = sim.schedule(2.0, lambda: None)
    e.cancel()
    sim.schedule(3.0, lambda: None)
    assert sim.pending_events == 2
    sim.step()
    assert sim.pending_events == 1
    sim.step()  # skips the cancelled event, fires t=3
    assert sim.pending_events == 0


def test_peek_time_skips_cancelled_run_of_heads(sim):
    head = [sim.schedule(float(i), lambda: None) for i in range(5)]
    tail = sim.schedule(9.0, lambda: None)
    for e in head:
        e.cancel()
    assert sim.peek_time() == 9.0
    assert sim.pending_events == 1
    tail.cancel()
    assert sim.peek_time() is None
    assert sim.pending_events == 0


def test_peek_time_does_not_disturb_execution_order(sim):
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    assert sim.peek_time() == 1.0
    assert sim.peek_time() == 1.0  # repeated peeks are stable
    sim.run()
    assert fired == ["a", "b"]


def test_cancel_after_pop_is_harmless(sim):
    """Cancelling an event that already fired must not skew the counter."""
    e = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.0)
    e.cancel()  # already executed: must not decrement again
    assert sim.pending_events == 1


def test_cancel_then_peek_keeps_counter_exact(sim):
    """Interleaved cancel/peek sequences: peek physically discards the
    cancelled events it skips, and the live counter never drifts."""
    events = [sim.schedule(float(i), lambda: None) for i in range(8)]
    assert sim.peek_time() == 0.0
    events[0].cancel()
    events[1].cancel()
    assert sim.peek_time() == 2.0
    assert sim.pending_events == 6
    events[3].cancel()  # buried behind the live head, discarded later
    assert sim.peek_time() == 2.0
    assert sim.pending_events == 5
    sim.run(until=4.0)  # fires t=2, 4 (t=3 cancelled)
    assert sim.pending_events == 3
    for e in events[5:]:
        e.cancel()
    assert sim.peek_time() is None
    assert sim.pending_events == 0


def test_schedule_after_until_break_preserves_order(sim):
    """Events scheduled between runs (after an until-break advanced the
    clock) still fire before previously queued later events."""
    fired = []
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=2.0)
    assert sim.now == 2.0
    sim.schedule(0.5, fired.append, "early")
    sim.call_soon(fired.append, "soon")
    sim.run()
    assert fired == ["soon", "early", "late"]


def test_interleaved_timescales_fire_in_order(sim):
    """Mixed near/far/fractional delays agree with a sorted oracle."""
    fired = []
    delays = [
        0.03, 0.9, 1.0, 1.0625, 7.5, 63.9, 64.0, 100.0,
        4095.9, 4096.0, 70000.0, 262144.0, 1.0e6, 2.5e6,
    ]
    for i, d in enumerate(delays):
        sim.schedule(d, fired.append, i)
    sim.run()
    expected = sorted(range(len(delays)), key=lambda i: delays[i])
    assert fired == expected
    assert sim.now == max(delays)


# ----------------------------------------------------------------------
# heap compaction (cancel-heavy workloads)
# ----------------------------------------------------------------------
def test_heap_compaction_evicts_cancelled_majority():
    """When cancelled events outnumber live ones, the heap is rebuilt so
    push/pop stay O(log live) instead of O(log total)."""
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(200)]
    keep = events[::4]
    for e in events:
        if e not in keep:
            e.cancel()
    assert sim.heap_compactions >= 1
    assert sim.pending_events == len(keep)
    # The compaction threshold keeps cancelled entries a minority.
    assert len(sim._heap) <= 2 * sim.pending_events + 1


def test_heap_compaction_preserves_firing_order(sim):
    fired = []
    events = []
    for i in range(300):
        events.append(sim.schedule(float(i % 7), fired.append, i))
    for i, e in enumerate(events):
        if i % 3:
            e.cancel()
    expected = sorted(
        (i for i in range(300) if i % 3 == 0),
        key=lambda i: (float(i % 7), i),
    )
    sim.run()
    assert fired == expected


def test_small_heaps_are_never_compacted(sim):
    """Rebuilding a tiny queue costs more than lazy drops; below the size
    floor cancellation must leave the queue alone."""
    events = [sim.schedule(float(i), lambda: None) for i in range(20)]
    for e in events:
        e.cancel()
    assert sim.heap_compactions == 0


def test_compaction_counter_in_steady_cancel_churn():
    """Repeated schedule/cancel churn stays bounded: the heap never grows
    past ~2x the live population."""
    sim = Simulator()
    live = []
    for round_ in range(50):
        for _ in range(10):
            live.append(sim.schedule(1.0, lambda: None))
        while len(live) > 5:
            live.pop(0).cancel()
    assert len(sim._heap) <= max(2 * sim.pending_events, 64)
    assert sim.heap_compactions >= 1


def test_firing_live_events_past_buried_dead_ones_compacts(sim):
    """No cancel tips the balance here: 100 dead entries sit behind 100
    live ones (a dead minority), then a run fires 90 of the live ones.
    The check at the end of the run restores the bound."""
    early = [sim.schedule(float(i), lambda: None) for i in range(100)]
    late = [sim.schedule(1000.0 + i, lambda: None) for i in range(100)]
    for e in late:
        e.cancel()
    assert sim.heap_compactions == 0 and len(sim._heap) == 200
    sim.run(until=89.0)
    assert sim.pending_events == 10
    assert sim.heap_compactions == 1 and len(sim._heap) == 10
    assert early[-1].time == sim.peek_time() + 9


# ----------------------------------------------------------------------
# run() holds full collections off, spaces young ones, and gives the
# thresholds back
# ----------------------------------------------------------------------
@pytest.fixture
def thresholds():
    """A distinctive (enabled) collector configuration, restored after.
    Read back rather than assumed: an interpreter whose collector has no
    third threshold reports 0 for it, and the hold is then a no-op."""
    saved, was_enabled = gc.get_threshold(), gc.isenabled()
    gc.enable()
    gc.set_threshold(701, 11, 13)
    yield gc.get_threshold()
    gc.set_threshold(*saved)
    if not was_enabled:
        gc.disable()


def _seen_inside(sim, seen):
    sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))


def _held(inside, thresholds):
    """The first threshold raised to 10 000, the second untouched, the
    third out of reach of any run (where the interpreter has one)."""
    return inside[:2] == (10_000, thresholds[1]) and (
        inside[2] > 1_000_000 or thresholds[2] == 0
    )


def test_run_raises_the_first_and_third_thresholds_and_restores_them(sim, thresholds):
    seen = []
    _seen_inside(sim, seen)
    sim.run()
    assert len(seen) == 1 and _held(seen[0], thresholds)
    assert gc.get_threshold() == thresholds


def test_run_restores_thresholds_when_the_event_limit_trips(sim, thresholds):
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    with pytest.raises(EventLimitExceeded):
        sim.run(max_events=2)
    assert gc.get_threshold() == thresholds


def test_run_restores_thresholds_when_a_callback_raises(sim, thresholds):
    def boom():
        raise RuntimeError("callback failed")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert gc.get_threshold() == thresholds


def test_nested_run_keeps_the_hold_and_the_outer_run_restores(sim, thresholds):
    inner = Simulator()
    seen = []
    _seen_inside(inner, seen)

    def nested():
        inner.run()
        seen.append(gc.get_threshold())          # still held by the outer run

    sim.schedule(1.0, nested)
    sim.run()
    assert seen[0] == seen[1] and _held(seen[0], thresholds)
    assert gc.get_threshold() == thresholds


def test_run_leaves_a_disabled_collector_alone(sim, thresholds):
    gc.disable()
    seen = []
    _seen_inside(sim, seen)
    sim.schedule(2.0, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [thresholds, False]
    assert not gc.isenabled()
    assert gc.get_threshold() == thresholds


def test_run_keeps_a_zero_first_threshold(sim, thresholds):
    """A first threshold of 0 is automatic collection switched off: a
    run must not raise it into collecting."""
    gc.set_threshold(0, 11, 13)
    seen = []
    _seen_inside(sim, seen)
    sim.run()
    assert seen[0][:2] == (0, 11) and gc.get_threshold() == (0, 11, 13)


def test_a_controlled_instant_pops_each_event_once(monkeypatch):
    """Under a schedule controller an instant of k events costs k heap
    pops: the unfired rest waits off the heap until the next pop, where
    re-pushing it after every pop cost k (k + 1) / 2 pops."""
    import heapq

    from repro.sim import kernel

    pops = []
    monkeypatch.setattr(kernel, "heappop", lambda heap: pops.append(1) or heapq.heappop(heap))

    class Last:
        def choose(self, time, events):
            return len(events) - 1

    sim, fired = Simulator(controller=Last()), []
    for i in range(50):
        sim.schedule(1.0, fired.append, i)
    sim.schedule(1.0, sim.stop)                 # fires first: the rest stays pending
    sim.run()
    assert fired == [] and sim.pending_events == 50 and sim.peek_time() == 1.0
    sim.run()
    assert fired == list(range(49, -1, -1)) and len(pops) == 51
