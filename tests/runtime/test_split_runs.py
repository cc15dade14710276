"""A run split by ``run(until=t)`` accounts time as the unsplit run does.

A span open at an ``until`` goes on into the next ``run()``: only
quiescence closes the timeline, and ``stats()`` measures a span still open
to the current time.  (It used to close every open span at each
``until``, and the next run never reopened them: a body of two
``compute(10.0)`` reported 20 busy units unsplit, 15 after
``run(until=5)``.)
"""

from hypothesis import given, settings, strategies as st

from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, Span


def _worker(p):
    yield p.compute(10.0)
    yield p.compute(10.0)


def _guesser(p, judge, work):
    yield p.compute(2.0)
    x = yield p.aid_init("x")
    yield p.send(judge, x)
    if (yield p.guess(x)):
        yield p.compute(work)
    yield p.compute(1.5)
    yield p.emit("done")


def _judge(p, wait, verdict):
    x = (yield p.recv()).payload
    yield p.compute(wait)
    if verdict:
        yield p.affirm(x)
    else:
        yield p.deny(x)


def _system(verdict: bool, wait: float) -> HopeSystem:
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0))
    system.spawn("worker", _worker)
    system.spawn("judge", _judge, wait, verdict)
    system.spawn("guesser", _guesser, "judge", 6.0)
    return system


def _totals(system: HopeSystem) -> tuple:
    stats = system.stats()
    blocked = system.timeline.aggregate(Span.BLOCKED, system.sim.now)
    return stats["busy_time"], blocked, stats["wasted_time"]


def test_two_computes_are_twenty_busy_units_however_the_run_is_split():
    for splits in [(), (5.0,), (5.0, 15.0)]:
        system = HopeSystem()
        system.spawn("a", _worker)
        for until in splits:
            system.run(until=until)
            # measured to now while the span is open
            assert system.stats()["busy_time"] == until
        system.run()
        assert system.stats()["busy_time"] == 20.0


@settings(max_examples=60, deadline=None)
@given(
    verdict=st.booleans(),
    wait=st.sampled_from([0.5, 3.0, 8.0]),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
)
def test_busy_blocked_and_wasted_totals_do_not_depend_on_split_points(
    verdict, wait, fractions
):
    whole = _system(verdict, wait)
    makespan = whole.run()
    expected = _totals(whole)
    assert expected[2] > 0 or verdict         # a deny wasted something
    split = _system(verdict, wait)
    for until in sorted(f * makespan for f in fractions):
        split.run(until=until)
    assert split.run() == makespan
    assert _totals(split) == expected
