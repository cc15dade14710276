"""Property-based tests for the simulation substrate."""

from hypothesis import given, settings, strategies as st

from repro.sim import (
    ConstantLatency,
    Network,
    RandomStreams,
    Recv,
    Simulator,
    Span,
    Task,
    Timeout,
    Tracer,
)
from repro.sim.timeline import ProcessTimeline


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=30))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), max_size=20),
    st.integers(min_value=0, max_value=2**32),
)
def test_same_seed_same_trace(delays, seed):
    def run():
        sim = Simulator()
        streams = RandomStreams(seed)
        tracer = Tracer()
        stream = streams["jitter"]
        for index, delay in enumerate(delays):
            jitter = stream.uniform(0, 5)
            sim.schedule(
                delay + jitter,
                lambda i=index: tracer.record(sim.now, "fire", "p", i=i),
            )
        sim.run()
        return tracer.fingerprint()

    assert run() == run()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=15))
def test_mailbox_is_fifo_under_equal_latency(payloads):
    sim = Simulator()
    net = Network(sim, ConstantLatency(1.0))
    box = net.register("rx")
    got = []

    def receiver(env):
        for _ in payloads:
            msg = yield Recv(box)
            got.append(msg.payload)

    Task(sim, "rx", receiver).start()
    for value in payloads:
        net.send("tx", "rx", value)
    sim.run()
    assert got == payloads


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=20, allow_nan=False), st.integers()),
        min_size=1,
        max_size=12,
    )
)
def test_messages_deliver_in_latency_order(sends):
    """With per-message latency overrides, arrival order follows latency
    (ties broken by send order)."""
    sim = Simulator()
    net = Network(sim)
    box = net.register("rx")
    got = []

    def receiver(env):
        for _ in sends:
            msg = yield Recv(box)
            got.append(msg.payload)

    Task(sim, "rx", receiver).start()
    for index, (latency, value) in enumerate(sends):
        net.send("tx", "rx", (latency, index, value), latency_override=latency)
    sim.run()
    expected = sorted(
        [(lat, index, value) for index, (lat, value) in enumerate(sends)],
        key=lambda t: (t[0], t[1]),
    )
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=8))
def test_random_streams_independent_and_stable(seed, name):
    a = RandomStreams(seed)
    b = RandomStreams(seed)
    assert [a[name].random() for _ in range(4)] == [
        b[name].random() for _ in range(4)
    ]
    other = name + "'"
    assert a[name].seed != a[other].seed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), max_size=10))
def test_run_until_is_prefix_of_full_run(delays):
    """Running to a horizon then continuing equals one uninterrupted run."""
    def collect(split):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        if split is not None:
            sim.run(until=split)
        sim.run()
        return fired

    assert collect(None) == collect(5.0)


# ----------------------------------------------------------------------
# reclassify_since rewrites the tail: same spans, same duration as the
# whole-list rebuild it replaced
# ----------------------------------------------------------------------
def _rebuild_reclassify(spans, start_time, kind, now):
    """The pre-suffix-cut ``reclassify_since`` over closed spans: rebuild
    every span.  Returns ``(new span triples, newly re-labelled time)``."""
    wasted = 0.0
    kept = []
    for span in spans:
        if span.end <= start_time:
            kept.append((span.kind, span.start, span.end))
        elif span.start >= start_time:
            if span.kind != kind:
                wasted += span.end - span.start
            kept.append((kind, span.start, span.end))
        else:
            kept.append((span.kind, span.start, start_time))
            if span.kind != kind:
                wasted += span.end - start_time
            kept.append((kind, start_time, span.end))
    return kept, wasted


_STEPS = st.lists(
    st.tuples(
        st.sampled_from([Span.BUSY, Span.BLOCKED]),
        # zero-length steps included: spans that open and close in one tick
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(_STEPS, st.lists(st.floats(0, 1), min_size=1, max_size=4))
def test_reclassify_since_matches_the_full_rebuild(steps, rollbacks):
    """Random mark sequences, then a series of rollbacks at random depths:
    later ones straddle spans and sweep over windows an earlier one
    already made WASTED (the double-count case)."""
    tl = ProcessTimeline("p")
    now = 0.0
    for kind, dt in steps:
        tl.mark(kind, now)
        now += dt
    total_wasted = 0.0
    for fraction in rollbacks:
        start_time = fraction * now
        tl.close(now)
        expected_spans, expected = _rebuild_reclassify(
            tl.spans, start_time, Span.WASTED, now
        )
        got = tl.reclassify_since(start_time, Span.WASTED, now)
        assert got == expected
        assert [(s.kind, s.start, s.end) for s in tl.spans] == expected_spans
        assert tl.open_kind is None
        total_wasted += got
        # the process re-executes for a while before the next rollback
        tl.mark(Span.BUSY, now)
        now += 1.0
    assert abs(tl.total(Span.WASTED) - total_wasted) < 1e-9
