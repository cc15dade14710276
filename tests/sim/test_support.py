"""Tests for latency models, random streams, tracer, timeline."""

import pytest

from repro.sim import (
    ConstantLatency,
    LinkLatency,
    RandomStream,
    RandomStreams,
    SequenceLatency,
    Span,
    Timeline,
    Tracer,
    UniformLatency,
    derive_seed,
)


# ---------------------------------------------------------------- latency
def test_constant_latency():
    model = ConstantLatency(3.0)
    assert model.sample("a", "b") == 3.0


def test_constant_latency_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)


def test_uniform_latency_within_bounds():
    streams = RandomStreams(7)
    model = UniformLatency(1.0, 2.0, streams["lat"])
    for _ in range(100):
        assert 1.0 <= model.sample("a", "b") <= 2.0


def test_sequence_latency_cycles():
    model = SequenceLatency([1.0, 2.0])
    draws = [model.sample("a", "b") for _ in range(4)]
    assert draws == [1.0, 2.0, 1.0, 2.0]


def test_link_latency_routes_per_link():
    model = LinkLatency(
        {("a", "b"): ConstantLatency(1.0)}, default=ConstantLatency(9.0)
    )
    assert model.sample("a", "b") == 1.0
    assert model.sample("b", "a") == 9.0
    model.set_link("b", "a", ConstantLatency(2.0))
    assert model.sample("b", "a") == 2.0


# ---------------------------------------------------------------- random
def test_streams_are_deterministic():
    a = RandomStreams(42)["workload"]
    b = RandomStreams(42)["workload"]
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_are_independent_by_name():
    streams = RandomStreams(42)
    assert derive_seed(42, "x") != derive_seed(42, "y")
    xs = [streams["x"].random() for _ in range(3)]
    ys = [streams["y"].random() for _ in range(3)]
    assert xs != ys


def test_stream_instance_cached():
    streams = RandomStreams(1)
    assert streams["a"] is streams["a"]


def test_bernoulli_bounds():
    stream = RandomStreams(1)["p"]
    with pytest.raises(ValueError):
        stream.bernoulli(1.5)
    assert stream.bernoulli(1.0) is True
    assert stream.bernoulli(0.0) is False


# ---------------------------------------------------------------- tracer
def test_tracer_records_and_counts():
    tracer = Tracer()
    tracer.record(1.0, "send", "p", dst="q")
    tracer.record(2.0, "recv", "q", src="p")
    assert len(tracer.records) == 2
    assert tracer.counts["send"] == 1
    assert [(r.category, r.process, r.detail) for r in tracer.records] == [
        ("send", "p", {"dst": "q"}), ("recv", "q", {"src": "p"})]


def test_tracer_category_filter_still_counts():
    tracer = Tracer(categories={"send"})
    tracer.record(1.0, "send", "p")
    tracer.record(1.0, "recv", "q")
    assert len(tracer.records) == 1
    assert tracer.counts["recv"] == 1


def test_tracer_fingerprint_stable_and_sensitive():
    t1, t2, t3 = Tracer(), Tracer(), Tracer()
    for t in (t1, t2):
        t.record(1.0, "send", "p", n=1)
    t3.record(1.0, "send", "p", n=2)
    assert t1.fingerprint() == t2.fingerprint()
    assert t1.fingerprint() != t3.fingerprint()


def test_tracer_max_records_truncates():
    tracer = Tracer(max_records=2)
    for i in range(5):
        tracer.record(float(i), "e", "p", i=i)
    assert len(tracer.records) == 2
    assert tracer.truncated
    assert tracer.records[0].detail == {"i": 3}


def test_tracer_fingerprint_raises_on_truncated_trace():
    tracer = Tracer(max_records=2)
    for i in range(5):
        tracer.record(float(i), "e", "p", i=i)
    with pytest.raises(ValueError, match="truncated"):
        tracer.fingerprint()
    # The escape hatch still hashes the retained suffix deterministically.
    assert tracer.fingerprint(allow_truncated=True)


def test_null_tracer_records_nothing():
    tracer = Tracer(categories=())
    tracer.record(1.0, "send", "p")
    assert len(tracer.records) == 0
    assert tracer.counts == {}


# ---------------------------------------------------------------- timeline
def test_timeline_accumulates_busy_and_blocked():
    timeline = Timeline()
    tl = timeline.spawn("p")
    tl.mark(Span.BUSY, 0.0)
    tl.mark(Span.BLOCKED, 3.0)
    tl.mark(Span.BUSY, 5.0)
    tl.close(6.0)
    assert tl.total(Span.BUSY) == pytest.approx(4.0)
    assert tl.total(Span.BLOCKED) == pytest.approx(2.0)
    assert timeline.utilization("p", 6.0) == pytest.approx(4.0 / 6.0)


def test_timeline_mark_same_kind_is_noop():
    tl = Timeline().spawn("p")
    tl.mark(Span.BUSY, 0.0)
    tl.mark(Span.BUSY, 2.0)
    tl.close(4.0)
    assert len(tl.spans) == 1
    assert tl.total(Span.BUSY) == pytest.approx(4.0)


def test_reclassify_since_marks_wasted_work():
    tl = Timeline().spawn("p")
    tl.mark(Span.BUSY, 0.0)
    tl.mark(Span.BLOCKED, 4.0)
    tl.mark(Span.BUSY, 6.0)
    wasted = tl.reclassify_since(2.0, Span.WASTED, 8.0)
    assert wasted == pytest.approx(6.0)
    assert tl.total(Span.WASTED) == pytest.approx(6.0)
    assert tl.total(Span.BUSY) == pytest.approx(2.0)
    assert tl.total(Span.BLOCKED) == pytest.approx(0.0)


def test_reclassify_since_does_not_double_count_wasted():
    """A deeper rollback sweeping over an earlier rollback's window must
    not count the already-wasted time again: the per-call returns have to
    sum to the timeline's WASTED aggregate (the wasted-time metric and
    the restart trace records rely on this)."""
    tl = Timeline().spawn("p")
    tl.mark(Span.BUSY, 0.0)
    first = tl.reclassify_since(4.0, Span.WASTED, 8.0)
    assert first == pytest.approx(4.0)
    tl.mark(Span.BUSY, 8.0)
    # second rollback truncates to an *older* checkpoint at t=2
    second = tl.reclassify_since(2.0, Span.WASTED, 10.0)
    assert second == pytest.approx(4.0)      # [2,4) + [8,10) — not [4,8) again
    assert first + second == pytest.approx(tl.total(Span.WASTED)) == 8.0
    assert tl.total(Span.BUSY) == pytest.approx(2.0)


def test_timeline_aggregate():
    timeline = Timeline()
    timeline.spawn("a").mark(Span.BUSY, 0.0)
    timeline.spawn("b").mark(Span.BUSY, 1.0)
    timeline.close_all(5.0)
    assert timeline.aggregate(Span.BUSY) == pytest.approx(5.0 + 4.0)
    assert timeline.names() == ["a", "b"]


# ------------------------------------------------- latency exhaustion
def test_sequence_latency_cycle_false_serves_exact_count():
    model = SequenceLatency([1.0, 2.0, 3.0], cycle=False)
    assert [model.sample("a", "b") for _ in range(3)] == [1.0, 2.0, 3.0]


def test_sequence_latency_exhaustion_raises_naming_link():
    from repro.sim import SimulationError

    model = SequenceLatency([1.0, 2.0], cycle=False)
    model.sample("a", "b")
    model.sample("a", "b")
    with pytest.raises(SimulationError) as exc:
        model.sample("src", "dst")
    assert "'src'->'dst'" in str(exc.value)
    assert "2 value(s)" in str(exc.value)
    assert "cycle=True" in str(exc.value)


def test_sequence_latency_repr_shows_cycle_flag():
    assert "cycle=False" in repr(SequenceLatency([1.0], cycle=False))
    assert "cycle=False" not in repr(SequenceLatency([1.0]))
