"""Unit tests for the metrics instruments and the speculation set."""

import pytest

from repro.core import Machine
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    SpeculationMetrics,
)
from repro.obs.metrics import CASCADE_DEPTH_BUCKETS, COMMIT_LATENCY_BUCKETS


# ---------------------------------------------------------------- counter
def test_counter_increments():
    c = Counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_negative():
    c = Counter("c")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_sets():
    g = Gauge("g")
    g.set(4.2)
    assert g.value == 4.2
    g.set(1.0)
    assert g.value == 1.0


# ---------------------------------------------------------------- histogram
def test_histogram_bucket_placement():
    h = Histogram("h", (1.0, 5.0, 10.0))
    for value in (0.5, 1.0, 3.0, 10.0, 99.0):
        h.observe(value)
    # bisect_left: a value equal to a bound lands in that bound's bucket
    assert h.counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(113.5)
    assert h.mean == pytest.approx(113.5 / 5)


def test_histogram_items_has_inf_tail():
    h = Histogram("h", (1.0,))
    h.observe(2.0)
    assert h.items() == [(1.0, 0), (float("inf"), 1)]


def test_histogram_quantile_is_bucket_bound():
    h = Histogram("h", (1.0, 2.0, 4.0))
    for value in (0.5, 0.5, 1.5, 3.0):
        h.observe(value)
    assert h.quantile(0.5) == 1.0
    assert h.quantile(1.0) == 4.0
    assert Histogram("e", (1.0,)).quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_validates_buckets():
    with pytest.raises(ValueError):
        Histogram("h", ())
    with pytest.raises(ValueError):
        Histogram("h", (2.0, 1.0))


# ---------------------------------------------------------------- registry
def test_registry_get_or_create():
    reg = MetricsRegistry()
    a = reg.counter("a")
    assert reg.counter("a") is a
    assert reg.get("a") is a
    assert "a" in reg and len(reg) == 1


def test_registry_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("a")
    with pytest.raises(ValueError):
        reg.gauge("a")


def test_registry_iterates_in_registration_order():
    reg = MetricsRegistry()
    reg.counter("z")
    reg.gauge("a")
    reg.histogram("m", (1.0,))
    assert [m.name for m in reg] == ["z", "a", "m"]


def test_null_registry_is_disabled_and_free():
    reg = NullRegistry()
    assert reg.enabled is False and len(reg) == 0


# ---------------------------------------------------------------- spec set
@pytest.fixture
def metered_machine():
    machine = Machine(strict=True)
    registry = MetricsRegistry()
    spec = SpeculationMetrics(registry)
    clock = {"now": 0.0}
    machine.subscribe(lambda event: spec.observe_event(event, clock["now"]))
    return machine, spec, clock


def test_guess_and_finalize_observe_commit_latency(metered_machine):
    machine, spec, clock = metered_machine
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    clock["now"] = 1.0
    machine.guess("p", x)
    assert spec.guesses.value == 1
    clock["now"] = 5.0
    machine.affirm("q", x)
    assert spec.affirms.value == 1
    assert spec.affirms_definite.value == 1
    assert spec.finalizes.value == 1
    assert spec.commit_latency.count == 1
    assert spec.commit_latency.sum == pytest.approx(4.0)
    # 4.0 falls in the le=5.0 bucket of the default bounds
    index = COMMIT_LATENCY_BUCKETS.index(5.0)
    assert spec.commit_latency.counts[index] == 1
    assert spec._open_guesses == {}


def test_deny_rollback_observes_cascade_depth(metered_machine):
    machine, spec, clock = metered_machine
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    y = machine.aid_init("y")
    clock["now"] = 1.0
    machine.guess("p", x)
    machine.guess("p", y)                      # nested: IDO {x, y}
    clock["now"] = 6.0
    machine.deny("q", x)
    assert spec.denies.value == 1
    assert spec.denies_definite.value == 1
    assert spec.rollbacks.value == 1
    assert spec.intervals_discarded.value == 2
    assert spec.cascade_depth.count == 1
    index = CASCADE_DEPTH_BUCKETS.index(2)
    assert spec.cascade_depth.counts[index] == 1
    # discarded intervals never reach the latency histogram
    assert spec.commit_latency.count == 0
    assert spec._open_guesses == {}


def test_guess_on_resolved_aid_counts_skip(metered_machine):
    machine, spec, clock = metered_machine
    machine.create_process("p")
    machine.create_process("q")
    x = machine.aid_init("x")
    machine.affirm("q", x)
    machine.guess("p", x)
    assert spec.guess_skips.value == 1
    assert spec.guesses.value == 0
    assert spec._open_guesses == {}


def test_forget_intervals_clears_open_guesses(metered_machine):
    machine, spec, clock = metered_machine
    machine.create_process("p")
    x = machine.aid_init("x")
    machine.guess("p", x)
    interval = machine.process("p").current
    assert interval.serial in spec._open_guesses
    spec.forget_intervals([interval])
    assert spec._open_guesses == {}


def test_derived_ratios():
    reg = MetricsRegistry()
    spec = SpeculationMetrics(reg)
    assert spec.wasted_work_ratio() == 0.0
    assert spec.resolve_cache_hit_rate() == 0.0
    spec.wasted_time.inc(3.0)
    spec.busy_time.set(9.0)
    assert spec.wasted_work_ratio() == pytest.approx(3.0 / 12.0)
    spec.resolve_cache_hits.set(3)
    spec.resolve_cache_misses.set(1)
    assert spec.resolve_cache_hit_rate() == pytest.approx(0.75)
