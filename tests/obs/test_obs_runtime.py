"""End-to-end tests: the observability layer wired into HopeSystem."""

from pathlib import Path

import pytest

from repro.core import HopeError
from repro.core.inspect import to_dot
from repro.obs import MetricsRegistry, NullRegistry
from repro.runtime import HopeSystem
from repro.sim import Tracer


def _program(decision):
    """Worker guesses, speculatively messages a sink (implicit guess
    there), verifier affirms or denies after thinking."""

    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("verifier", x)
        if (yield p.guess(x)):
            yield p.compute(3.0)
            yield p.send("sink", "speculative-hello")
        else:
            yield p.compute(1.0)

    def sink(p):
        yield p.recv()                 # tagged receive -> implicit guess
        yield p.compute(1.0)

    def verifier(p):
        msg = yield p.recv()
        yield p.compute(10.0)          # long enough that the sink's recv
        if decision == "affirm":       # happens while x is still pending
            yield p.affirm(msg.payload)
        else:
            yield p.deny(msg.payload)

    return worker, sink, verifier


def run_metered(decision, trace=None):
    registry = MetricsRegistry()
    system = HopeSystem(trace=trace, metrics=registry)
    worker, sink, verifier = _program(decision)
    system.spawn("worker", worker)
    system.spawn("sink", sink)
    system.spawn("verifier", verifier)
    system.run()
    return system, registry


def test_affirm_run_counts_and_latency():
    system, registry = run_metered("affirm")
    spec = system.spec_metrics
    assert spec.guesses.value == 1
    assert spec.implicit_guesses.value == 1
    assert spec.affirms.value == 1
    assert spec.denies.value == 0
    assert spec.rollbacks.value == 0
    assert spec.finalizes.value == 2           # worker's interval + sink's
    assert spec.commit_latency.count == 2
    assert spec._open_guesses == {}


def test_deny_run_counts_rollback_and_waste():
    tracer = Tracer(categories=("rollback",))
    system, registry = run_metered("deny", trace=tracer)
    spec = system.spec_metrics
    stats = system.stats()
    assert spec.denies.value == 1
    assert spec.rollbacks.value == stats["rollbacks"] > 0
    assert spec.restarts.value == stats["restarts"] > 0
    assert spec.wasted_time.value == pytest.approx(stats["wasted_time"])
    assert spec.cascade_depth.count == spec.rollbacks.value
    assert spec.intervals_discarded.value >= 2  # worker's + sink's interval
    # each rollback's trace record names its cause and what it discarded
    rollbacks = tracer.records
    assert len(rollbacks) == spec.rollbacks.value
    assert sum(r.detail["discarded"] for r in rollbacks) == spec.intervals_discarded.value
    assert all(r.detail["cause"] == "x#1" for r in rollbacks)
    # derived wasted-work ratio agrees with the timeline arithmetic
    system.metrics_snapshot()
    wasted, busy = stats["wasted_time"], stats["busy_time"]
    assert spec.wasted_work_ratio() == pytest.approx(wasted / (wasted + busy))


def test_snapshot_fills_gauges():
    system, registry = run_metered("affirm")
    result = system.metrics_snapshot()
    assert result is registry
    stats = system.stats()
    assert registry.get("hope_messages_sent").value == stats["messages_sent"]
    assert registry.get("hope_sim_events").value == stats["sim_events"]
    assert registry.get("hope_busy_time").value == pytest.approx(stats["busy_time"])
    assert registry.get("hope_resolve_cache_hits").value == stats["resolve_cache_hits"]


def test_export_metrics_all_formats():
    system, _ = run_metered("deny")
    text = system.export_metrics("summary")
    assert "hope_rollbacks_total" in text
    assert "wasted-work ratio" in text
    jsonl = system.export_metrics("jsonl")
    assert '"type": "counter"' in jsonl
    prom = system.export_metrics("prom")
    assert "# TYPE hope_commit_latency histogram" in prom
    with pytest.raises(ValueError):
        system.export_metrics("xml")


#: The deny run's three exports, one file each; the metrics carry every
#: quantity the run reports, so an edit that moves one shows here.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt", ["prom", "jsonl", "summary"])
def test_deny_run_exports_match_golden(fmt):
    system, _ = run_metered("deny")
    expected = (GOLDEN / f"deny.{fmt}").read_text(encoding="utf-8")
    assert system.export_metrics(fmt) == expected


def test_unmetered_system_has_no_observability_state():
    system = HopeSystem()
    assert isinstance(system.metrics, NullRegistry)
    assert system.spec_metrics is None
    with pytest.raises(HopeError):
        system.metrics_snapshot()


def test_metered_run_trace_is_byte_identical():
    def run(metrics):
        tracer = Tracer()
        system = HopeSystem(trace=tracer, metrics=metrics)
        worker, sink, verifier = _program("deny")
        system.spawn("worker", worker)
        system.spawn("sink", sink)
        system.spawn("verifier", verifier)
        system.run()
        return tracer

    plain = run(None)
    nulled = run(NullRegistry())
    metered = run(MetricsRegistry())
    assert plain.format() == nulled.format() == metered.format()
    assert plain.fingerprint() == metered.fingerprint()


def test_crash_discards_open_spans():
    """A crash discards speculation without a rollback: the commit-latency
    table forgets the open guesses with it."""
    registry = MetricsRegistry()
    system = HopeSystem(metrics=registry)

    def worker(p):
        x = yield p.aid_init("x")
        yield p.guess(x)
        yield p.recv()                 # blocks forever: x never resolves

    system.spawn("worker", worker)
    system.run()
    spec = system.spec_metrics
    assert len(spec._open_guesses) == 1
    system.crash_process("worker")
    assert spec._open_guesses == {}


def test_to_dot_renders_an_unmetered_system():
    system = HopeSystem()

    def worker(p):
        x = yield p.aid_init("x")
        yield p.guess(x)
        yield p.recv()

    system.spawn("worker", worker)
    system.run()
    dot = to_dot(system.machine)
    assert dot.startswith("digraph hope")
    assert "worker" in dot
