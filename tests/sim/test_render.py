"""Tests for the ASCII timeline renderer."""

import pytest

from repro.sim import Span, Timeline
from repro.sim.render import render_timeline, render_utilization


def build_timeline():
    timeline = Timeline()
    worker = timeline.spawn("worker")
    worker.mark(Span.BUSY, 0.0)
    worker.mark(Span.BLOCKED, 4.0)
    worker.mark(Span.BUSY, 6.0)
    worker.close(10.0)
    worker.reclassify_since(6.0, Span.WASTED, 10.0)
    verifier = timeline.spawn("verifier")
    verifier.mark(Span.BLOCKED, 0.0)
    verifier.mark(Span.BUSY, 2.0)
    verifier.close(10.0)
    return timeline


def test_render_contains_rows_and_glyphs():
    text = render_timeline(build_timeline(), horizon=10.0, width=20)
    lines = text.splitlines()
    assert lines[0].startswith("verifier") or lines[0].startswith("worker")
    body = "\n".join(lines[:2])
    assert "#" in body and "." in body and "x" in body
    assert "=busy" in text


def test_render_cell_math():
    text = render_timeline(build_timeline(), horizon=10.0, width=10, processes=["worker"])
    row = text.splitlines()[0]
    cells = row.split("|")[1]
    assert len(cells) == 10
    # 0-4 busy, 4-6 blocked, 6-10 wasted
    assert cells[:4] == "####"
    assert cells[4:6] == ".."
    assert cells[6:] == "xxxx"


def test_render_defaults_horizon_from_spans():
    text = render_timeline(build_timeline(), width=10)
    assert "10" in text.splitlines()[-2]


def test_render_empty_timeline():
    assert render_timeline(Timeline()) .endswith("=rolled-back")


def test_render_span_ending_exactly_at_horizon():
    timeline = Timeline()
    p = timeline.spawn("p")
    p.mark(Span.BUSY, 8.0)
    p.close(10.0)
    text = render_timeline(timeline, horizon=10.0, width=10, processes=["p"])
    cells = text.splitlines()[0].split("|")[1]
    assert cells == "        ##"


def test_render_zero_length_span_at_horizon_is_clamped():
    # start == horizon used to compute start_cell == width and silently
    # drop the span; it must land in the final cell instead.
    timeline = Timeline()
    p = timeline.spawn("p")
    p.mark(Span.BUSY, 10.0)
    p.close(10.0)
    text = render_timeline(timeline, horizon=10.0, width=10, processes=["p"])
    cells = text.splitlines()[0].split("|")[1]
    assert cells == "         #"


def test_render_keeps_fully_folded_process_visible():
    timeline = build_timeline()
    # Fold every span of both processes into base totals (commit frontier
    # past the end of the run).
    dropped = timeline.compact_before(10.0)
    assert dropped > 0
    assert all(not timeline.process(n).spans for n in timeline.names())
    text = render_timeline(timeline, horizon=10.0, width=10)
    worker_row = [l for l in text.splitlines() if l.startswith("worker")][0]
    assert "compacted:" in worker_row
    assert "busy=4" in worker_row
    assert "wasted=4" in worker_row
    # names() and the chart agree: both processes still listed.
    assert [l.split()[0] for l in text.splitlines()[:2]] == timeline.names()


def test_base_totals_accessor_returns_copy():
    timeline = build_timeline()
    timeline.compact_before(10.0)
    worker = timeline.process("worker")
    base = worker.base_totals()
    assert base[Span.BUSY] == 4.0
    base[Span.BUSY] = 99.0
    assert worker.base_totals()[Span.BUSY] == 4.0
    # total() still reports the folded durations.
    assert worker.total(Span.BUSY) == 4.0


def test_reads_of_an_unknown_process_raise_and_create_nothing():
    timeline = build_timeline()
    for read in (
        lambda: timeline.utilization("typo", 10.0),
        lambda: render_timeline(timeline, horizon=10.0, processes=["zz"]),
        lambda: timeline.process("zz"),
    ):
        with pytest.raises(KeyError, match="known: verifier, worker"):
            read()
    assert timeline.names() == ["verifier", "worker"]
    assert timeline.aggregate(Span.BUSY) == 4.0 + 8.0
    with pytest.raises(ValueError, match="already"):
        timeline.spawn("worker")


def test_utilization_summary():
    text = render_utilization(build_timeline(), horizon=10.0)
    assert "worker" in text and "verifier" in text
    worker_line = [l for l in text.splitlines() if l.startswith("worker")][0]
    assert "busy  40.0%" in worker_line
    assert "rolled-back  40.0%" in worker_line
