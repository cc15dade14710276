"""Tests for the static-scope baseline."""

from repro.apps.call_streaming import (
    CallStreamConfig,
    expected_output,
    run_optimistic,
    run_pessimistic,
)
from repro.baselines.static_scope import run_static_scope


# ---------------------------------------------------------------- static scope
def test_static_scope_output_equivalent():
    config = CallStreamConfig(report_lines=(10, 70, 20), page_size=60)
    result = run_static_scope(config)
    assert result.server_output == expected_output(config)


def test_static_scope_never_rolls_back():
    """Nothing speculative escapes the process, so no rollback can occur."""
    config = CallStreamConfig(report_lines=(70, 70, 70), page_size=60)
    result = run_static_scope(config)
    assert result.rollbacks == 0
    assert result.server_output == expected_output(config)


def test_performance_ordering_hope_beats_static_beats_pessimistic():
    """The §2 argument, quantified: static scope can only overlap local
    preparation with verification; HOPE also overlaps the remote work."""
    config = CallStreamConfig(
        report_lines=tuple([10] * 8),
        page_size=10_000,
        latency=30.0,
        n_warts=8,
        summary_prep=20.0,   # enough local preparation for static scope to hide
    )
    pess = run_pessimistic(config)
    static = run_static_scope(config)
    hope = run_optimistic(config)
    assert hope.server_output == static.server_output == pess.server_output
    assert hope.makespan < static.makespan < pess.makespan
