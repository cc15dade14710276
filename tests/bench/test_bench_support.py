"""Tests for the benchmark support package."""

import pytest

from repro.apps.call_streaming import expected_output, run_optimistic, run_pessimistic
from repro.bench import (
    find_crossover,
    format_table,
    probabilistic_config,
    speedup,
    streaming_config,
    sweep,
    vt_workload,
)


def test_speedup():
    assert speedup(10.0, 5.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speedup(0.0, 1.0)


def test_find_crossover_interpolates():
    xs = [0.0, 1.0, 2.0]
    a = [0.0, 2.0, 4.0]
    b = [3.0, 3.0, 3.0]
    cross = find_crossover(xs, a, b)
    assert cross == pytest.approx(1.5)


def test_find_crossover_none_when_dominated():
    assert find_crossover([0, 1], [1, 2], [5, 6]) is None


def test_sweep_collects_metrics():
    result = sweep("n", [1, 2, 3], lambda n: {"sq": n * n, "double": 2 * n})
    assert result.values == [1, 2, 3]
    assert result.column("sq") == [1, 4, 9]
    rows = result.rows(["sq", "double"])
    assert rows[2] == [3, 9, 6]
    assert result.headers(["sq"]) == ["n", "sq"]


def test_sweep_rejects_ragged_metrics():
    def run(n):
        return {"a": 1} if n == 0 else {"b": 2}

    with pytest.raises(ValueError):
        sweep("n", [0, 1], run)


def test_format_table_alignment():
    text = format_table("T", ["x", "metric"], [[1, 2.5], [10, 0.125]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "metric" in lines[2]
    assert len(lines) == 6


def test_streaming_config_defaults():
    config = streaming_config(n_reports=5)
    assert config.n_reports == 5
    assert config.n_warts == 5
    assert expected_output(config)  # never fills the page
    assert all(op[0] == "print" for op in expected_output(config))


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_probabilistic_config_failure_fraction(p):
    config = probabilistic_config(n_reports=20, success_probability=p, seed=3)
    reference = expected_output(config)
    failures = sum(1 for op in reference if op[0] == "newpage")
    if p == 1.0:
        assert failures == 0
    elif p == 0.0:
        assert failures == 20
    else:
        assert 0 < failures < 20


def test_probabilistic_config_runs_equivalently():
    config = probabilistic_config(n_reports=6, success_probability=0.5, seed=1)
    pess = run_pessimistic(config)
    opt = run_optimistic(config)
    assert pess.server_output == expected_output(config)
    assert opt.server_output == expected_output(config)


def test_vt_workload_has_unique_ascending_streams():
    workload = vt_workload(n_senders=3, jobs_per_sender=4)
    vts = [job.vt for job in workload.all_jobs]
    assert vts == sorted(vts)
    assert len(set(vts)) == len(vts)
