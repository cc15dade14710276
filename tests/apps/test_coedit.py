"""Co-operative editing: replica convergence under optimistic typing."""

import pytest

from ..examples import load_example

co_editing = load_example("co_editing")
CoEditWorkload = co_editing.CoEditWorkload
EditScript = co_editing.EditScript
run_coedit = co_editing.run_coedit


def script(*edits):
    return EditScript(edits=tuple(edits))


def test_single_editor_types_in_order():
    workload = CoEditWorkload(
        scripts=(script((1.0, "a"), (1.0, "b"), (1.0, "c")),)
    )
    result = run_coedit(workload)
    assert result.documents[0] == ("a", "b", "c")
    assert result.converged
    assert result.rollbacks == 0


def test_two_editors_interleaved_without_conflict():
    """Editors alternate with enough think time that predictions hold."""
    workload = CoEditWorkload(
        scripts=(
            script((1.0, "a1"), (30.0, "a2")),
            script((14.0, "b1"), (30.0, "b2")),
        ),
        latency=2.0,
    )
    result = run_coedit(workload)
    assert result.converged
    assert result.rollbacks == 0
    assert result.documents[0] == ("a1", "b1", "a2", "b2")


def test_concurrent_edits_race_denial_then_convergence():
    """Both editors type at once: one prediction must fail, and all
    replicas must still converge on the sequencer's order."""
    workload = CoEditWorkload(
        scripts=(
            script((1.0, "left")),
            script((1.0, "right")),
        ),
        latency=3.0,
    )
    result = run_coedit(workload)
    assert result.converged
    assert result.denials >= 1
    assert result.rollbacks >= 1
    assert sorted(result.documents[0]) == ["left", "right"]


def test_burst_typing_from_both_editors_converges():
    workload = CoEditWorkload(
        scripts=(
            script((1.0, "a1"), (0.5, "a2"), (0.5, "a3")),
            script((1.2, "b1"), (0.5, "b2"), (0.5, "b3")),
        ),
        latency=4.0,
    )
    result = run_coedit(workload)
    assert result.converged
    assert len(result.order) == 6
    # every edit appears exactly once in the global order
    texts = sorted(entry[4] for entry in result.order)
    assert texts == ["a1", "a2", "a3", "b1", "b2", "b3"]


def test_three_editors_converge():
    workload = CoEditWorkload(
        scripts=(
            script((1.0, "x1"), (2.0, "x2")),
            script((1.5, "y1"), (2.0, "y2")),
            script((2.0, "z1"), (2.0, "z2")),
        ),
        latency=2.5,
    )
    result = run_coedit(workload)
    assert result.converged
    assert len(result.order) == 6


@pytest.mark.parametrize("seed", [0, 1])
def test_jittered_network_still_converges(seed):
    from repro.sim import RandomStreams, UniformLatency

    workload = CoEditWorkload(
        scripts=(
            script((1.0, "p1"), (1.0, "p2"), (1.0, "p3")),
            script((1.0, "q1"), (1.0, "q2"), (1.0, "q3")),
        ),
    )
    latency = UniformLatency(0.5, 6.0, RandomStreams(seed)["coedit"])
    result = run_coedit(workload, seed=seed, latency=latency)
    assert result.converged
    texts = sorted(entry[4] for entry in result.order)
    assert texts == ["p1", "p2", "p3", "q1", "q2", "q3"]
