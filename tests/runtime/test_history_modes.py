"""History on/off equivalence at the runtime.

``HopeSystem`` keeps the Definition 4.1 history only when it is given an
enabled tracer (``Machine(history=self._tracing)``); every other run
keeps just the index clock.  Nothing may depend on which: the same
program must produce the same trace, the same committed outputs and the
same counters — ``fossil_history_dropped`` included, because a pass
counts indices, not entries.

The two modes are compared under one tracer by flipping
``machine.history`` before the first spawn (records read it when they
are created), which is also how the default wiring is checked below.
"""

import pytest

from repro.bench.workloads import (
    build_chaos_mesh,
    build_chaos_ring,
    build_durable_counter,
)
from repro.core.inspect import format_machine
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, Tracer

MODES = {
    "plain": {"fossil_collect": False},
    "fossil": {"fossil_collect": True, "fossil_interval": 4},
}


def _run(build, seed, history, **options):
    tracer = Tracer()
    system = HopeSystem(
        seed=seed, latency=ConstantLatency(1.0), trace=tracer, **options
    )
    system.machine.history = history
    build(system)
    system.run(max_events=200_000)
    system.machine.check_invariants()
    return system, tracer


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize(
    "build", [build_chaos_mesh, build_chaos_ring, build_durable_counter]
)
def test_same_run_with_and_without_history(build, seed, mode):
    kept, kept_trace = _run(build, seed, True, **MODES[mode])
    bare, bare_trace = _run(build, seed, False, **MODES[mode])
    assert kept_trace.fingerprint() == bare_trace.fingerprint()
    assert kept.stats() == bare.stats()
    assert kept.procs.keys() == bare.procs.keys()
    for name in kept.process_names():
        assert kept.committed_outputs(name) == bare.committed_outputs(name)
        assert kept.outputs(name) == bare.outputs(name)
        if name not in kept.procs:
            continue                        # retired: no record left
        on, off = kept.machine.process(name), bare.machine.process(name)
        assert (on._next_index, on._floor_index) == (off._next_index, off._floor_index)
        assert off.history == ()           # the shared empty tuple
        assert [e.index for e in on.history] == list(
            range(on._floor_index, on._next_index)
        )
    if mode == "fossil":
        assert bare.stats()["fossil_history_dropped"] > 0


def test_history_follows_the_tracer():
    """The default wiring: no tracer (or a disabled one) → clock only;
    an enabled tracer → the full history, which ``format_machine`` lists.
    Read at t=3, before quiescence: the pass a run owes there retires
    every record."""
    def run(**options):
        system = HopeSystem(latency=ConstantLatency(1.0), **options)
        build_chaos_mesh(system)
        system.run(until=3.0)
        assert len(system.machine.processes) == 4
        return system

    for quiet in (run(), run(trace=Tracer(categories=()))):
        assert not quiet.machine.history
        assert all(r.history == () for r in quiet.machine.processes.values())
        assert "H[" not in format_machine(quiet.machine, include_history=True)
    traced = run(trace=Tracer())
    assert traced.machine.history
    assert all(r.history for r in traced.machine.processes.values())
    assert "H[" in format_machine(traced.machine, include_history=True)
