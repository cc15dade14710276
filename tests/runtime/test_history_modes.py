"""The shipped machine against the Definition 4.1 machine, at the runtime.

``HopeSystem`` always builds ``Machine(history=False)``, traced or not:
each record keeps just the index clock.  The Definition 4.1 machine
(``history=True``, what ``Machine()`` builds) must run the same
program identically: the same trace, the same committed outputs and
the same counters — ``fossil_history_dropped`` included, because a pass
counts indices, not entries.

The oracle is run under one tracer by flipping ``machine.history``
before the first spawn (records read it when they are created).
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

#: ``plain``: a system built with no keyword (a pass every 64 finalizes);
#: ``fossil``: one that collects after every 4.  Both collect: ``plain``
#: names the build without a keyword, not an uncollected mode.
MODES = {
    "plain": {},
    "fossil": {"fossil_interval": 4},
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


def test_every_system_keeps_the_index_clock_only():
    """The default wiring: no tracer, a disabled one or an enabled one —
    the machine keeps the clock only, and ``format_machine`` lists no
    history row.  Read at t=3, before quiescence: the pass a run owes
    there retires every record."""
    for options in ({}, {"trace": Tracer(categories=())}, {"trace": Tracer()}):
        system = HopeSystem(latency=ConstantLatency(1.0), **options)
        build_chaos_mesh(system)
        system.run(until=3.0)
        assert len(system.machine.processes) == 4
        assert not system.machine.history
        records = system.machine.processes.values()
        assert all(r.history == () and r._next_index > 0 for r in records)
        assert "H[" not in format_machine(system.machine, include_history=True)
