"""Byte-identity regression matrix for the round-2 hot-path work.

The round-2 optimizations (window kernel, same-tick coalescing,
``__slots__``/pre-bound-constructor frame cuts, reusable recv waiters)
all promise the same thing: faster, but byte-identical.  This module is
the standing tripwire for that promise — every cell of
seeds × engine modes × kernels must produce the same trace fingerprint,
and a faulted chaos case must agree across all three kernels too.

``test_wheel_kernel.py`` proves wheel == heap; this matrix adds the
``window`` kernel and pins the *pairwise-all-equal* property in one
assert per cell, so any future hot-path lever that skews ordering in
any mode fails here with the exact (seed, mode) coordinate.
"""

import pytest

from repro.bench.workloads import build_chaos_mesh, build_chaos_ring
from repro.chaos import WORKLOADS, run_case, standard_plans
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, Tracer

KERNELS = ("heap", "wheel", "window")

ENGINE_MODES = {
    "plain": {"fossil_collect": False},
    "fossil": {"fossil_collect": True, "fossil_interval": 4},
}


def _fingerprint(kernel: str, build, seed: int, **system_kw) -> str:
    tracer = Tracer()
    system = HopeSystem(
        seed=seed,
        latency=ConstantLatency(1.0),
        trace=tracer,
        kernel=kernel,
        **system_kw,
    )
    build(system)
    system.run(max_events=200_000)
    return tracer.fingerprint()


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("build", [build_chaos_mesh, build_chaos_ring])
def test_fingerprints_identical_across_all_kernels(build, seed, mode):
    kw = ENGINE_MODES[mode]
    prints = {k: _fingerprint(k, build, seed, **kw) for k in KERNELS}
    assert len(set(prints.values())) == 1, (seed, mode, prints)


@pytest.mark.parametrize("seed", [1, 2])
def test_storm_fault_plan_identical_across_all_kernels(seed):
    """One chaos fault plan (drop + dup + reorder + jitter all at once):
    the faulted delivery paths — retraction, duplication, the reorder
    jitter draws — must consume the seeded streams identically under
    every kernel."""
    wl_name = sorted(WORKLOADS)[0]
    wl = WORKLOADS[wl_name]
    plan = standard_plans(wl_name)["storm"]
    results = {
        k: run_case(wl, seed, plan, plan_name="storm", kernel=k) for k in KERNELS
    }
    for kernel, result in results.items():
        assert result.ok, (kernel, result.failure)
    assert len({r.fingerprint for r in results.values()}) == 1
    assert len({tuple(sorted(r.committed.items())) for r in results.values()}) == 1
