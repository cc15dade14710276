"""Parallel-backend worker: one OS process hosting one shard.

Each worker builds a full :class:`~repro.runtime.engine.HopeSystem`
(sim backend) over a :class:`~.shard.ShardTransport`, spawns its slice
of the processes, and then obeys the coordinator's window protocol:

1. report ``next_time`` (earliest pending local event) and drain
   outbound frames;
2. receive a *grant* ``(until, frames)`` — inject the frames (already
   coordinator-sorted), then run every local event with
   ``time < until``;
3. repeat until the coordinator sends *finish*, then ship a final
   report: per-process results/outputs, AID statuses, stats, and (when
   metered) a metrics dump.

The conservative-window safety argument lives in
:meth:`repro.parallel.backend.ParallelBackend._coordinate`; the worker
only ever trusts the granted bound.
"""

from __future__ import annotations

import os
import traceback

from .shard import RemoteBridge, ShardTransport
from .wire import SERIAL_STRIDE, ShardSpec


def _build_system(spec: ShardSpec):
    """Construct the shard's HopeSystem + bridge (returns both)."""
    from ..obs.metrics import MetricsRegistry
    from ..runtime.engine import HopeSystem

    config = spec.config
    holder = {}

    def transport_factory(sim, latency_model, streams):
        transport = ShardTransport(
            sim, latency_model, placement=spec.placement, index=spec.index,
            lookahead=spec.lookahead,
        )
        holder["transport"] = transport
        return transport

    system = HopeSystem(
        seed=config["seed"],
        latency=config["latency"],
        rollback_overhead=config["rollback_overhead"],
        strict_aids=config["strict_aids"],
        speculation=config["speculation"],
        metrics=MetricsRegistry() if config["metered"] else None,
        transport=transport_factory,
        # A shard never collects, whatever the coordinator was asked for:
        # the pins on an AID (handles, tags of messages in flight) can sit
        # on another shard, where this machine cannot see them, so it
        # could retire an AID a remote delivery will still look up by key.
        fossil_collect=False,
    )
    transport = holder["transport"]
    # Disjoint serial ranges: shard k mints AID keys "name#<k*STRIDE+n>",
    # so mirror adoption on other shards is collision-free.
    system.machine.offset_serials(spec.index * SERIAL_STRIDE)
    bridge = RemoteBridge(system, transport, spec.index, spec.lookahead)
    system.remote = bridge
    for name, fn, args in spec.specs:
        system.spawn(name, fn, *args)
    # Mailboxes for every endpoint (remote senders need none locally,
    # but inbound frames address co-located destinations by name).
    return system, bridge, transport


def _run_window(system, bound: float, max_events) -> None:
    """Run every local event strictly before ``bound``."""
    sim = system.sim
    while True:
        t = sim.peek_time()
        if t is None or t >= bound:
            return
        sim.step()
        if max_events is not None and sim.events_processed > max_events:
            from ..sim.kernel import EventLimitExceeded

            raise EventLimitExceeded(
                f"shard exceeded {max_events} events at t={sim.now:.6g}; "
                "likely livelock"
            )


def _report(system, bridge, transport) -> dict:
    return {
        "next_time": system.sim.peek_time(),
        "frames": transport.drain_outbound(),
        "new_aids": bridge.drain_new_aids(),
    }


def _final_report(spec: ShardSpec, system, transport) -> dict:
    from ..obs.metrics import dump_registry

    now = system.sim.now
    system.timeline.close_all(now)
    procs = {}
    for name, proc in system.procs.items():
        procs[name] = {
            "done": proc.done,
            "crashed": proc.crashed,
            "result": proc.result,
            "restarts": proc.restarts,
            "committed": system.committed_outputs(name),
            "outputs": [(r.value, r.time) for r in proc.outputs if not r.committed],
        }
    return {
        "index": spec.index,
        "now": now,
        "procs": procs,
        "aids": {key: aid.status.value
                 for key, aid in system.machine.aids.items()},
        "stats": system.stats(),
        "metrics": (dump_registry(system.metrics_snapshot())
                    if spec.config["metered"] else None),
    }


def worker_main(conn, spec: ShardSpec) -> None:
    """Entry point of a forked worker (never returns normally)."""
    try:
        system, bridge, transport = _build_system(spec)
        crash_at = spec.crash_at
        conn.send(("report", _report(system, bridge, transport)))
        while True:
            cmd = conn.recv()
            if cmd[0] == "finish":
                conn.send(("final", _final_report(spec, system, transport)))
                conn.close()
                os._exit(0)
            _op, until, frames = cmd
            for frame in frames:
                bridge.inject(frame)
            if crash_at is not None and until > crash_at:
                # Fail-stop mid-window: run up to the crash instant, then
                # vanish without a word — mid-speculation, AIDs pending.
                _run_window(system, crash_at, spec.max_events)
                os._exit(17)
            _run_window(system, until, spec.max_events)
            conn.send(("report", _report(system, bridge, transport)))
    except BaseException as exc:  # noqa: BLE001 - ship the diagnosis out
        try:
            conn.send(("error", {
                "index": spec.index,
                "error": repr(exc),
                "traceback": traceback.format_exc(),
            }))
        except Exception:
            pass
        os._exit(1)
