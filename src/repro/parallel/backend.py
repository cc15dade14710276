"""The parallel backend: real OS workers behind the ``Backend`` seam.

``HopeSystem(backend="parallel", workers=N)`` shards its processes over
``N`` forked workers, each running a full single-shard
:class:`~repro.runtime.engine.HopeSystem` (see :mod:`.worker`), and
coordinates them with a conservative window protocol:

* **Lookahead** ``L`` is the constant message latency: any information a
  shard emits at virtual time ``t`` (a message, a relayed resolution)
  takes effect elsewhere no earlier than ``t + L``.
* Each round the coordinator computes ``T`` — the earliest pending
  event across all shards and in-flight frames — and grants every shard
  the window ``[T, T + L)``.  Nothing generated inside the window can
  land inside it, so shards run their windows concurrently without ever
  seeing an event out of order.

Cross-shard speculation needs no extra machinery beyond the frames: a
message from a speculative interval carries its AID tag keys, the
receiving shard adopts *mirror* AIDs for foreign keys, and definite
affirm/deny resolutions are relayed (one latency later) by the
``__remote__`` pseudo-process.  Retraction frames are an optimisation;
correctness rests on tag resolution dropping dead messages, exactly as
in the single-simulator runtime.

Determinism contract (see docs/LIMITATIONS.md): the *committed* state of
a parallel run is deterministic and matches the sim twin for
branch-symmetric programs; event interleavings and per-shard trace
streams are not byte-identical to the sim's.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import Any, Callable, Generator, Optional

from ..core.aid import AidStatus
from ..core.errors import HopeError
from ..runtime.backend import Backend
from ..sim.latency import ConstantLatency
from .wire import (
    DETECTOR_DENY,
    AckFrame,
    MsgFrame,
    ResolveFrame,
    RetractFrame,
    ShardSpec,
    fid_origin,
    frame_apply_time,
    frame_sort_key,
)
from .worker import worker_main

#: Options a parallel system cannot honour (each names the conflicting
#: subsystem so the constructor error explains itself).
_REJECTED = {
    "trace": "tracing is per-shard; run the sim backend for a trace",
    "faults": "fault plans assume one shared network fate stream",
    "reliable": "reliable delivery duplicates the wire-format acks",
    "failure_detector": "worker death is the detector (coordinator-side)",
    "shuffle_ties": "tie shuffling is a model-checking (sim) feature",
    "controller": "directed scheduling is a model-checking (sim) feature",
    "transport": "the parallel backend installs its own ShardTransport",
}

_STATUS_RANK = {"pending": 0, "affirmed": 1, "denied": 2}


class _SpeculativeOutput:
    """Interval stand-in for a worker output that never committed."""

    __slots__ = ()
    definite = False


_SPECULATIVE = _SpeculativeOutput()


class ParallelBackend(Backend):
    """Coordinator living in the user's process; workers live in forks."""

    name = "parallel"

    def __init__(self, engine, workers: int, config: dict,
                 opts: Optional[dict] = None) -> None:
        self.engine = engine
        self.workers = workers
        self.config = config
        self.opts = dict(opts or {})
        self._validate()
        latency = config["latency"]
        self.lookahead: float = latency.value
        #: (name, fn, args) in spawn order — the placement domain.
        self.specs: list = []
        self.placement: dict = {}
        self._ran = False
        self._stats: Optional[dict] = None
        self._aid_statuses: dict = {}
        self._windows = 0
        self._crashed_workers: list = []

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        config = self.config
        offenders = [
            f"{key} ({why})" for key, why in _REJECTED.items() if config[key]
        ]
        if offenders:
            raise HopeError(
                "parallel backend does not support: " + "; ".join(offenders)
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise HopeError(f"workers must be a positive int, got {self.workers!r}")
        latency = config["latency"]
        if not isinstance(latency, ConstantLatency) or latency.value <= 0:
            raise HopeError(
                "parallel backend requires latency=ConstantLatency(L) with "
                "L > 0 — the constant latency is the conservative lookahead "
                f"window (got {latency!r})"
            )
        unknown = set(self.opts) - {"placement", "crash_at"}
        if unknown:
            raise HopeError(f"unknown parallel_opts: {sorted(unknown)}")

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    def spawn(self, name: str, fn: Callable[..., Generator], *args: Any):
        from ..runtime.engine import ProcessRuntime

        if self._ran:
            raise HopeError(
                "parallel backend: all spawns must precede run() — shards "
                "are laid out once (no dynamic placement)"
            )
        if name in self.engine.procs:
            raise HopeError(f"process {name!r} already spawned")
        # Facade record in the coordinator: results/outputs are filled in
        # from the worker's final report after run().
        proc = ProcessRuntime(name, fn, args)
        proc.track = self.engine.timeline.spawn(name)
        self.engine.procs[name] = proc
        self.specs.append((name, fn, args))
        return proc

    def run(self, until: Optional[float], max_events: Optional[int]) -> float:
        if self._ran:
            raise HopeError("parallel backend: run() may only be called once")
        if not self.specs:
            self._ran = True
            self._stats = self._base_stats()
            return 0.0
        self._ran = True
        self.placement = self._place()
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX only
            raise HopeError(
                "parallel backend requires the 'fork' start method (POSIX)"
            ) from exc
        crash_at = dict(self.opts.get("crash_at") or {})
        conns: dict = {}
        procs: dict = {}
        for w in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            spec = ShardSpec(
                index=w,
                nworkers=self.workers,
                specs=tuple(s for s in self.specs if self.placement[s[0]] == w),
                placement=self.placement,
                lookahead=self.lookahead,
                config=self.config,
                crash_at=crash_at.get(w),
                max_events=max_events,
            )
            proc = ctx.Process(target=worker_main, args=(child_conn, spec),
                               daemon=True)
            proc.start()
            child_conn.close()
            conns[w] = parent_conn
            procs[w] = proc
        try:
            final = self._coordinate(until, conns)
        finally:
            for conn in conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
            for proc in procs.values():
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=5)
        return final

    def stats(self) -> Optional[dict]:
        return self._stats if self._stats is not None else self._base_stats()

    def aid_status(self, key: str):
        status = self._aid_statuses.get(key)
        return AidStatus(status) if status is not None else None

    def owns_metrics(self) -> bool:
        # Worker registries are snapshotted (gauges refreshed shard-side)
        # and merged after run(); a coordinator-side refresh would clobber
        # the merged gauges with this process's empty timeline.
        return self._ran and self.config["metered"]

    # ------------------------------------------------------------------
    # coordination
    # ------------------------------------------------------------------
    def _place(self) -> dict:
        placement = {
            name: i % self.workers
            for i, (name, _fn, _args) in enumerate(self.specs)
        }
        overrides = self.opts.get("placement") or {}
        for name, w in overrides.items():
            if name not in placement:
                raise HopeError(f"placement override for unknown process {name!r}")
            if not isinstance(w, int) or not 0 <= w < self.workers:
                raise HopeError(
                    f"placement[{name!r}] = {w!r} outside workers 0..{self.workers - 1}"
                )
            placement[name] = w
        return placement

    def _coordinate(self, until: Optional[float], conns: dict) -> float:
        lookahead = self.lookahead
        alive = dict(conns)
        next_times: dict = {}
        pending: dict = {w: [] for w in conns}
        aid_owner: dict = {}   # key -> (proc name, worker)
        prev_until = 0.0
        detector_seq = 0
        horizon = (math.nextafter(until, math.inf) if until is not None
                   else None)

        def handle_death(w: int) -> None:
            # Fail-stop: the coordinator *is* the failure detector.  Every
            # assumption the dead shard minted and never resolved gets a
            # definite deny in the survivors, rolling their dependent
            # speculation back (the paper's Eq 15 cascade, administered
            # by the __detector__ pseudo-process).
            nonlocal detector_seq
            self._crashed_workers.append(w)
            alive.pop(w, None)
            next_times.pop(w, None)
            pending.pop(w, None)
            for name, widx in self.placement.items():
                if widx == w:
                    proc = self.engine.procs[name]
                    proc.crashed = True
                    proc.done = False
            for key, (_owner, widx) in sorted(aid_owner.items()):
                if widx != w:
                    continue
                if self._aid_statuses.get(key) in ("affirmed", "denied"):
                    continue
                self._aid_statuses[key] = "denied"
                detector_seq += 1
                frame = ResolveFrame(DETECTOR_DENY, key, -1, prev_until,
                                     detector_seq)
                for survivor in pending:
                    pending[survivor].append(frame)

        def recv_reports() -> dict:
            reports = {}
            for w in sorted(alive):
                try:
                    msg = alive[w].recv()
                except (EOFError, OSError):
                    handle_death(w)
                    continue
                if msg[0] == "error":
                    info = msg[1]
                    raise HopeError(
                        f"parallel worker {info['index']} failed: "
                        f"{info['error']}\n{info['traceback']}"
                    )
                reports[w] = msg[1]
            return reports

        def route(origin: int, frame) -> None:
            kind = type(frame)
            if kind is ResolveFrame:
                for w in pending:
                    if w != origin:
                        pending[w].append(frame)
                return
            if kind is AckFrame:
                dst_w = fid_origin(frame.fid)
            else:  # MsgFrame / RetractFrame
                dst_w = self.placement[frame.dst]
            if dst_w in pending:   # frames to dead shards vanish
                pending[dst_w].append(frame)

        def absorb(reports: dict) -> None:
            for w in sorted(reports):
                payload = reports[w]
                next_times[w] = payload["next_time"]
                for key, owner in payload["new_aids"]:
                    aid_owner[key] = (owner, w)
                for frame in payload["frames"]:
                    route(w, frame)

        absorb(recv_reports())    # initial unprompted reports
        while True:
            candidates = [t for t in next_times.values() if t is not None]
            for frames in pending.values():
                for frame in frames:
                    t = frame_apply_time(frame, lookahead)
                    if t is not None:
                        candidates.append(t)
            if not candidates or not alive:
                break
            head = min(candidates)
            if until is not None and head > until:
                break
            bound = head + lookahead
            if horizon is not None and bound > horizon:
                bound = horizon
            for w in sorted(alive):
                frames = sorted(pending[w],
                                key=lambda f: frame_sort_key(f, lookahead))
                pending[w] = []
                try:
                    alive[w].send(("grant", bound, frames))
                except (BrokenPipeError, OSError):
                    handle_death(w)
            prev_until = bound
            self._windows += 1
            absorb(recv_reports())

        finals = self._collect_finals(alive, handle_death)
        return self._merge(finals, until)

    def _collect_finals(self, alive: dict, handle_death) -> dict:
        for w in sorted(alive):
            try:
                alive[w].send(("finish",))
            except (BrokenPipeError, OSError):
                handle_death(w)
        finals = {}
        for w in sorted(alive):
            try:
                msg = alive[w].recv()
            except (EOFError, OSError):
                handle_death(w)
                continue
            if msg[0] == "error":
                info = msg[1]
                raise HopeError(
                    f"parallel worker {info['index']} failed: "
                    f"{info['error']}\n{info['traceback']}"
                )
            finals[w] = msg[1]
        return finals

    # ------------------------------------------------------------------
    # result merge
    # ------------------------------------------------------------------
    def _merge(self, finals: dict, until: Optional[float]) -> float:
        from ..runtime.engine import OutputRecord

        summed: dict = {}
        per_worker_events: dict = {}
        for w in sorted(finals):
            final = finals[w]
            for name, info in final["procs"].items():
                proc = self.engine.procs[name]
                proc.done = info["done"]
                proc.crashed = info["crashed"]
                proc.result = info["result"]
                proc.restarts = info["restarts"]
                proc.committed = info["committed"] or ()
                proc.outputs = [
                    OutputRecord(value, i, _SPECULATIVE, time)
                    for i, (value, time) in enumerate(info["outputs"])
                ] or ()
            for key, status in final["aids"].items():
                if (_STATUS_RANK[status]
                        > _STATUS_RANK.get(self._aid_statuses.get(key,
                                                                  "pending"), 0)):
                    self._aid_statuses[key] = status
            _sum_numeric(summed, final["stats"])
            per_worker_events[w] = final["stats"].get("sim_events", 0)
            if self.config["metered"] and final["metrics"] is not None:
                from ..obs.metrics import merge_registry_dump

                merge_registry_dump(self.engine.metrics, final["metrics"])
        self._stats = {
            **self._base_stats(),
            "windows": self._windows,
            "crashed_workers": sorted(self._crashed_workers),
            "per_worker_events": per_worker_events,
            **summed,
        }
        nows = [final["now"] for final in finals.values()]
        final_time = max(nows) if nows else 0.0
        if until is not None and final_time < until:
            final_time = until
        return final_time

    def _base_stats(self) -> dict:
        return {
            "backend": "parallel",
            "workers": self.workers,
            "lookahead": self.lookahead,
            "os_cpus": os.cpu_count() or 1,
        }


def _sum_numeric(acc: dict, stats: dict) -> None:
    """Fold a worker stats dict into ``acc``: numbers add, nested dicts
    recurse, everything else (mode strings, ...) keeps the first value."""
    for key, value in stats.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            acc[key] = acc.get(key, 0) + value
        elif isinstance(value, dict):
            acc.setdefault(key, {})
            _sum_numeric(acc[key], value)
        else:
            acc.setdefault(key, value)
