"""The HOPE runtime: the paper's prototype system rebuilt on the simulator.

``HopeSystem`` wires together the four substrates:

* the discrete-event simulator (:mod:`repro.sim`) — processes + messages;
* the abstract machine (:mod:`repro.core`) — all IDO/DOM/IHD bookkeeping;
* the effect log (:mod:`repro.runtime.replay`) — replay-based checkpoints;
* the network (:mod:`repro.sim.channel`) — tagged, retractable messages.

Responsibilities mirror §7 of the paper:

* every send is automatically tagged with the sender's current assumption
  dependencies;
* receiving a tagged message automatically applies the implicit guesses
  *before* the message reaches user-accessible state;
* a denial rolls back every causal descendant: histories are truncated
  (task restart + log replay), messages sent from discarded intervals are
  retracted, and messages consumed by discarded intervals are redelivered;
* dependency tracking never blocks a user process — all bookkeeping here
  is synchronous metadata on an otherwise asynchronous message flow, and
  every primitive takes effect at once (the AIDMODE experiment models
  §7's AID tasks, whose resolutions land one message hop later).
"""

from __future__ import annotations

import copy
from array import array
from operator import attrgetter
from typing import Any, Callable, Generator, Optional

from ..core import (
    AidStatus,
    AssumptionId,
    HopeError,
    IntervalState,
    Machine,
    MachineEvent,
)
from ..core.aid import settled
from ..sim import (
    TIMED_OUT,
    ConstantLatency,
    FaultPlan,
    FaultyNetwork,
    LatencyModel,
    Network,
    RandomStreams,
    Simulator,
    Span,
    Task,
    Timeline,
    Tracer,
)
from ..obs import MetricsRegistry, NullRegistry, SpeculationMetrics
from ..sim.channel import Message
from ..sim.process import Effect
from .api import AidHandle, AidRef, HopeProcess, _set_aid, aid_key
from .effects import (
    AffirmEffect,
    AidInitEffect,
    CommitPointEffect,
    ComputeEffect,
    DenyEffect,
    EmitEffect,
    FreeOfEffect,
    GuessEffect,
    HopeEffect,
    NowEffect,
    RandomEffect,
    RecvEffect,
    SendEffect,
)
from .messages import new_received as _new_received
from .replay import (
    KIND_CODE,
    Checkpoint,
    EffectLog,
    Exited,
    RebasePoint,
)
from .resilience import ReliableConfig, ReliableTransport

_DEFINITE = IntervalState.DEFINITE
#: A send's tag set is the string keys of the sender's IDO (read in C).
_KEY = attrgetter("key")
_NO_TAGS: frozenset = frozenset()
_SEND_CODE, _RECV_CODE = KIND_CODE["send"], KIND_CODE["recv"]


class OutputRecord:
    """One emitted output: the value, where in the log it happened, and the
    speculative interval (if any) whose fate it shares.  A record lives
    only above the commit watermark: the pass that carries the watermark
    past it keeps its value (:attr:`ProcessRuntime.committed`) and drops
    the record, and with it the interval, the log index and the time."""

    __slots__ = ("value", "log_index", "interval", "time")

    def __init__(self, value: Any, log_index: int, interval, time: float) -> None:
        self.value = value
        self.log_index = log_index
        self.interval = interval
        self.time = time

    @property
    def committed(self) -> bool:
        """An output is committed once it depends on no live speculation."""
        return self.interval is None or self.interval.definite

    def __repr__(self) -> str:
        state = "committed" if self.committed else "speculative"
        return f"<Output {self.value!r} {state}>"


class ProcessRuntime:
    """Per-process runtime state: body, effect log, current task incarnation."""

    __slots__ = (
        "system", "name", "fn", "args", "facade", "log", "task",
        "restarts", "done", "result", "crashed", "outputs",
        "track", "mailbox", "mproc", "recv", "rebase", "rebase_candidates",
        "committed",
    )

    def __init__(
        self, system: "HopeSystem", name: str, fn: Callable[..., Generator], args: tuple
    ) -> None:
        self.system = system
        self.name = name
        self.fn = fn
        self.args = args
        self.facade = HopeProcess(name)
        self.log = EffectLog()
        self.task: Optional[Task] = None
        self.restarts = 0
        self.done = False
        self.result: Any = None
        self.crashed = False
        #: Output records above the commit watermark, in log order, and the
        #: values behind it (Theorem 6.1: committed for good), in order.
        #: Fossil passes move records' values across; rollback and crash
        #: only cut ``outputs``.  Each is the shared empty tuple until used.
        self.outputs: "list[OutputRecord] | tuple" = ()
        self.committed: "list | tuple" = ()
        #: Cached timeline track and mailbox (assigned at spawn; hot-path
        #: marks and recv registrations skip the per-event name lookups).
        self.track = None
        self.mailbox = None
        #: Cached machine ProcessRecord (assigned at spawn — the machine
        #: never replaces a record, so send/recv/emit skip the dict hop).
        self.mproc = None
        #: The recv in flight, or the last one (one is outstanding at a
        #: time; dropped with the incarnation): what the task, its own
        #: mailbox waiter, matches and re-registers with.
        self.recv: Optional[RecvEffect] = None
        #: The promoted rebase point — always at ``log.base`` (None means
        #: incarnations start from program entry; see commit_point).
        self.rebase: Optional[RebasePoint] = None
        #: Candidate rebase points not yet behind the commit frontier: the
        #: shared empty tuple whenever there are none (see add_candidate).
        self.rebase_candidates: "list[RebasePoint] | tuple" = ()

    def add_candidate(self, point: RebasePoint) -> None:
        if self.rebase_candidates:
            self.rebase_candidates.append(point)
        else:
            self.rebase_candidates = [point]

    def commit(self, records) -> None:
        """Append the values of ``records`` to :attr:`committed`."""
        if self.committed:
            self.committed.extend(record.value for record in records)
        elif records:
            self.committed = [record.value for record in records]


class Outcomes:
    """The ledger of retired processes, in columns; a row is the retired
    track's timeline row.  Per row: the result, the committed values (a
    slice of ``values``) and the body and arguments a crash restarts it
    from; per run: the counters :meth:`HopeSystem.stats` sums (``log_dropped``
    counts the entries every pass dropped, live processes' included)."""

    __slots__ = ("results", "values", "ends", "bodies", "restarts", "replayed", "log_dropped")

    def __init__(self) -> None:
        self.results, self.values, self.bodies, self.ends = [], [], [], array("q")
        self.restarts = self.replayed = self.log_dropped = 0

    def add(self, proc: ProcessRuntime) -> None:
        self.results.append(proc.result)
        self.values += proc.committed
        self.ends.append(len(self.values))
        self.bodies += (proc.fn, proc.args)
        self.restarts += proc.restarts
        self.replayed += proc.log.replayed_entries_total

    def committed(self, row: int) -> list:
        return self.values[self.ends[row - 1] if row else 0 : self.ends[row]]


class _LiveProcs(dict):
    """``HopeSystem.procs``: the live processes by name."""

    __slots__ = ()

    def __missing__(self, name: str):
        raise KeyError(f"no live process {name!r} (read a retired one through result_of, "
                       "is_done, outputs and committed_outputs)")


def _process_body(task: Task) -> Generator:
    """Adapter: the sim Task calls ``fn(task)``; HOPE bodies take the facade
    of the process in ``task.context``.

    An incarnation starts from the newest commit point it has: the
    newest rebase candidate (a rollback keeps only those at or before
    its checkpoint), else the promoted rebase point, else program entry,
    and replays only the log entries since.  From a commit point the
    body is called with ``resume=<fresh deep copy>`` and must
    reconstruct itself from that state (the commit_point contract).
    Each incarnation gets its own copy — a restarted body mutates the
    state it is handed.  From a terminal point (the body had returned,
    see :class:`Exited`) there is nothing to run.
    """
    proc: ProcessRuntime = task.context
    point = proc.rebase_candidates[-1] if proc.rebase_candidates else proc.rebase
    if point is None:
        proc.log.begin_replay()
        return proc.fn(proc.facade, *proc.args)
    proc.log.begin_replay(point.log_index)
    if type(point.state) is Exited:
        return point.state.body()
    return proc.fn(proc.facade, *proc.args, resume=copy.deepcopy(point.state))


class _Incarnation(Task):
    """A HOPE process's task, and its own mailbox waiter.

    The mailbox thinks it serves a waiter; the incarnation routes the
    message through the engine first (:meth:`HopeSystem._deliver`), so
    implicit guesses and dead-message filtering happen before the process
    sees anything (§7: tagged-message guesses precede delivery "into the
    user-accessible state").  It matches with the recv in flight
    (``context.recv``), a timed recv's timer is its pending event, and it
    is its own kill cleanup (:meth:`__call__`).
    """

    __slots__ = ()

    @property
    def predicate(self) -> Optional[Callable[[Any], bool]]:
        return self.context.recv.predicate

    def deliver(self, value: Any) -> None:
        proc = self.context
        proc.system._deliver(proc, value, self)

    def __call__(self) -> None:
        self.context.mailbox._remove_waiter(self)


#: Shared disabled registry: one object serves every unmetered system.
_NULL_REGISTRY = NullRegistry()


class HopeSystem:
    """A complete HOPE world: spawn processes, run, inspect outcomes.

    Parameters
    ----------
    seed:
        Root seed for all randomness (latency, process streams, failures).
    latency:
        Network latency model for user messages (default: 0 — a perfect
        network; benchmarks pass explicit models).
    rollback_overhead:
        Virtual-time cost charged to a process when it restarts after a
        rollback (models checkpoint-restore cost; the paper's prototype
        calls its own mechanism "not particularly efficient").
    trace:
        Optional :class:`Tracer`; pass ``Tracer()`` to record everything.
        The machine keeps only the index clock either way
        (``Machine(history=False)``): ``ProcessRecord.history`` is empty,
        and the trace is the run's record.
    fossil_collect:
        Accepts only ``True``: collection is the only mode.  The system
        reclaims committed state behind the commit frontier (Theorem 6.1:
        finalized intervals never roll back), which bounds long-run memory
        to O(active speculation window): machine history prefixes, retired
        AIDs, effect-log prefixes behind a ``commit_point`` (exit is the
        last one: a body that returned and committed keeps no log and no
        task), and closed timeline spans are all dropped; a run that
        reaches quiescence ends with a pass over every record.  See
        docs/PERFORMANCE.md §4, §13, §14 and §25.
    fossil_interval:
        Collect after every N machine finalizes (default 64); the cadence
        is unobservable in the trace but for what a restart replays.  A pass
        visits the processes it can reclaim something from — an interval
        finalized or rolled back, a commit point was declared, the body
        returned — and lets
        the ones that merely ran ride along a few at a time, so its cost
        follows what the N finalizes left behind, not the number of
        processes (a durable run visits all that changed: the pass it
        seals is the recovery image).  Lower = tighter memory, more
        collection overhead.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When given, the
        engine feeds the standard speculation instrument set
        (:class:`repro.obs.SpeculationMetrics`) from machine events —
        guesses, rollback cascades, commit latency, wasted vs. useful time,
        fossil reclaim, cache hit rate.  Export with
        :mod:`repro.obs.export` after :meth:`metrics_snapshot`.  The
        default is a shared :class:`repro.obs.NullRegistry`: no listener
        is subscribed and every metered branch is skipped, so the
        disabled path costs nothing (as a ``Tracer(categories=())`` does);
        traces are byte-identical with metrics on or off.
    faults:
        Optional :class:`repro.sim.FaultPlan`.  When given, the network
        is a :class:`repro.sim.FaultyNetwork` applying the plan (drop /
        duplicate / reorder / jitter / timed partitions), with every
        probabilistic fate drawn from the dedicated seeded stream
        ``streams["faults"]`` (through ``controller`` when one is given)
        — faulty runs replay from their seed, and enabling faults
        perturbs no other stream.  ``None`` (default)
        constructs the plain reliable :class:`repro.sim.Network`: the
        exact pre-fault-layer code path, byte-identical traces.
    reliable:
        ``True`` or a :class:`repro.runtime.resilience.ReliableConfig`
        enables reliable delivery for all HOPE sends: per-message acks,
        timeout-driven resend with capped exponential backoff, and
        receiver-side dedup by ``msg_id``.  ``Delivery.retract`` on a
        rolled-back sender kills in-flight copies and retries alike.
    controller:
        Optional :class:`repro.verify.ScheduleController`, the one seam
        for every nondeterminism the verifiers explore:
        ``choose(time, events) -> int`` is consulted at every simulator
        pop with the batch of live same-time events (seeded shuffling,
        the DPOR explorer), and with ``faults`` it is the fault layer's
        fate source (:class:`repro.sim.faults.FateSource`).  Disables
        same-tick delivery coalescing so each delivery owns a choice
        point.
    """

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        rollback_overhead: float = 0.0,
        trace: Optional[Tracer] = None,
        speculation: bool = True,
        fossil_collect: bool = True,
        fossil_interval: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultPlan] = None,
        reliable: Any = False,
        controller: Optional[Any] = None,
        durable_dir: Optional[str] = None,
        durable_opts: Optional[dict] = None,
    ) -> None:
        self.streams = RandomStreams(seed)
        self.sim = Simulator(controller=controller)
        latency_model = latency if latency is not None else ConstantLatency(0.0)
        if faults is not None:
            # The faulty network draws every probabilistic fate from its
            # own named stream, so turning faults on perturbs none of the
            # other streams (latency, workload, ...).
            self.network: Network = FaultyNetwork(
                self.sim, latency_model, plan=faults,
                stream=self.streams["faults"],
            )
        else:
            self.network = Network(self.sim, latency_model)
        self.tracer = trace if trace is not None else Tracer(categories=())
        #: Hot-path guard: with a disabled tracer every per-effect record
        #: call is pure overhead, so the handlers skip them wholesale.
        self._tracing = not getattr(self.tracer, "_disabled", False)
        # The index clock only: nothing in the engine reads a Definition
        # 4.1 history entry back (a bare Machine() keeps them).
        self.machine = Machine(history=False)
        self.machine.on_finalize = self._on_finalize
        self.machine.on_rollback = self._apply_rollback
        self.machine.on_settle = _set_aid
        #: Pre-bound effect-dispatch lookup, read once per effect (see
        #: _handle_effect).
        self._handler_get = self._LIVE_HANDLERS.get
        #: (handler, on_exit) shared by every task (see _start_task).
        self._task_hooks: Optional[tuple] = None
        self.timeline = Timeline()
        self.rollback_overhead = rollback_overhead
        #: speculation=False turns every guess into a *blocking wait* for
        #: the AID's resolution: the same program runs pessimistically —
        #: the universal ablation (see _do_guess).  Programs whose AIDs
        #: are resolved only by the guessing process itself would
        #: deadlock in this mode; that is inherent, not a bug.
        self.speculation = speculation
        if not speculation:
            # Every resolution may release a blocked guesser.
            self.machine.subscribe(self._wake_aid_waiters)
        if not fossil_collect:
            raise HopeError("fossil collection cannot be switched off: "
                            "collection is the only mode")
        if fossil_interval < 1:
            raise HopeError(f"fossil_interval must be >= 1, got {fossil_interval}")
        self.fossil_interval = fossil_interval
        #: Deferred-collection flag: finalize events fire mid-primitive
        #: (the machine is not quiescent), so listeners only raise this
        #: flag and the collection runs at the next effect-dispatch or
        #: delivery boundary.
        self._fossil_pending = False
        self._finalizes_since_collect = 0
        #: Machine finalizes + discarded intervals at the last pass: what
        #: has been added since is what the next pass can reclaim.
        self._dead_at_collect = 0
        #: True while a rollback's message requeue is handing messages to
        #: waiting receivers: the machine is mid-primitive there, so
        #: deliveries fall back to scheduled resumes instead of stepping
        #: user code inline (which could re-enter the machine).
        self._defer_delivery = False
        #: The task whose recv registration is on the stack (its dispatch
        #: trampoline is active): a message it finds already queued
        #: completes the recv via resume_now, so a process draining a
        #: same-tick backlog stays in one flat dispatch loop.
        self._syncing: Optional[Task] = None
        self._aid_waiters: dict[str, list] = {}
        #: Live processes; a retired one's outcome is in :attr:`outcomes`.
        self.procs: dict[str, ProcessRuntime] = _LiveProcs()
        self.outcomes = Outcomes()
        self._dropped = 0               # retirements since procs was rebuilt
        # Observability: a real registry subscribes the metrics to the
        # machine, a listener that only reads (metered and unmetered runs
        # stay byte-identical); the default NullRegistry subscribes
        # nothing, so the machine builds no event at all.
        self.metrics = metrics if metrics is not None else _NULL_REGISTRY
        self._metered = self.metrics.enabled
        self.spec_metrics: Optional[SpeculationMetrics] = None
        if self._metered:
            spec = self.spec_metrics = SpeculationMetrics(self.metrics)
            self.machine.subscribe(lambda event: spec.observe_event(event, self.sim.now))
        # Reliable delivery (opt-in; None keeps the engine's hot path and
        # trace stream exactly as before).
        if reliable is True:
            reliable = ReliableConfig()
        self.reliable: Optional[ReliableTransport] = (
            ReliableTransport(self, reliable) if reliable else None
        )
        #: Resume support: True while HopeSystem.resume() rebuilds the
        #: process tree — spawns register everything but leave the initial
        #: tasks unscheduled so restored logs replay instead.
        self._defer_start = False
        #: Durable persistence (repro.durable) — None keeps every hot-path
        #: hook a single attribute test, and traces without durable_dir stay
        #: byte-identical to pre-durable builds.
        self._durable = None
        if durable_dir is not None:
            if self.reliable is not None:
                raise HopeError(
                    "durable runs do not compose with reliable delivery yet "
                    "(its transport state is not persisted); see "
                    "docs/DURABILITY.md"
                )
            from ..durable.recorder import DurableRecorder

            self._durable = DurableRecorder(      # file operations: crash points
                self, durable_dir, seed=seed, opts=durable_opts,
                crash=getattr(controller, "host_dies", None),
            )
        # The machine retires AIDs, so it accounts for the tags of
        # outstanding messages (Network.hold).
        self.network.pins = self.machine
        self.network.known = self.timeline

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def spawn(self, name: str, fn: Callable[..., Generator], *args: Any) -> ProcessRuntime:
        """Create and start a HOPE process running ``fn(p, *args)``."""
        if name in self.timeline:
            raise HopeError(f"process {name!r} already exists")
        proc = ProcessRuntime(self, name, fn, args)
        proc.track = self.timeline.spawn(name)
        self.procs[name] = proc
        proc.mailbox = self.network.register(name)
        proc.mproc = self.machine.create_process(name)
        if not self._defer_start:
            self._start_task(proc, delay=0.0)
        if self._tracing:
            self.tracer.record(self.sim.now, "spawn", name)
        return proc

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the system to quiescence; returns the final virtual time."""
        final = self.sim.run(until=until, max_events=max_events)
        if not self.sim.pending_events:
            self.network._open_batch = None     # fired or retracted: let go
            # An emptied dict keeps its largest capacity: rebuild it.
            if self._metered and not self.spec_metrics._open_guesses:
                self.spec_metrics._open_guesses = {}
            if self._durable is None:
                self._run_fossil_collection(whole=True)     # the pass it owes
            # Only at quiescence: a span open at an ``until`` goes on in
            # the next run (stats() measures it to now meanwhile).
            self.timeline.close_all(final)
        # Clean stop: flush the committed frontier and seal a consolidation
        # envelope.  A crash (exception, os._exit, EventLimitExceeded)
        # skips this on purpose — recovery then works from the last sealed
        # batch, which is the contract the crash sweep checks.
        if self._durable is not None:
            self._durable_sync()
        return final

    @classmethod
    def resume(cls, durable_dir: str, build: Callable[["HopeSystem"], Any],
               *, durable_opts: Optional[dict] = None, **kwargs) -> "HopeSystem":
        """Reload a durable run from ``durable_dir`` and continue it.

        ``build(system)`` must recreate the same process tree (same
        ``spawn`` names, bodies, and arguments) the original run started
        with; the restored effect logs then replay each process's
        committed prefix — replay invokes no handlers, so committed
        effects happen exactly once across incarnations — and execution
        continues live from the frontier.  Construction kwargs
        (``seed``, ``latency``, ``fossil_interval``, ...)
        must match the original run; the seed is verified against the
        envelope.  Recovery picks the newest envelope whose CRC, seal,
        and generation chain verify, checks the output ledger against
        the prefix that envelope sealed (a mismatch is a
        ``DurableError``: outputs exist nowhere else), applies the WAL
        suffix up to its last valid batch marker, and falls back one
        generation on a torn or corrupt envelope — rejections are
        counted in ``stats()["durable"]``, never silently ignored.
        """
        opts = dict(durable_opts or {})
        opts["_resuming"] = True
        kwargs.pop("durable_dir", None)
        system = cls(durable_dir=durable_dir, durable_opts=opts, **kwargs)
        recorder = system._durable
        image = recorder.load_image()
        if image is None:
            # Nothing restorable (fresh directory or a crash before the
            # first sealed batch): run from program entry, recording.
            recorder.begin_fresh()
            build(system)
            return system
        # Restore the clock first: the queue is empty, so this only
        # advances virtual time to where the image was sealed.
        system.sim.run(until=image["time"])
        system._defer_start = True
        try:
            build(system)
        finally:
            system._defer_start = False
        recorder.restore(image)
        return system

    def _durable_sync(self) -> None:
        """Flush every process's committed frontier and seal an envelope
        (the same frontier computation as a fossil pass, minus the
        collection)."""
        for proc in self.procs.values():
            target, _, passed = self._settle_frontier(proc)
            self._durable.flush_proc(proc, target, passed)
        self._durable.end_pass(self.sim.now, force_snapshot=True)

    def aid(self, ref: AidRef) -> AssumptionId:
        """Resolve a handle/key to the underlying machine AID.  A bound
        handle answers by object — with the shared verdict once a pass has
        settled it; a raw key (or an unbound copy) is looked up by key."""
        if isinstance(ref, AidHandle) and ref.aid is not None:
            return ref.aid
        return self.machine.aid(aid_key(ref))

    def aid_status(self, ref: AidRef) -> AidStatus:
        return self.aid(ref).status

    def process_names(self) -> list[str]:
        """Every process ever spawned, live or retired, in spawn order."""
        return list(self.timeline)

    def result_of(self, name: str) -> Any:
        proc = self.procs.get(name)
        if proc is None:        # retired: read its ledger row
            return self.outcomes.results[self.timeline.row(name)]
        if not proc.done:
            raise HopeError(f"process {name!r} has not finished (state: {proc.task.state if proc.task else '?'})")
        return proc.result

    def is_done(self, name: str) -> bool:
        proc = self.procs.get(name)
        return proc.done if proc is not None else self.timeline.row(name) is not None

    def crash_process(self, name: str) -> None:
        """Crash a process: kill its task and drop its volatile effect log.

        Schedule it with ``sim.schedule_at(t, system.crash_process, name)``
        (the optimistic-recovery application does).  The process's machine
        record survives: it models the global dependency state, which in
        the paper lives in AID bookkeeping, not in the crashed node's
        volatile memory.
        """
        if self._durable is not None:
            raise HopeError(
                "in-simulation crash_process() is not supported on a durable "
                "run: a volatile log reset would desynchronize the persisted "
                "committed prefix (host crashes are the kill/resume crash "
                "sweep, `repro chaos --crash`; see docs/DURABILITY.md)"
            )
        proc = self.procs.get(name) or self._revive(name)
        self._kill_incarnation(proc, "crash")
        proc.crashed = True
        forgotten = self.machine.forget_process(name)
        if self._metered:
            # A crash discards speculation without a RollbackEvent; keep
            # the open-guess table honest about it.
            self.spec_metrics.forget_intervals(forgotten)
        # What the dead incarnation had received is not requeued, and what
        # was queued for it is lost: those copies are consumed.
        for interval in forgotten:
            self._release_received(interval.received)
        self.network.purge(name)
        if self.reliable is not None:
            self.reliable.on_crash(name)
        # Rebase state is volatile memory: a crashed node restarts from
        # program entry, so the log resets fully (base included) and every
        # captured commit-point state dies with the incarnation.
        proc.rebase = None
        proc.rebase_candidates = ()
        proc.log.truncate(0)
        # Outputs from forgotten intervals are permanently uncommitted
        # (their intervals are now rolled back); drop them from the buffer.
        # The survivors are committed and the log restarts at 0, so the
        # watermark moves past them: no later rollback may judge them by
        # their pre-crash log positions.
        proc.commit([r for r in proc.outputs if r.committed])
        proc.outputs = ()
        self.tracer.record(self.sim.now, "crash", name)

    def _revive(self, name: str) -> ProcessRuntime:
        """A crash reaches a retired process: rebuild it, finished, from its
        ledger row (which stays behind, unread)."""
        row, out = self.timeline.row(name), self.outcomes
        proc = self.procs[name] = ProcessRuntime(self, name, *out.bodies[2 * row : 2 * row + 2])
        proc.done, proc.result, proc.committed = True, out.results[row], out.committed(row) or ()
        proc.track = self.timeline.revive(name)
        proc.mailbox = self.network.register(name)
        proc.mproc = self.machine.create_process(name)
        return proc

    def restart_process(self, name: str) -> None:
        """Restart a crashed process from scratch (volatile state lost)."""
        proc = self.procs.get(name) if name in self.timeline else self.procs[name]
        if proc is None or not proc.crashed:
            raise HopeError(f"process {name!r} is not crashed")
        proc.crashed = False
        proc.done = False
        # Anything that landed while the node was down is lost too.
        self.network.purge(name)
        self._start_task(proc, delay=0.0)
        self.tracer.record(self.sim.now, "restart_after_crash", name)

    def stats(self) -> dict:
        """Aggregate runtime statistics for benchmarks and tests."""
        machine = dict(self.machine.stats)
        statuses = {"pending": 0, "affirmed": 0, "denied": 0}
        for aid in self.machine.aids.values():
            statuses[aid.status.value] += 1
        out, procs = self.outcomes, self.procs.values()     # (int sums)
        return {
            **machine,
            # No interner exists any more; the frozen benchmark harness
            # (benchmarks/e2e/layers.py) still reads both keys.
            "depset_hits": 0,
            "depset_misses": 0,
            # Retired AIDs left the table but still count toward the run's
            # totals (orphaned pending ones included).
            "aids_pending": statuses["pending"] + machine["aids_retired_pending"],
            "aids_affirmed": statuses["affirmed"] + machine["aids_retired_affirmed"],
            "aids_denied": statuses["denied"] + machine["aids_retired_denied"],
            "messages_sent": self.network.messages_sent,
            "tags_attached": self.network.tag_count_total,
            "sim_events": self.sim.events_processed,
            "restarts": out.restarts + sum(p.restarts for p in procs),
            "replayed_effects": out.replayed + sum(p.log.replayed_entries_total for p in procs),
            "fossil_log_dropped": out.log_dropped,
            "processes_retired": len(out.results),
            "heap_compactions": self.sim.heap_compactions,
            "wasted_time": self.timeline.aggregate(Span.WASTED, self.sim.now),
            "busy_time": self.timeline.aggregate(Span.BUSY, self.sim.now),
            # Transport-specific blocks (fault counters, ...) are
            # contributed polymorphically — the engine never type-checks
            # its network.
            **self.network.stats_entries(),
            **(
                {"reliable": self.reliable.stats.as_dict()}
                if self.reliable is not None
                else {}
            ),
            **(
                {"durable": self._durable.stats_entries()}
                if self._durable is not None
                else {}
            ),
        }

    def pending_aids(self) -> list[AssumptionId]:
        """AIDs never affirmed or denied — a smell for stuck programs."""
        return [a for a in self.machine.aids.values() if a.pending]

    # ------------------------------------------------------------------
    # observability (repro.obs)
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> MetricsRegistry:
        """Refresh the point-in-time gauges and return the registry.

        The event-fed counters and histograms are always current; this
        fills in the quantities only known by sampling — timeline busy /
        blocked totals, cache hit counts, message and event counts — so
        an export taken right after reflects the whole run.  Raises on an
        unmetered system (there is nothing to snapshot into).
        """
        if not self._metered:
            raise HopeError(
                "metrics are disabled — construct HopeSystem(metrics=MetricsRegistry())"
            )
        spec = self.spec_metrics
        now = self.sim.now
        spec.busy_time.set(self.timeline.aggregate(Span.BUSY, now))
        spec.blocked_time.set(self.timeline.aggregate(Span.BLOCKED, now))
        machine_stats = self.machine.stats
        spec.resolve_cache_hits.set(machine_stats["resolve_cache_hits"])
        spec.resolve_cache_misses.set(machine_stats["resolve_cache_misses"])
        spec.messages_sent.set(self.network.messages_sent)
        spec.sim_events.set(self.sim.events_processed)
        self.network.observe_gauges(spec)
        if self.reliable is not None:
            rel = self.reliable.stats
            spec.retries.set(rel.retries)
            spec.acks_sent.set(rel.acks_sent)
            spec.dup_suppressed.set(rel.dup_suppressed)
            spec.retry_exhausted.set(rel.exhausted)
        if self._durable is not None:
            self._durable.observe_gauges(self.metrics)
        return self.metrics

    def export_metrics(self, fmt: str = "summary") -> str:
        """Snapshot and render the metrics in one of
        :data:`repro.obs.export.FORMATS` (what the CLI's
        ``--metrics-out`` writes)."""
        from ..obs.export import render

        self.metrics_snapshot()
        return render(fmt, self.metrics, spec=self.spec_metrics)

    # ------------------------------------------------------------------
    # fossil collection (commit frontier)
    # ------------------------------------------------------------------
    #: Fewest records a pass may visit, and the fewest of them it takes
    #: from the merely-changed queue (see _run_fossil_collection).
    _PASS_ALLOWANCE = 64
    _PASS_TURNS = 16

    def _run_fossil_collection(self, whole: bool = False) -> None:
        """One deferred collection pass (see the ``fossil_collect`` and
        ``fossil_interval`` docs); ``whole`` visits every queued record.

        Runs only at effect-dispatch and delivery boundaries: the machine
        is between primitives and the simulator between callbacks, so no
        half-applied transition can be observed.  Purely a memory
        operation — it schedules nothing, draws no randomness, and leaves
        the trace untouched, which is what keeps the collection cadence
        unobservable.
        """
        self._fossil_pending = False
        self._finalizes_since_collect = 0
        machine = self.machine
        # Every process with something to reclaim is visited: an interval
        # of it finalized or rolled back, or it declared a commit point.
        # The ones that merely ran (every effect and delivery marks the
        # record changed) have little to settle and take turns, oldest
        # change first: as many as bring the pass to one visit per
        # interval that died since the last one (or to _PASS_ALLOWANCE,
        # so that a small system is settled whole, every time), and never
        # fewer than _PASS_TURNS — however many records are reclaimable,
        # the queue advances.
        dead = machine.stats["finalizes"] + machine.stats["intervals_discarded"]
        limit: Optional[int] = max(
            max(dead - self._dead_at_collect, self._PASS_ALLOWANCE)
            - len(machine.reclaimable),
            self._PASS_TURNS,
        )
        self._dead_at_collect = dead
        if whole or self._durable is not None:
            # The sealed batch is a consistent cut only if it holds every
            # change made so far: a definite sender is merely changed, and
            # a receiver's committed recv sealed without the send it
            # consumed would have resume re-execute that send live.
            limit = None
        batch = machine.take_queued(limit)
        # Spawn order: the order of durable flushes is the order of
        # records in the WAL.
        for record in sorted(batch, key=attrgetter("order")):
            proc = self.procs.get(record.name)
            if proc is None:
                continue
            target, frontier_time, passed = self._settle_frontier(proc)
            # Effect-log prefix: promote the newest rebase candidate at or
            # behind the frontier (and behind any in-flight replay cursor)
            # and drop the entries it makes unreachable.  The durable flush
            # sits between the choice and the drop: it reads the committed
            # slice while it is whole, and encodes only what the promotion
            # leaves behind.
            best: Optional[RebasePoint] = None
            if proc.rebase_candidates:
                # (>=: an exit recorded at the position of the body's last
                # commit point is the newer of the two, and wins)
                for cand in proc.rebase_candidates:
                    if cand.log_index <= target and (
                        best is None or cand.log_index >= best.log_index
                    ):
                        best = cand
                if best is not None and best.log_index <= proc.log.base:
                    best = None
            if self._durable is not None:
                self._durable.flush_proc(proc, target, passed, best)
            if best is not None:
                proc.rebase = best
                proc.rebase_candidates = [
                    c for c in proc.rebase_candidates if c.log_index > best.log_index
                ] or ()
                self.outcomes.log_dropped += proc.log.drop_prefix(best.log_index)
            rebase = proc.rebase
            if rebase is not None and type(rebase.state) is Exited and proc.done:
                # (promoted now, or restored by a durable resume)
                self._retire(proc)
                continue
            proc.track.compact_before(frontier_time)
        fossil_stats = machine.fossil_collect(batch)
        if self._durable is not None:
            # Durability point: the pass's WAL frames become recoverable
            # here (sealed batch marker + fsync), and every Nth pass
            # consolidates into a fresh envelope, rotating the WAL.
            self._durable.end_pass(self.sim.now)
        if self._metered:
            spec = self.spec_metrics
            spec.fossil_collections.inc()
            spec.fossil_history_dropped.inc(fossil_stats.history_dropped)
            spec.fossil_intervals_dropped.inc(fossil_stats.intervals_dropped)
            spec.fossil_aids_retired.inc(fossil_stats.aids_retired)

    def _retire(self, proc: ProcessRuntime) -> None:
        """Exit promoted, the log gone whole: only the outcome can be
        observed now.  It moves into the ledger, and the runtime, machine
        record, track and mailbox go (mail to the name is consumed)."""
        name, proc.task = proc.name, None       # (the task's context: a cycle)
        self.timeline.retire(name)
        self.outcomes.add(proc)
        del self.procs[name]
        self._dropped += 1
        if self._dropped > len(self.procs):     # more slots dead than live
            self._dropped, self.procs = 0, _LiveProcs(self.procs)
        self.machine.drop_process(name)
        self.network.close(name)

    def _settle_frontier(self, proc: ProcessRuntime) -> tuple:
        """Advance ``proc``'s commit watermark to its frontier.  Returns the
        frontier, ``(log position, virtual time)``: the oldest still-speculative
        guess's checkpoint (everything up to now with no live speculation),
        the log position held behind an in-flight replay cursor; and the
        output records the watermark passed (their values are committed)."""
        log = proc.log
        frontier_log = len(log)
        frontier_time = self.sim._now
        for iv in proc.mproc.speculative:
            cp = iv.ps
            if isinstance(cp, Checkpoint):
                if cp.log_index < frontier_log:
                    frontier_log = cp.log_index
                if cp.time < frontier_time:
                    frontier_time = cp.time
        target = min(frontier_log, log.cursor)
        outputs = proc.outputs
        mark = 0
        while mark < len(outputs) and outputs[mark].log_index < target:
            record = outputs[mark]
            interval = record.interval
            if interval is not None and interval.state is not _DEFINITE:
                raise HopeError(
                    f"output {record!r} of {proc.name!r} sits behind the commit "
                    f"frontier (log {record.log_index} < {target}) but is not "
                    "committed — violates Theorem 6.1"
                )
            mark += 1
        if not mark:
            return target, frontier_time, ()
        passed = outputs[:mark]
        del outputs[:mark]
        if not outputs:
            proc.outputs = ()
        proc.commit(passed)
        return target, frontier_time, passed

    def _release_received(self, messages) -> None:
        """The interval that kept ``messages`` can no longer un-receive them
        (it finalized, or its incarnation crashed): the copies are consumed."""
        network = self.network
        for message in messages:
            if message.holds:
                network.release(message)

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def _start_task(self, proc: ProcessRuntime, delay: float) -> None:
        hooks = self._task_hooks
        if hooks is None:
            # Bound once for every task, at the first start (not in
            # __init__: a test may wrap _handle_effect before spawning).
            hooks = self._task_hooks = (self._handle_effect, self._on_task_exit)
        task = _Incarnation(
            self.sim, proc.name, _process_body,
            handler=hooks[0], on_exit=hooks[1], context=proc,
        )
        proc.task = task
        task.start(delay=delay)

    def _kill_incarnation(self, proc: ProcessRuntime, reason: str) -> None:
        """End ``proc``'s current incarnation (rollback or crash)."""
        task = proc.task
        if task is not None and task.alive:
            task.kill(reason)       # its cleanup takes it off the mailbox
        proc.recv = None

    def _on_task_exit(self, task: Task) -> None:
        proc: ProcessRuntime = task.context
        if task is not proc.task:
            return  # an old incarnation being killed
        if task.done:
            proc.done = True
            proc.result = task.result
            proc.recv = None
            if proc.log.retained:
                # Exit is the last commit point (see Exited): once the
                # frontier reaches the end of the log, a pass promotes it
                # like any other and the log goes whole.  A rollback of
                # this incarnation discards the candidate with the rest
                # of the suffix.
                proc.add_candidate(
                    RebasePoint(len(proc.log), Exited(task.result), self.sim._now)
                )
                if not proc.mproc.speculative:
                    # Nothing can undo this exit, so the next pass can
                    # promote it.  (A speculative exit is queued by the
                    # finalize or rollback that settles it.)
                    proc.mproc.mark_reclaimable()
            self.tracer.record(self.sim.now, "exit", proc.name)

    # ------------------------------------------------------------------
    # effect dispatch
    # ------------------------------------------------------------------
    def _handle_effect(self, task: Task, effect: Effect) -> None:
        if self._fossil_pending:
            # Deferred from a finalize listener: here the machine is
            # between primitives and the simulator between events, so
            # reclamation cannot observe a half-applied transition.
            self._run_fossil_collection()
        proc: ProcessRuntime = task.context
        # The next fossil pass must look at this process, replay included
        # (it moves the cursor the frontier is held behind).
        mproc = proc.mproc
        if not mproc.changed:
            mproc.mark_changed()
        # Handler lookup doubles as the type check: only HOPE effects are
        # registered, so a miss means a foreign (or subclassed) effect.
        # (_handler_get is _LIVE_HANDLERS.get pre-bound at __init__ — this
        # runs once per live effect, and the class-attribute walk plus
        # method bind were measurable.)
        handler = self._handler_get(type(effect))
        if handler is None:
            raise HopeError(
                f"HOPE process {proc.name!r} yielded non-HOPE effect {effect!r}; "
                "use the HopeProcess facade (p.compute / p.recv / ...) so the "
                "effect log stays replayable"
            )
        log = proc.log
        # Replay fast-forward: feed the whole logged prefix in one tight
        # loop (one simulator event total) instead of scheduling a resume
        # event per entry.  No virtual time passes during replay either
        # way, and the replaying task interacts with nothing live, so
        # collapsing the per-entry events is behaviour-preserving.
        # (log.pending is `log.replaying` as a maintained counter: this
        # guard runs once per live effect and the index arithmetic, let
        # alone the property call, was measurable.)
        while log.pending:
            result = log.feed(effect.kind)
            effect = task.drive(result)
            if effect is None:
                return  # the incarnation finished (or died) mid-replay
            handler = self._handler_get(type(effect))
            if handler is None:
                raise HopeError(
                    f"HOPE process {proc.name!r} yielded non-HOPE effect "
                    f"{effect!r} during replay"
                )
        handler(self, proc, task, effect)

    # ---- live handlers -------------------------------------------------
    def _do_aid_init(self, proc, task, effect: AidInitEffect) -> None:
        aid = self.machine.aid_init(effect.name)
        handle = AidHandle(aid.key, effect.name, aid)
        self.machine.hold(aid, handle)
        proc.log.append("aid_init", handle)
        if self._tracing:
            self.tracer.record(self.sim.now, "aid_init", proc.name, aid=aid.key)
        task.resume_now(handle)

    def _do_guess(self, proc, task, effect: GuessEffect) -> None:
        aid = self._lookup_aid(effect)
        if not self.speculation and aid.pending:
            # Pessimistic mode: wait for the resolution instead of
            # speculating.  The process stays definite throughout.
            proc.track.mark(Span.BLOCKED, self.sim.now)
            self._aid_waiters.setdefault(aid.key, []).append(
                (proc, task)
            )
            if self._tracing:
                self.tracer.record(
                    self.sim.now, "guess_wait", proc.name, aid=aid.key
                )
            return
        checkpoint = Checkpoint(len(proc.log), self.sim.now)
        value = self.machine.guess(proc.name, aid, ps=checkpoint)
        proc.log.append("guess", value)
        if self._tracing:
            self.tracer.record(
                self.sim.now, "guess", proc.name, aid=effect.aid_key, value=value
            )
        task.resume_now(value)

    def _do_resolution(self, proc, task, effect) -> None:
        """affirm / deny / free_of share the may-roll-back-self pattern."""
        aid = self._lookup_aid(effect)
        if isinstance(effect, AffirmEffect):
            self.machine.affirm(proc.name, aid)
        elif isinstance(effect, DenyEffect):
            self.machine.deny(proc.name, aid)
        else:
            self.machine.free_of(proc.name, aid)
        if self._tracing:
            self.tracer.record(self.sim.now, effect.kind, proc.name,
                               aid=effect.aid_key, status=aid.status.value)
        if proc.task is not task:
            # The primitive rolled back its own executor (e.g. a free_of
            # violation).  A restart is already scheduled; the statement's
            # log entry died in the truncation, so neither log nor resume.
            return
        proc.log.append(effect.kind, None)
        if self._durable is not None:
            self._durable.note_resolution(proc.name, proc.log.cursor - 1, aid)
        task.resume_now(None)

    def _do_send(self, proc, task, effect: SendEffect) -> None:
        current = proc.mproc.current
        tags = frozenset(map(_KEY, current.ido)) if current is not None else _NO_TAGS
        if self.reliable is not None:
            msg_id, delivery = self.reliable.send(
                proc.name, effect.dst, effect.payload, tags
            )
        else:
            delivery = self.network.send(
                proc.name, effect.dst, effect.payload, tags=tags
            )
            msg_id = delivery.message.msg_id
        if current is not None:
            if current.sent:
                current.sent.append(delivery)
            else:
                current.sent = [delivery]
        # log.append inlined (hot path: one entry per send), both columns:
        # the live-side invariant is cursor == base + retained.
        log = proc.log
        log.kinds.append(_SEND_CODE)
        log.results.append(msg_id)
        log.cursor += 1
        if self._durable is not None:
            self._durable.note_send(
                proc.name, log.cursor - 1, msg_id, effect.dst, effect.payload
            )
        if self._tracing:
            self.tracer.record(
                self.sim.now, "send", proc.name, dst=effect.dst, tags=len(tags)
            )
        task.resume_now(msg_id)

    def _do_recv(self, proc, task, effect: RecvEffect) -> None:
        proc.recv = effect
        track = proc.track
        if track.open_kind != Span.BLOCKED:
            # Inlined mark() early-return: in steady-state message loops
            # the track is already BLOCKED and the call was pure overhead.
            track.mark(Span.BLOCKED, self.sim._now)
        # Inside the dispatch trampoline: a synchronous delivery (message
        # already queued) completes the effect via resume_now, so a
        # process draining a same-tick backlog re-enters the trampoline,
        # dependency propagation, and obs hooks once per (process, tick)
        # instead of once per message.
        syncing, self._syncing = self._syncing, task
        try:
            proc.mailbox.register_waiter(task, task, effect.timeout)
        finally:
            self._syncing = syncing

    def _do_compute(self, proc, task, effect: ComputeEffect) -> None:
        proc.track.mark(Span.BUSY, self.sim.now)
        task._pending = self.sim.schedule(
            effect.duration,
            self._finish_compute,
            proc,
            task,
            label=f"compute:{proc.name}",
        )

    def _finish_compute(self, proc: ProcessRuntime, task: Task) -> None:
        proc.mproc.mark_changed()
        proc.track.mark(Span.BLOCKED, self.sim.now)
        proc.log.append("compute", None)
        task.resume_inline(None)

    def _do_now(self, proc, task, effect: NowEffect) -> None:
        value = self.sim.now
        proc.log.append("now", value)
        task.resume_now(value)

    def _do_random(self, proc, task, effect: RandomEffect) -> None:
        value = self.streams[f"proc:{proc.name}"].random()
        proc.log.append("random", value)
        task.resume_now(value)

    def _do_emit(self, proc, task, effect: EmitEffect) -> None:
        current = proc.mproc.current
        record = OutputRecord(effect.value, len(proc.log), current, self.sim.now)
        if proc.outputs:
            proc.outputs.append(record)
        else:
            proc.outputs = [record]
        proc.log.append("emit", None)
        if self._tracing:
            self.tracer.record(
                self.sim.now,
                "emit",
                proc.name,
                value=repr(effect.value),
                speculative=current is not None,
            )
        task.resume_now(None)

    #: Rebase candidates per process are thinned once they exceed this
    #: (every other one dropped, oldest and newest kept) so a stalled
    #: frontier cannot make the candidate list itself unbounded.
    _MAX_REBASE_CANDIDATES = 32

    def _do_commit_point(self, proc, task, effect: CommitPointEffect) -> None:
        proc.log.append("commit", None)
        # Candidate position = log length *after* the commit entry: a
        # body resumed from this state next yields the effect that
        # follows the commit_point, i.e. the entry at that position.
        state = copy.deepcopy(effect.state)
        proc.add_candidate(RebasePoint(len(proc.log), state, self.sim.now))
        # a log prefix the next pass may be able to drop
        proc.mproc.mark_reclaimable()
        if len(proc.rebase_candidates) > self._MAX_REBASE_CANDIDATES:
            del proc.rebase_candidates[1::2]
        if self._tracing:
            self.tracer.record(self.sim.now, "commit_point", proc.name)
        task.resume_now(None)

    def _lookup_aid(self, effect) -> AssumptionId:
        """The AID a guess / affirm / deny / free_of names.

        Through a bound handle, its AID — or, once a pass has pointed it
        at a shared verdict (serial 0), a settled AID under its key.  A raw
        key or an unbound copy is looked up in the machine (an unknown key
        raises).
        """
        aid = effect.aid
        if aid is not None:
            return aid if aid.serial else settled(effect.aid_key, aid.status)
        return self.machine.aid(effect.aid_key)

    _LIVE_HANDLERS = {
        AidInitEffect: _do_aid_init,
        GuessEffect: _do_guess,
        AffirmEffect: _do_resolution,
        DenyEffect: _do_resolution,
        FreeOfEffect: _do_resolution,
        SendEffect: _do_send,
        RecvEffect: _do_recv,
        ComputeEffect: _do_compute,
        NowEffect: _do_now,
        RandomEffect: _do_random,
        EmitEffect: _do_emit,
        CommitPointEffect: _do_commit_point,
    }

    # ------------------------------------------------------------------
    # outputs (output-commit discipline)
    # ------------------------------------------------------------------
    def outputs(self, name: str) -> list[Any]:
        """All currently standing outputs of ``name`` (speculative included)."""
        proc = self.procs.get(name)
        if proc is None:
            return self.outcomes.committed(self.timeline.row(name))
        return [*proc.committed, *(record.value for record in proc.outputs)]

    def committed_outputs(self, name: str) -> list[Any]:
        """Outputs that no live speculation can withdraw anymore."""
        proc = self.procs.get(name)
        if proc is None:
            return self.outcomes.committed(self.timeline.row(name))
        return [*proc.committed, *(r.value for r in proc.outputs if r.committed)]

    # ------------------------------------------------------------------
    # message delivery (each incarnation is its own mailbox waiter)
    # ------------------------------------------------------------------
    def _deliver(self, proc: ProcessRuntime, value: Any, task: _Incarnation) -> None:
        timer = task._pending
        if timer is not None:       # a timed recv served before its timeout
            task._pending = None
            timer.cancel()
        if self._fossil_pending:
            self._run_fossil_collection()
        if proc.task is not task:
            return  # stale delivery aimed at a rolled-back incarnation
        mproc = proc.mproc
        if not mproc.changed:
            mproc.mark_changed()
        if value is TIMED_OUT:
            proc.log.append("recv", TIMED_OUT)
            if self._tracing:
                self.tracer.record(self.sim.now, "recv_timeout", proc.name)
            task.clear_cleanups()
            task.resume_inline(TIMED_OUT)
            return
        message: Message = value
        if message.dead:
            proc.mailbox.register_waiter(task, task, proc.recv.timeout)
            return
        if message.tags:
            live, deps = self.machine.resolve_tag_keys(message.tags)
            if not live:
                if self._tracing:
                    self.tracer.record(
                        self.sim.now, "drop_dead_message", proc.name, msg=message.msg_id
                    )
                if message.holds:
                    self.network.release(message)
                proc.mailbox.register_waiter(task, task, proc.recv.timeout)
                return
            if deps:
                checkpoint = Checkpoint(len(proc.log), self.sim.now)
                interval = self.machine.guess_many(proc.name, deps, ps=checkpoint)
                if interval is not None and self._tracing:
                    self.tracer.record(
                        self.sim.now,
                        "implicit_guess",
                        proc.name,
                        aids=tuple(sorted(a.key for a in deps)),
                    )
        # tuple.__new__ pre-bound to the class — skips the generated
        # namedtuple __new__ frame (one allocation per delivered message).
        received = _new_received((message.payload, message.src, message.msg_id))
        current = proc.mproc.current
        if current is not None:
            # A rollback of this interval un-receives the message, so the
            # interval takes over the copy (and its hold on the tags).
            if current.received:
                current.received.append(message)
            else:
                current.received = [message]
        elif message.holds:
            self.network.release(message)   # a definite receive is for good
        # log.append inlined, as in _do_send (one entry per delivery):
        # the payload, and the envelope as a row of ``log.envelopes``.
        log = proc.log
        log.kinds.append(_RECV_CODE)
        log.results.append(message.payload)
        log.envelopes = log.envelopes or []
        log.envelopes += (message.src, message.msg_id)
        log.cursor += 1
        if self._tracing:
            self.tracer.record(
                self.sim.now, "recv", proc.name, src=message.src, msg=message.msg_id
            )
        task._cleanup = None
        if self._syncing is task:
            # Registration found the message already queued: the dispatch
            # trampoline is on the stack, so complete the recv flat.
            task.resume_now(received)
        elif self._defer_delivery:
            # Mid-rollback requeue: the machine is not quiescent, so keep
            # the pre-batching scheduled resume for this delivery.
            task.resume(received)
        else:
            # Delivery/timer event context: step the generator directly
            # instead of burning a resume event per message
            # (resume_inline, flattened — this runs once per delivery).
            task._pending = None
            follow = task._drive(received)
            if follow is not None:
                task.dispatch(follow)

    # ------------------------------------------------------------------
    # rollback propagation
    # ------------------------------------------------------------------
    def _on_finalize(self, interval) -> None:
        if self._tracing:
            self.tracer.record(self.sim.now, "finalize", interval.pid, interval=interval.label,
                               aid=interval.aid.key if interval.aid is not None else None)
        received = interval.received
        if received:
            self._release_received(received)
        # Finalize is what advances the commit frontier (Eq 21), so
        # it is the natural collection trigger — but the machine is
        # mid-primitive here, so only raise the deferred flag.
        self._finalizes_since_collect += 1
        if self._finalizes_since_collect >= self.fossil_interval:
            self._fossil_pending = True

    def _wake_aid_waiters(self, event: MachineEvent) -> None:
        """Machine listener of a ``speculation=False`` run: resume the
        guessers whose AIDs have resolved."""
        for key in list(self._aid_waiters):
            aid = self.machine.aids.get(key)
            if aid is None or aid.pending:
                continue
            waiters = self._aid_waiters.pop(key)
            for proc, task in waiters:
                if not task.alive:      # killed by a rollback or a crash
                    continue
                value = self.machine.guess(proc.name, aid)  # guess_skip path
                proc.log.append("guess", value)
                if self._tracing:
                    self.tracer.record(
                        self.sim.now, "guess", proc.name, aid=aid.key, value=value
                    )
                task.resume(value)

    def _apply_rollback(self, interval, discarded: list, cause) -> None:
        proc = self.procs.get(interval.pid)
        if proc is None:
            # A process known to the machine but not the runtime (pure
            # machine users, e.g. the oracle) — bookkeeping only.
            return
        checkpoint: Checkpoint = interval.ps
        redeliver: list[Message] = []
        for dead in discarded:
            for delivery in dead.sent:
                delivery.retract()
            for message in dead.received:
                if not message.dead:
                    redeliver.append(message)
        if self._tracing:
            self.tracer.record(self.sim.now, "rollback", proc.name,
                               to_log_index=checkpoint.log_index, discarded=len(discarded),
                               cause=cause.key if cause is not None else None)
        # Kill the current incarnation first so redelivered messages do not
        # reach it (the killed task is off the mailbox).
        self._kill_incarnation(proc, "rollback")
        proc.done = False
        proc.log.truncate(checkpoint.log_index)
        if self._durable is not None:
            self._durable.on_rollback(proc.name, checkpoint.log_index)
        if proc.rebase_candidates:
            # Candidates past the truncation point captured state from the
            # discarded execution; one exactly at it is still valid (its
            # state reflects only the surviving prefix).
            proc.rebase_candidates = [
                c for c in proc.rebase_candidates if c.log_index <= checkpoint.log_index
            ] or ()
        # Withdraw speculative outputs produced after the checkpoint
        # (the output-commit discipline: uncommitted outputs die with the
        # speculation that produced them).  Outputs are appended in log
        # order, so they are a suffix — and one above the watermark (the
        # machine refuses to roll back a definite interval, Theorem 5.2).
        outputs = proc.outputs
        cut = len(outputs)
        while cut and outputs[cut - 1].log_index >= checkpoint.log_index:
            cut -= 1
        if not cut:
            proc.outputs = ()
        elif cut < len(outputs):
            del outputs[cut:]
        wasted = proc.track.reclassify_since(
            checkpoint.time, Span.WASTED, self.sim.now
        )
        if redeliver:
            redeliver.sort(key=lambda m: (m.deliver_time, m.msg_id))
            prev = self._defer_delivery
            self._defer_delivery = True
            try:
                self.network.mailbox(proc.name).requeue_front(redeliver)
            finally:
                self._defer_delivery = prev
        proc.restarts += 1
        self._start_task(proc, self.rollback_overhead)
        if self._metered:
            spec = self.spec_metrics
            spec.restarts.inc()
            spec.wasted_time.inc(wasted)
            spec.replay_entries.inc(proc.log.pending)
        if self._tracing:
            self.tracer.record(self.sim.now, "restart", proc.name,
                               replay=proc.log.pending, wasted=round(wasted, 6))
