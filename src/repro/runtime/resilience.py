"""Runtime resilience: reliable delivery and a heartbeat failure detector.

Two opt-in layers that let HOPE programs survive the faults
:mod:`repro.sim.faults` injects:

* :class:`ReliableTransport` — per-message acks, timeout-driven resend
  with capped exponential backoff, and receiver-side dedup by ``msg_id``.
  A retransmission reuses the original message id, so the receiver
  suppresses copies it has already delivered; retraction
  (:meth:`ReliableDelivery.retract`) kills every in-flight copy *and*
  the retry timer, so a rolled-back sender's retries die with it.

* :class:`HeartbeatDetector` — each non-crashed process "sends" a
  heartbeat to a detector pseudo-endpoint every ``interval``; a process
  silent for longer than ``timeout`` is *suspected*, and every unresolved
  AID it owns is issued a definite ``deny`` — converting a crashed peer
  into the rollback the model was built for (Theorems 5.1–6.3) instead
  of stranding its speculative dependents.  Suspicion is unreliable by
  design (partitions and heartbeat loss produce false positives); a
  heartbeat from a suspected process *unsuspects* it, and the engine
  reconciles the false suspicion by treating the process's later
  ``affirm`` of a detector-denied AID as a no-op (the deny already won —
  the paper's lenient duplicate-resolution rule, §5).

Both layers draw any probabilistic fate (ack loss, heartbeat loss) from
the network's fault plan, so a resilient faulty run still replays
byte-identically from its seed.  With neither enabled the engine's hot
path is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..sim import Delivery, ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import HopeSystem

#: Machine pseudo-process that authors detector denies.  Registered with
#: the abstract machine (denies need an issuing pid) but never spawned as
#: a runtime process, so it is always definite — its denies cascade.
DETECTOR_PID = "__detector__"


class ReliableConfig:
    """Tuning for :class:`ReliableTransport`.

    ``ack_timeout`` is the first resend delay; each subsequent resend
    waits ``backoff`` times longer, capped at ``max_backoff``.  After
    ``max_attempts`` transmissions the send is abandoned (counted in
    ``stats.exhausted``) — an unreachable peer must not keep the
    simulation alive forever.
    """

    __slots__ = ("ack_timeout", "backoff", "max_backoff", "max_attempts")

    def __init__(
        self,
        ack_timeout: float = 8.0,
        backoff: float = 2.0,
        max_backoff: float = 60.0,
        max_attempts: int = 12,
    ) -> None:
        if ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {ack_timeout}")
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        if max_backoff < ack_timeout:
            raise ValueError("max_backoff must be >= ack_timeout")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.ack_timeout = float(ack_timeout)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self.max_attempts = int(max_attempts)


class ReliableStats:
    """Counters for the ack/retry machinery."""

    __slots__ = (
        "sent",
        "retries",
        "acked",
        "acks_sent",
        "dup_suppressed",
        "dropped_at_crashed",
        "exhausted",
    )

    def __init__(self) -> None:
        self.sent = 0
        self.retries = 0
        self.acked = 0
        self.acks_sent = 0
        self.dup_suppressed = 0
        self.dropped_at_crashed = 0
        self.exhausted = 0

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class _PendingSend:
    """One reliable send awaiting its ack."""

    __slots__ = ("msg_id", "src", "dst", "payload", "tags", "attempts", "timer",
                 "deliveries", "closed")

    def __init__(
        self, msg_id: int, src: str, dst: str, payload: Any, tags: frozenset
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.payload = payload
        self.tags = tags
        self.attempts = 1
        self.timer: Optional[ScheduledEvent] = None
        self.deliveries: list[Delivery] = []
        self.closed = False


class ReliableDelivery:
    """Retractable handle over *all* copies of a reliable send.

    Duck-types :class:`~repro.sim.channel.Delivery` where the engine's
    rollback path needs it: retracting marks every transmitted copy dead
    and cancels the pending retry timer, so a rolled-back sender stops
    retransmitting a message from a discarded world.
    """

    __slots__ = ("_record", "_transport")

    def __init__(self, record: _PendingSend, transport: "ReliableTransport") -> None:
        self._record = record
        self._transport = transport

    @property
    def message(self):
        """The most recent transmitted envelope (for msg_id inspection)."""
        return self._record.deliveries[-1].message

    def retract(self) -> None:
        self._transport._close(self._record, retract=True)

    def __repr__(self) -> str:
        state = "closed" if self._record.closed else f"attempt={self._record.attempts}"
        return f"ReliableDelivery(#{self._record.msg_id} {state})"


class ReliableTransport:
    """Ack/retry/dedup layer over the engine's network.

    Installed as the network's ``deliver_hook``: every arriving message
    is intercepted at the destination mailbox.  A message for a crashed
    node is dropped unacked (the node is down — the sender keeps
    retrying, which is what bridges a restart).  Otherwise an ack is
    launched back over the (possibly faulty) reverse link, duplicates of
    an already-delivered ``msg_id`` are suppressed, and fresh messages
    pass through to the mailbox.

    Dedup memory is per-receiver volatile state: a crash clears it, so a
    message can be re-delivered to the restarted incarnation — reliable
    delivery here is at-least-once across crashes (exactly-once between
    them), matching Strom & Yemini's recovery model where the restarted
    process re-consumes its input.  It holds an id only while a copy can
    still arrive: until the send's record is closed (acked, exhausted,
    retracted, or its sender crashed) and no live copy of it is in flight
    (``Message.copies``; a closed record waits in :attr:`_draining`).
    """

    def __init__(self, engine: "HopeSystem", config: ReliableConfig) -> None:
        self.engine = engine
        self.config = config
        self.stats = ReliableStats()
        self._pending: dict[int, _PendingSend] = {}
        #: Closed records with a live copy still in flight, by msg_id.
        self._draining: dict[int, _PendingSend] = {}
        #: Per receiver, the ids whose copies it must still suppress (a
        #: receiver with none has no entry).
        self._seen: dict[str, set[int]] = {}
        engine.network.deliver_hook = self._on_arrival

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(
        self, src: str, dst: str, payload: Any, tags: frozenset
    ) -> tuple[int, ReliableDelivery]:
        delivery = self.engine.network.send(src, dst, payload, tags=tags)
        record = _PendingSend(delivery.message.msg_id, src, dst, payload, tags)
        record.deliveries.append(delivery)
        self._pending[record.msg_id] = record
        pins = self.engine.network.pins
        if tags and pins is not None:
            # A retransmission re-resolves the tags at delivery, so they
            # stay pinned for as long as the send can still be retried.
            pins.pin(tags)
        record.timer = self.engine.sim.schedule(
            self.config.ack_timeout,
            self._on_timeout,
            record,
            label=f"retry:{src}->{dst}",
        )
        self.stats.sent += 1
        return record.msg_id, ReliableDelivery(record, self)

    def _on_timeout(self, record: _PendingSend) -> None:
        if record.closed:
            return
        record.timer = None
        if record.attempts >= self.config.max_attempts:
            self.stats.exhausted += 1
            self._close(record, retract=False)
            if self.engine._tracing:
                self.engine.tracer.record(
                    self.engine.sim.now,
                    "retry_exhausted",
                    record.src,
                    dst=record.dst,
                    msg=record.msg_id,
                    attempts=record.attempts,
                )
            return
        record.attempts += 1
        self.stats.retries += 1
        delivery = self.engine.network.send(
            record.src, record.dst, record.payload,
            tags=record.tags, msg_id=record.msg_id,
        )
        record.deliveries.append(delivery)
        delay = min(
            self.config.ack_timeout * self.config.backoff ** (record.attempts - 1),
            self.config.max_backoff,
        )
        record.timer = self.engine.sim.schedule(
            delay, self._on_timeout, record, label=f"retry:{record.src}->{record.dst}"
        )
        if self.engine._tracing:
            self.engine.tracer.record(
                self.engine.sim.now,
                "retry",
                record.src,
                dst=record.dst,
                msg=record.msg_id,
                attempt=record.attempts,
            )

    def _close(self, record: _PendingSend, retract: bool) -> None:
        if not record.closed:
            record.closed = True
            self._pending.pop(record.msg_id, None)
            if record.timer is not None:
                record.timer.cancel()
                record.timer = None
            pins = self.engine.network.pins
            if record.tags and pins is not None:
                pins.unpin(record.tags)
        # Retraction is NOT gated on `closed`: an ack only settles the
        # retry loop, it does not outlive a rollback.  A sender rolling
        # back past an already-acked (and possibly consumed) send must
        # still kill every transmitted copy, or the receiver keeps a
        # message from a discarded world and the re-executed send
        # double-delivers the round.
        if retract:
            for delivery in record.deliveries:
                delivery.retract()
        self._settle(record)

    def _settle(self, record: _PendingSend) -> None:
        """Forget ``record``'s id at its receiver once it is closed and no
        live copy of it is in flight — no copy can arrive any more."""
        for delivery in record.deliveries:
            message = delivery.message
            if message.copies and not message.dead:
                self._draining[record.msg_id] = record
                return
        self._draining.pop(record.msg_id, None)
        seen = self._seen.get(record.dst)
        if seen is not None:
            seen.discard(record.msg_id)
            if not seen:
                del self._seen[record.dst]

    # ------------------------------------------------------------------
    # receiver side (network deliver_hook)
    # ------------------------------------------------------------------
    def _on_arrival(self, message) -> bool:
        fresh = self._admit(message)
        # The copy has landed (the network counted it out before the
        # hook): it may have been the last one a closed record waited for.
        record = self._draining.get(message.msg_id)
        if record is not None:
            self._settle(record)
        return fresh

    def _admit(self, message) -> bool:
        proc = self.engine.procs.get(message.dst)
        if proc is not None and proc.crashed:
            # The node is down: arrivals are lost, no ack goes back — the
            # sender's retries are what carry the message past a restart.
            self.stats.dropped_at_crashed += 1
            return False
        self._send_ack(message.dst, message.src, message.msg_id)
        seen = self._seen.get(message.dst)
        if seen is None:
            seen = self._seen[message.dst] = set()
        if message.msg_id in seen:
            # Duplicate (fault-injected copy or retransmission racing its
            # ack): re-acked above, suppressed here.
            self.stats.dup_suppressed += 1
            return False
        seen.add(message.msg_id)
        return True

    def _send_ack(self, src: str, dst: str, msg_id: int) -> None:
        lost, delay = self.engine.network.control_fate(src, dst)
        if lost:
            return
        self.stats.acks_sent += 1
        self.engine.sim.schedule(
            delay, self._on_ack, msg_id, label=f"ack:{src}->{dst}"
        )

    def _on_ack(self, msg_id: int) -> None:
        record = self._pending.get(msg_id)
        if record is None or record.closed:
            return
        self.stats.acked += 1
        self._close(record, retract=False)

    # ------------------------------------------------------------------
    # engine integration
    # ------------------------------------------------------------------
    def on_crash(self, name: str) -> None:
        """Crash semantics: the node's dedup memory is volatile, and its
        own unacked sends stop retrying (the transmitter is down; copies
        already on the wire keep flying)."""
        self._seen.pop(name, None)
        for record in list(self._pending.values()):
            if record.src == name:
                self._close(record, retract=False)


class DetectorConfig:
    """Tuning for :class:`HeartbeatDetector`.

    ``interval`` is the heartbeat (and sweep) period, ``timeout`` the
    silence threshold before suspicion, ``latency`` the one-way heartbeat
    delay.  ``timeout`` should comfortably exceed ``interval + latency``
    or every process is suspected between its own heartbeats.
    """

    __slots__ = ("interval", "timeout", "latency")

    def __init__(
        self, interval: float = 5.0, timeout: float = 15.0, latency: float = 1.0
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if timeout <= interval + latency:
            raise ValueError(
                f"timeout={timeout} must exceed interval+latency="
                f"{interval + latency} or every process gets suspected"
            )
        self.interval = float(interval)
        self.timeout = float(timeout)
        self.latency = float(latency)


class DetectorStats:
    """Counters for the suspicion machinery."""

    __slots__ = (
        "heartbeats_sent",
        "heartbeats_lost",
        "suspects",
        "unsuspects",
        "false_suspicions",
        "detector_denies",
        "reconciled_affirms",
    )

    def __init__(self) -> None:
        self.heartbeats_sent = 0
        self.heartbeats_lost = 0
        self.suspects = 0
        self.unsuspects = 0
        self.false_suspicions = 0
        self.detector_denies = 0
        self.reconciled_affirms = 0

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class HeartbeatDetector:
    """An eventually-perfect-ish failure detector over simulated heartbeats.

    Every ``interval`` the detector tick (one simulator event) emits a
    heartbeat per non-crashed process — each is one scheduled arrival,
    lost according to the network's fault plan (partition minority side,
    or the ``(name, DETECTOR_ENDPOINT)`` drop probability) — then sweeps
    for processes silent past ``timeout`` and suspects them.

    Suspecting ``name`` issues a **definite deny** (authored by the
    machine pseudo-process :data:`DETECTOR_PID`, which never speculates)
    for every unresolved AID ``name`` owns: dependents roll back instead
    of hanging on a dead peer.  A later heartbeat unsuspects; if the
    process never actually crashed the suspicion is counted false, and
    the engine turns its subsequent ``affirm`` of a detector-denied AID
    into a reconciled no-op.

    Termination: the tick only reschedules itself while other simulation
    events are outstanding, or while some unsuspected crashed process
    still owns pending AIDs (i.e. a future suspicion would still unblock
    someone).  Otherwise the heartbeat loop lets the event heap drain so
    ``run()`` terminates.
    """

    def __init__(self, engine: "HopeSystem", config: DetectorConfig) -> None:
        self.engine = engine
        self.config = config
        self.stats = DetectorStats()
        self.suspected: set[str] = set()
        self.last_seen: dict[str, float] = {}
        #: Suspects that were alive when suspected — false-positive candidates.
        self._was_alive: set[str] = set()
        #: Simulator events owned by the detector (tick + in-flight
        #: heartbeats); the termination rule subtracts them from the
        #: heap's pending count.
        self._own_pending = 0
        engine.machine.create_process(DETECTOR_PID)
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        self._own_pending += 1
        self.engine.sim.schedule(
            self.config.interval, self._tick, label="detector-tick"
        )

    def on_spawn(self, name: str) -> None:
        self.last_seen[name] = self.engine.sim.now

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._own_pending -= 1
        engine = self.engine
        now = engine.sim.now
        network = engine.network
        hb_lost = getattr(network, "heartbeat_lost", None)
        names = engine.process_names()      # a retired process heartbeats too
        for name in names:
            proc = engine.procs.get(name)
            if proc is not None and proc.crashed:
                continue
            # Heartbeats are node-level liveness: a blocked process still
            # heartbeats; only a crashed one goes silent.
            if hb_lost is not None and hb_lost(name):
                self.stats.heartbeats_lost += 1
                continue
            self.stats.heartbeats_sent += 1
            self._own_pending += 1
            engine.sim.schedule(
                self.config.latency, self._on_heartbeat, name,
                label=f"heartbeat:{name}",
            )
        for name in names:
            if name in self.suspected:
                continue
            seen = self.last_seen.get(name, now)
            if now - seen > self.config.timeout:
                self._suspect(name, now)
        if self._should_continue():
            self._schedule_tick()

    def _on_heartbeat(self, name: str) -> None:
        self._own_pending -= 1
        now = self.engine.sim.now
        self.last_seen[name] = now
        if name in self.suspected:
            self.suspected.discard(name)
            self.stats.unsuspects += 1
            proc = self.engine.procs.get(name)
            if name in self._was_alive and (proc is None or not proc.crashed):
                self.stats.false_suspicions += 1
            self._was_alive.discard(name)
            if self.engine._tracing:
                self.engine.tracer.record(now, "unsuspect", name)

    def _suspect(self, name: str, now: float) -> None:
        self.suspected.add(name)
        self.stats.suspects += 1
        proc = self.engine.procs.get(name)
        if proc is None or not proc.crashed:
            self._was_alive.add(name)
        if self.engine._tracing:
            self.engine.tracer.record(now, "suspect", name)
        denied = self.engine._deny_owned_aids(name)
        self.stats.detector_denies += denied

    def _should_continue(self) -> bool:
        engine = self.engine
        if engine.sim.pending_events - self._own_pending > 0:
            return True
        for name, proc in engine.procs.items():
            if (
                proc.crashed
                and name not in self.suspected
                and engine._owner_has_pending_aids(name)
            ):
                return True
        return False
