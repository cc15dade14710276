"""Runtime resilience: reliable delivery.

An opt-in layer that lets HOPE programs survive the message faults
:mod:`repro.sim.faults` injects: :class:`ReliableTransport` — per-message
acks, timeout-driven resend with capped exponential backoff, and
receiver-side dedup by ``msg_id``.  A retransmission reuses the original
message id, so the receiver suppresses copies it has already delivered;
retraction (:meth:`ReliableDelivery.retract`) kills every in-flight copy
*and* the retry timer, so a rolled-back sender's retries die with it.

Ack loss is drawn from the network's fault plan, so a reliable faulty run
still replays byte-identically from its seed.  Switched off, the
engine's hot path is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..sim import Delivery, ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import HopeSystem


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
        if tags:
            # A retransmission re-resolves the tags at delivery, so they
            # stay pinned for as long as the send can still be retried.
            self.engine.network.pins.pin(tags)
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
            pending = self._pending
            pending.pop(record.msg_id, None)
            if not pending:     # a dict keeps the capacity of its largest size
                self._pending = {}
            if record.timer is not None:
                record.timer.cancel()
                record.timer = None
            if record.tags:
                self.engine.network.pins.unpin(record.tags)
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
