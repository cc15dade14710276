"""Optimistic recovery expressed in HOPE (Strom & Yemini [24], §2).

Optimistic recovery protocols "optimistically assume that the sender of a
message will checkpoint its state to stable storage before failure at
that node occurs".  HOPE subsumes them: that assumption is one AID per
message.

Cast:

* **disk** — stable storage.  Synchronous, cheap *intent* records (which
  AIDs guard which stream indices) and slow, asynchronous *data* writes;
  also holds the receiver's checkpoints.  The disk never crashes.
* **sender** — streams items to the receiver.  For each item it records
  the intent, **guesses** the AID "this item's log write will complete
  before I fail", sends the (tagged) item, and fires the async data
  write.  Write acks arriving back affirm the AIDs.  On a crash the
  volatile affirm pipeline is lost; **recovery** reads the disk, affirms
  AIDs whose data writes completed, denies the orphans (writes that never
  made it), and re-sends everything not stably logged.
* **receiver** — processes items optimistically as they arrive (it is
  speculative on the senders' logging AIDs via message tags).  Output
  follows the output-commit discipline twice over: HOPE withholds emits
  until the AIDs resolve, and the receiver defers emits until its own
  checkpoint covers them, so a receiver crash + replay cannot duplicate
  output.  On a crash the receiver restarts from its last checkpoint and
  asks the sender to replay the suffix (replayed sends are definite: the
  data is on stable storage).

The exactly-once theorem tested: for any crash schedule the committed
output ledger equals the input stream, each item exactly once, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..runtime import HopeSystem, call
from ..runtime.messages import RpcReply, RpcRequest
from ..sim import TIMED_OUT, ConstantLatency, Tracer


@dataclass(frozen=True)
class RecoveryConfig:
    """Workload and fault-model parameters."""

    items: tuple = tuple(range(10))
    send_spacing: float = 1.0
    log_write_latency: float = 8.0       # async stable write duration
    flush_every: int = 3                 # sender's volatile write buffer size
    checkpoint_every: int = 3            # receiver checkpoint period (items)
    latency: float = 2.0                 # network latency
    process_time: float = 0.5            # receiver work per item
    replay_retry: float = 25.0           # receiver re-requests a lost replay


# ---------------------------------------------------------------------------
# stable storage
# ---------------------------------------------------------------------------
def disk(p, write_latency: float):
    """Stable storage: intents, slow data writes, receiver checkpoints."""
    intents: dict[int, str] = {}          # index -> aid key
    written: set[int] = set()
    checkpoint = (0, ())                  # (next_index, folded state)
    while True:
        msg = yield p.recv()
        body = msg.payload.body
        op = body[0]
        if op == "intent":                # synchronous, cheap
            _op, index, aid_key = body
            intents[index] = aid_key
            yield p.reply(msg, "ok")
        elif op == "write":               # slow data write
            _op, index = body
            yield p.compute(write_latency)
            written.add(index)
            yield p.reply(msg, ("written", index))
        elif op == "recovery_scan":       # sender recovery
            orphans = {
                index: aid for index, aid in intents.items() if index not in written
            }
            yield p.reply(msg, (dict(intents), set(written), orphans))
        elif op == "checkpoint":          # receiver checkpoint (synchronous)
            _op, next_index, state, outputs = body
            checkpoint = (next_index, state)
            # Outputs are released from *stable storage*: the checkpoint
            # message carries the receiver's pending emits, and because it
            # is tagged with the receiver's assumption dependencies, these
            # emits stay uncommitted until the logging AIDs resolve — and
            # they survive receiver crashes, unlike the receiver's own
            # volatile output buffer.
            for record in outputs:
                yield p.emit(record)
            yield p.reply(msg, "ok")
        elif op == "read_checkpoint":
            yield p.reply(msg, checkpoint)
        else:
            raise ValueError(f"unknown disk op {op!r}")


# ---------------------------------------------------------------------------
# sender
# ---------------------------------------------------------------------------
def sender(p, config: RecoveryConfig):
    """Stream items with sender-based optimistic logging (see module doc).

    The body is crash-restartable: ``p``'s effect log is volatile, so a
    crash restarts it from the top; the recovery scan tells it where the
    stable world actually is.
    """
    # An incarnation-unique RPC correlation base: the random stream
    # advances across crash restarts, so stale replies addressed to a dead
    # incarnation can never match this incarnation's calls.
    corr = int((yield p.random()) * 1_000_000_000) * 1000
    # ---- recovery scan (trivially empty on the first incarnation) ----
    intents, written, orphans = yield from call(p, "disk", ("recovery_scan",), corr)
    corr += 1
    for index, aid_key in sorted(orphans.items()):
        yield p.deny(aid_key)             # the write never made it: orphan
    for index in sorted(written):
        aid_key = intents.get(index)
        if aid_key is not None:
            yield p.affirm(aid_key)       # stable: the assumption held
    # Disk writes complete FIFO, so `written` is a prefix of the stream;
    # orphans (denied above) are exactly the suffix to resend.
    resume_from = (max(written) + 1) if written else 0
    sent_up_to = resume_from              # exclusive high-water mark
    finished = False
    pending_acks: dict[int, object] = {}

    def handle_control(msg):
        nonlocal sent_up_to
        if isinstance(msg.payload, RpcReply):
            body = msg.payload.body
            if isinstance(body, tuple) and body and body[0] == "written":
                aid = pending_acks.pop(body[1], None)
                if aid is not None:
                    yield p.affirm(aid)
        elif isinstance(msg.payload, tuple) and msg.payload[0] == "replay_from":
            # Re-send the suffix the receiver lost.  Tags are automatic:
            # items whose log writes completed carry no live dependencies;
            # unstable items carry their still-pending logging AIDs.
            start_index = msg.payload[1]
            for index in range(start_index, sent_up_to):
                yield p.send("receiver", ("item", index, config.items[index]))
            if finished:
                yield p.send("receiver", ("end", len(config.items)))

    def drain_control():
        while True:
            extra = yield p.recv(timeout=0.0)
            if extra is TIMED_OUT:
                return
            yield from handle_control(extra)

    write_buffer: list[int] = []         # volatile: lost on crash

    def flush_writes():
        """Push buffered write requests to the disk (async; acks affirm)."""
        nonlocal corr
        for buffered in write_buffer:
            yield p.send("disk", RpcRequest(("write", buffered), p.name, corr))
            corr += 1
        write_buffer.clear()

    for index in range(resume_from, len(config.items)):
        item = config.items[index]
        aid = yield p.aid_init(f"logged-{index}")
        yield from call(p, "disk", ("intent", index, aid.key), corr)
        corr += 1
        yield p.guess(aid)                # "this write completes before I fail"
        yield p.send("receiver", ("item", index, item))
        sent_up_to = index + 1
        pending_acks[index] = aid
        # The data write sits in a volatile buffer until the next flush —
        # this is the window the optimistic assumption covers: a crash
        # before the flush orphans the buffered items.
        write_buffer.append(index)
        if len(write_buffer) >= config.flush_every:
            yield from flush_writes()
        yield p.compute(config.send_spacing)
        yield from drain_control()
    yield from flush_writes()
    finished = True
    yield p.send("receiver", ("end", len(config.items)))
    # Serve write acks and replay requests indefinitely; the run quiesces
    # once nothing is in flight.
    while True:
        msg = yield p.recv()
        yield from handle_control(msg)


# ---------------------------------------------------------------------------
# receiver
# ---------------------------------------------------------------------------
def receiver(p, config: RecoveryConfig):
    """Process items in order; checkpoint-deferred output commit."""
    corr = int((yield p.random()) * 1_000_000_000) * 1000
    next_index, state_tuple = yield from call(p, "disk", ("read_checkpoint",), corr)
    corr += 1
    state = list(state_tuple)
    # Always request a replay of the suffix: on a fresh start the sender
    # has sent nothing and the request is a no-op; after a crash it
    # recovers whatever the dead incarnation had consumed.
    yield p.send("sender", ("replay_from", next_index))
    pending_emits: list = []
    total = None
    while total is None or next_index < total:
        msg = yield p.recv(
            timeout=config.replay_retry,
            predicate=lambda m: not isinstance(m.payload, RpcReply),
        )
        if msg is TIMED_OUT:
            # Our replay request may have died in a sender crash (its
            # mailbox is volatile).  Re-request; duplicates are harmless —
            # the next_index filter below drops them.
            yield p.send("sender", ("replay_from", next_index))
            continue
        tag = msg.payload[0]
        if tag == "end":
            total = msg.payload[1]
            continue
        if tag != "item":
            continue
        _tag, index, item = msg.payload
        if index != next_index:
            continue                      # duplicate or already-covered item
        yield p.compute(config.process_time)
        state.append(item)
        pending_emits.append(("out", index, item))
        next_index += 1
        if next_index % config.checkpoint_every == 0:
            yield from call(
                p,
                "disk",
                ("checkpoint", next_index, tuple(state), tuple(pending_emits)),
                corr,
            )
            corr += 1
            pending_emits.clear()
    # final checkpoint commits the tail
    yield from call(
        p,
        "disk",
        ("checkpoint", next_index, tuple(state), tuple(pending_emits)),
        corr,
    )
    pending_emits.clear()
    return tuple(state)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
@dataclass
class RecoveryResult:
    makespan: float
    ledger: list = field(default_factory=list)
    crashes: int = 0
    rollbacks: int = 0
    stats: dict = field(default_factory=dict)


def run_recovery(
    config: RecoveryConfig,
    crash_sender_at: Optional[list] = None,
    crash_receiver_at: Optional[list] = None,
    restart_after: float = 2.0,
    seed: int = 0,
    trace: Optional[Tracer] = None,
) -> RecoveryResult:
    """Run the stream with optional crash schedules; returns the ledger."""
    system = HopeSystem(seed=seed, latency=ConstantLatency(config.latency), trace=trace)
    system.spawn("disk", disk, config.log_write_latency)
    system.spawn("sender", sender, config)
    system.spawn("receiver", receiver, config)
    for t in crash_sender_at or []:
        system.sim.schedule_at(t, system.crash_process, "sender")
        system.sim.schedule_at(t + restart_after, system.restart_process, "sender")
    for t in crash_receiver_at or []:
        system.sim.schedule_at(t, system.crash_process, "receiver")
        system.sim.schedule_at(t + restart_after, system.restart_process, "receiver")
    makespan = system.run(max_events=5_000_000)
    stats = system.stats()
    return RecoveryResult(
        makespan=makespan,
        ledger=system.committed_outputs("disk"),
        crashes=len(crash_sender_at or ()) + len(crash_receiver_at or ()),
        rollbacks=stats["rollbacks"],
        stats=stats,
    )


def reference_ledger(config: RecoveryConfig) -> list:
    return [("out", index, item) for index, item in enumerate(config.items)]
