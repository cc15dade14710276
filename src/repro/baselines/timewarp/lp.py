"""Time Warp logical processes: input queue, output queue, state saving.

A logical process (LP) applies a **pure, deterministic** handler::

    handler(state: dict, vt: float, payload) -> list[Emission]

mutating ``state`` in place and returning virtual-time-stamped emissions.
Determinism matters twice over: rollback re-processes events assuming the
same state transitions, and the sequential oracle
(:mod:`repro.baselines.timewarp.oracle`) must agree with any optimistic
interleaving.

Events are totally ordered by ``(recv_vt, uid)`` — the *event key* — so
ties at equal virtual time are deterministic.  State saves and output-log
entries are tagged with the event key that produced them, which makes
rollback exact even across same-vt ties.
"""

from __future__ import annotations

import bisect
import copy
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .antimessage import TWMessage

#: sorts before every real event key
MIN_KEY = (float("-inf"), -1)


@dataclass(frozen=True)
class Emission:
    """An output of an event handler: send ``payload`` to ``dst`` at
    virtual time ``now + delay_vt`` (``delay_vt`` > 0: no zero-delay
    cycles, the classic Time Warp restriction)."""

    dst: str
    delay_vt: float
    payload: Any


Handler = Callable[[dict, float, Any], list]


class _QueueItem:
    """An input-queue slot: the message plus its processed flag."""

    __slots__ = ("message", "processed")

    def __init__(self, message: TWMessage) -> None:
        self.message = message
        self.processed = False


class LogicalProcess:
    """One Time Warp LP with aggressive (optimistic) event processing.

    ``save_interval`` controls state-saving frequency: 1 saves after
    every event (instant restore, maximal memory), k>1 saves every k-th
    event (rollback then re-processes up to k-1 events — the classic
    checkpoint-interval trade-off, ablated by the AIDMODE/CKPT benchmark
    family).
    """

    def __init__(
        self,
        name: str,
        handler: Handler,
        initial_state: dict,
        save_interval: int = 1,
        cancellation: str = "aggressive",
    ) -> None:
        if save_interval < 1:
            raise ValueError(f"save_interval must be >= 1, got {save_interval}")
        if cancellation not in ("aggressive", "lazy"):
            raise ValueError(
                f"cancellation must be 'aggressive' or 'lazy', got {cancellation!r}"
            )
        self.name = name
        self.handler = handler
        self.state = copy.deepcopy(initial_state)
        self.save_interval = save_interval
        #: aggressive: anti-messages fly at rollback time.  lazy: cancelled
        #: outputs become *suspects*; the coast-forward re-execution keeps
        #: any regenerated-identical message (no anti, no resend) and only
        #: cancels what genuinely changed — the classic lazy-cancellation
        #: optimization.
        self.cancellation = cancellation
        self._suspects: list[tuple[tuple, TWMessage]] = []
        self.lazy_hits = 0
        #: event key of the last processed event
        self.lvt_key: tuple = MIN_KEY
        #: input queue, ordered by event key
        self._queue: list[_QueueItem] = []
        self._keys: list[tuple] = []
        #: state saves: (event_key_after, deep copy); includes the initial state
        self.saves: list[tuple[tuple, dict]] = [(MIN_KEY, copy.deepcopy(initial_state))]
        #: output log: (emitting event key, positive message)
        self.output_log: list[tuple[tuple, TWMessage]] = []
        #: anti-messages that overtook their positives
        self._pending_antis: dict[int, TWMessage] = {}
        self._events_since_save = 0
        # statistics
        self.events_processed = 0
        self.events_rolled_back = 0
        self.rollbacks = 0
        self.antis_sent = 0

    @property
    def lvt(self) -> float:
        """Local virtual time: the vt of the last processed event."""
        return self.lvt_key[0]

    # ------------------------------------------------------------------
    # input queue
    # ------------------------------------------------------------------
    def insert(self, message: TWMessage) -> list[TWMessage]:
        """Insert an arriving message; returns anti-messages to transmit.

        Handles all four Time Warp arrival cases: normal positive,
        straggler positive, anti-for-unprocessed, anti-for-processed.
        """
        antis_out: list[TWMessage] = []
        if message.sign == 1:
            if self._pending_antis.pop(message.uid, None) is not None:
                return antis_out          # annihilated on arrival
            self._insert_item(_QueueItem(message))
            if message.sort_key() <= self.lvt_key:   # straggler
                antis_out.extend(self.rollback(message.sort_key()))
        else:
            index = self._find_uid(message.uid)
            if index is None:
                self._pending_antis[message.uid] = message
                return antis_out
            if self._queue[index].processed:
                antis_out.extend(self.rollback(message.sort_key()))
                index = self._find_uid(message.uid)
            assert index is not None
            self._remove_at(index)        # annihilation
        return antis_out

    def _insert_item(self, item: _QueueItem) -> None:
        key = item.message.sort_key()
        pos = bisect.bisect_left(self._keys, key)
        self._queue.insert(pos, item)
        self._keys.insert(pos, key)

    def _remove_at(self, index: int) -> None:
        del self._queue[index]
        del self._keys[index]

    def _find_uid(self, uid: int) -> Optional[int]:
        for index, item in enumerate(self._queue):
            if item.message.uid == uid:
                return index
        return None

    def next_unprocessed(self) -> Optional[_QueueItem]:
        for item in self._queue:
            if not item.processed:
                return item
        return None

    @property
    def has_work(self) -> bool:
        return self.next_unprocessed() is not None

    # ------------------------------------------------------------------
    # event processing
    # ------------------------------------------------------------------
    def process_next(self) -> list[TWMessage]:
        """Process the lowest-key unprocessed event; returns the messages
        to transmit (positives, plus any lazy-cancellation antis that the
        re-execution has now proven necessary)."""
        item = self.next_unprocessed()
        if item is None:
            return []
        message = item.message
        key = message.sort_key()
        out: list[TWMessage] = []
        # lazy cancellation: suspects from events before this key can no
        # longer be regenerated — they really are cancelled
        out.extend(self.flush_suspects(before_key=key))
        emissions = self.handler(self.state, message.recv_vt, message.payload)
        item.processed = True
        self.lvt_key = key
        self.events_processed += 1
        for emission in emissions:
            if emission.delay_vt <= 0:
                raise ValueError(
                    f"LP {self.name!r} emitted non-positive virtual delay "
                    f"{emission.delay_vt}"
                )
            send_vt = message.recv_vt
            recv_vt = message.recv_vt + emission.delay_vt
            reused = self._reuse_suspect(key, emission, send_vt, recv_vt)
            if reused is not None:
                self.output_log.append((key, reused))
                continue                       # receiver already has it
            tw = TWMessage(
                self.name, emission.dst, send_vt, recv_vt, emission.payload
            )
            self.output_log.append((key, tw))
            out.append(tw)
        # any suspect from exactly this event that was not regenerated is
        # divergent: cancel it now
        out.extend(self.flush_suspects(before_key=(key[0], key[1] + 1)))
        self._events_since_save += 1
        if self._events_since_save >= self.save_interval:
            self.saves.append((key, copy.deepcopy(self.state)))
            self._events_since_save = 0
        return out

    def _reuse_suspect(self, key, emission, send_vt, recv_vt):
        """Find a suspect identical to a regenerated emission (lazy mode)."""
        if self.cancellation != "lazy":
            return None
        for index, (s_key, suspect) in enumerate(self._suspects):
            if (
                s_key == key
                and suspect.dst == emission.dst
                and suspect.send_vt == send_vt
                and suspect.recv_vt == recv_vt
                and suspect.payload == emission.payload
            ):
                del self._suspects[index]
                self.lazy_hits += 1
                return suspect
        return None

    def flush_suspects(self, before_key: Optional[tuple] = None) -> list[TWMessage]:
        """Turn suspects that can no longer be regenerated into antis.

        With ``before_key`` None, flush everything (used when the LP goes
        idle with suspects whose originating events were annihilated).
        """
        if not self._suspects:
            return []
        antis: list[TWMessage] = []
        kept: list[tuple[tuple, TWMessage]] = []
        for s_key, suspect in self._suspects:
            if before_key is None or s_key < before_key:
                antis.append(suspect.anti())
                self.antis_sent += 1
            else:
                kept.append((s_key, suspect))
        self._suspects = kept
        return antis

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback(self, to_key: tuple) -> list[TWMessage]:
        """Roll back so every event with key >= ``to_key`` is redone.

        Restores the newest save strictly earlier than ``to_key``, marks
        later events unprocessed (the subsequent re-processing is the
        coast-forward), and returns anti-messages for every output whose
        emitting event is undone.
        """
        self.rollbacks += 1
        save_index = len(self.saves) - 1
        while save_index > 0 and self.saves[save_index][0] >= to_key:
            save_index -= 1
        save_key, saved_state = self.saves[save_index]
        del self.saves[save_index + 1 :]
        self.state = copy.deepcopy(saved_state)
        self.lvt_key = save_key
        self._events_since_save = 0
        undone = 0
        for item in self._queue:
            if item.processed and item.message.sort_key() > save_key:
                item.processed = False
                undone += 1
        self.events_rolled_back += undone
        antis: list[TWMessage] = []
        keep: list[tuple[tuple, TWMessage]] = []
        for event_key, sent in self.output_log:
            if event_key > save_key:
                if self.cancellation == "lazy":
                    # defer: the coast-forward may regenerate it verbatim
                    self._suspects.append((event_key, sent))
                else:
                    antis.append(sent.anti())
            else:
                keep.append((event_key, sent))
        self.output_log = keep
        self.antis_sent += len(antis)
        return antis

    # ------------------------------------------------------------------
    # GVT support
    # ------------------------------------------------------------------
    def min_unprocessed_vt(self) -> float:
        item = self.next_unprocessed()
        return item.message.recv_vt if item is not None else float("inf")

    def fossil_collect(self, gvt: float) -> int:
        """Reclaim saves, output-log entries, and processed input entries
        strictly older than GVT.  At least one save at or before GVT is
        retained (the restore floor).  Returns the reclaimed count."""
        reclaimed = 0
        floor = 0
        for index, (key, _state) in enumerate(self.saves):
            if key[0] < gvt:
                floor = index
        if floor > 0:
            reclaimed += floor
            del self.saves[:floor]
        kept_out = [(k, m) for (k, m) in self.output_log if k[0] >= gvt]
        reclaimed += len(self.output_log) - len(kept_out)
        self.output_log = kept_out
        new_queue: list[_QueueItem] = []
        new_keys: list[tuple] = []
        for item, key in zip(self._queue, self._keys):
            if item.processed and item.message.recv_vt < gvt:
                reclaimed += 1
            else:
                new_queue.append(item)
                new_keys.append(key)
        self._queue = new_queue
        self._keys = new_keys
        return reclaimed

    def memory_footprint(self) -> int:
        """A proxy for memory: retained saves + queue + output log entries."""
        return len(self.saves) + len(self._queue) + len(self.output_log)

    def __repr__(self) -> str:
        return (
            f"<LP {self.name!r} lvt={self.lvt:g} queue={len(self._queue)} "
            f"rollbacks={self.rollbacks}>"
        )
