"""Commit-frontier fossil collection — the HOPE analog of Time Warp GVT.

Theorem 6.1 (finalized intervals never roll back) makes everything behind
a process's oldest still-speculative interval *committed*: no future
``Del(H, A)`` can reach it, no rollback can resurrect a dependency on it.
The commit frontier of a process is therefore the start index of its
oldest speculative interval (or its next history index when definite),
and state strictly behind the frontier is fossil — dead weight that only
costs memory and scan time on long runs.

This module reclaims, per collection pass:

* **history prefixes** — committed :class:`~repro.core.history.HistoryEntry`
  rows and dead (finalized or rolled-back) intervals behind each
  process's own frontier (rollback is per-process, so the per-process
  frontier suffices for history);
* **unreachable AIDs** — identifiers no live interval depends on, has
  speculatively affirmed or has parked a deny of, and that nothing can
  still name *by key*: no *pin* (:meth:`Machine.pin`: the runtime pins
  the tags of messages not yet consumed) and, for a pending one, no
  *held* handle (:meth:`Machine.hold`).  A resolved one is **settled**
  (committed by Theorem 6.1): its DOM set is traded for the shared empty
  :data:`~repro.core.aid.SETTLED_DOM`, its live handles are pointed at
  the shared verdict of its status (:data:`~repro.core.aid.VERDICTS`),
  its holds dropped, and it retires under them — §5 makes the verdict
  final, and it is all a late ``guess`` / ``affirm`` / ``deny`` /
  ``free_of`` through a handle reads.  Only a pending AID must stay
  resolvable by key while a handle lives: a guess may yet make it a
  message tag, and tags resolve by key.  *Pending* ones that retire are
  orphans minted inside rolled-back intervals that nothing can ever
  resolve.  A retired AID leaves ``Machine.aids``; by-handle use still
  works, by-key lookup raises;
* **stale resolution-cache entries** — memoized ``resolve_tags`` /
  ``resolve_tag_keys`` results whose key mentions a retired AID, so
  retirement never leaves a cache entry pinning a dead identifier.

A pass costs what it can reclaim, not what exists: it visits the records
the machine queued because an interval of theirs finalized or rolled
back, lets a bounded number of merely changed ones ride along
(:meth:`Machine.take_queued`), and examines only the AIDs whose state
changed or whose last pin was released (see the comments in
:func:`collect`).

The frontier mirrors Time Warp's GVT + fossil collection (compare
``repro.baselines.timewarp.gvt.GvtManager.fossil_collect``): GVT is the
min over unprocessed/in-flight timestamps; the HOPE frontier is the min
over unresolved speculation, with "pinned" tags playing the role of
in-transit messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .aid import SETTLED_DOM, VERDICTS, AidStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .machine import Machine


class FossilStats:
    """Counters from one collection pass (all zero for a no-op pass)."""

    __slots__ = (
        "history_dropped",
        "intervals_dropped",
        "aids_retired",
        "resolve_entries_purged",
    )

    def __init__(self) -> None:
        self.history_dropped = 0
        self.intervals_dropped = 0
        self.aids_retired = 0
        self.resolve_entries_purged = 0


def collect(machine: "Machine", visited: list) -> FossilStats:
    """Run one fossil-collection pass over ``machine``, visiting the
    records in ``visited`` (see :meth:`Machine.take_queued`).

    Must be called at a quiescent point — not from inside a machine
    primitive or event listener (the runtime defers collection to its
    effect-dispatch boundary for exactly this reason).
    """
    out = FossilStats()

    # 1. History prefixes and dead intervals, per-process frontier.  A
    # finalize or a rollback queues its record, so one that is not in the
    # batch has no interval to drop: skipping it reclaims what a full
    # sweep would.
    for record in visited:
        dropped_hist, dropped_iv = record.fossilize_before()
        out.history_dropped += dropped_hist
        out.intervals_dropped += dropped_iv

    # 2. Retire AIDs nothing can reach any more.  Only the AIDs the
    # machine queued since the last pass are examined, and every way an
    # AID is kept ends in an event that queues it again: a live
    # interval's IDO shows up as a non-empty X.DOM (Lemma 5.1), which
    # only empties through a resolution or a rollback; a speculative
    # affirm or a parked deny ends when its interval finalizes or rolls
    # back; a pin ends in Machine.unpin, a pending AID's hold with its
    # last handle.  The queue is swapped out first so that a release
    # arriving mid-pass (a handle dying as the pass drops what held it)
    # lands in the next one.
    candidates, machine._retire_candidates = machine._retire_candidates, []
    aids = machine.aids
    pins = machine.pins
    deferred = machine._retire_deferred
    retired = {}
    for aid in candidates:
        if aid.dom or aid.parked_denies or aid.speculative_affirmer is not None:
            continue
        key = aid.key
        if aid.status is not AidStatus.PENDING:
            # Settled: nothing can change it or depend on it again, and
            # its handles get its verdict — only a tag pin keeps it.
            aid.dom = SETTLED_DOM
            if aid.handles is not None and machine.on_settle is not None:
                verdict = VERDICTS[aid.status]
                for ref in aid.handles:
                    if (handle := ref()) is not None:
                        machine.on_settle(handle, verdict)
            aid.handles = None
            kept = key in pins
        else:
            # A pending one may yet be guessed through a live handle.
            kept = key in pins or aid.handles is not None
        if aids.get(key) is not aid:        # already retired
            continue
        if kept:
            deferred[key] = aid
        else:
            retired[key] = aid
            del aids[key]
            deferred.pop(key, None)
    for aid in retired.values():
        if aid.status is AidStatus.AFFIRMED:
            machine.stats["aids_retired_affirmed"] += 1
        elif aid.status is AidStatus.DENIED:
            machine.stats["aids_retired_denied"] += 1
        else:
            # An *orphaned* AID: created inside an interval that later
            # rolled back.  Its aid_init was truncated from the journal,
            # the re-execution minted a fresh serial, and no retained
            # interval, pin, or in-flight tag can name it — nobody can
            # ever resolve it, so it is garbage despite being PENDING.
            machine.stats["aids_retired_pending"] += 1
    out.aids_retired = len(retired)
    # A dict keeps the capacity of its largest size: a table the pass
    # leaves empty is rebuilt (a guesser far ahead of its judge had every
    # AID of the run in all three at once).
    if not aids:
        machine.aids = {}
    if not pins:
        machine.pins = {}
    if not deferred:
        machine._retire_deferred = {}

    # 3. Purge resolution-cache entries that mention a retired AID
    # (satellite: retirement must not leave pinned resolution results).
    if retired:
        retired_set = set(retired.values())
        retired_keys = retired.keys()
        out.resolve_entries_purged += _purge_cache(
            machine._resolve_cache, lambda tagset: not retired_set.isdisjoint(tagset)
        )
        out.resolve_entries_purged += _purge_cache(
            machine._resolve_key_cache, lambda keys: not retired_keys.isdisjoint(keys)
        )

    machine.stats["fossil_collections"] += 1
    machine.stats["fossil_records_visited"] += len(visited)
    machine.stats["fossil_aids_examined"] += len(candidates)
    machine.stats["fossil_history_dropped"] += out.history_dropped
    machine.stats["fossil_intervals_dropped"] += out.intervals_dropped
    machine.stats["fossil_aids_retired"] += out.aids_retired
    return out


def _purge_cache(cache: dict, hits) -> int:
    stale = [k for k in cache if hits(k)]
    for k in stale:
        del cache[k]
    return len(stale)
