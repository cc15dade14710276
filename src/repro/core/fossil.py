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
* **unreachable AIDs** — identifiers no longer referenced by any
  retained interval and not *pinned* by the caller (the runtime pins
  tags of in-flight and queued messages plus user-reachable handles).
  Resolved ones are committed by Theorem 6.1; *pending* ones are
  orphans minted inside rolled-back intervals that nothing can ever
  resolve.  A retired AID leaves ``Machine.aids``; by-object use
  (``guess`` on a held reference) still works, by-key lookup raises;
* **interned DepSets** — table entries unreachable from retained
  intervals, plus *all* the ``id()``-keyed operation memos (which are
  only sound while every operand is strongly held — see
  :meth:`~repro.core.depset.DepSetInterner.compact`);
* **stale resolution-cache entries** — memoized ``resolve_tags`` /
  ``resolve_tag_keys`` results whose key mentions a retired AID, so
  retirement never leaves a cache entry pinning a dead identifier.

A pass costs what changed since the last one, not what exists: it visits
only the records the machine queued (``Machine.changed``) and examines
only AIDs whose DOM is empty (see the comments in :func:`collect`).

The frontier mirrors Time Warp's GVT + fossil collection (compare
``repro.baselines.timewarp.gvt.GvtManager.fossil_collect``): GVT is the
min over unprocessed/in-flight timestamps; the HOPE frontier is the min
over unresolved speculation, with "pinned" tags playing the role of
in-transit messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .aid import AidStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .machine import Machine


class FossilStats:
    """Counters from one collection pass (all zero for a no-op pass)."""

    __slots__ = (
        "history_dropped",
        "intervals_dropped",
        "aids_retired",
        "depsets_dropped",
        "resolve_entries_purged",
    )

    def __init__(self) -> None:
        self.history_dropped = 0
        self.intervals_dropped = 0
        self.aids_retired = 0
        self.depsets_dropped = 0
        self.resolve_entries_purged = 0

    @property
    def reclaimed_anything(self) -> bool:
        return bool(
            self.history_dropped
            or self.intervals_dropped
            or self.aids_retired
            or self.depsets_dropped
            or self.resolve_entries_purged
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FossilStats hist={self.history_dropped} iv={self.intervals_dropped} "
            f"aids={self.aids_retired} depsets={self.depsets_dropped}>"
        )


def collect(machine: "Machine", pinned_keys: frozenset = frozenset()) -> FossilStats:
    """Run one fossil-collection pass over ``machine``.

    Must be called at a quiescent point — not from inside a machine
    primitive or event listener (the runtime defers collection to its
    effect-dispatch boundary for exactly this reason).

    ``pinned_keys`` are AID string keys that must stay resolvable by key
    (``Machine.aid(key)``) even though the machine itself no longer needs
    them — message tags still in flight, handles user code still holds.
    """
    out = FossilStats()

    # 1. History prefixes and dead intervals, per-process frontier — of
    # the records that changed since the last pass.  One nothing touched
    # and that kept no interval last time has nothing to drop and nothing
    # to contribute below: skipping it reclaims what a full sweep would.
    visited = list(machine.changed)
    machine.changed.clear()
    referenced: set = set()
    live_depsets = []
    for record in visited:
        record.changed = False
        dropped_hist, dropped_iv = record.fossilize_before(record.frontier_index())
        out.history_dropped += dropped_hist
        out.intervals_dropped += dropped_iv
        for iv in record.intervals:
            referenced.update(iv.ihd)
            referenced.update(iv.spec_affirms)
            live_depsets.append(iv.ido)
        if record.intervals:
            # Retained speculation must be seen again next pass (its IDO
            # sets keep interned DepSets alive) even if nothing touches it.
            record.mark_changed()

    # 2. Retire AIDs nothing retained can reach.  Only AIDs with an empty
    # DOM are examined: those the machine queued since the last pass join
    # those an earlier pass had to defer.  A live interval's IDO needs no
    # scan — by Lemma 5.1 it shows up as a non-empty X.DOM, which only
    # empties through a resolution or a rollback, and both queue the AID.
    aids = machine.aids
    deferred = machine._retire_deferred
    for aid in machine._retire_candidates:
        if not aid.dom:
            key = aid.key
            if aids.get(key) is aid:        # not already retired
                deferred[key] = aid
    machine._retire_candidates.clear()
    retired = {}
    for key in deferred.keys() - pinned_keys:     # one C-level set difference
        aid = deferred[key]
        if not (aid.dom or aid in referenced):
            retired[key] = aid
            del deferred[key]
            del aids[key]
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

    # 3. Compact the DepSet interner to what retained intervals reach.
    out.depsets_dropped = machine.depsets.compact(live_depsets)
    if retired and not out.depsets_dropped:
        # Retired AID ids may be recycled once the last reference dies;
        # the id()-keyed memos must not survive that even when the table
        # itself had nothing to drop.
        machine.depsets.clear_memos()

    # 4. Purge resolution-cache entries that mention a retired AID
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
    machine.stats["fossil_history_dropped"] += out.history_dropped
    machine.stats["fossil_intervals_dropped"] += out.intervals_dropped
    machine.stats["fossil_aids_retired"] += out.aids_retired
    machine.stats["fossil_depsets_dropped"] += out.depsets_dropped
    return out


def _purge_cache(cache: dict, hits) -> int:
    stale = [k for k in cache if hits(k)]
    for k in stale:
        del cache[k]
    return len(stale)
