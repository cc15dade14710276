"""The HOPE abstract machine — a direct transcription of §5's equations.

This module is the single source of truth for the semantics.  Both the
pure theorem-verification tests and the simulator-embedded runtime drive
this machine; the runtime sets its :attr:`~Machine.on_finalize` and
:attr:`~Machine.on_rollback` hooks to turn bookkeeping into real effects
(message release, task restarts, message retraction).

Equation cross-reference (paper §5 → code):

=====  =======================================================
Eq     Where
=====  =======================================================
1-6    :meth:`Machine.guess` / :meth:`Machine._make_interval`
7-9    :meth:`Machine._affirm_definite`
10-14  :meth:`Machine._affirm_speculative`
15     :meth:`Machine._deny_definite` / :meth:`Machine._deny_cascade`
16     :meth:`Machine._deny_speculative`
17-19  :meth:`Machine.free_of`
20-23  :meth:`Machine._finalize`
24     :meth:`Machine._rollback`
=====  =======================================================

Semantic decisions beyond the paper's letter (see DESIGN.md §3):

* **Resolution conflicts.**  The paper declares repeated/conflicting
  affirm/deny "a user error, and the meaning is undefined".  Rollback
  legitimately re-executes resolution statements, so a redundant
  same-direction resolution is a no-op and only a contradiction raises
  :class:`ResolutionConflictError`.
* **Speculative resolutions and rollback.**  A speculative deny dies in
  the interval's IHD (paper: "they die with the interval").  A
  speculative affirm that is rolled back is "equivalent to a deny"
  (footnote 2) for its *dependents* — which the IDO-merge at affirm time
  already arranges — and releases the AID back to PENDING so the
  re-executed program may resolve it afresh.
* **Guessing a resolved AID.**  ``guess(x)`` on a definitively affirmed
  AID returns True without creating an interval (the assumption is
  known); on a denied AID it returns False immediately (the rollback it
  would suffer is collapsed to an instant False).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Optional
from weakref import KeyedRef

from .aid import AidStatus, AssumptionId
from .errors import (
    FinalizePreconditionError,
    IntervalStateError,
    MachineInvariantError,
    ResolutionConflictError,
    UnknownAidError,
    UnknownProcessError,
)
from .events import (
    AffirmEvent,
    DenyEvent,
    FinalizeEvent,
    GuessEvent,
    GuessSkippedEvent,
    MachineEvent,
    RollbackEvent,
)
from .history import NO_INTERVALS, ProcessRecord
from .interval import Interval, IntervalState


#: Sort keys, read in C: AIDs and intervals by creation (serial), and the
#: order every sweep of X.DOM visits its intervals in (Eq 7, 11, 15, 22).
_BY_SERIAL = attrgetter("serial")
_DOM_ORDER = attrgetter("pid", "start_index", "serial")

_PENDING, _AFFIRMED, _DENIED = AidStatus.PENDING, AidStatus.AFFIRMED, AidStatus.DENIED
_SPECULATIVE = IntervalState.SPECULATIVE

#: The IDO of a definite process (no current interval), and the
#: resolution of an empty tag set: alive, no dependencies.  Shared so the
#: per-delivery fast path allocates nothing.
_NO_DEPS: frozenset = frozenset()
_LIVE_NO_DEPS: tuple[bool, frozenset] = (True, _NO_DEPS)


class Machine:
    """The abstract machine of §4, with the five primitives of §3.

    ``history=False`` keeps each process's index clock but
    not the Definition 4.1 entries — no primitive reads them back, so an
    embedding runtime that shows them to nobody need not retain them.
    Subscribed listeners receive a :class:`MachineEvent` for every guess,
    affirm, deny, finalize and rollback; with none subscribed no event is
    built.
    """

    def __init__(self, history: bool = True) -> None:
        self.history = history
        self.processes: dict[str, ProcessRecord] = {}
        #: Records ever created: the next one's ``order`` (spawn index).
        self._created = 0
        self._dropped = 0       # records dropped since the table was rebuilt
        self.aids: dict[str, AssumptionId] = {}
        # Per-machine serial counters keep runs with equal seeds fully
        # reproducible (global counters would leak across Machine
        # instances and change AID/interval labels between runs).
        self._aid_serials = 0
        self._interval_serials = 0
        self._listeners: list[Callable[[MachineEvent], None]] = []
        self.stats = {
            "guesses": 0,
            "implicit_guesses": 0,
            "affirms": 0,
            "denies": 0,
            "free_ofs": 0,
            "finalizes": 0,
            "rollbacks": 0,
            "intervals_discarded": 0,
            "resolve_cache_hits": 0,
            "resolve_cache_misses": 0,
            "fossil_collections": 0,
            "fossil_records_visited": 0,
            "fossil_aids_examined": 0,
            "fossil_history_dropped": 0,
            "fossil_intervals_dropped": 0,
            "fossil_aids_retired": 0,
            # Status tallies of retired AIDs, so aggregate counts stay
            # reportable after the AID objects are gone.
            "aids_retired_affirmed": 0,
            "aids_retired_denied": 0,
            "aids_retired_pending": 0,
        }
        #: Resolution epoch: bumped by every affirm, deny, finalize and
        #: rollback.  The resolve_tags caches are only valid within one
        #: epoch — any dependency-landscape change flushes them.
        self.resolution_epoch = 0
        self._resolve_cache: dict[frozenset, tuple[bool, frozenset]] = {}
        self._resolve_key_cache: dict[frozenset, tuple[bool, frozenset]] = {}
        #: What the next fossil pass has to look at, so that it costs what
        #: it can reclaim, not what exists: the records with an interval
        #: that finalized or rolled back (:meth:`ProcessRecord.mark_reclaimable`)
        #: and, first come first served, the ones that merely changed
        #: (:meth:`ProcessRecord.mark_changed`; see :meth:`take_queued`);
        #: the AIDs that may have become retirable — created, definitively
        #: resolved, orphaned by a rollback, or released by whatever kept
        #: them; and, by key, the ones a pass found retirable but pinned or
        #: (pending) held, which wait here until :meth:`unpin` drops their
        #: last pin or their last held handle dies.
        self.reclaimable: list[ProcessRecord] = []
        self.changed: list[ProcessRecord] = []
        self._retire_candidates: list[AssumptionId] = []
        self._retire_deferred: dict[str, AssumptionId] = {}
        #: AID key -> number of things outside the machine that may still
        #: look the key up (:meth:`pin`).
        self.pins: dict[str, int] = {}
        #: Pre-bound: every handle's weak reference shares this callback.
        self._on_handle_death = self._handle_died
        #: ``on_settle(handle, verdict)`` points a live handle held on an AID
        #: a pass settles at its shared verdict (None: handles stay as are).
        self.on_settle: Optional[Callable[[object, AssumptionId], None]] = None
        #: The embedding's hooks, called before any listener sees the
        #: event: ``on_finalize(interval)`` (Eq 20-23) and
        #: ``on_rollback(interval, discarded, cause)`` (Eq 24).
        self.on_finalize: Optional[Callable[[Interval], None]] = None
        self.on_rollback: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def create_process(self, name: str) -> ProcessRecord:
        """Register a process; idempotent."""
        record = self.processes.get(name)
        if record is None:
            record = ProcessRecord(
                name, self._created, self.changed, self.history,
                self.reclaimable,
            )
            self._created += 1
            self.processes[name] = record
            record.append("init")
        return record

    def drop_process(self, name: str) -> None:
        """Forget the record of ``name``, whose process will never run
        again.  A dict keeps the slots of deleted keys: the table is
        rebuilt once more of them are dead than live."""
        del self.processes[name]
        self._dropped += 1
        if self._dropped > len(self.processes):
            self._dropped, self.processes = 0, dict(self.processes)

    def process(self, name: str) -> ProcessRecord:
        record = self.processes.get(name)
        if record is None:
            raise UnknownProcessError(f"unknown process {name!r}")
        return record

    def aid_init(self, name: str) -> AssumptionId:
        """Create a fresh assumption identifier (the paper's aid_init)."""
        self._aid_serials += 1
        aid = AssumptionId(name, serial=self._aid_serials)
        self.aids[aid.key] = aid
        self._retire_candidates.append(aid)
        return aid

    def aid(self, key: str) -> AssumptionId:
        aid = self.aids.get(key)
        if aid is None:
            serial = key.rpartition("#")[2]
            if serial.isdigit() and 0 < int(serial) <= self._aid_serials:
                raise UnknownAidError(
                    f"assumption identifier {key!r} was retired by collection — "
                    "it settled, or its last handle, tag and interval are "
                    "gone; hold the `AidHandle`, not `aid.key`"
                )
            raise UnknownAidError(f"unknown assumption identifier {key!r}")
        return aid

    def hold(self, aid: AssumptionId, handle: object) -> None:
        """Keep *pending* ``aid`` from retiring while the object ``handle``
        lives: a later ``guess`` through it may make the AID a message
        tag, and tags resolve by key.  Holds count per object (two copies
        of one handle are two holds), die with the object, and all go
        when a pass finds the AID settled — the pass hands each live
        handle to :attr:`on_settle`, so none of them keeps it."""
        ref = KeyedRef(handle, self._on_handle_death, aid)
        if aid.handles is None:
            aid.handles = [ref]
        else:
            aid.handles.append(ref)

    def _handle_died(self, ref: KeyedRef) -> None:
        aid = ref.key
        refs = aid.handles
        refs.remove(ref)
        if not refs:
            aid.handles = None
            deferred = self._retire_deferred.pop(aid.key, None)
            if deferred is not None:
                self._retire_candidates.append(deferred)

    def pin(self, keys: Iterable[str]) -> None:
        """Keep the AIDs named by ``keys`` resolvable by :meth:`aid` even
        once the machine itself is done with them.  An embedding runtime
        pins the tags of a message not yet consumed — what can still name
        an AID by key — and calls :meth:`unpin` when that holder is gone.
        Pins count: each call needs its own unpin."""
        pins = self.pins
        for key in keys:
            pins[key] = pins.get(key, 0) + 1

    def unpin(self, keys: Iterable[str]) -> None:
        """Undo one :meth:`pin` of each key.  An AID a fossil pass kept
        only for its pins is examined again at the next pass once the last
        one goes — the release is the event, no pass rescans the table."""
        pins = self.pins
        for key in keys:
            count = pins[key] - 1
            if count:
                pins[key] = count
            else:
                del pins[key]
                aid = self._retire_deferred.pop(key, None)
                if aid is not None:
                    self._retire_candidates.append(aid)

    def adopt_aid(self, key: str) -> AssumptionId:
        """Fetch ``key``, recreating the AID if this machine has none.

        Durable resume calls it for every key the recovered image names:
        a recreated AID starts pending (the caller applies the recorded
        verdict), and its serial is parsed back out of the key so
        ``repr`` and ordering match the original's.  A known key returns
        the existing object — adopting is idempotent and never shadows a
        minted AID.
        """
        aid = self.aids.get(key)
        if aid is None:
            name, sep, serial = key.rpartition("#")
            if not sep or not serial.isdigit():
                raise UnknownAidError(f"malformed assumption identifier {key!r}")
            aid = AssumptionId(name, serial=int(serial))
            self.aids[key] = aid
            self._retire_candidates.append(aid)
        return aid

    def subscribe(self, listener: Callable[[MachineEvent], None]) -> None:
        self._listeners.append(listener)

    def _bump_resolution_epoch(self) -> None:
        """Invalidate the tag-resolution caches.

        Called by every state change that can alter what a tag means at
        delivery time: affirms (both modes — a speculative affirm changes
        the affirmer graph), denies, finalizes (parked denies become
        definite, speculative affirms become unrevocable) and rollbacks
        (a dead affirmer releases its AID).  Guesses do not bump: a
        pending, unaffirmed tag resolves to itself regardless of how many
        intervals depend on it.
        """
        self.resolution_epoch += 1
        if self._resolve_cache:
            self._resolve_cache = {}
        if self._resolve_key_cache:
            self._resolve_key_cache = {}

    def _emit(self, event: MachineEvent) -> None:
        """Hand ``event`` to every listener.  Call sites test
        ``self._listeners`` first, so that no event is built for nobody."""
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # ordinary computation
    # ------------------------------------------------------------------
    def step(self, pid: str, label: str, **detail) -> None:
        """Record an ordinary (non-HOPE) event in the process history."""
        record = self.process(pid)
        record.append("event", label=label, **detail)

    # ------------------------------------------------------------------
    # guess — Eq 1-6
    # ------------------------------------------------------------------
    def guess(self, pid: str, aid: AssumptionId, ps: object = None) -> bool:
        """Execute guess(X) in process ``pid``; returns the G value.

        ``ps`` is the checkpoint payload stored in A.PS (Eq 1) — the pure
        machine stores the history index if None is given; the runtime
        passes its replay checkpoint.
        """
        record = self.process(pid)
        self.stats["guesses"] += 1
        if aid.status is not _PENDING:
            value = record.g = aid.status is _AFFIRMED
            record.append("guess_skip", aid=aid.key, value=value)
            if self._listeners:
                self._emit(GuessSkippedEvent(pid, aid, value))
            return value
        self._make_interval(record, [aid], head_aid=aid, ps=ps)
        return True

    def guess_many(
        self,
        pid: str,
        aids: Iterable[AssumptionId],
        ps: object = None,
    ) -> Optional[Interval]:
        """Implicit guesses from a tagged receive (§3: the receiver
        "implicitly applies a guess primitive to each of the AIDs in the
        message's tag").

        All tag AIDs not already among the receiver's dependencies are
        folded into a single new interval whose checkpoint sits just
        before the receive — the per-interval rollback granularity of
        Def 4.4.  Returns the interval, or None when the tags add no new
        dependencies (no checkpoint is needed then).

        Callers must filter out denied AIDs first (a message tagged with a
        denied AID is from a dead speculative world and must be dropped,
        which is the runtime's job).
        """
        record = self.process(pid)
        held = record.current.ido if record.current is not None else _NO_DEPS
        fresh = [a for a in aids if a.status is _PENDING and a not in held]
        if not fresh:
            return None
        self.stats["implicit_guesses"] += len(fresh)
        return self._make_interval(record, fresh, head_aid=None, ps=ps)

    def _make_interval(
        self,
        record: ProcessRecord,
        new_aids: list[AssumptionId],
        head_aid: Optional[AssumptionId],
        ps: object,
    ) -> Interval:
        start_index = record._next_index
        if ps is None:
            ps = start_index
        self._interval_serials += 1
        interval = Interval(
            pid=record.name,
            ps=ps,                      # Eq 1 (A.PS) and Eq 2 (A.PID)
            start_index=start_index,
            aid=head_aid,
            parent=record.current,
            serial=self._interval_serials,
        )
        inherited = record.current.ido if record.current is not None else _NO_DEPS
        interval.ido = inherited.union(new_aids)        # Eq 3
        # Eq 4, generalized to every member of A.IDO: Lemma 5.1 demands
        # X ∈ A.IDO ⟺ A ∈ X.DOM, and Theorem 5.1's proof relies on
        # inherited dependencies being in DOM (the definite deny of an
        # inherited X must reach this interval through X.DOM).
        for aid in interval.ido:
            aid.dom.add(interval)
        if record.intervals:
            record.intervals.append(interval)
        else:
            record.intervals = [interval]
        record.current = interval                       # Eq 5: S.I ← A
        if record.speculative is NO_INTERVALS:          # Eq 5: S.IS ∪ {A}
            record.speculative = {interval}
        else:
            record.speculative.add(interval)
        record.g = True                                 # Eq 5: S.G ← True
        if record.keeps_history:
            record.append(                              # Eq 6: HP ← HP · S
                "guess",
                aid=head_aid.key if head_aid is not None else None,
                tags=tuple(sorted(a.key for a in new_aids)),
            )
        else:
            record.tick()
        if self._listeners:
            self._emit(GuessEvent(record.name, interval))
        return interval

    # ------------------------------------------------------------------
    # affirm — Eq 7-14
    # ------------------------------------------------------------------
    def affirm(self, pid: str, aid: AssumptionId, via: str = "affirm") -> None:
        """Execute affirm(X) in process ``pid``."""
        record = self.process(pid)
        self.stats["affirms"] += 1
        if not self._check_resolution(aid, wanted=AidStatus.AFFIRMED, pid=pid, via=via):
            record.append("affirm_noop", aid=aid.key, via=via)
            return
        self._bump_resolution_epoch()
        current = record.current
        if current is None:
            self._affirm_definite(record, aid, via)
        else:
            self._affirm_speculative(record, current, aid, via)

    def _affirm_definite(self, record: ProcessRecord, aid: AssumptionId, via: str) -> None:
        """Definite affirm: Eq 7-9.  Cannot be undone."""
        aid.status = AidStatus.AFFIRMED
        aid.resolved_by = record.name
        record.append("affirm", aid=aid.key, mode="definite", via=via)
        self._shed_affirmed(aid)
        if self._listeners:
            self._emit(AffirmEvent(record.name, aid, definite=True))

    def _shed_affirmed(self, aid: AssumptionId) -> None:
        """The Eq 7-9 set operations: release every dependent of an
        affirmed AID, finalizing those whose IDO empties.

        Each dependent is rewritten from its IDO at its turn: a finalize
        earlier in the sweep may run a nested Eq 7-9 (Lemma 6.1) or an
        Eq 22 cascade that rewrites or rolls back a later one."""
        processes, dom, shed = self.processes, aid.dom, (aid,)
        for dependent in sorted(dom, key=_DOM_ORDER):           # Eq 7: ∀B ∈ X.DOM
            if dependent.state is not _SPECULATIVE:
                continue
            ido = dependent.ido = dependent.ido.difference(shed)  # Eq 8
            dom.discard(dependent)                              # Eq 9
            record = processes[dependent.pid]
            if record.keeps_history:
                record.append("ido_update", aid=aid.key, interval=dependent.label)
            else:
                record.tick()
            if not ido:                                         # Eq 9: finalize
                self._finalize(dependent)
        dom.clear()
        self._retire_candidates.append(aid)

    def _affirm_speculative(
        self,
        record: ProcessRecord,
        current: Interval,
        aid: AssumptionId,
        via: str,
    ) -> None:
        """Speculative affirm: Eq 10-14.  May later be undone by rollback."""
        aid.speculative_affirmer = current
        if current.spec_affirms:
            current.spec_affirms.append(aid)
        else:
            current.spec_affirms = [aid]
        record.append("affirm", aid=aid.key, mode="speculative", via=via)
        # current.ido is an immutable frozenset, so it doubles as the
        # loop snapshot (a dependent's Eq 12 rewrite cannot alias it).
        affirmer_ido, shed = current.ido, (aid,)
        upstreams = sorted(affirmer_ido, key=_BY_SERIAL)
        for dependent in sorted(aid.dom, key=_DOM_ORDER):        # Eq 11: ∀B ∈ X.DOM
            if dependent.state is not _SPECULATIVE:
                continue
            for upstream in upstreams:
                upstream.dom.add(dependent)                      # Eq 10
            dependent.ido = (dependent.ido | affirmer_ido).difference(shed)  # Eq 12
            aid.dom.discard(dependent)                           # Eq 14
            owner = self.processes[dependent.pid]
            if owner.keeps_history:
                owner.append("ido_update", aid=aid.key, interval=dependent.label)
            else:
                owner.tick()
            if not dependent.ido:                                # Eq 13
                self._finalize(dependent)
        aid.dom.clear()
        if self._listeners:
            self._emit(AffirmEvent(record.name, aid, definite=False))

    # ------------------------------------------------------------------
    # deny — Eq 15-16
    # ------------------------------------------------------------------
    def deny(self, pid: str, aid: AssumptionId, via: str = "deny") -> None:
        """Execute deny(X) in process ``pid``."""
        record = self.process(pid)
        self.stats["denies"] += 1
        if not self._check_resolution(aid, wanted=AidStatus.DENIED, pid=pid, via=via):
            record.append("deny_noop", aid=aid.key, via=via)
            return
        self._bump_resolution_epoch()
        current = record.current
        definite = current is None or aid in current.ido         # Eq 15 guard
        if definite:
            self._deny_definite(record, aid, via)
        else:
            self._deny_speculative(record, current, aid, via)

    def _deny_definite(self, record: ProcessRecord, aid: AssumptionId, via: str) -> None:
        """Definite deny: Eq 15.  Rolls back every dependent of X.

        Note the Eq 15 guard includes X ∈ A.IDO: a process denying an
        assumption it itself depends on makes the deny definite — the
        denier is about to roll itself back, but the denial survives.
        """
        aid.status = AidStatus.DENIED
        aid.resolved_by = record.name
        record.append("deny", aid=aid.key, mode="definite", via=via)
        if self._listeners:
            self._emit(DenyEvent(record.name, aid, definite=True))
        self._deny_cascade(aid)

    def _deny_speculative(
        self,
        record: ProcessRecord,
        current: Interval,
        aid: AssumptionId,
        via: str,
    ) -> None:
        """Speculative deny: Eq 16.  Parked in A.IHD until finalize."""
        if aid not in current.ihd:
            if current.ihd:
                current.ihd.add(aid)
            else:
                current.ihd = {aid}
            aid.parked_denies += 1
        record.append("deny", aid=aid.key, mode="speculative", via=via)
        if self._listeners:
            self._emit(DenyEvent(record.name, aid, definite=False))

    def _deny_cascade(self, aid: AssumptionId) -> None:
        """Roll back all of X.DOM (the ∀B ∈ X.DOM of Eq 15 and Eq 22)."""
        for dependent in sorted(aid.dom, key=_DOM_ORDER):
            if dependent.state is _SPECULATIVE:
                self._rollback(dependent, cause=aid)
        aid.dom.clear()
        self._retire_candidates.append(aid)

    # ------------------------------------------------------------------
    # free_of — Eq 17-19
    # ------------------------------------------------------------------
    def free_of(self, pid: str, aid: AssumptionId) -> None:
        """Execute free_of(X): assert the caller is causally free of X.

        Eq 17-19: definite state ⇒ definite affirm; speculative but not
        dependent on X ⇒ speculative affirm; dependent on X ⇒ deny (which
        is definite by the Eq 15 guard, so the violator rolls back —
        Theorem 6.3).
        """
        record = self.process(pid)
        self.stats["free_ofs"] += 1
        current = record.current
        if aid.affirmed or aid.denied:
            # A resolved AID: the constraint is trivially decided.  The
            # interesting case is the re-execution after a free_of-induced
            # self-rollback (Figure 2's WorryWart): X is already denied and
            # the re-executed free_of must be a harmless no-op.
            if current is not None and aid in current.ido:
                raise MachineInvariantError(
                    f"{pid!r} depends on resolved AID {aid.key} — "
                    "a resolved AID must have an empty DOM"
                )
            record.append("free_of_noop", aid=aid.key)
            return
        record.append("free_of", aid=aid.key)
        if current is None:
            self.affirm(pid, aid, via="free_of")                 # Eq 17
        elif aid not in current.ido:
            self.affirm(pid, aid, via="free_of")                 # Eq 18
        else:
            self.deny(pid, aid, via="free_of")                   # Eq 19

    # ------------------------------------------------------------------
    # finalize — Eq 20-23
    # ------------------------------------------------------------------
    def _finalize(self, interval: Interval) -> None:
        """Make ``interval`` definite.  Internal: not a user primitive (§5.2)."""
        if interval.ido:                                         # Eq 20
            raise FinalizePreconditionError(
                f"finalize({interval.label}) with non-empty IDO "
                f"{sorted(a.key for a in interval.ido)}"
            )
        if interval.state is not _SPECULATIVE:
            return
        self.stats["finalizes"] += 1
        self._bump_resolution_epoch()
        interval.state = IntervalState.DEFINITE
        record = self.processes[interval.pid]
        record.speculative.discard(interval)                     # Eq 21
        record.mark_reclaimable()
        if record.keeps_history:
            record.append("finalize", interval=interval.label)
        else:
            record.tick()
        if record.current is interval and record.speculative:
            raise MachineInvariantError(
                f"current interval {interval.label} finalized while older "
                f"speculative intervals remain — violates the Theorem 5.1 "
                f"IDO-subset chain"
            )
        if self.on_finalize is not None:
            self.on_finalize(interval)
        if self._listeners:
            self._emit(FinalizeEvent(record.name, interval))
        # Lemma 6.1: a speculative affirm whose asserting interval is made
        # definite has the same effect as a definite affirm — record the
        # now-unrevocable status and release any dependents the AID
        # accumulated after the speculative affirm (e.g. later guesses).
        for affirmed in interval.spec_affirms:
            # The affirm is definite from here on; an AID that outlives
            # this interval must not keep it (and what it holds) reachable.
            if affirmed.speculative_affirmer is interval:
                affirmed.speculative_affirmer = None
            if affirmed.pending:
                affirmed.status = AidStatus.AFFIRMED
                affirmed.resolved_by = interval.pid
                if self._listeners:
                    self._emit(AffirmEvent(interval.pid, affirmed, definite=True))
                self._shed_affirmed(affirmed)
        for parked in sorted(interval.ihd, key=_BY_SERIAL):      # Eq 22
            parked.parked_denies -= 1
            self._retire_candidates.append(parked)
            if parked.denied:
                continue
            if parked.affirmed:
                # A definite affirm landed while this deny was parked.
                # The paper calls conflicting resolutions a user error with
                # undefined meaning; we resolve the race deterministically:
                # the earlier definite affirm wins and the parked deny dies.
                continue
            parked.status = AidStatus.DENIED
            parked.resolved_by = interval.pid
            if self._listeners:
                self._emit(DenyEvent(interval.pid, parked, definite=True))
            self._deny_cascade(parked)
        if not record.speculative:                               # Eq 23
            record.current = None
            record.append("definite")

    # ------------------------------------------------------------------
    # rollback — Eq 24
    # ------------------------------------------------------------------
    def _rollback(self, interval: Interval, cause: Optional[AssumptionId] = None) -> None:
        """Roll back ``interval``: truncate history, discard descendants.

        Internal: only reachable through a definite deny (Eq 15/22).
        """
        if interval.definite:
            raise IntervalStateError(
                f"rollback of definite interval {interval.label} — "
                "impossible by Theorem 5.2"
            )
        if interval.rolled_back:
            return
        self._bump_resolution_epoch()
        record = self.processes[interval.pid]
        # S.IS holds exactly the live speculative intervals, so the dead
        # suffix is found without walking every interval ever created;
        # serials restore creation order.
        start_index = interval.start_index
        discarded = sorted(
            (iv for iv in record.speculative if iv.start_index >= start_index),
            key=_BY_SERIAL,
        )
        for dead in discarded:
            self._discard_interval(record, dead)
        self.stats["rollbacks"] += 1
        self.stats["intervals_discarded"] += len(discarded)
        record.truncate_from(start_index)                        # Eq 24: Del(HP, A)
        # Resume into the newest interval that survives the truncation.
        # This is usually interval.parent, but the parent may have been
        # finalized in the meantime — a finalized prefix stays definite
        # (Theorem 5.2), so the process resumes with I = ∅ in that case.
        record.current = max(record.speculative, key=_BY_SERIAL, default=None)
        record.g = False                                         # Eq 24: S.G ← False
        record.rollback_count += 1
        if record.keeps_history:
            record.append(
                "resume",
                from_interval=interval.label,
                aid=interval.aid.key if interval.aid is not None else None,
                cause=cause.key if cause is not None else None,
            )
        else:
            record.tick()
        if self.on_rollback is not None:
            self.on_rollback(interval, discarded, cause)
        if self._listeners:
            self._emit(RollbackEvent(record.name, interval, tuple(discarded), cause))

    def _discard_interval(self, record: ProcessRecord, dead: Interval) -> None:
        """Kill one speculative interval (rollback or crash): unlink it
        from S.IS and every DOM, and release what it speculatively affirmed."""
        dead.state = IntervalState.ROLLED_BACK
        record.speculative.discard(dead)
        record.mark_reclaimable()
        candidates = self._retire_candidates
        for dep_aid in dead.ido:
            dep_aid.dom.discard(dead)
            if not dep_aid.dom:
                candidates.append(dep_aid)
        for affirmed in dead.spec_affirms:
            # Footnote 2: the rollback of a speculative affirm acts as
            # a deny for X's former dependents (already arranged by the
            # Eq 12 IDO merge); X itself returns to PENDING so the
            # re-execution may resolve it again.
            if affirmed.speculative_affirmer is dead:
                affirmed.speculative_affirmer = None
        candidates.extend(dead.spec_affirms)
        dead.spec_affirms = ()
        for parked in dead.ihd:             # parked denies die with the interval
            parked.parked_denies -= 1
        candidates.extend(dead.ihd)

    # ------------------------------------------------------------------
    # resolution-conflict policy
    # ------------------------------------------------------------------
    def _check_resolution(
        self,
        aid: AssumptionId,
        wanted: AidStatus,
        pid: str,
        via: str,
    ) -> bool:
        """Gate a resolution attempt.  Returns True when it should proceed.

        A redundant same-direction resolution returns False (no-op); a
        contradiction raises.  A second affirm while a live speculative
        affirm is pending is a user error (two distinct intervals claiming
        the same assumption).
        """
        if aid.status is not AidStatus.PENDING:
            by = "" if aid.resolved_by is None else f" by {aid.resolved_by!r}"
            if aid.status is wanted:
                return False
            raise ResolutionConflictError(
                f"{via}({aid.key}) by {pid!r} conflicts with earlier "
                f"{aid.status.value}{by}"
            )
        affirmer = aid.speculative_affirmer
        if affirmer is not None and affirmer.speculative:
            raise ResolutionConflictError(
                f"{via}({aid.key}) by {pid!r}: AID already speculatively "
                f"affirmed by live interval {affirmer.label}"
            )
        return True

    # ------------------------------------------------------------------
    # invariants (used by tests and the model checker)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`MachineInvariantError` on any broken invariant.

        Checked facts:

        * Lemma 5.1 symmetry: X ∈ A.IDO ⟺ A ∈ X.DOM, over live intervals
          and pending AIDs;
        * S.IS consistency: a process's speculative set is exactly its
          live speculative intervals, and S.I is its newest member;
        * the Theorem 5.1 subset chain: consecutive live intervals of one
          process satisfy earlier.IDO ⊆ later.IDO;
        * resolved AIDs have empty DOM;
        * definite intervals have empty IDO (Eq 20).
        """
        for aid in self.aids.values():
            if not aid.pending and aid.dom:
                raise MachineInvariantError(
                    f"resolved AID {aid.key} has non-empty DOM"
                )
            for member in aid.dom:
                if not member.speculative:
                    raise MachineInvariantError(
                        f"{aid.key}.DOM contains non-speculative {member.label}"
                    )
                if aid not in member.ido:
                    raise MachineInvariantError(
                        f"Lemma 5.1 broken: {member.label} ∈ {aid.key}.DOM "
                        f"but {aid.key} ∉ IDO"
                    )
        for record in self.processes.values():
            live = [iv for iv in record.intervals if iv.speculative]
            if set(live) != record.speculative:
                raise MachineInvariantError(
                    f"{record.name!r}: IS does not match live intervals"
                )
            if record.current is None:
                if record.speculative:
                    raise MachineInvariantError(
                        f"{record.name!r}: I = ∅ but IS non-empty"
                    )
            else:
                if record.current is not (live[-1] if live else None):
                    raise MachineInvariantError(
                        f"{record.name!r}: I is not the newest live interval"
                    )
            for earlier, later in zip(live, live[1:]):
                if not earlier.ido <= later.ido:
                    raise MachineInvariantError(
                        f"Theorem 5.1 subset chain broken in {record.name!r}: "
                        f"{earlier.label}.IDO ⊄ {later.label}.IDO"
                    )
            for interval in record.intervals:
                if interval.definite and interval.ido:
                    raise MachineInvariantError(
                        f"definite interval {interval.label} has non-empty IDO"
                    )
                if interval.speculative:
                    for aid in interval.ido:
                        if interval not in aid.dom:
                            raise MachineInvariantError(
                                f"Lemma 5.1 broken: {aid.key} ∈ "
                                f"{interval.label}.IDO but interval ∉ DOM"
                            )

    # ------------------------------------------------------------------
    # fossil collection (commit frontier)
    # ------------------------------------------------------------------
    def take_queued(self, limit: Optional[int] = None) -> list[ProcessRecord]:
        """Dequeue the records the next fossil pass visits.

        Every record with something to reclaim comes first and always
        (an interval of it finalized or rolled back since its last visit,
        so the visit is paid for).  Up to ``limit`` of the records that
        merely changed follow (``None``: all of them), oldest change
        first; the rest keep their place in the queue, so a system of
        many processes that each did a little does not make every pass
        walk all of them.  The queue holds a record once, so with a
        positive ``limit`` every queued record is reached within
        ``len(changed) / limit`` passes, however many are reclaimable.
        """
        batch = list(self.reclaimable)
        self.reclaimable.clear()
        for record in batch:
            record.reclaimable = False
            if record.changed:
                record.changed = None           # its place in the queue is stale
        queue = self.changed
        room = len(queue) if limit is None else limit
        scanned = 0
        for record in queue:
            if room <= 0:
                break
            scanned += 1
            if record.changed:                  # not a stale place
                batch.append(record)
                room -= 1
            record.changed = False
        del queue[:scanned]
        return batch

    def fossil_collect(self, records: Optional[list] = None):
        """Reclaim committed state behind each process's commit frontier.

        See :mod:`repro.core.fossil` for what is reclaimed and why it is
        sound (Theorem 6.1).  ``records`` is the batch an embedding
        runtime took with :meth:`take_queued` (and has settled its own
        tables for); by default every queued record is visited.  AIDs
        whose keys are pinned (:meth:`pin`) stay resolvable by
        :meth:`aid`.  Must be called between primitives, never from an
        event listener.  Returns :class:`repro.core.fossil.FossilStats`.
        """
        from .fossil import collect

        return collect(self, self.take_queued() if records is None else records)

    # ------------------------------------------------------------------
    # crash support (optimistic recovery)
    # ------------------------------------------------------------------
    def forget_process(self, pid: str) -> list[Interval]:
        """Discard a crashed process's speculative machine state.

        A crash destroys the incarnation that could have been rolled back,
        so its live intervals are marked rolled-back and unlinked from DOM
        sets — but *without* the resume bookkeeping of Eq 24: there is no
        incarnation to resume, and messages the process sent speculatively
        are NOT retracted; their fate rides on their AID tags, which is
        precisely the optimistic-recovery assumption of [24].  Speculative
        affirms by the crashed process release their AIDs to PENDING (the
        recovery procedure re-resolves them); parked IHD denies die.

        Returns the discarded intervals (the runtime uses them to mark
        outputs uncommitted).
        """
        record = self.process(pid)
        self._bump_resolution_epoch()
        discarded = [iv for iv in record.intervals if iv.speculative]
        for dead in discarded:
            self._discard_interval(record, dead)
        record.current = None
        record.g = None
        record.truncate_from(0)
        record.append("crash", discarded=len(discarded))
        return discarded

    # ------------------------------------------------------------------
    # tag resolution (for message delivery)
    # ------------------------------------------------------------------
    def resolve_tags(
        self, tags: Iterable[AssumptionId]
    ) -> tuple[bool, frozenset[AssumptionId]]:
        """Map a message's AID tags to the dependencies they mean *now*.

        Tags are attached at send time but interpreted at delivery time,
        by which point the assumption landscape may have shifted:

        * an **affirmed** tag imposes no dependency (the assumption held);
        * a **denied** tag marks the message as coming from a discarded
          speculative world — the message is dead and must be dropped
          (returns ``(False, ∅)``);
        * a **speculatively affirmed** tag is replaced by the affirming
          interval's own current dependencies (recursively) — this is the
          delivery-side mirror of the Eq 12 IDO merge, and what makes
          Theorem 6.3 hold across in-flight messages;
        * an untouched **pending** tag stands for itself.

        Results are memoized per distinct tag set; the cache lives for
        one resolution epoch (any affirm/deny/finalize/rollback flushes
        it), so repeated deliveries between dependency changes — the
        common case in a message-heavy workload — skip the graph walk.
        """
        tagset = frozenset(tags)
        cached = self._resolve_cache.get(tagset)
        if cached is not None:
            self.stats["resolve_cache_hits"] += 1
            return cached
        self.stats["resolve_cache_misses"] += 1
        deps: set[AssumptionId] = set()
        stack = list(tagset)
        seen: set[AssumptionId] = set()
        result: tuple[bool, frozenset[AssumptionId]] = (True, frozenset())
        while stack:
            aid = stack.pop()
            if aid in seen:
                continue
            seen.add(aid)
            status = aid.status
            if status is _DENIED:
                result = (False, frozenset())
                break
            if status is _AFFIRMED:
                continue
            affirmer = aid.speculative_affirmer
            if affirmer is not None and affirmer.state is _SPECULATIVE:
                stack.extend(affirmer.ido)
            else:
                deps.add(aid)
        else:
            result = (True, frozenset(deps))
        self._resolve_cache[tagset] = result
        return result

    def resolve_tag_keys(
        self, tag_keys: frozenset
    ) -> tuple[bool, frozenset[AssumptionId]]:
        """:meth:`resolve_tags`, keyed directly on a message's string-key
        tag set.  The delivery hot path hits this cache without even
        looking the AIDs up; it shares the epoch rule with
        :meth:`resolve_tags`."""
        if not tag_keys:
            # Untagged messages never consult the resolution graph at all;
            # skip the cache (and its hit counters) entirely.
            return _LIVE_NO_DEPS
        cached = self._resolve_key_cache.get(tag_keys)
        if cached is not None:
            self.stats["resolve_cache_hits"] += 1
            return cached
        tags = frozenset(map(self.aids.get, tag_keys))
        if None in tags:
            for key in tag_keys:
                self.aid(key)       # raises for the key that is not there
        result = self.resolve_tags(tags)
        self._resolve_key_cache[tag_keys] = result
        return result
