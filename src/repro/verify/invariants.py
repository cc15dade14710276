"""Cross-layer invariants checked over whole HopeSystem runs.

The machine checks its own set algebra (:meth:`Machine.check_invariants`);
these checks relate the machine to the runtime's observables:

* **ledger monotonicity** — once an output is committed it is never
  withdrawn (the output-commit guarantee);
* **Theorem 5.2 at system level** — no definite interval ever appears in
  a rollback's discard set;
* **waste accounting** — wasted time implies at least one rollback;
* **quiescent resolution** — at quiescence, a pending AID may not retain
  dependents (someone would wait forever on it);
* **unsheared effect logs** — ``kinds`` and ``results`` have one length,
  ``envelopes`` holds a row per receive, ``pending`` is what the cursor
  leaves to re-feed, and a replay reads the row of the receive it is at;
* **settled DOMs** — only a resolved AID with no speculative affirmer and
  no parked deny shares ``SETTLED_DOM`` (the machine checks it is empty),
  and no handle holds one any more.
"""

from __future__ import annotations

from ..core import FinalizeEvent, MachineInvariantError, RollbackEvent
from ..core.aid import SETTLED_DOM
from ..runtime import HopeSystem
from ..runtime.replay import RECV_CODE


class InvariantViolation(AssertionError):
    """A system-level invariant failed."""


class LedgerMonitor:
    """Watches committed outputs throughout a run; they must only grow.

    Attach *before* running; call :meth:`assert_monotone` during or after.

    The streaming check is event-targeted, not a full sweep: only a
    :class:`FinalizeEvent` or :class:`RollbackEvent` can change whether
    an *existing* output record is committed, and both name the process
    whose intervals changed, so each event rechecks one ledger from its
    previously verified committed prefix (plus an O(1) boundary sentinel)
    instead of rebuilding every ledger — the naive sweep made monitored
    runs O(processes x history) *per machine event*.  ``scans`` counts
    committed values and output records examined; regression tests
    assert it stays linear in the event count.
    """

    def __init__(self, system: HopeSystem) -> None:
        self.system = system
        #: Verified committed prefix per process.  A retired process's
        #: ledger is final, so its list is dropped after one last full
        #: check: when a full check finds it retired, or in the sweep
        #: that runs whenever the table reaches ``_limit`` (twice its
        #: size after the last one).
        self._snapshots: dict[str, list] = {}
        self._limit = 8
        #: Output records examined by the streaming checks (the
        #: monitor-overhead observable; see tests/verify).
        self.scans = 0
        system.machine.subscribe(self._on_event)

    def _on_event(self, event) -> None:
        if isinstance(event, RollbackEvent):
            # The only event that removes records (the uncommitted
            # suffix) — verify the whole committed prefix survived.
            self._check(event.pid, full=True)
        elif isinstance(event, FinalizeEvent):
            # Extends the committed prefix of exactly this process.
            self._check(event.pid, full=False)
        # No other machine event changes committedness of existing
        # records; plain emits only append, which cannot shrink a ledger.

    def _check(self, name: str, full: bool) -> None:
        proc = self.system.procs.get(name)
        if proc is not None:
            committed, outputs = proc.committed, proc.outputs
        elif full and name in self._snapshots:      # retired since: a last check
            committed, outputs = self.system.committed_outputs(name), ()
        else:
            return  # retired and checked
        snapshot = self._snapshots.get(name)
        if snapshot is None:
            if len(self._snapshots) >= self._limit:
                for retired in [n for n in self._snapshots if n not in self.system.procs]:
                    self._check(retired, full=True)
                self._snapshots = dict(self._snapshots)     # (a dict keeps its largest size)
                self._limit = 2 * len(self._snapshots) + 8
            snapshot = self._snapshots[name] = []
        k, n = len(snapshot), len(committed)
        if full:
            ledger = self.system.committed_outputs(name)
            self.scans += n + len(outputs)
            if ledger[:k] != snapshot:
                raise InvariantViolation(
                    f"committed ledger of {name!r} shrank or mutated: "
                    f"{snapshot!r} -> {ledger!r}"
                )
            snapshot.extend(ledger[k:])
            if proc is None:
                del self._snapshots[name]
            return
        # Delta path: the boundary sentinel — a value behind the watermark
        # or a record above it — catches a vanished or mutated prefix tail
        # in O(1); then absorb newly committed values and records.
        if k > 0:
            self.scans += 1
            if k <= n:
                intact = committed[k - 1] == snapshot[-1]
            else:
                j = k - 1 - n
                intact = (j < len(outputs) and outputs[j].committed
                          and outputs[j].value == snapshot[-1])
            if not intact:
                raise InvariantViolation(
                    f"committed ledger of {name!r} shrank or mutated: "
                    f"{snapshot!r} -> {self.system.committed_outputs(name)!r}"
                )
        if k < n:
            self.scans += n - k
            snapshot.extend(committed[k:])
            k = n
        j = k - n
        while j < len(outputs) and outputs[j].committed:
            self.scans += 1
            snapshot.append(outputs[j].value)
            j += 1

    def sample(self) -> None:
        """Full sweep over every ledger (the post-run / on-demand check)."""
        for name in self.system.process_names():
            self._check(name, full=True)

    def assert_monotone(self) -> None:
        self.sample()


class DefiniteSafetyMonitor:
    """Theorem 5.2, observed: rollbacks never discard definite intervals."""

    def __init__(self, system: HopeSystem) -> None:
        self.rollbacks_seen = 0

        def watch(event) -> None:
            if isinstance(event, RollbackEvent):
                self.rollbacks_seen += 1
                for interval in event.discarded:
                    if interval.definite:
                        raise InvariantViolation(
                            f"rollback discarded definite interval {interval.label}"
                        )

        system.machine.subscribe(watch)


def check_quiescent(system: HopeSystem, allow_pending_orphans: bool = True) -> None:
    """Full post-run check: machine algebra plus system-level facts."""
    try:
        system.machine.check_invariants()
    except MachineInvariantError as exc:
        raise InvariantViolation(f"machine invariant broken: {exc}") from exc
    stats = system.stats()
    if stats["wasted_time"] > 0 and stats["rollbacks"] == 0:
        raise InvariantViolation(
            f"wasted time {stats['wasted_time']} with zero rollbacks"
        )
    if not allow_pending_orphans and stats["aids_pending"]:
        # (counted, not scanned: a pass retires an orphan with its last holder)
        raise InvariantViolation(f"{stats['aids_pending']} pending orphan AID(s)")
    for aid in system.machine.aids.values():
        if aid.pending and aid.dom:
            raise InvariantViolation(
                f"quiescent with pending AID {aid.key} that still has "
                f"{len(aid.dom)} dependent interval(s) — they wait forever"
            )
        if aid.dom is SETTLED_DOM and (
            aid.pending or aid.speculative_affirmer is not None or aid.parked_denies
        ):
            raise InvariantViolation(f"AID {aid.key} shares SETTLED_DOM but is not settled")
        if aid.dom is SETTLED_DOM and aid.handles is not None:
            raise InvariantViolation(f"settled AID {aid.key} is still held by its handles")
    for name, proc in system.procs.items():
        log = proc.log
        recvs = log.kinds.count(RECV_CODE)
        fed = log.kinds.count(RECV_CODE, 0, log.cursor - log.base)     # (before the cursor)
        if not (len(log.kinds) == len(log.results) == log.cursor + log.pending - log.base
                and len(log.envelopes) == 2 * recvs
                and (log.envelope_at == 2 * fed or not log.pending)):
            raise InvariantViolation(f"effect log of {name!r} sheared: {len(log.kinds)} kinds, "
                                     f"{len(log.results)} results, {len(log.envelopes)} envelope "
                                     f"slots for {recvs} receives, pending {log.pending} at "
                                     f"envelope slot {log.envelope_at} in {log!r}")


def attach_monitors(system: HopeSystem) -> tuple[LedgerMonitor, DefiniteSafetyMonitor]:
    """Convenience: attach both streaming monitors to a fresh system."""
    return (LedgerMonitor(system), DefiniteSafetyMonitor(system))
