"""Directed scheduling: the one seam for every nondeterminism a run has.

The simulator's ``controller`` hook (see
:class:`repro.sim.kernel.Simulator`) is *externally directed choice*: at
every pop the batch of live events sharing the earliest virtual time is
handed to the controller, which picks the one that fires; and a
:class:`~repro.sim.faults.FaultyNetwork` on that simulator asks the same
controller every fault fate (:class:`~repro.sim.faults.FateSource`).
This module provides

* :class:`ScheduleController` — the protocol (a leftmost-choice base
  class that samples fault fates from the seeded stream, like a run
  without a controller);
* :class:`RandomTies` — seeded shuffling of same-time events;
* :class:`RecordingController` — replays a prescribed choice prefix,
  falls back to canonical defaults beyond it, and records every step
  (batch composition, chosen index, and the *footprint* of resources the
  chosen event's execution touched, extracted from the trace stream) —
  everything the DFS driver in :mod:`repro.verify.dpor` needs to compute
  happens-before backtracking points and sleep sets.  It turns message
  drop and reorder fates into explicit binary choice points, so fault
  fates are explored exhaustively instead of sampled.

Event identity across executions: a batch member is keyed by
``(label, seq)``.  Sequence numbers are a deterministic function of the
executed prefix, so two executions sharing a choice prefix assign
identical keys to the events enabled at the divergence point — which is
what lets backtrack sets and sleep sets refer to events of sibling
executions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim import RandomStream, Tracer
from ..sim.faults import FateSource
from ..sim.kernel import ScheduledEvent, SimulationError


class ScheduleController(FateSource):
    """Protocol for the simulator's directed-choice seam.

    ``choose(time, events)`` is called at every pop with the canonical
    ``(time, seq)``-ordered batch of live events at the earliest virtual
    time and returns the index of the event to fire.  Singleton batches
    are consulted too (the choice is forced, but exploration drivers
    still need the step in their records).

    ``fate`` / ``lateness`` (inherited from
    :class:`~repro.sim.faults.FateSource`) decide the fault layer's
    fates; this base samples them from the seeded stream, exactly as a
    run without a controller does.
    """

    def choose(self, time: float, events: Sequence[ScheduledEvent]) -> int:
        return 0


class RandomTies(ScheduleController):
    """Seeded shuffling: each same-time batch fires a uniformly drawn
    member, drawn from the stream ``"schedule-ties"`` of ``seed`` (a
    batch of one draws nothing).  Genuinely concurrent events may fire
    in any order; the randomized explorer sweeps seeds over them."""

    def __init__(self, seed: int) -> None:
        self.stream = RandomStream(seed, "schedule-ties")

    def choose(self, time: float, events: Sequence[ScheduledEvent]) -> int:
        size = len(events)
        return 0 if size == 1 else self.stream.randint(0, size - 1)


class ReplayDivergence(SimulationError):
    """A prescribed choice prefix stopped matching the execution.

    Replaying a choice sequence over a deterministic program must
    reproduce the same batches; this firing means either the program is
    nondeterministic (a genuine bug) or the prescription came from a
    different scenario/seed.
    """


class StepRecord:
    """One executed choice point: what was enabled and what was picked.

    ``kind`` is ``"tie"`` for simulator batches, ``"fate"`` for fault
    decisions.  ``keys`` are the stable identities of the alternatives
    (``(label, seq)`` tuples for ties; a synthetic string for fates).
    ``footprint`` is the set of resources (process names and AID keys)
    the chosen event's execution touched — filled in when the *next*
    choice point closes the step; fate steps get a static footprint.
    """

    __slots__ = ("index", "kind", "time", "keys", "chosen", "footprint")

    def __init__(self, index, kind, time, keys, chosen):
        self.index = index
        self.kind = kind
        self.time = time
        self.keys = keys
        self.chosen = chosen
        self.footprint: frozenset = frozenset()

    @property
    def options(self) -> int:
        return len(self.keys)

    @property
    def chosen_key(self):
        return self.keys[self.chosen]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Step {self.index} {self.kind} t={self.time:g} "
            f"chose {self.chosen}/{len(self.keys)} {self.keys[self.chosen]!r}>"
        )


def event_key(event: ScheduledEvent) -> tuple:
    """Stable identity of a scheduled event within a choice-prefix class."""
    return (event.label, event.seq)


def label_target(label: str) -> Optional[str]:
    """The process a sim event's label names (best-effort footprint floor).

    Labels follow ``kind:target`` (``start:worker``, ``compute:judge-x``,
    ``timeout:p``) with deliveries as ``deliver:src->dst`` — delivery
    executes against the *destination's* mailbox.
    """
    if ":" not in label:
        return None
    target = label.split(":", 1)[1]
    if "->" in target:
        target = target.split("->", 1)[1]
    return target or None


class RecordingController(ScheduleController):
    """Replays a choice prefix, extends it with defaults, records steps.

    Parameters
    ----------
    prescribed:
        Choice indices for the first ``len(prescribed)`` steps (ties and
        fates in one unified sequence).  Beyond the prefix the controller
        picks the canonical default: the lowest index whose key is not in
        the live sleep set.
    tracer:
        The system's :class:`~repro.sim.Tracer`; the slice of records
        appended between two consecutive tie steps is the earlier step's
        footprint (each record contributes its process name and, when
        present, its AID key).
    initial_sleep:
        Sleep set in force at the divergence point (keys of sibling
        choices already fully explored).  From the divergence step on it
        is filtered per Godefroid's rule: a sleeping event is woken (and
        must be re-explored) as soon as a dependent event executes.
    known_footprints:
        Footprints observed in earlier executions, keyed by event key —
        the independence oracle for sleep filtering.  A sleeping event
        with no known footprint is conservatively treated as dependent
        (woken immediately), costing pruning but never soundness.
    max_drops:
        Bound on the message drops one execution explores, so the
        always-drop branch of a retrying (reliable) sender cannot produce
        an infinite tree.

    Fault fates: on a link with ``drop > 0`` every delivery asks "deliver
    or drop?" (1 = drop, while fewer than ``max_drops`` dropped), and with
    ``reorder > 0`` "on time or late?" (1 = a whole ``reorder_window``
    late); probabilities are ignored.  Ack and heartbeat loss never
    branch: retry timers already bound their effect, and branching on
    every ack would square the tree for no new *message* order.
    """

    def __init__(
        self,
        prescribed: Sequence[int] = (),
        tracer: Optional[Tracer] = None,
        initial_sleep: frozenset = frozenset(),
        known_footprints: Optional[dict] = None,
        max_drops: int = 1,
    ) -> None:
        self.prescribed = list(prescribed)
        self.tracer = tracer
        self.records: list[StepRecord] = []
        self.known = known_footprints if known_footprints is not None else {}
        self._sleep = set(initial_sleep)
        self.sleep_blocked = False
        self._mark = 0
        self._open_tie: Optional[StepRecord] = None
        self.max_drops = max_drops
        self.drops = 0
        self._fates: dict[str, int] = {}

    # ------------------------------------------------------------------
    # the seam
    # ------------------------------------------------------------------
    def choose(self, time: float, events: Sequence[ScheduledEvent]) -> int:
        self._close_open_tie()
        step = len(self.records)
        keys = tuple(event_key(e) for e in events)
        chosen = self._prescribed(
            step, len(keys), f"the batch of {len(keys)} events at t={time:.6g}"
        )
        if chosen is None:
            chosen = self._default_choice(keys)
        record = StepRecord(step, "tie", time, keys, chosen)
        self.records.append(record)
        self._open_tie = record
        if self.tracer is not None:
            self._mark = len(self.tracer.records)
        return chosen

    def fate(self, stream, kind: str, src: str, dst: str, p: float) -> bool:
        if kind not in ("drop", "reorder") or (
            kind == "drop" and self.drops >= self.max_drops
        ):
            return False
        step = len(self.records)
        # Fate identity: the n-th fate decision of this kind on this link.
        link = f"{kind}:{src}->{dst}"
        count = self._fates.get(link, 0)
        self._fates[link] = count + 1
        key = f"{link}#{count}"
        chosen = self._prescribed(step, 2, f"the 2 fates of {key}") or 0
        record = StepRecord(step, "fate", -1.0, ((key, 0), (key, 1)), chosen)
        # A fate decides one message's delivery: its footprint is the link
        # target (static — fate steps always branch fully in the driver).
        record.footprint = frozenset((dst,))
        self.records.append(record)
        if chosen and kind == "drop":
            self.drops += 1
        return chosen == 1

    def lateness(
        self, stream, kind: str, src: str, dst: str, window: float
    ) -> float:
        return window

    def finish(self) -> None:
        """Close the final step's footprint after the run completes."""
        self._close_open_tie()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _prescribed(self, step: int, options: int, what: str) -> Optional[int]:
        """The prescribed choice at ``step`` (None past the prefix)."""
        if step >= len(self.prescribed):
            return None
        chosen = self.prescribed[step]
        if not 0 <= chosen < options:
            raise ReplayDivergence(
                f"prescribed choice {chosen} at step {step} does not fit {what}"
            )
        return chosen

    def _default_choice(self, keys: tuple) -> int:
        if not self._sleep:
            return 0
        for index, key in enumerate(keys):
            if key not in self._sleep:
                return index
        # Every enabled event is asleep: this continuation is provably
        # redundant.  Finishing it anyway (leftmost choice) keeps the
        # driver simple; the run is flagged so reports can count it.
        self.sleep_blocked = True
        return 0

    def _close_open_tie(self) -> None:
        record = self._open_tie
        if record is None:
            return
        self._open_tie = None
        footprint = set()
        label, _seq = record.chosen_key
        target = label_target(label)
        if target is not None:
            footprint.add(target)
        if self.tracer is not None:
            for rec in self.tracer.records[self._mark:]:
                footprint.add(rec.process)
                aid = rec.detail.get("aid")
                if aid:
                    footprint.add(aid)
        record.footprint = frozenset(footprint)
        key = record.chosen_key
        previous = self.known.get(key)
        self.known[key] = (
            record.footprint if previous is None else previous | record.footprint
        )
        self._filter_sleep(record.footprint)

    def _filter_sleep(self, footprint: frozenset) -> None:
        if not self._sleep:
            return
        # Wake (drop from the sleep set) everything dependent on what just
        # executed; unknown footprints count as dependent (conservative).
        awake = [
            key
            for key in self._sleep
            if self.known.get(key) is None or not self.known[key].isdisjoint(footprint)
        ]
        for key in awake:
            self._sleep.discard(key)
