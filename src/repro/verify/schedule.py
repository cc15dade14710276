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
* :class:`RecordingController` — replays a prescribed choice prefix,
  continues past it (the DFS's canonical default, or a walk's seeded
  draw), and records every step (batch composition, chosen index, and
  the *footprint* of resources the chosen event's execution touched,
  extracted from the trace stream) — everything the DFS driver in
  :mod:`repro.verify.dpor` needs to compute happens-before backtracking
  points and sleep sets.  Message drop and reorder fates are binary
  choice points of the same tree, so one recorded choice sequence
  replays any run, explored or sampled.  So is a host crash before each
  durable file operation (:meth:`RecordingController.host_dies`).

Event identity across executions: a batch member is keyed by
``(label, seq)``.  Sequence numbers are a deterministic function of the
executed prefix, so two executions sharing a choice prefix assign
identical keys to the events enabled at the divergence point — which is
what lets backtrack sets and sleep sets refer to events of sibling
executions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim import RandomStream
from ..sim.faults import FateSource
from ..sim.kernel import ScheduledEvent, SimulationError


class ScheduleController(FateSource):
    """Protocol for the simulator's directed-choice seam.

    ``choose(time, events)`` is called at every pop with the canonical
    ``(time, seq)``-ordered batch of live events at the earliest virtual
    time (a singleton too: exploration records forced steps) and returns
    the index of the event to fire.  ``fate`` / ``lateness`` (from
    :class:`~repro.sim.faults.FateSource`) decide the fault layer's fates;
    this base samples them as a run without a controller does.
    """

    def choose(self, time: float, events: Sequence[ScheduledEvent]) -> int:
        return 0


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
    decisions, ``"crash"`` for a host crash before a file operation.
    ``keys`` are the stable identities of the alternatives (``(label,
    seq)`` tuples for ties; a synthetic string for fates and crashes).
    ``footprint`` is the set of resources (process names and AID keys)
    the chosen event's execution touched — filled in when the *next*
    choice point closes the step; fate steps get a static footprint.
    """

    __slots__ = ("kind", "time", "keys", "chosen", "footprint")

    def __init__(self, kind, time, keys, chosen):
        self.kind = kind
        self.time = time
        self.keys = keys
        self.chosen = chosen
        self.footprint: frozenset = frozenset()

    @property
    def chosen_key(self):
        return self.keys[self.chosen]


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
    """Replays a choice prefix, continues past it, records every step.

    Parameters
    ----------
    prescribed:
        Choice indices for the first ``len(prescribed)`` steps (ties and
        fates in one sequence).  Beyond it the controller takes the DFS
        default — the lowest index whose key is not asleep, and no fault
        — unless it ``walk``-s.
    initial_sleep, known_footprints:
        The DFS's sleep set at the divergence point (keys of sibling
        choices already explored), filtered per Godefroid's rule — a
        sleeping event wakes as soon as a dependent one executes — by the
        footprints observed in earlier executions (an unknown footprint
        counts as dependent: less pruning, never unsound).
    max_drops:
        The DFS's bound on the drops one execution explores, so a
        retrying sender's always-drop branch cannot make the tree
        infinite; the DFS draws nothing (a fate that is no choice point
        never befalls; a late copy is a whole ``reorder_window`` late).
        ``None`` is the sampled environment: every fate is drawn from the
        fault stream exactly as :data:`~repro.sim.faults.SAMPLED` draws
        it — a prescribed one too, so a recorded walk replays byte for
        byte — and drops are unbounded.
    walk, shuffle_seed:
        Beyond the prefix take the draws (needs ``max_drops=None``): the
        drawn fate, and the tie drawn from the stream ``"schedule-ties"``
        of ``shuffle_seed`` (a batch of one draws nothing) or the leftmost.

    A step's footprint is the slice of ``tracer`` records (process names,
    AID keys) appended until the next tie step; :func:`repro.verify.check_run`
    binds the tracer.  A drop fate asks "deliver or drop?" (1 = drop), a
    reorder fate "on time or late?" (1 = late).  Ack loss never
    branches: retry timers already bound its effect, and branching
    on every ack would square the tree for no new *message* order.
    """

    def __init__(
        self,
        prescribed: Sequence[int] = (),
        initial_sleep: frozenset = frozenset(),
        known_footprints: Optional[dict] = None,
        max_drops: Optional[int] = 1,
        walk: bool = False,
        shuffle_seed: Optional[int] = None,
    ) -> None:
        if walk and max_drops is not None:
            raise ValueError("a walk draws its fates: pass max_drops=None")
        self.prescribed = list(prescribed)
        self.tracer = None
        self.records: list[StepRecord] = []
        self.known = known_footprints if known_footprints is not None else {}
        self._sleep = set(initial_sleep)
        self._mark = 0
        self._open_tie: Optional[StepRecord] = None
        self.max_drops = max_drops
        self.walk = walk
        self._ties = (
            RandomStream(shuffle_seed, "schedule-ties") if shuffle_seed is not None else None
        )
        self.drops = 0
        self._fates: dict[str, int] = {}
        #: Durable file operations ``(op, name, arg, step, sealed)`` asked about.
        self.file_ops: list = []

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
            if not self.walk:
                chosen = self._default_choice(keys)
            elif self._ties is not None and len(keys) > 1:
                chosen = self._ties.randint(0, len(keys) - 1)
            else:
                chosen = 0
        record = StepRecord("tie", time, keys, chosen)
        self.records.append(record)
        self._open_tie = record
        if self.tracer is not None:
            self._mark = len(self.tracer.records)
        return chosen

    def fate(self, stream, kind: str, src: str, dst: str, p: float) -> bool:
        sampled = self.max_drops is None
        drawn = stream.bernoulli(p) if sampled else False
        if kind not in ("drop", "reorder") or (
            not sampled and kind == "drop" and self.drops >= self.max_drops
        ):
            return drawn
        step = len(self.records)
        # Fate identity: the n-th fate decision of this kind on this link.
        link = f"{kind}:{src}->{dst}"
        count = self._fates.get(link, 0)
        self._fates[link] = count + 1
        key = f"{link}#{count}"
        chosen = self._prescribed(step, 2, f"the 2 fates of {key}")
        if chosen is None:
            chosen = int(drawn) if self.walk else 0
        record = StepRecord("fate", -1.0, ((key, 0), (key, 1)), chosen)
        # A fate decides one message's delivery: its footprint is the link
        # target (static — fate steps always branch fully in the driver).
        record.footprint = frozenset((dst,))
        self.records.append(record)
        if chosen and kind == "drop":
            self.drops += 1
        return chosen == 1

    def host_dies(self, op: str, name: str, arg, sealed) -> bool:
        """The crash choice before a durable file operation: 0 the host lives
        (the default), 1 it dies as written, 2 losing what no fsync covered."""
        step = len(self.records)
        key = f"{op}:{name}#{len(self.file_ops)}"
        self.file_ops.append((op, name, arg, step, sealed))
        chosen = self._prescribed(step, 3, f"the crash before {key}") or 0
        self.records.append(StepRecord("crash", -1.0, ((key, 0), (key, 1), (key, 2)), chosen))
        return bool(chosen)

    def lateness(
        self, stream, kind: str, src: str, dst: str, window: float
    ) -> float:
        return stream.uniform(0.0, window) if self.max_drops is None else window

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
        # When every enabled event is asleep the continuation is provably
        # redundant; finishing it anyway (leftmost) keeps the driver simple.
        for index, key in enumerate(keys):
            if key not in self._sleep:
                return index
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
