"""Speculation metrics: counters, gauges, and fixed-bucket histograms.

The paper's profitability argument is quantitative — wasted work from
rollback (Theorem 5.1's cascades), commit latency (Theorem 6.1's
finalize wavefront), blast radius — yet the runtime could only expose
those numbers by post-hoc grepping :class:`repro.sim.Tracer` records.
This module makes them first-class: a :class:`MetricsRegistry` of plain
instruments plus :class:`SpeculationMetrics`, the standard instrument
set the runtime feeds from machine events.

Design rules, in the same spirit as the :class:`~repro.sim.trace.Tracer`
fast paths:

* **sim-time only** — no instrument ever reads a wall clock; every
  observed duration is virtual time supplied by the caller, so metrics
  are as deterministic as the trace itself;
* **disabled means free** — :class:`NullRegistry` advertises
  ``enabled = False`` so embedding layers can skip the observation code
  wholesale;
* **bounded memory** — histograms have fixed buckets; nothing here grows
  with run length.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

from ..core.events import (
    AffirmEvent,
    DenyEvent,
    FinalizeEvent,
    GuessEvent,
    GuessSkippedEvent,
    MachineEvent,
    RollbackEvent,
)


class Counter:
    """A monotonically increasing count (e.g. rollbacks seen so far)."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (e.g. busy virtual time at snapshot)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``buckets`` are the finite upper bounds, in increasing order; an
    implicit ``+Inf`` bucket catches the tail, so memory never depends on
    the observations.  Bucket counts are *non-cumulative* internally;
    exporters cumulate where their format demands it (Prometheus).
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float], help: str = "") -> None:
        bounds = tuple(buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name} bucket bounds must increase: {bounds}")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # + the +Inf tail
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-quantile.

        Conservative (an over-estimate within one bucket width); the tail
        bucket reports the largest finite bound.  Good enough for a
        summary table — exact quantiles would require keeping samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            if cumulative >= target:
                return bound
        return self.bounds[-1]

    def items(self) -> list[tuple[float, int]]:
        """(upper_bound, count) pairs, the tail as ``float('inf')``."""
        return list(zip(self.bounds + (float("inf"),), self.counts))


class MetricsRegistry:
    """Creates and holds named instruments; the exporters' input.

    Get-or-create semantics (like :meth:`repro.sim.Timeline.process`):
    asking twice for the same name returns the same instrument, asking
    with a conflicting kind raises.  Iteration order is registration
    order, so exports are deterministic.
    """

    #: Embedding layers consult this before doing any observation work.
    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _register(self, cls, name: str, *args, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, *args, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help=help)

    def histogram(self, name: str, buckets: Iterable[float], help: str = "") -> Histogram:
        return self._register(Histogram, name, buckets, help=help)

    def get(self, name: str):
        return self._metrics[name]

    def __iter__(self):
        return iter(self._metrics.values())


class NullRegistry(MetricsRegistry):
    """A registry that measures nothing — the default, for zero overhead:
    ``enabled = False`` lets hot paths skip the observation calls entirely
    (the engine checks once at construction, not per event)."""

    enabled = False


#: Default bucket bounds.  Cascade depth counts discarded intervals per
#: rollback (powers of two up to the deepest chain the CASCADE benchmark
#: exercises); commit latency is virtual time from guess to finalize,
#: spanning the latency sweeps the FIG1/FIG2 experiments run.
CASCADE_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
COMMIT_LATENCY_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)


class SpeculationMetrics:
    """The standard speculation instrument set, fed from machine events.

    One instance per :class:`~repro.runtime.HopeSystem`; the engine calls
    :meth:`observe_event` from its machine-event listener (sim time
    supplied by the caller — this class never reads a clock) and bumps
    the runtime-side counters (replay, wasted time, fossil reclaim)
    directly.  Works against a bare :class:`repro.core.Machine` too: the
    theorem tests drive it with a synthetic clock.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        cascade_buckets: Iterable[float] = CASCADE_DEPTH_BUCKETS,
        latency_buckets: Iterable[float] = COMMIT_LATENCY_BUCKETS,
    ) -> None:
        self.registry = registry
        c, g, h = registry.counter, registry.gauge, registry.histogram
        # --- speculation lifecycle -------------------------------------
        self.guesses = c("hope_guesses_total", "speculative intervals opened (explicit guess)")
        self.implicit_guesses = c(
            "hope_implicit_guesses_total",
            "intervals opened by tagged receives (implicit guesses)",
        )
        self.guess_skips = c(
            "hope_guess_skips_total", "guesses on already-resolved AIDs (no interval)"
        )
        self.affirms = c("hope_affirms_total", "affirm primitives that took effect")
        self.affirms_definite = c(
            "hope_affirms_definite_total", "affirms executed from a definite state"
        )
        self.denies = c("hope_denies_total", "deny primitives that took effect")
        self.denies_definite = c(
            "hope_denies_definite_total", "denies that were definite (rollback triggers)"
        )
        self.finalizes = c("hope_finalizes_total", "intervals that became definite")
        # --- rollback accounting ---------------------------------------
        self.rollbacks = c("hope_rollbacks_total", "rollback events (per process hit)")
        self.intervals_discarded = c(
            "hope_intervals_discarded_total", "intervals destroyed by rollbacks"
        )
        self.cascade_depth = h(
            "hope_rollback_cascade_depth",
            cascade_buckets,
            "intervals discarded per rollback event",
        )
        self.restarts = c("hope_restarts_total", "task restarts after rollback")
        self.replay_entries = c(
            "hope_replay_entries_total", "effect-log entries replayed by restarts"
        )
        self.wasted_time = c(
            "hope_wasted_time_total", "virtual time reclassified as wasted by rollbacks"
        )
        self.commit_latency = h(
            "hope_commit_latency",
            latency_buckets,
            "virtual time from guess to finalize, per interval",
        )
        # --- fossil collection -----------------------------------------
        self.fossil_collections = c("hope_fossil_collections_total", "collection passes")
        self.fossil_history_dropped = c(
            "hope_fossil_history_dropped_total", "history rows reclaimed"
        )
        self.fossil_intervals_dropped = c(
            "hope_fossil_intervals_dropped_total", "dead intervals reclaimed"
        )
        self.fossil_aids_retired = c(
            "hope_fossil_aids_retired_total", "AIDs retired from the table"
        )
        self.fossil_depsets_dropped = c(
            "hope_fossil_depsets_dropped_total", "interned DepSets reclaimed"
        )
        # --- snapshot gauges (filled by metrics_snapshot) --------------
        self.busy_time = g("hope_busy_time", "useful busy virtual time (timeline)")
        self.blocked_time = g("hope_blocked_time", "blocked virtual time (timeline)")
        self.resolve_cache_hits = g(
            "hope_resolve_cache_hits", "tag-resolution cache hits"
        )
        self.resolve_cache_misses = g(
            "hope_resolve_cache_misses", "tag-resolution cache misses"
        )
        self.messages_sent = g("hope_messages_sent", "user messages sent")
        self.sim_events = g("hope_sim_events", "simulator events processed")
        # --- chaos / resilience (filled by metrics_snapshot when the
        # --- fault layer or reliable delivery is on) -------------------
        self.net_dropped = g("hope_net_dropped", "messages dropped by fault injection")
        self.net_duplicated = g("hope_net_duplicated", "messages duplicated by fault injection")
        self.net_reordered = g("hope_net_reordered", "message copies delayed for reorder")
        self.net_partition_dropped = g(
            "hope_net_partition_dropped", "messages dropped crossing a partition"
        )
        self.acks_dropped = g("hope_acks_dropped", "control datagrams lost to faults")
        self.retries = g("hope_retries", "reliable-delivery retransmissions")
        self.acks_sent = g("hope_acks_sent", "reliable-delivery acks launched")
        self.dup_suppressed = g(
            "hope_dup_suppressed", "duplicate deliveries suppressed by msg_id dedup"
        )
        self.retry_exhausted = g(
            "hope_retry_exhausted", "reliable sends abandoned after max_attempts"
        )
        #: Open-interval guess times by interval serial, for commit
        #: latency.  Bounded by the live speculation window: finalize and
        #: rollback both pop.
        self._open_guesses: dict[int, float] = {}

    # ------------------------------------------------------------------
    # machine events
    # ------------------------------------------------------------------
    def observe_event(self, event: MachineEvent, now: float) -> None:
        """Fold one machine event in; ``now`` is the caller's sim time."""
        if type(event) is GuessEvent:
            interval = event.interval
            if interval.aid is not None:
                self.guesses.inc()
            else:
                self.implicit_guesses.inc()
            self._open_guesses[interval.serial] = now
        elif type(event) is FinalizeEvent:
            self.finalizes.inc()
            opened = self._open_guesses.pop(event.interval.serial, None)
            if opened is not None:
                self.commit_latency.observe(now - opened)
        elif type(event) is RollbackEvent:
            self.rollbacks.inc()
            depth = len(event.discarded)
            self.intervals_discarded.inc(depth)
            self.cascade_depth.observe(depth)
            for interval in event.discarded:
                self._open_guesses.pop(interval.serial, None)
        elif type(event) is AffirmEvent:
            self.affirms.inc()
            if event.definite:
                self.affirms_definite.inc()
        elif type(event) is DenyEvent:
            self.denies.inc()
            if event.definite:
                self.denies_definite.inc()
        elif type(event) is GuessSkippedEvent:
            self.guess_skips.inc()

    def forget_intervals(self, intervals) -> None:
        """Drop open-guess bookkeeping for intervals discarded outside a
        RollbackEvent (crash support) so the table cannot leak."""
        for interval in intervals:
            self._open_guesses.pop(interval.serial, None)

    # ------------------------------------------------------------------
    # derived quantities (the numbers the paper argues about)
    # ------------------------------------------------------------------
    def wasted_work_ratio(self) -> float:
        """Wasted / (useful + wasted) busy time.

        The timeline reclassifies rolled-back busy spans as wasted, so
        the busy gauge is already net of waste — the denominator restores
        the gross figure.
        """
        wasted = self.wasted_time.value
        gross = self.busy_time.value + wasted
        return wasted / gross if gross else 0.0

    def resolve_cache_hit_rate(self) -> float:
        hits = self.resolve_cache_hits.value
        total = hits + self.resolve_cache_misses.value
        return hits / total if total else 0.0
