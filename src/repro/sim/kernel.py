"""Discrete-event simulation kernel.

The kernel provides a virtual clock and a pending-event queue.  Everything
else in the simulator (processes, channels, failures) is built from two
operations:

* :meth:`Simulator.schedule` — run a callback at a later virtual time;
* :meth:`Simulator.run` — pop events in time order until exhaustion.

Virtual time is a float measured in abstract "time units".  The paper's
latency argument (30 ms coast-to-coast photons vs. 3 million instructions)
only depends on *ratios* of latency to compute, so units are deliberately
abstract; benchmarks pick ratios, not microseconds.

The pending events live in one binary heap (``heapq``).  Cancellation is
lazy: a cancelled event stays in the heap and is discarded when it
reaches the head, and the heap is rebuilt once dead entries outnumber
live ones, so a cancel-heavy speculative workload (rollback retracting
in-flight sends and timeouts) keeps push/pop at O(log live).

Determinism: events fire in ``(time, seq)`` order — a monotonically
increasing sequence number breaks ties at the same timestamp, so a
simulation with a fixed RNG seed is fully reproducible, and the virtual
clock never moves backwards.  This is what makes the HOPE verification
harness (``repro.verify``) able to replay schedules exactly.
"""

from __future__ import annotations

import gc
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional


#: Third ``gc`` threshold while :meth:`Simulator.run` is looping: out of
#: reach of the young-collection count it is compared against, so no full
#: (generation-2) collection starts inside a run.
_NO_FULL_COLLECTION = 1 << 30

#: Heaps smaller than this are never compacted — rebuilding a tiny heap
#: costs more than lazily popping its cancelled entries.
COMPACT_MIN = 64


class SimulationError(Exception):
    """Base class for all simulator-level errors."""


class ScheduleInPastError(SimulationError):
    """Raised when an event is scheduled at a negative or NaN delay."""


class EventLimitExceeded(SimulationError):
    """Raised when a run exceeds ``max_events`` — usually a livelock."""


class ScheduledEvent:
    """A pending callback in the event queue.

    Events are cancellable: :meth:`cancel` marks the event dead and the
    kernel discards it when it reaches the heap head (or when the heap is
    compacted).  This is how timeouts that lost a race and messages that
    were rolled back are retracted.  A cancelled event lets go of its
    work at once — ``fn`` and ``args`` become None and ``label`` empty —
    so the dead entry costs only its key until it leaves the heap.

    Events at the same virtual time fire in scheduling order (``seq``);
    a schedule controller (see :class:`Simulator`) is the only way to
    pick another order.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "label", "sim", "key")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        label: str = "",
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.label = label
        #: Owning simulator, so cancellation can keep its live-event count
        #: exact without a queue scan (None for standalone events).
        self.sim = sim
        #: Precomputed sort key.  time/seq never change after construction,
        #: and heap sift chains compare the same event many times —
        #: building the two tuples inside ``__lt__`` per comparison was
        #: measurable.
        self.key = (time, seq)

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = self.args = None
        self.label = ""
        sim = self.sim
        if sim is not None:
            sim._live -= 1
            sim._compact_if_dead()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6g} #{self.seq} {self.label or self.fn!r} {state}>"


class Simulator:
    """The event loop: a virtual clock plus a queue of scheduled callbacks.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "hello at t=1.5")
        sim.run()

    Higher layers rarely call :meth:`schedule` directly; they use
    :class:`repro.sim.process.Task` coroutines and
    :class:`repro.sim.channel.Network` messaging, which are built on it.
    """

    def __init__(self, controller: Optional[Any] = None) -> None:
        self._now: float = 0.0
        #: The event queue: a ``heapq`` heap of :class:`ScheduledEvent`,
        #: cancelled entries included until they reach the head or a
        #: compaction evicts them.  Compaction rebuilds it in place, so a
        #: reference to the list stays valid for the simulator's lifetime.
        self._heap: list[ScheduledEvent] = []
        #: Times the heap was rebuilt to evict cancelled entries.
        self.heap_compactions = 0
        #: Count of not-yet-cancelled, not-yet-executed events.  Kept exact
        #: by schedule/cancel/pop so :attr:`pending_events` is O(1) instead
        #: of a queue scan (benchmarks poll it per-iteration).
        self._live = 0
        #: Next sequence number, as a readable integer (not an opaque
        #: counter object): :meth:`joins` checks "has anything been
        #: scheduled since event X?" by comparing this against ``X.seq + 1``.
        self._seq_next = 0
        self._events_processed = 0
        self._running = False
        self._stopped = False
        #: optional :class:`~repro.verify.schedule.ScheduleController`: at
        #: every pop the batch of live events sharing the earliest time is
        #: handed to ``controller.choose(time, events)``, which returns the
        #: index of the event to fire (seeded shuffling, DPOR exploration).
        #: A :class:`~repro.sim.faults.FaultyNetwork` on this simulator
        #: draws its fault fates through the same object.
        self._controller = controller
        #: Batching (:meth:`joins`) is off when a controller orders
        #: same-time work.
        self._batching = controller is None
        #: The newest start batch (:meth:`repro.sim.process.Task.start`).
        self.start_batch: Optional[ScheduledEvent] = None
        #: What a controlled pop offered and did not fire, in ``(time,
        #: seq)`` order: the earliest events, off the heap until the next.
        self._instant: list[ScheduledEvent] = []

    def _compact_if_dead(self) -> None:
        """Evict cancelled events once they outnumber live ones.

        Lazy cancellation only discards cancelled events that reach the
        heap *head*; a cancel-heavy workload can leave the heap dominated
        by dead entries buried mid-heap, making every push/pop O(log
        total) instead of O(log live).  Checked after every cancel and at
        the end of every :meth:`run` / :meth:`step` (firing live events
        while dead ones stay buried tips the balance too), so between
        calls the heap holds at most ``2 * pending_events + COMPACT_MIN``
        entries.  Rebuilding keeps (time, seq) ordering intact,
        so determinism is unaffected.
        """
        heap, instant = self._heap, self._instant
        size = len(heap) + len(instant)
        if size < COMPACT_MIN or (size - self._live) * 2 <= size:
            return
        heap[:] = [e for e in heap if not e.cancelled]
        heapify(heap)
        if instant:
            instant[:] = [e for e in instant if not e.cancelled]
        self.heap_compactions += 1

    def _peek(self) -> Optional[ScheduledEvent]:
        """Next live event (discarding cancelled ones ahead of it), or None."""
        instant = self._instant
        while instant and instant[0].cancelled:
            del instant[0]
        if instant:
            return instant[0]
        heap = self._heap
        while heap:
            event = heap[0]
            if not event.cancelled:
                return event
            heappop(heap)
        return None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for overhead accounting)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        Returns the :class:`ScheduledEvent`, which the caller may
        :meth:`~ScheduledEvent.cancel`.  ``delay`` must be >= 0 (NaN is
        refused too: a NaN key would silently break the heap order).
        """
        if not delay >= 0:
            raise ScheduleInPastError(
                f"cannot schedule at a negative or NaN delay ({delay})"
            )
        seq = self._seq_next
        self._seq_next = seq + 1
        event = ScheduledEvent(self._now + delay, seq, fn, args, label, sim=self)
        heappush(self._heap, event)
        self._live += 1
        return event

    def joins(self, event: ScheduledEvent, delay: float) -> bool:
        """Whether work due ``delay`` from now may ride ``event`` (which the
        caller knows will still run it): nothing scheduled since, not
        cancelled, same time — so the firing order is the unbatched one."""
        return (self._batching and self._seq_next == event.seq + 1
                and event.time == self._now + delay and not event.cancelled)

    def requeue(self, key: tuple, fn: Callable[..., None], *args: Any) -> None:
        """Queue ``fn(*args)`` at ``key``, the ``(time, seq)`` of a batch
        raising mid-way: its rest fires where its own events would."""
        time, seq = key
        event = ScheduledEvent(time, seq, fn, args, "", sim=self)
        if self._instant:       # a controlled pop's rest: keep (time, seq) order
            insort(self._instant, event)
        else:
            heappush(self._heap, event)
        self._live += 1

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, fn, *args, label=label)

    def call_soon(self, fn: Callable[..., None], *args: Any, label: str = "") -> ScheduledEvent:
        """Schedule ``fn(*args)`` at the current time, after pending same-time events."""
        return self.schedule(0.0, fn, *args, label=label)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue is empty, ``until`` is reached, or ``max_events``.

        Returns the final virtual time.  ``until`` is inclusive: events at
        exactly ``until`` fire.  An ``until`` before the current time is a
        :class:`SimulationError` — the clock never moves backwards.  A
        ``max_events`` bound turns a livelocked simulation into a
        diagnosable :class:`EventLimitExceeded` instead of a hang.

        Full (generation-2) garbage collections are held off while the
        loop runs and the caller's thresholds restored on the way out: a
        run's heap is mostly append-only journals (effect logs, intervals,
        messages), which a full pass walks end to end, again and again, to
        free nothing — the runtime itself leaves no reference cycles
        behind.  The young generations collect as before, so short-lived
        cycles a user body makes are still reclaimed during the run;
        cycles among objects that have already aged wait for the first
        full pass after ``run`` returns.  A collector the caller disabled
        is left alone.
        """
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"run(until={until}) is before the current time "
                f"{self._now}; the virtual clock never moves backwards"
            )
        self._running = True
        self._stopped = False
        budget = max_events
        heap = self._heap
        controlled = self._controller is not None
        thresholds = gc.get_threshold() if gc.isenabled() else None
        if thresholds is not None:
            gc.set_threshold(thresholds[0], thresholds[1], _NO_FULL_COLLECTION)
        try:
            while not self._stopped:
                event = self._peek() if controlled else heap[0] if heap else None
                if event is None:
                    break
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and event.time > until:
                    # (a nested run from a callback may have passed it)
                    self._now = max(self._now, until)
                    break
                if budget is not None:
                    # Before the pop: the event over budget stays queued,
                    # so a run that resumes after the exception fires it.
                    if not budget:
                        raise EventLimitExceeded(
                            f"exceeded {max_events} events at t={event.time:.6g}; "
                            f"likely livelock (next: {event!r})"
                        )
                    budget -= 1
                if controlled:
                    event = self._pop_controlled()
                else:
                    heappop(heap)
                self._live -= 1
                event.sim = None  # detach: a late cancel() must not re-decrement
                self._now = event.time
                self._events_processed += 1
                event.fn(*event.args)
        finally:
            self._running = False
            if thresholds is not None:
                gc.set_threshold(*thresholds)
        if until is not None and self._now < until and self._peek() is None:
            self._now = until
        self._compact_if_dead()
        return self._now

    def _pop_controlled(self) -> ScheduledEvent:
        """Pop the next event under the schedule controller.

        The batch is every live event sharing the earliest virtual time
        in ``(time, seq)`` order: what the last pop left unfired, then
        the heap's (scheduled since, so later).  The controller picks the
        one that fires; the rest stay off the heap until the next pop, so
        an instant of k events costs k heap pops, not k per pop.  The
        caller must have peeked a live event first.
        """
        heap = self._heap
        batch = [e for e in self._instant if not e.cancelled] or [heappop(heap)]
        self._instant = []
        time = batch[0].time
        while True:
            nxt = self._peek()
            if nxt is None or nxt.time != time:
                break
            batch.append(heappop(heap))
        # Singleton batches are forced, but the controller is still
        # consulted: exploration drivers track per-step footprints and
        # co-enabled sets, which must cover forced steps too.
        index = self._controller.choose(time, batch)
        if not 0 <= index < len(batch):
            raise SimulationError(
                f"controller chose index {index} out of a batch of "
                f"{len(batch)} events at t={time:.6g}"
            )
        chosen = batch.pop(index)
        self._instant = batch
        return chosen

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False when idle."""
        event = self._peek()
        if event is None:
            return False
        if self._controller is not None:
            event = self._pop_controlled()
        else:
            heappop(self._heap)
        self._live -= 1
        event.sim = None  # detach: a late cancel() must not re-decrement
        self._now = event.time
        self._events_processed += 1
        event.fn(*event.args)
        self._compact_if_dead()
        return True

    def stop(self) -> None:
        """Request the run loop to return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1):
        maintained by schedule/cancel/pop rather than scanning the queue."""
        return self._live

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if idle.

        Cancelled events are physically discarded as they are skipped, so
        cancel-then-peek sequences keep the heap's physical size in step
        with :attr:`pending_events` (no counter drift)."""
        event = self._peek()
        return event.time if event is not None else None
