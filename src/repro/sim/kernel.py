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

Three interchangeable event-queue kernels implement the same total order:

* ``kernel="wheel"`` (default) — a hierarchical timer wheel: virtual time
  is quantized into ticks, near-future ticks hash into per-level bucket
  arrays (64 slots per level, each level 64× coarser), and far-future
  events sit in an overflow list that is re-bucketed when reached.
  Schedule and cancel are O(1); popping amortizes bucket maintenance over
  the events in the bucket.  Cancellation never triggers the O(n)
  heap-rebuild compaction that a cancel-heavy speculative workload forces
  on a binary heap — dead events are simply skipped when their bucket is
  reached (with a sweep fallback when they pile up; see
  :meth:`_WheelQueue.on_cancel`).
* ``kernel="heap"`` — the classic binary heap.  Kept as the differential
  oracle: all kernels must produce byte-identical traces, and the kernel
  tests assert exactly that.  It can also win on very sparse, wide-range
  schedules where bucket cascades outcost ``heapq``'s C implementation
  (see docs/PERFORMANCE.md §6).
* ``kernel="window"`` — a sorted "active window" list: ``bisect.insort``
  insertion (C binary search + memmove), O(1) comparison-free pops via a
  head index.  Near-parity with the heap on the small queues that
  request/response chains keep (C ``heapq`` does no comparisons and no
  allocation at queue size 1, so there is nothing left to beat there);
  degrades to O(n) inserts on very large fan-out backlogs
  (see docs/PERFORMANCE.md §8).

Determinism: events fire in ``(time, priority, seq)`` order — a
monotonically increasing sequence number breaks ties at the same
timestamp, so a simulation with a fixed RNG seed is fully reproducible.
Bucket quantization never reorders: tick assignment is monotone in time
and same-tick events are drained through a per-bucket heap using the same
comparator, so the wheel's total order equals the heap's.  This is what
makes the HOPE verification harness (``repro.verify``) able to replay
schedules exactly.
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


class SimulationError(Exception):
    """Base class for all simulator-level errors."""


class ScheduleInPastError(SimulationError):
    """Raised when an event is scheduled at a negative delay."""


class EventLimitExceeded(SimulationError):
    """Raised when a run exceeds ``max_events`` — usually a livelock."""


class ScheduledEvent:
    """A pending callback in the event queue.

    Events are cancellable: :meth:`cancel` marks the event dead and the
    kernel discards it when its bucket (or heap head) is reached.  This is
    how timeouts that lost a race and messages that were rolled back are
    retracted.

    ``priority`` breaks ties between events at the same virtual time:
    0 by default (scheduling order — FIFO), or a seeded random draw when
    the simulator was built with a tie-break stream, which is how the
    model checker explores alternative interleavings of genuinely
    concurrent events.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "label", "priority", "sim", "key")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        label: str = "",
        priority: int = 0,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.label = label
        self.priority = priority
        #: Owning simulator, so cancellation can keep its live-event count
        #: exact without a queue scan (None for standalone events).
        self.sim = sim
        #: Precomputed sort key.  time/priority/seq never change after
        #: construction, and heap sift chains compare the same event many
        #: times — building the two tuples inside ``__lt__`` per comparison
        #: was measurable on every kernel.
        self.key = (time, priority, seq)

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._live -= 1
            sim._queue.on_cancel(sim._live)

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6g} #{self.seq} {self.label or self.fn!r} {state}>"


class _HeapQueue:
    """Binary-heap event queue — the pre-wheel kernel, kept as the oracle.

    Cancellation is lazy (dead events are discarded when they reach the
    heap head) with an eviction rebuild when dead entries outnumber live
    ones, so a cancel-heavy workload cannot degrade push/pop to
    O(log total-ever-scheduled).
    """

    #: Heaps smaller than this are never compacted — rebuilding a tiny
    #: heap costs more than lazily popping its cancelled entries.
    COMPACT_MIN = 64

    __slots__ = ("_heap", "compactions")

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self.compactions = 0

    def push(self, event: ScheduledEvent) -> None:
        heappush(self._heap, event)

    def peek(self) -> Optional[ScheduledEvent]:
        """Next live event (lazily popping cancelled heads), or None."""
        heap = self._heap
        while heap:
            event = heap[0]
            if not event.cancelled:
                return event
            heappop(heap)
        return None

    def pop_head(self) -> ScheduledEvent:
        """Remove and return the head.  Only valid right after a
        non-None :meth:`peek` (which guarantees a live head)."""
        return heappop(self._heap)

    def on_cancel(self, live: int) -> None:
        """Evict cancelled events when they outnumber live ones.

        ``peek``/``pop_head`` only discard cancelled events that reach the
        heap *head*; a cancel-heavy workload (rollback retracting batches
        of in-flight sends and timeouts) can leave the heap dominated by
        dead entries buried mid-heap, making every push/pop O(log total)
        instead of O(log live).  Rebuilding keeps (time, priority, seq)
        ordering intact, so determinism is unaffected.
        """
        heap = self._heap
        if len(heap) < self.COMPACT_MIN:
            return
        if (len(heap) - live) * 2 <= len(heap):
            return
        self._heap = [e for e in heap if not e.cancelled]
        heapify(self._heap)
        self.compactions += 1

    def __len__(self) -> int:
        return len(self._heap)


class _WindowQueue:
    """Sorted active window — a ``bisect``-based event queue.

    The queue is one Python list kept sorted *ascending* by the event's
    precomputed ``key`` with a head index: entries are ``(key, event)``
    2-tuples (no per-push key rebuild, no negations), the minimum lives
    at ``_window[_head]``, and popping just advances the index — O(1),
    comparison-free.  Insertion is ``bisect.insort`` over the live
    region (``lo=_head``) — an O(log n) C-level binary search plus one C
    ``memmove``.  For the small-to-medium queues the HOPE workloads keep
    (a handful of in-flight deliveries and timers), this avoids the
    heap's Python-level ``__lt__`` sift chains on pushes and holds
    near-parity with C ``heapq`` (which concedes nothing at queue size
    1: no comparisons, no allocation); on very large fan-out backlogs
    the memmove turns O(n) per insert and the wheel/heap win (see
    docs/PERFORMANCE.md §8), which is why the wheel stays the default.

    The live region stays sorted under ``lo=_head`` even though consumed
    prefix entries are stale: ``insort`` never inspects them.  Seqs are
    unique, so the key tuples are totally ordered and the ``event``
    element is never compared.  Cancellation is lazy with the same
    dead-dominance compaction trigger as the heap — but compaction is a
    plain filter (order is already established; no ``heapify``).
    """

    #: Windows smaller than this are never compacted (same floor as the
    #: heap: rebuilding a tiny list costs more than skipping its heads).
    COMPACT_MIN = 64
    #: Consumed-prefix trim floor: pops only advance ``_head``; the dead
    #: prefix is deleted wholesale once it is both this long and at least
    #: half the list.  Every trimmed slot was popped exactly once, so the
    #: memmove is amortized O(1) per event.
    TRIM_MIN = 512

    __slots__ = ("_window", "_head", "compactions")

    def __init__(self) -> None:
        self._window: list[tuple] = []
        self._head = 0
        self.compactions = 0

    def push(self, event: ScheduledEvent) -> None:
        insort(self._window, (event.key, event), lo=self._head)

    def peek(self) -> Optional[ScheduledEvent]:
        """Next live event (lazily skipping cancelled heads), or None."""
        window = self._window
        head = self._head
        size = len(window)
        while head < size:
            event = window[head][1]
            if not event.cancelled:
                self._head = head
                return event
            head += 1
        del window[:]
        self._head = 0
        return None

    def pop_head(self) -> ScheduledEvent:
        """Remove and return the head.  Only valid right after a
        non-None :meth:`peek` (which guarantees a live head)."""
        head = self._head
        event = self._window[head][1]
        head += 1
        if head >= self.TRIM_MIN and head * 2 >= len(self._window):
            del self._window[:head]
            head = 0
        self._head = head
        return event

    def on_cancel(self, live: int) -> None:
        """Filter out cancelled entries once they dominate (cf. the heap's
        compaction; a filtered sorted list stays sorted, so this is the
        cheapest compaction of the three kernels)."""
        window = self._window
        size = len(window) - self._head
        if size < self.COMPACT_MIN:
            return
        if (size - live) * 2 <= size:
            return
        self._window = [
            entry for entry in window[self._head :] if not entry[1].cancelled
        ]
        self._head = 0
        self.compactions += 1

    def __len__(self) -> int:
        return len(self._window) - self._head


class _WheelQueue:
    """Hierarchical timer wheel over quantized virtual time.

    Time is quantized into integer ticks (``tick = int(time / resolution)``
    — monotone in time, so quantization can never reorder events).  Four
    levels of 64 buckets each cover ticks near the current one: level 0
    holds individual ticks, and each higher level is 64× coarser, so the
    wheel spans 64⁴ ≈ 16.7 M ticks before events spill into the overflow
    list.  An event lands in the lowest level whose remaining bucket range
    contains it (equivalently: the lowest level at which its tick shares
    all higher-order bits with the current tick).

    Occupancy per level is a 64-bit mask, so "next non-empty bucket" is a
    couple of int ops (``(m & -m).bit_length()``), not a 64-slot scan —
    advancing over quiet stretches of virtual time is O(levels), not
    O(elapsed ticks).  When the cursor reaches a higher-level bucket, its
    events cascade down one level (re-bucketed by the same placement
    rule); when all levels drain, the overflow list is re-bucketed from
    its earliest event's 64⁴-tick block.  Every event is cascaded at most
    ``LEVELS`` times plus one overflow re-bucket per block crossed, so
    schedule/cancel/pop are O(1) amortized.

    The bucket being drained (``_active``) is a heap ordered by the same
    ``(time, priority, seq)`` comparator as the heap kernel: same-tick
    events (including same-tick events scheduled *while* draining, e.g.
    zero-delay resumes) interleave exactly as they would in the global
    heap, which is what keeps the two kernels' traces byte-identical.

    Cancellation marks the event and leaves the bucket alone — the O(1)
    "bucket unlink" the heap can't do.  Dead events are dropped when
    their bucket is reached; if a cancel storm leaves the wheel dominated
    by dead entries in far-future buckets, :meth:`on_cancel` sweeps all
    buckets once (same trigger policy as the heap's compaction, same
    ``compactions`` counter, no ordering effect).
    """

    BITS = 6
    SLOTS = 64
    MASK = 63
    LEVELS = 4

    #: Wheels smaller than this are never swept (mirrors the heap floor).
    COMPACT_MIN = 64

    #: Queues at or below this size run in *sparse mode*: ``_active`` is
    #: the whole queue (a plain (time, priority, seq) heap) and pushes do
    #: no tick math at all.  Request/response chains — one or two pending
    #: events, alternating push/pop — therefore pay exactly what the heap
    #: kernel pays.  Crossing the threshold migrates into the buckets;
    #: draining completely drops back to sparse.  Mode is represented by
    #: the *class* (``_SparseWheelQueue`` vs ``_WheelQueue``), so neither
    #: mode's hot path carries a mode flag check.
    SPARSE_MAX = 12

    __slots__ = (
        "resolution",
        "_inv",
        "_cur",
        "_active",
        "_b0",
        "_b1",
        "_b2",
        "_b3",
        "_o0",
        "_o1",
        "_o2",
        "_o3",
        "_overflow",
        "_size",
        "compactions",
    )

    def __init__(self, resolution: float) -> None:
        if resolution <= 0:
            raise SimulationError(
                f"wheel resolution must be > 0, got {resolution!r}"
            )
        self.resolution = resolution
        self._inv = 1.0 / resolution
        #: Tick of the bucket currently being drained.  All events in the
        #: level buckets have tick > _cur; _active may also hold events
        #: scheduled at or before _cur (they sort first in the heap).
        self._cur = 0
        #: Heap of imminent events (the bucket under drain; the whole
        #: queue while sparse).
        self._active: list[ScheduledEvent] = []
        self._b0: list[list[ScheduledEvent]] = [[] for _ in range(64)]
        self._b1: list[list[ScheduledEvent]] = [[] for _ in range(64)]
        self._b2: list[list[ScheduledEvent]] = [[] for _ in range(64)]
        self._b3: list[list[ScheduledEvent]] = [[] for _ in range(64)]
        self._o0 = 0
        self._o1 = 0
        self._o2 = 0
        self._o3 = 0
        self._overflow: list[ScheduledEvent] = []
        #: Physical entry count, cancelled included (the sweep heuristic
        #: and tests compare it against the simulator's live counter).
        #: Only maintained in bucketed mode — while sparse, ``__len__``
        #: reads ``len(_active)`` and this field is rebuilt on migration.
        self._size = 0
        self.compactions = 0
        # a new queue is empty, hence sparse
        self.__class__ = _SparseWheelQueue

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def push(self, event: ScheduledEvent) -> None:
        self._size += 1
        tick = int(event.time * self._inv)
        if tick <= self._cur:
            heappush(self._active, event)
        else:
            self._insert(event, tick)

    def _migrate(self) -> None:
        """Leave sparse mode: bucket everything currently in ``_active``.

        The cursor jumps to the earliest live event's tick; events at that
        tick stay in the active heap (they may fire next), later ones are
        bucketed.  Placement is relative to the new cursor, so the
        bucketed-mode invariant — level buckets hold only ticks > ``_cur``
        — is established by construction and ordering is unchanged.
        """
        self.__class__ = _WheelQueue
        pending = self._active
        live = [e for e in pending if not e.cancelled]
        self._size = len(live)
        self._active = []
        if not live:
            return
        inv = self._inv
        self._cur = min(int(e.time * inv) for e in live)
        cur = self._cur
        active = self._active
        for event in live:
            tick = int(event.time * inv)
            if tick <= cur:
                active.append(event)
            else:
                self._insert(event, tick)
        if len(active) > 1:
            heapify(active)

    def _insert(self, event: ScheduledEvent, tick: int) -> None:
        """Bucket an event with ``tick > _cur`` (no size accounting)."""
        # The lowest level whose window contains the tick is the lowest
        # level at which tick and _cur share all higher-order bits —
        # i.e. the smallest l with (tick ^ _cur) < 64**(l+1).
        x = tick ^ self._cur
        if x < 64:
            slot = tick & 63
            self._b0[slot].append(event)
            self._o0 |= 1 << slot
        elif x < 4096:
            slot = (tick >> 6) & 63
            self._b1[slot].append(event)
            self._o1 |= 1 << slot
        elif x < 262144:
            slot = (tick >> 12) & 63
            self._b2[slot].append(event)
            self._o2 |= 1 << slot
        elif x < 16777216:
            slot = (tick >> 18) & 63
            self._b3[slot].append(event)
            self._o3 |= 1 << slot
        else:
            self._overflow.append(event)

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def peek(self) -> Optional[ScheduledEvent]:
        """Next live event in (time, priority, seq) order, or None.

        Skips cancelled events (physically dropping them) and advances
        the wheel cursor across empty buckets as needed; repeated peeks
        are stable and never disturb execution order.
        """
        active = self._active
        while True:
            while active:
                event = active[0]
                if not event.cancelled:
                    return event
                heappop(active)
                self._size -= 1
            if not self._advance():
                # fully drained: next growth starts from sparse mode again
                self.__class__ = _SparseWheelQueue
                return None
            active = self._active

    def pop_head(self) -> ScheduledEvent:
        """Remove and return the head.  Only valid right after a
        non-None :meth:`peek` (which guarantees a live head)."""
        self._size -= 1
        return heappop(self._active)

    def _advance(self) -> bool:
        """Move the cursor to the next non-empty bucket.

        Returns False when the wheel is completely empty.  Precondition:
        ``_active`` is empty (peek drains it first).
        """
        while True:
            if self._active:
                # a cascade just landed events at the new cursor tick
                return True
            m = self._o0
            if m:
                s = (m & -m).bit_length() - 1
                self._o0 = m & (m - 1)
                bucket = self._b0[s]
                self._b0[s] = []
                self._cur = (self._cur & ~63) | s
                if len(bucket) > 1:
                    heapify(bucket)
                self._active = bucket
                return True
            if not self._cascade():
                return False

    def _cascade(self) -> bool:
        """Re-bucket the earliest higher-level bucket (or the overflow)
        one level down.  Returns False when nothing remains anywhere."""
        m = self._o1
        if m:
            s = (m & -m).bit_length() - 1
            self._o1 = m & (m - 1)
            bucket = self._b1[s]
            self._b1[s] = []
            self._cur = ((self._cur >> 12) << 12) | (s << 6)
            self._replace(bucket)
            return True
        m = self._o2
        if m:
            s = (m & -m).bit_length() - 1
            self._o2 = m & (m - 1)
            bucket = self._b2[s]
            self._b2[s] = []
            self._cur = ((self._cur >> 18) << 18) | (s << 12)
            self._replace(bucket)
            return True
        m = self._o3
        if m:
            s = (m & -m).bit_length() - 1
            self._o3 = m & (m - 1)
            bucket = self._b3[s]
            self._b3[s] = []
            self._cur = ((self._cur >> 24) << 24) | (s << 18)
            self._replace(bucket)
            return True
        if self._overflow:
            pending = self._overflow
            self._overflow = []
            live = [e for e in pending if not e.cancelled]
            self._size -= len(pending) - len(live)
            if live:
                inv = self._inv
                min_tick = min(int(e.time * inv) for e in live)
                # Jump to the start of the earliest event's 64⁴-tick
                # block; events beyond it re-enter the overflow.
                self._cur = (min_tick >> 24) << 24
                self._replace(live)
            return True
        return False

    def _replace(self, events: list[ScheduledEvent]) -> None:
        """Re-bucket cascaded events against the updated cursor."""
        inv = self._inv
        cur = self._cur
        active = self._active
        for event in events:
            if event.cancelled:
                self._size -= 1
                continue
            tick = int(event.time * inv)
            if tick <= cur:
                heappush(active, event)
            else:
                self._insert(event, tick)

    # ------------------------------------------------------------------
    # cancellation pressure
    # ------------------------------------------------------------------
    def on_cancel(self, live: int) -> None:
        """Sweep dead events out of every bucket once they dominate.

        Individual cancels are O(1) marks; this sweep only exists so a
        workload that cancels far-future events en masse (and never
        reaches their buckets) cannot hold unbounded dead memory.  Same
        trigger policy as the heap kernel's compaction; rebucketing keeps
        (time, priority, seq) ordering intact.
        """
        size = self._size
        if size < self.COMPACT_MIN:
            return
        if (size - live) * 2 <= size:
            return
        active = [e for e in self._active if not e.cancelled]
        heapify(active)
        self._active = active
        count = len(active)
        for buckets, attr in (
            (self._b0, "_o0"),
            (self._b1, "_o1"),
            (self._b2, "_o2"),
            (self._b3, "_o3"),
        ):
            occ = 0
            for slot in range(64):
                bucket = buckets[slot]
                if not bucket:
                    continue
                kept = [e for e in bucket if not e.cancelled]
                buckets[slot] = kept
                if kept:
                    occ |= 1 << slot
                    count += len(kept)
            setattr(self, attr, occ)
        self._overflow = [e for e in self._overflow if not e.cancelled]
        count += len(self._overflow)
        self._size = count
        self.compactions += 1

    def __len__(self) -> int:
        return self._size


class _SparseWheelQueue(_WheelQueue):
    """The wheel's sparse mode, expressed as a type.

    While the queue holds at most :attr:`_WheelQueue.SPARSE_MAX` entries,
    ``_active`` is the entire queue and every operation is exactly the
    heap kernel's (no tick math, no occupancy masks, no size counter) —
    push pays one extra ``len`` compare to detect the migration
    threshold, and that is the whole sparse-mode overhead.  Crossing the
    threshold calls :meth:`_WheelQueue._migrate`, which buckets the
    backlog and flips ``__class__`` to the bucketed type; draining the
    bucketed wheel completely flips back here.  Swapping ``__class__``
    (both classes share the same slot layout) keeps mode dispatch out of
    the hot paths entirely.

    ``_size`` is NOT maintained in this mode: ``len(_active)`` is the
    physical count, and migration rebuilds the counter.
    """

    __slots__ = ()

    def push(self, event: ScheduledEvent) -> None:
        active = self._active
        if len(active) < self.SPARSE_MAX:
            heappush(active, event)
        else:
            self._migrate()
            _WheelQueue.push(self, event)

    def peek(self) -> Optional[ScheduledEvent]:
        active = self._active
        while active:
            event = active[0]
            if not event.cancelled:
                return event
            heappop(active)
        return None

    def pop_head(self) -> ScheduledEvent:
        return heappop(self._active)

    def on_cancel(self, live: int) -> None:
        # at most SPARSE_MAX entries exist; dead memory is bounded and
        # cancelled heads are dropped by peek, so there is nothing to sweep
        return

    def __len__(self) -> int:
        return len(self._active)


#: Default tick width of the wheel kernel, in virtual-time units.  The
#: benchmark and app workloads schedule mostly at latencies/computes of
#: O(1) time unit; at 1/16 of a unit, level 0 alone spans 4 units, so the
#: common case is a single bucket append with no cascading.  See
#: docs/PERFORMANCE.md §6 for the sizing discussion.
DEFAULT_WHEEL_RESOLUTION = 0.0625


class Simulator:
    """The event loop: a virtual clock plus a queue of scheduled callbacks.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "hello at t=1.5")
        sim.run()

    ``kernel`` selects the event-queue implementation: ``"wheel"`` (the
    default hierarchical timer wheel), ``"heap"`` (the classic binary
    heap, kept as a differential oracle), or ``"window"`` (a bisect-based
    sorted list) — all three produce byte-identical event orders.
    ``wheel_resolution`` sets the wheel's tick width in virtual-time
    units; it affects performance only, never ordering.

    Higher layers rarely call :meth:`schedule` directly; they use
    :class:`repro.sim.process.Task` coroutines and
    :class:`repro.sim.channel.Network` messaging, which are built on it.
    """

    def __init__(
        self,
        tie_breaker: Optional[Callable[[], int]] = None,
        kernel: str = "wheel",
        wheel_resolution: float = DEFAULT_WHEEL_RESOLUTION,
        controller: Optional[Any] = None,
    ) -> None:
        self._now: float = 0.0
        if kernel == "wheel":
            self._queue: Any = _WheelQueue(wheel_resolution)
        elif kernel == "heap":
            self._queue = _HeapQueue()
        elif kernel == "window":
            self._queue = _WindowQueue()
        else:
            raise SimulationError(
                f"unknown kernel {kernel!r} (choose 'heap', 'wheel', or 'window')"
            )
        self.kernel = kernel
        #: Count of not-yet-cancelled, not-yet-executed events.  Kept exact
        #: by schedule/cancel/pop so :attr:`pending_events` is O(1) instead
        #: of a queue scan (benchmarks poll it per-iteration).
        self._live = 0
        #: Next sequence number, as a readable integer (not an opaque
        #: counter object): the network's same-tick delivery coalescing
        #: checks "has anything been scheduled since event X?" by
        #: comparing this against ``X.seq + 1``.
        self._seq_next = 0
        self._events_processed = 0
        self._running = False
        self._stopped = False
        #: optional per-event priority source; permutes same-time orderings
        #: (used by the schedule-exploring model checker)
        self._tie_breaker = tie_breaker
        #: optional :class:`ScheduleController`: at every pop the batch of
        #: live events sharing the earliest time is handed to
        #: ``controller.choose(time, events)``, which returns the index of
        #: the event to fire — the tie_breaker generalized from "seeded
        #: permutation" to externally directed choice (DPOR exploration).
        if controller is not None and tie_breaker is not None:
            raise SimulationError(
                "tie_breaker and controller are mutually exclusive — both "
                "decide same-time event order"
            )
        self._controller = controller

    @property
    def _heap(self) -> list[ScheduledEvent]:
        """The raw heap list — heap kernel only (tests and debugging)."""
        return self._queue._heap

    @property
    def heap_compactions(self) -> int:
        """Times the queue was swept to evict cancelled entries (heap
        rebuilds, or full wheel-bucket sweeps; the name predates the
        wheel kernel and is kept for stats compatibility)."""
        return self._queue.compactions

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
        :meth:`~ScheduledEvent.cancel`.  ``delay`` must be >= 0.
        """
        if delay < 0:
            raise ScheduleInPastError(f"cannot schedule {delay} time units in the past")
        priority = self._tie_breaker() if self._tie_breaker is not None else 0
        seq = self._seq_next
        self._seq_next = seq + 1
        event = ScheduledEvent(
            self._now + delay, seq, fn, args, label, priority, sim=self
        )
        self._queue.push(event)
        self._live += 1
        return event

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
        exactly ``until`` fire.  A ``max_events`` bound turns a livelocked
        simulation into a diagnosable :class:`EventLimitExceeded` instead of
        a hang.

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
        self._running = True
        self._stopped = False
        budget = max_events
        queue = self._queue
        controlled = self._controller is not None
        thresholds = gc.get_threshold() if gc.isenabled() else None
        if thresholds is not None:
            gc.set_threshold(thresholds[0], thresholds[1], _NO_FULL_COLLECTION)
        try:
            while not self._stopped:
                event = queue.peek()
                if event is None:
                    break
                if until is not None and event.time > until:
                    self._now = until
                    break
                if controlled:
                    event = self._pop_controlled()
                else:
                    queue.pop_head()
                self._live -= 1
                event.sim = None  # detach: a late cancel() must not re-decrement
                self._now = event.time
                self._events_processed += 1
                if budget is not None:
                    budget -= 1
                    if budget < 0:
                        raise EventLimitExceeded(
                            f"exceeded {max_events} events at t={self._now:.6g}; "
                            f"likely livelock (next: {event!r})"
                        )
                event.fn(*event.args)
        finally:
            self._running = False
            if thresholds is not None:
                gc.set_threshold(*thresholds)
        if until is not None and self._now < until and queue.peek() is None:
            self._now = until
        return self._now

    def _pop_controlled(self) -> ScheduledEvent:
        """Pop the next event under the schedule controller.

        Collects every live event sharing the earliest virtual time (in
        canonical ``(time, priority, seq)`` order — identical across all
        three kernels), asks the controller which one fires, and re-queues
        the rest.  The unchosen events go back *before* the chosen one
        executes, so a callback that cancels one of them finds it in the
        queue as usual.  The caller must have peeked a live head first.
        """
        queue = self._queue
        batch = [queue.pop_head()]
        time = batch[0].time
        while True:
            nxt = queue.peek()
            if nxt is None or nxt.time != time:
                break
            batch.append(queue.pop_head())
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
        for event in batch:
            queue.push(event)
        return chosen

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False when idle."""
        queue = self._queue
        event = queue.peek()
        if event is None:
            return False
        if self._controller is not None:
            event = self._pop_controlled()
        else:
            queue.pop_head()
        self._live -= 1
        event.sim = None  # detach: a late cancel() must not re-decrement
        self._now = event.time
        self._events_processed += 1
        event.fn(*event.args)
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
        cancel-then-peek sequences keep the queue's physical size in step
        with :attr:`pending_events` (no counter drift, whichever kernel)."""
        event = self._queue.peek()
        return event.time if event is not None else None
