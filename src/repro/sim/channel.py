"""Messaging: mailboxes, message envelopes, and the simulated network.

HOPE is defined for "any system providing concurrent processes that
communicate with messages" (§3).  This module is that system: each named
process owns a :class:`Mailbox`; a :class:`Network` routes
:class:`Message` envelopes between mailboxes with a pluggable latency
model.

Two affordances exist specifically for optimism:

* a :class:`Delivery` handle can be *retracted* before or after delivery —
  how the HOPE runtime kills messages sent from a rolled-back interval;
* envelopes carry a ``tags`` set — the AIDs the sender depended on, which
  drive the receiver's implicit ``guess`` (§3, §7).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Iterable, Optional

from .kernel import ScheduledEvent, SimulationError, Simulator
from .latency import ConstantLatency, LatencyModel
from .process import TIMED_OUT, Task

_msg_ids = itertools.count(1)


class Message:
    """An envelope in flight or in a mailbox.

    ``tags`` is the set of assumption identifiers the sender depended on at
    send time (empty for definite sends).  ``dead`` marks a message
    retracted by rollback; mailboxes silently drop dead messages.
    ``holds`` counts the copies of a tagged message that are still
    outstanding and so pin its tag keys (see :meth:`Network.hold`).
    ``copies`` counts its copies in flight: scheduled for delivery and
    not yet fired or cancelled (a fault-injected duplicate is a second).
    """

    __slots__ = (
        "msg_id", "src", "dst", "payload", "tags", "send_time", "deliver_time",
        "dead", "holds", "copies",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Any,
        tags: Optional[frozenset] = None,
        send_time: float = 0.0,
        msg_id: Optional[int] = None,
    ) -> None:
        self.msg_id = msg_id if msg_id is not None else next(_msg_ids)
        self.src = src
        self.dst = dst
        self.payload = payload
        self.tags = tags or frozenset()
        self.send_time = send_time
        self.deliver_time: Optional[float] = None
        self.dead = False
        self.holds = 0
        self.copies = 0


class Delivery:
    """Handle on a sent message; supports retraction at any point.

    Before delivery, :meth:`retract` cancels the scheduled delivery event.
    After delivery but before receipt, the message is marked dead and the
    mailbox drops it.  After receipt, marking it dead is still meaningful:
    the HOPE runtime checks ``message.dead`` when deciding whether a
    rolled-back receive should be redelivered.
    """

    __slots__ = ("message", "_event", "_network")

    def __init__(
        self,
        message: Message,
        event: Optional[ScheduledEvent],
        network: Optional["Network"] = None,
    ) -> None:
        self.message = message
        self._event = event
        self._network = network

    def retract(self) -> None:
        message = self.message
        message.dead = True
        if message.holds:
            # A dead message resolves no tag again, wherever its copies
            # are: all of them let go at once.
            message.holds = 0
            self._network.pins.unpin(message.tags)
        event = self._event
        if event is not None:
            self._event = None
            if event.sim is not None:       # still queued: a copy less in flight
                message.copies -= 1
            event.cancel()


class _Waiter:
    """A sim task blocked on a mailbox (the default handler's ``Recv``).

    What a mailbox asks of any waiter: its ``predicate`` (None takes any
    message), :meth:`deliver` once the mailbox has taken it off, with the
    message or :data:`TIMED_OUT`, and to be its task's kill cleanup
    (``__call__``: off the mailbox again).  The HOPE runtime's task is
    its own waiter.  A recv's timeout is its task's pending event, so a
    kill cancels it with the rest.
    """

    __slots__ = ("task", "predicate", "box")

    def __init__(self, task: Task, predicate, box) -> None:
        self.task = task
        self.predicate = predicate
        self.box = box

    def deliver(self, value: Any) -> None:
        task = self.task
        timer = task._pending
        if timer is not None:           # served before its timeout
            task._pending = None
            timer.cancel()
        task.clear_cleanups()
        task.resume(value)

    def __call__(self) -> None:
        self.box._remove_waiter(self)


#: What a :class:`Mailbox` holds in place of a container it has not needed.
_UNUSED = ()


class Mailbox:
    """FIFO of messages for one process, with blocking receivers.

    Receivers may pass a ``predicate`` to receive selectively (used by RPC
    reply matching); unmatched messages stay queued in order.

    A mailbox owns no container until it needs one: ``_queue`` is the
    shared empty tuple until the first message has to wait (most arrive
    at a blocked receiver and never do), and ``_waiters`` holds a lone
    waiter itself — a list only while two or more receivers block at once
    (competing consumers), and the lone waiter again when one is left.
    Every read works on the tuple; the sites that add an element swap in
    the real container first, and the queue stays (a purge drops it).
    """

    __slots__ = ("sim", "owner", "_queue", "_waiters")

    def __init__(self, sim: Simulator, owner: str) -> None:
        self.sim = sim
        self.owner = owner
        self._queue: Any = _UNUSED      # a deque[Message] once one has queued
        self._waiters: Any = _UNUSED    # a waiter, or a list of two or more

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def put(self, message: Message) -> None:
        """Deliver a message: hand it to the first matching waiter or queue it."""
        if message.dead:
            return
        message.deliver_time = self.sim.now
        waiters = self._waiters
        if type(waiters) is not list:
            if waiters:
                # Common case — one blocked receiver: no list to walk.
                predicate = waiters.predicate
                if predicate is None or predicate(message):
                    self._waiters = _UNUSED
                    waiters.deliver(message)
                    return
        else:
            for waiter in waiters:
                predicate = waiter.predicate
                if predicate is None or predicate(message):
                    self._remove_waiter(waiter)
                    waiter.deliver(message)
                    return
        if self._queue is _UNUSED:
            self._queue = deque()
        self._queue.append(message)

    def requeue_front(self, messages: Iterable[Message]) -> None:
        """Put messages back at the head, preserving their relative order.

        Used when a rollback un-receives messages whose senders survived:
        they must be redelivered in the original order.
        """
        if self._queue is _UNUSED:
            self._queue = deque()
        for message in reversed(list(messages)):
            if not message.dead:
                self._queue.appendleft(message)
        self._wake_matching()

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def register_receiver(
        self,
        task: Task,
        timeout: Optional[float] = None,
        predicate: Optional[Callable[[Message], bool]] = None,
    ) -> None:
        """Attach a blocked sim task; resumes with a Message or TIMED_OUT."""
        self.register_waiter(_Waiter(task, predicate, self), task, timeout)

    def register_waiter(self, waiter: Any, task: Task, timeout: Optional[float] = None) -> None:
        """Block ``task`` on this mailbox through ``waiter`` (see
        :class:`_Waiter` for what a waiter is): served at once if a
        matching message is queued, else enqueued, with a timeout timer
        as the task's pending event when ``timeout`` is set.  Only legal
        while the waiter is not already enqueued (one recv at a time)."""
        if self._queue:
            # dead-sweep and scan only when something is actually queued —
            # the hot path (ping-pong style alternation) always finds the
            # queue empty here.
            self._drop_dead()
            predicate = waiter.predicate
            for idx, message in enumerate(self._queue):
                if predicate is None or predicate(message):
                    del self._queue[idx]
                    waiter.deliver(message)
                    return
        if timeout is not None:
            task._pending = self.sim.schedule(
                timeout, self._timeout_waiter, waiter, task,
                label="recv-timeout:" + self.owner,
            )
        waiters = self._waiters
        if not waiters:
            self._waiters = waiter
        elif type(waiters) is list:
            waiters.append(waiter)
        else:
            self._waiters = [waiters, waiter]
        task.add_cleanup(waiter)

    def _timeout_waiter(self, waiter: Any, task: Task) -> None:
        task._pending = None            # this event: nothing to cancel
        self._remove_waiter(waiter)
        waiter.deliver(TIMED_OUT)

    def _remove_waiter(self, waiter: Any) -> None:
        waiters = self._waiters
        if waiters is waiter:
            self._waiters = _UNUSED
        elif type(waiters) is list and waiter in waiters:
            waiters.remove(waiter)
            if len(waiters) == 1:
                self._waiters = waiters[0]

    def _wake_matching(self) -> None:
        """After a requeue, hand queued messages to any compatible waiters."""
        progress = True
        while progress and self._queue and self._waiters:
            progress = False
            waiters = self._waiters
            for waiter in waiters if type(waiters) is list else (waiters,):
                delivered = None
                predicate = waiter.predicate
                for idx, message in enumerate(self._queue):
                    if predicate is None or predicate(message):
                        delivered = idx
                        break
                if delivered is not None:
                    message = self._queue[delivered]
                    del self._queue[delivered]
                    self._remove_waiter(waiter)
                    waiter.deliver(message)
                    progress = True
                    break

    def _drop_dead(self) -> None:
        # Scan first: the common case is an all-live (usually empty)
        # queue, and rebuilding the deque on every register_receiver was
        # measurable allocator churn on the recv hot path.
        if any(m.dead for m in self._queue):
            self._queue = deque(m for m in self._queue if not m.dead)

    def purge(self) -> int:
        """Discard all queued messages (crash semantics: a dead node's
        buffered input is lost).  Returns how many were dropped."""
        dropped = len(self._queue)
        self._queue = _UNUSED
        return dropped

    def __len__(self) -> int:
        self._drop_dead()
        return len(self._queue)

    def peek_all(self) -> list[Message]:
        """Snapshot of queued (undelivered-to-task) live messages."""
        self._drop_dead()
        return list(self._queue)

    def __repr__(self) -> str:
        waiters = self._waiters
        count = len(waiters) if type(waiters) is list else int(bool(waiters))
        return f"<Mailbox {self.owner!r} queued={len(self._queue)} waiters={count}>"


class _Closed(Mailbox):
    """A closed endpoint (:meth:`Network.close`): mail to it is accepted,
    and :meth:`put` consumes each copy on arrival (the network lets go of
    its hold).  A closed mailbox turns into one in place, for the copies
    already on their way; one per network stands for every closed name."""

    __slots__ = ()

    def put(self, message: Message) -> bool:
        return True


class UnknownEndpointError(SimulationError):
    """A message was addressed to a process the network has never seen."""


class Network:
    """Routes messages between named endpoints with modelled latency.

    Statistics (``messages_sent``, ``bytes_proxy``) feed the
    dependency-tracking-overhead benchmark (experiment TRACK).
    """

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else ConstantLatency(0.0)
        self._mailboxes: dict[str, Mailbox] = {}
        #: Every name that was ever an endpoint (any container; the HOPE
        #: runtime passes its timeline), so that a closed one still is.
        self.known: Any = ()
        self._closed = _Closed(sim, "")
        self._dropped = 0       # names closed since _mailboxes was rebuilt
        self.messages_sent = 0
        self.tag_count_total = 0
        #: Where the tag keys of outstanding messages are pinned: an object
        #: with ``pin(keys)`` / ``unpin(keys)``.  Every HOPE runtime
        #: installs its machine, which must not retire an AID a delivery
        #: will still look up by key; None is a bare network (the Time
        #: Warp baseline's, or the sim layer used alone), where nobody
        #: retires anything and nothing is accounted.  See :meth:`hold`.
        self.pins: Any = None
        #: Optional arrival interceptor: called with each live message the
        #: instant it reaches the destination mailbox, before ``put``.
        #: Return False to suppress delivery (the reliable-delivery layer
        #: uses this for receiver-side dedup and to model a crashed node
        #: dropping arrivals).  None delivers every live copy.
        self.deliver_hook: Optional[Callable[[Message], bool]] = None
        #: Same-tick delivery coalescing (see :meth:`send`): the most
        #: recently scheduled delivery as ``[event, entries, box, message,
        #: delivery]``; ``entries`` is None until a second delivery is
        #: merged into the event.  Only the exactly-once base transport
        #: coalesces — a subclassed ``_schedule_delivery`` (fault
        #: injection) or a schedule controller disables it, since both
        #: hang per-event behaviour on each delivery owning an event.  A
        #: fired or retracted delivery can no longer be joined but keeps
        #: its messages until the next send; ``HopeSystem.run`` drops it
        #: at quiescence.
        self._open_batch: Optional[list] = None
        #: The entries list of the sweep currently being delivered (None
        #: outside :meth:`_sweep_deliveries`) — appends are only legal
        #: into a still-pending event or a live iteration.
        self._sweep_live: Optional[list] = None
        self._can_batch = (
            type(self)._schedule_delivery is Network._schedule_delivery
            and sim._batching
        )

    def register(self, name: str) -> Mailbox:
        """Create (or fetch) the mailbox for endpoint ``name``."""
        box = self._mailboxes.get(name)
        if box is None:
            box = Mailbox(self.sim, name)
            self._mailboxes[name] = box
        return box

    def close(self, name: str) -> None:
        """Endpoint ``name`` will never receive again (its process has
        retired): release what is queued there and consume every copy that
        arrives from now on.  :meth:`register` opens it anew, and the
        copies still on their way then land in the new mailbox."""
        self.purge(name)
        box = self._mailboxes.pop(name)
        box._waiters = _UNUSED
        box.__class__ = _Closed
        self._dropped += 1
        if self._dropped > len(self._mailboxes):    # (as Machine.drop_process)
            self._dropped, self._mailboxes = 0, dict(self._mailboxes)

    def mailbox(self, name: str) -> Mailbox:
        box = self._mailboxes.get(name)
        if box is None:
            if name not in self.known:
                raise UnknownEndpointError(f"no endpoint named {name!r}")
            box = self._closed
        return box

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        tags: Optional[frozenset] = None,
        latency_override: Optional[float] = None,
        msg_id: Optional[int] = None,
    ) -> Delivery:
        """Send ``payload`` from ``src`` to ``dst``; returns a retractable handle.

        ``msg_id`` lets a retransmission reuse the original id so the
        receiver can dedup; fresh sends leave it None for an auto id.

        Same-tick coalescing: when this delivery would fire at exactly the
        same virtual time as the previously scheduled one *and* no other
        event has been scheduled in between (:meth:`Simulator.joins` — so
        no event can possibly order between the two), the message rides the
        previous delivery's event as one sweep instead of paying its own
        scheduler round-trip.  Sequence numbers are allocated per
        ``schedule`` call, so adjacency makes the merged order provably
        identical to the unmerged one: traces stay byte-identical.  This
        is what turns an n-way same-latency fan-out into one event.
        """
        box = self.mailbox(dst)
        # message ids are per-network so equal seeds replay identically
        message = Message(
            src, dst, payload, tags,
            send_time=self.sim.now,
            msg_id=msg_id if msg_id is not None else self.messages_sent + 1,
        )
        delay = (
            latency_override
            if latency_override is not None
            else self.latency.sample(src, dst)
        )
        batch = self._open_batch
        if batch is not None:
            levent = batch[0]
            if self.sim.joins(levent, delay):
                entries = batch[1]
                # The rider may only join a delivery that will still
                # happen: either the event is pending (``sim`` is detached
                # at pop — rewiring or appending before it fires is always
                # safe), or it is the sweep the network is delivering
                # *right now* (this send came from an inline trampoline
                # inside the loop, and list appends are picked up by the
                # ongoing iteration, in order).  Seq adjacency alone is
                # not enough: a zero-delay send issued after the event's
                # callback chain unwound (e.g. from top-level code between
                # ``run`` calls) can still satisfy it.
                if levent.sim is not None or (
                    entries is not None and self._sweep_live is entries
                ):
                    if entries is None:
                        # Second rider: upgrade the scheduled single
                        # delivery to a sweep.  The first message's
                        # Delivery handle stops owning the (now shared)
                        # event — retraction falls back to dead-marking,
                        # which the sweep honours.
                        entries = batch[1] = [(batch[2], batch[3])]
                        levent.fn = self._sweep_deliveries
                        levent.args = (entries, (levent.time, levent.seq))
                        batch[4]._event = None
                    entries.append((box, message))
                    message.copies += 1
                    if message.tags:
                        self.hold(message)
                    self.messages_sent += 1
                    self.tag_count_total += len(message.tags)
                    return Delivery(message, None, self)
        event = self._schedule_delivery(box, message, delay)
        self.messages_sent += 1
        self.tag_count_total += len(message.tags)
        delivery = Delivery(message, event, self)
        if event is not None and self._can_batch:
            self._open_batch = [event, None, box, message, delivery]
        return delivery

    def _sweep_deliveries(self, entries: list, key: tuple) -> None:
        """Deliver a coalesced batch, in original (seq) schedule order.

        Per message this is exactly what the dedicated delivery callback
        (:meth:`_put`) would have done at the same instant,
        and one that raises leaves the rest queued at the sweep's ``key``."""
        self._sweep_live = entries
        try:
            for at, (box, message) in enumerate(entries, 1):
                self._put(box, message)
        except BaseException:
            if at < len(entries):
                self.sim.requeue(key, self._sweep_deliveries, entries[at:], key)
            raise
        finally:
            self._sweep_live = None

    def _schedule_delivery(
        self, box: Mailbox, message: Message, delay: float
    ) -> Optional[ScheduledEvent]:
        """Schedule one delivery of ``message`` — the fault-injection seam.

        :class:`repro.sim.faults.FaultyNetwork` overrides this to drop,
        duplicate, reorder, and jitter; the base class delivers exactly
        once after ``delay``.
        """
        # Built per delivery: a cache per link outlived every link's use.
        label = f"deliver:{message.src}->{message.dst}"
        if message.tags:
            self.hold(message)
        message.copies += 1
        return self.sim.schedule(delay, self._put, box, message, label=label)

    def _put(self, box: Mailbox, message: Message) -> None:
        """A copy of ``message`` arrives: past the hook, into ``box``."""
        message.copies -= 1
        hook = self.deliver_hook
        if hook is not None and not message.dead and not hook(message):
            if message.holds:
                self.release(message)       # the hook consumed this copy
            return
        if type(box) is _Closed:    # unless register has reopened the name
            box = self._mailboxes.get(message.dst, box)
        if box.put(message) and message.holds:
            self.release(message)           # a closed endpoint consumed it

    # ------------------------------------------------------------------
    # tag pins
    # ------------------------------------------------------------------
    def hold(self, message: Message) -> None:
        """One more copy of tagged ``message`` is outstanding.

        A copy is outstanding from the moment it is scheduled until it is
        consumed for good: on the wire, queued in a mailbox, or kept by a
        receiver that may yet un-receive it (a rollback requeues it).
        While any copy is, a delivery may still resolve the tags by key,
        so the message holds one pin on each; whoever consumes a copy
        calls :meth:`release`, and retraction (:meth:`Delivery.retract`)
        lets go of all of them at once.  Without ``pins`` nothing is held.
        """
        pins = self.pins
        if pins is not None:
            if not message.holds:
                pins.pin(message.tags)
            message.holds += 1

    def release(self, message: Message) -> None:
        """A held copy of ``message`` has been consumed for good."""
        message.holds -= 1
        if not message.holds:
            self.pins.unpin(message.tags)

    def purge(self, name: str) -> int:
        """Discard what is queued at endpoint ``name`` (:meth:`Mailbox.purge`),
        releasing the copies that go with it."""
        box = self.mailbox(name)
        for message in box._queue:
            if message.holds:
                self.release(message)
        return box.purge()

    def control_fate(self, src: str, dst: str) -> tuple[bool, float]:
        """Fate of a control datagram (an ack) on the ``src -> dst``
        link: ``(lost, delay)``.  The reliable network never loses one;
        :class:`~repro.sim.faults.FaultyNetwork` applies its fault plan."""
        return (False, self.latency.sample(src, dst))

    def stats_entries(self) -> dict:
        """Named stats blocks this transport contributes to
        :meth:`repro.runtime.engine.HopeSystem.stats` — polymorphic, so
        the engine never type-checks its network.
        :class:`~repro.sim.faults.FaultyNetwork` adds ``{"faults": ...}``."""
        return {}

    def observe_gauges(self, spec) -> None:
        """Fill transport-specific gauges on the
        :class:`repro.obs.SpeculationMetrics` instrument set during a
        metrics snapshot.  The reliable base network has none."""
