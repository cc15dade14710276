"""Deterministic network fault injection: drop, duplicate, reorder, jitter,
and timed partitions.

HOPE claims to fit "any system providing concurrent processes that
communicate with messages" (§3) — which in practice means lossy ones.
:class:`FaultyNetwork` subclasses :class:`~repro.sim.channel.Network` and
overrides the single delivery-scheduling seam (``_schedule_delivery``) to
apply a per-link :class:`FaultPlan`:

* **drop** — the message is never delivered (no event scheduled);
* **duplicate** — two copies are scheduled, each with its own delay;
* **reorder** — an extra uniform delay from ``reorder_window`` is added,
  letting later sends overtake this one;
* **jitter** — a uniform latency wobble on top of the latency model;
* **partition** — a timed two-sided cut: messages crossing it between
  ``start`` and ``heal_at`` are dropped deterministically.

Every fate — message drop, duplicate, reorder and jitter, ack loss —
is asked of one :class:`FateSource`: the simulator's
schedule controller when it has one, else :data:`SAMPLED`, which draws
from one seeded :class:`~repro.sim.random.RandomStream` (conventionally
``streams["faults"]``) in send order, so a faulty run replays
byte-identically from its seed.  Fates are asked only when ``param >
0`` — an all-zero plan consumes no randomness and perturbs nothing.

Control datagrams (the reliable layer's acks) do not travel as
:class:`~repro.sim.channel.Message` envelopes; they consult
:meth:`FaultyNetwork.control_fate`, which applies the same plan.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional

from .channel import Mailbox, Message, Network
from .kernel import ScheduledEvent, SimulationError, Simulator
from .latency import LatencyModel
from .random import RandomStream

def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return float(value)


def _check_nonneg(name: str, value: float) -> float:
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return float(value)


def _check_keys(what: str, data: dict, allowed: Iterable[str]) -> dict:
    """Reject unknown keys so a typo'd fault plan fails loudly instead of
    silently running fault-free (``"drp": 0.5`` would otherwise be a
    no-op — the worst kind of chaos-test bug)."""
    if not isinstance(data, dict):
        raise ValueError(
            f"{what}: expected a JSON object, got {type(data).__name__}"
        )
    allowed = tuple(allowed)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"{what}: unknown key(s) {unknown} (allowed: {sorted(allowed)})"
        )
    return data


class LinkFaults:
    """Fault parameters for one directed link (or the plan default).

    Immutable so plans can be shared, serialized, and shrunk by
    constructing scaled copies.
    """

    __slots__ = ("drop", "duplicate", "reorder", "reorder_window", "jitter")

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        reorder_window: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        object.__setattr__(self, "drop", _check_prob("drop", drop))
        object.__setattr__(self, "duplicate", _check_prob("duplicate", duplicate))
        object.__setattr__(self, "reorder", _check_prob("reorder", reorder))
        object.__setattr__(
            self, "reorder_window", _check_nonneg("reorder_window", reorder_window)
        )
        object.__setattr__(self, "jitter", _check_nonneg("jitter", jitter))
        if self.reorder > 0.0 and self.reorder_window == 0.0:
            raise ValueError("reorder > 0 needs a positive reorder_window")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("LinkFaults is immutable")

    @property
    def is_null(self) -> bool:
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.reorder == 0.0
            and self.jitter == 0.0
        )

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "LinkFaults":
        return cls(**_check_keys("LinkFaults", data, cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkFaults):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)


#: Shared all-zero parameter block — the default for untouched links.
NO_FAULTS = LinkFaults()


class Partition:
    """A timed two-sided network cut.

    Between ``start`` and ``heal_at`` (virtual time), any message whose
    endpoints fall on opposite sides is dropped.  Endpoints in neither
    group are unaffected.
    """

    __slots__ = ("a", "b", "start", "heal_at")

    def __init__(
        self,
        a: Iterable[str],
        b: Iterable[str],
        start: float = 0.0,
        heal_at: float = math.inf,
    ) -> None:
        self.a = frozenset(a)
        self.b = frozenset(b)
        if not self.a or not self.b:
            raise ValueError("both partition sides need at least one endpoint")
        if self.a & self.b:
            raise ValueError(f"partition sides overlap: {sorted(self.a & self.b)}")
        if heal_at < start:
            raise ValueError(f"heal_at={heal_at} precedes start={start}")
        self.start = float(start)
        self.heal_at = float(heal_at)

    def active(self, now: float) -> bool:
        return self.start <= now < self.heal_at

    def separates(self, src: str, dst: str, now: float) -> bool:
        if not self.active(now):
            return False
        return (src in self.a and dst in self.b) or (src in self.b and dst in self.a)

    def to_dict(self) -> dict:
        return {
            "a": sorted(self.a),
            "b": sorted(self.b),
            "start": self.start,
            "heal_at": None if math.isinf(self.heal_at) else self.heal_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Partition":
        _check_keys("Partition", data, cls.__slots__)
        heal_at = data.get("heal_at")
        return cls(
            data["a"],
            data["b"],
            start=data.get("start", 0.0),
            heal_at=math.inf if heal_at is None else heal_at,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            {self.a, self.b} == {other.a, other.b}
            and self.start == other.start
            and self.heal_at == other.heal_at
        )

    def __hash__(self) -> int:
        return hash((frozenset((self.a, self.b)), self.start, self.heal_at))


class FaultPlan:
    """A complete, serializable description of what the network does wrong.

    ``default`` applies to every link without an entry in ``links``
    (keys are ``(src, dst)`` directed pairs).
    """

    __slots__ = ("default", "links", "partitions")

    def __init__(
        self,
        default: Optional[LinkFaults] = None,
        links: Optional[dict[tuple[str, str], LinkFaults]] = None,
        partitions: Iterable[Partition] = (),
    ) -> None:
        self.default = default if default is not None else NO_FAULTS
        self.links = dict(links or {})
        self.partitions = tuple(partitions)

    def for_link(self, src: str, dst: str) -> LinkFaults:
        return self.links.get((src, dst), self.default)

    def partitioned(self, src: str, dst: str, now: float) -> bool:
        for partition in self.partitions:
            if partition.separates(src, dst, now):
                return True
        return False

    @property
    def is_null(self) -> bool:
        return (
            self.default.is_null
            and all(lf.is_null for lf in self.links.values())
            and not self.partitions
        )

    def to_dict(self) -> dict:
        return {
            "default": self.default.to_dict(),
            "links": [
                {"src": src, "dst": dst, "faults": lf.to_dict()}
                for (src, dst), lf in sorted(self.links.items())
            ],
            "partitions": [p.to_dict() for p in self.partitions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        _check_keys("FaultPlan", data, cls.__slots__)
        links = {}
        for index, entry in enumerate(data.get("links", [])):
            _check_keys(
                f"FaultPlan links[{index}]", entry, ("src", "dst", "faults")
            )
            missing = sorted({"src", "dst", "faults"} - set(entry))
            if missing:
                raise ValueError(
                    f"FaultPlan links[{index}]: missing key(s) {missing}"
                )
            links[(entry["src"], entry["dst"])] = LinkFaults.from_dict(
                entry["faults"]
            )
        return cls(
            default=LinkFaults.from_dict(data.get("default", {})),
            links=links,
            partitions=[Partition.from_dict(p) for p in data.get("partitions", [])],
        )


class FaultStats:
    """Counters for everything the fault layer did to traffic."""

    __slots__ = (
        "dropped",
        "duplicated",
        "reordered",
        "partition_dropped",
        "acks_dropped",
    )

    def __init__(self) -> None:
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.partition_dropped = 0
        self.acks_dropped = 0

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class FateSource:
    """Where a :class:`FaultyNetwork`'s fates come from: this base samples
    the network's seeded stream.

    ``kind`` is ``"drop"``, ``"duplicate"``, ``"reorder"`` or ``"ack"``
    for :meth:`fate`, and ``"reorder"`` or ``"jitter"``
    for :meth:`lateness`; ``src``/``dst`` name the link.  A schedule
    controller (:class:`repro.verify.schedule.ScheduleController`) is a
    source, and an exploring one overrides both methods.
    """

    def fate(
        self, stream: RandomStream, kind: str, src: str, dst: str, p: float
    ) -> bool:
        """Whether a fate of probability ``p`` befalls this traffic."""
        return stream.bernoulli(p)

    def lateness(
        self, stream: RandomStream, kind: str, src: str, dst: str, window: float
    ) -> float:
        """Extra delay, within ``window``, for a late copy."""
        return stream.uniform(0.0, window)


#: The source of a network whose simulator has no controller.
SAMPLED = FateSource()


class FaultyNetwork(Network):
    """A :class:`Network` that misbehaves according to a :class:`FaultPlan`.

    Identical wire semantics otherwise: same message ids, same labels,
    same mailbox behavior.  Dropped messages return a normal
    :class:`~repro.sim.channel.Delivery` whose event is None — retracting
    one is a no-op beyond marking the envelope dead.

    Tagged-message pinning: every scheduled copy of a tagged message is
    held (:meth:`~repro.sim.channel.Network.hold`), so a duplicated one
    keeps its AID tag keys pinned until the *last* copy is consumed.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        plan: Optional[FaultPlan] = None,
        stream: Optional[RandomStream] = None,
    ) -> None:
        super().__init__(sim, latency)
        self.plan = plan if plan is not None else FaultPlan()
        if stream is None and not self.plan.is_null:
            raise SimulationError(
                "FaultyNetwork with a non-null plan needs a seeded "
                "RandomStream (pass streams['faults'])"
            )
        self.stream = stream
        controller = sim._controller
        self.fates: FateSource = controller if controller is not None else SAMPLED
        self.fault_stats = FaultStats()

    # ------------------------------------------------------------------
    # the seam
    # ------------------------------------------------------------------
    def _schedule_delivery(
        self, box: Mailbox, message: Message, delay: float
    ) -> Optional[ScheduledEvent]:
        plan = self.plan
        stats = self.fault_stats
        src, dst = message.src, message.dst
        if plan.partitioned(src, dst, self.sim.now):
            stats.partition_dropped += 1
            return None
        faults = plan.for_link(src, dst)
        if faults.is_null:
            return super()._schedule_delivery(box, message, delay)
        stream, fates = self.stream, self.fates
        if faults.drop > 0.0 and fates.fate(stream, "drop", src, dst, faults.drop):
            stats.dropped += 1
            return None
        copies = 1
        if faults.duplicate > 0.0 and fates.fate(
            stream, "duplicate", src, dst, faults.duplicate
        ):
            copies = 2
            stats.duplicated += 1
        primary: Optional[ScheduledEvent] = None
        for index in range(copies):
            copy_delay = delay
            if faults.jitter > 0.0:
                copy_delay += fates.lateness(stream, "jitter", src, dst, faults.jitter)
            if faults.reorder > 0.0 and fates.fate(
                stream, "reorder", src, dst, faults.reorder
            ):
                copy_delay += fates.lateness(
                    stream, "reorder", src, dst, faults.reorder_window
                )
                stats.reordered += 1
            event = super()._schedule_delivery(box, message, copy_delay)
            if index == 0:
                primary = event
        return primary

    # ------------------------------------------------------------------
    # stats (polymorphic Network hooks)
    # ------------------------------------------------------------------
    def stats_entries(self) -> dict:
        return {"faults": self.fault_stats.as_dict()}

    def observe_gauges(self, spec) -> None:
        stats = self.fault_stats
        spec.net_dropped.set(stats.dropped)
        spec.net_duplicated.set(stats.duplicated)
        spec.net_reordered.set(stats.reordered)
        spec.net_partition_dropped.set(stats.partition_dropped)
        spec.acks_dropped.set(stats.acks_dropped)

    # ------------------------------------------------------------------
    # control-plane traffic (acks)
    # ------------------------------------------------------------------
    def control_fate(self, src: str, dst: str) -> tuple[bool, float]:
        """Loss decision + delay for an ack-style datagram on ``src->dst``."""
        if self.plan.partitioned(src, dst, self.sim.now):
            self.fault_stats.acks_dropped += 1
            return (True, 0.0)
        faults = self.plan.for_link(src, dst)
        fates = self.fates
        if faults.drop > 0.0 and fates.fate(self.stream, "ack", src, dst, faults.drop):
            self.fault_stats.acks_dropped += 1
            return (True, 0.0)
        delay = self.latency.sample(src, dst)
        if faults.jitter > 0.0:
            delay += fates.lateness(self.stream, "jitter", src, dst, faults.jitter)
        return (False, delay)
