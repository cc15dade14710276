"""Deterministic discrete-event simulation of message-passing processes.

This package is the substrate the paper assumes ("concurrent processes
that communicate with messages", §3), rebuilt as a seeded, reproducible
simulator so the HOPE semantics above it are testable and the benchmarks
are stable.
"""

from .kernel import (
    EventLimitExceeded,
    ScheduledEvent,
    ScheduleInPastError,
    SimulationError,
    Simulator,
)
from .process import (
    TIMED_OUT,
    Effect,
    GetTime,
    Halt,
    Recv,
    Task,
    TaskKilled,
    Timeout,
    UnknownEffectError,
    default_effect_handler,
)
from .channel import Delivery, Mailbox, Message, Network, UnknownEndpointError
from .faults import (
    NO_FAULTS,
    FaultPlan,
    FaultStats,
    FaultyNetwork,
    LinkFaults,
    Partition,
)
from .latency import (
    ConstantLatency,
    LatencyModel,
    LinkLatency,
    SequenceLatency,
    UniformLatency,
)
from .random import RandomStream, RandomStreams, derive_seed
from .trace import TraceRecord, Tracer
from .timeline import ProcessTimeline, Span, Timeline
from .render import render_timeline, render_utilization

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "ScheduleInPastError",
    "EventLimitExceeded",
    "Effect",
    "Timeout",
    "Recv",
    "GetTime",
    "Halt",
    "Task",
    "TaskKilled",
    "TIMED_OUT",
    "UnknownEffectError",
    "default_effect_handler",
    "Message",
    "Mailbox",
    "Network",
    "Delivery",
    "UnknownEndpointError",
    "NO_FAULTS",
    "FaultPlan",
    "FaultStats",
    "FaultyNetwork",
    "LinkFaults",
    "Partition",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "SequenceLatency",
    "LinkLatency",
    "RandomStream",
    "RandomStreams",
    "derive_seed",
    "Tracer",
    "TraceRecord",
    "Timeline",
    "ProcessTimeline",
    "Span",
    "render_timeline",
    "render_utilization",
]
