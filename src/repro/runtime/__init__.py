"""The HOPE runtime: processes, tagged messages, automatic rollback.

Public surface:

* :class:`HopeSystem` — build a world, spawn processes, run;
* :class:`HopeProcess` — the effect facade handed to process bodies;
* :class:`AidHandle` — user-space assumption references;
* :func:`call` — the synchronous-RPC sub-generator used by the examples;
* :data:`TIMED_OUT` — the sentinel ``p.recv(timeout=...)`` returns when no
  message arrives in time (compare with ``is``);
* :mod:`repro.runtime.resilience` — reliable delivery.

Every primitive takes effect at once; §7's AID tasks, whose resolutions
land one message hop later, are a timing model in the AIDMODE experiment.
"""

from ..sim import TIMED_OUT
from .api import AidHandle, HopeProcess, aid_key, call
from .effects import (
    AffirmEffect,
    AidInitEffect,
    CommitPointEffect,
    ComputeEffect,
    DenyEffect,
    EmitEffect,
    FreeOfEffect,
    GuessEffect,
    HopeEffect,
    NowEffect,
    RandomEffect,
    RecvEffect,
    SendEffect,
)
from .engine import HopeSystem, OutputRecord, ProcessRuntime
from .messages import ReceivedMessage, RpcReply, RpcRequest
from .replay import Checkpoint, EffectLog, LogEntry, RebasePoint, ReplayDivergenceError
from .resilience import (
    ReliableConfig,
    ReliableDelivery,
    ReliableStats,
    ReliableTransport,
)

__all__ = [
    "HopeSystem",
    "TIMED_OUT",
    "ReliableConfig",
    "ReliableDelivery",
    "ReliableStats",
    "ReliableTransport",
    "HopeProcess",
    "ProcessRuntime",
    "AidHandle",
    "aid_key",
    "call",
    "ReceivedMessage",
    "RpcRequest",
    "RpcReply",
    "EffectLog",
    "RebasePoint",
    "LogEntry",
    "Checkpoint",
    "ReplayDivergenceError",
    "HopeEffect",
    "AidInitEffect",
    "GuessEffect",
    "AffirmEffect",
    "DenyEffect",
    "FreeOfEffect",
    "SendEffect",
    "RecvEffect",
    "ComputeEffect",
    "NowEffect",
    "RandomEffect",
    "EmitEffect",
    "CommitPointEffect",
    "OutputRecord",
]
