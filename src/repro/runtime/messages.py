"""Message payload conventions: received envelopes and RPC helpers.

HOPE payloads should be treated as immutable by user code — the effect
log keeps a received payload, and a rollback replays a
:class:`ReceivedMessage` around that same object, so mutating a payload
would desynchronize the replayed incarnation from the original.  The
provided types are immutable tuples to make the right thing the easy
thing (``NamedTuple`` rather than a frozen dataclass: one of these is
allocated per delivered message, and tuple construction is several times
cheaper than a frozen dataclass ``__init__`` + ``__setattr__`` guard).
"""

from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple


class ReceivedMessage(NamedTuple):
    """What a HOPE recv resumes with: payload plus envelope metadata."""

    payload: Any
    src: str
    msg_id: int

    def __repr__(self) -> str:
        return f"ReceivedMessage({self.payload!r} from {self.src!r})"


#: A ReceivedMessage from one tuple, built in C (no generated ``__new__`` frame).
new_received = partial(tuple.__new__, ReceivedMessage)


class RpcRequest(NamedTuple):
    """An RPC request envelope: ``call`` wraps payloads in one of these.

    Servers receive a :class:`ReceivedMessage` whose payload is an
    ``RpcRequest`` and answer with ``p.reply(msg, result)``.
    """

    body: Any
    reply_to: str
    corr: int

    def __repr__(self) -> str:
        return f"RpcRequest({self.body!r} reply_to={self.reply_to!r} corr={self.corr})"


class RpcReply(NamedTuple):
    """An RPC reply envelope, matched to its request by ``corr``."""

    body: Any
    corr: int

    def __repr__(self) -> str:
        return f"RpcReply({self.body!r} corr={self.corr})"
