"""Time Warp message types (Jefferson's virtual time, refs [16, 17]).

Every positive message has a unique id; its anti-message is the same id
with negative sign.  When a pair meets in an input queue, both vanish
(annihilation).  An anti-message arriving for an already-processed
positive message forces the receiver to roll back.
"""

from __future__ import annotations

import itertools
from typing import Any

_uids = itertools.count(1)


class TWMessage:
    """A (possibly anti-) message in the Time Warp system.

    ``send_vt`` / ``recv_vt`` are virtual times; physical transit time is
    the simulator's business.  ``sign`` is +1 or -1.
    """

    __slots__ = ("uid", "src", "dst", "send_vt", "recv_vt", "payload", "sign")

    def __init__(
        self,
        src: str,
        dst: str,
        send_vt: float,
        recv_vt: float,
        payload: Any,
        sign: int = 1,
        uid: int | None = None,
    ) -> None:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if recv_vt < send_vt:
            raise ValueError(
                f"recv_vt {recv_vt} earlier than send_vt {send_vt}: messages "
                "may not travel into the virtual past"
            )
        self.uid = uid if uid is not None else next(_uids)
        self.src = src
        self.dst = dst
        self.send_vt = send_vt
        self.recv_vt = recv_vt
        self.payload = payload
        self.sign = sign

    def anti(self) -> "TWMessage":
        """The annihilating twin of this (positive) message."""
        if self.sign != 1:
            raise ValueError("anti() of an anti-message")
        return TWMessage(
            self.src, self.dst, self.send_vt, self.recv_vt, self.payload, -1, self.uid
        )

    def sort_key(self) -> tuple:
        """Deterministic processing order: virtual time, then uid."""
        return (self.recv_vt, self.uid)
