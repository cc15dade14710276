"""Wire format for the parallel backend: frames between shard workers.

Everything that crosses a worker boundary is a compact :func:`~typing.
NamedTuple` frame shipped over a ``multiprocessing`` pipe (stdlib pickle
— the container has no msgpack, and the frames are all plain scalars and
small tuples, so pickle's framing overhead is the only cost).  Frames
carry *identifiers*, never live objects: a message frame names its AID
tags by key, and the receiving shard adopts mirror
:class:`~repro.core.aid.AssumptionId` objects for keys it has never seen
(:meth:`repro.core.machine.Machine.adopt_aid`).

Identifier scheme
-----------------

* **fid** — globally unique frame/message id.  ``fid = (src_worker + 1)
  * FID_STRIDE + seq`` so the origin worker is recoverable
  (``fid_origin``) and fids can never collide with the small per-network
  local ``msg_id`` counters (local ids start at 1; the lowest fid is
  ``FID_STRIDE``).
* **AID serials** — each shard machine starts its serial counter at
  ``worker_index * SERIAL_STRIDE`` (:meth:`Machine.offset_serials`), so
  two shards never mint the same ``name#serial`` key for different
  assumptions and mirror adoption is unambiguous.

Determinism
-----------

Frame *application order* must not depend on OS scheduling.  Every frame
created by a shard gets a per-shard monotonically increasing ``seq``;
the coordinator sorts each grant's frames by :func:`frame_sort_key`
— ``(apply_time, type_rank, origin, seq)`` — before handing them to a
worker, giving a total order that is a pure function of the computation.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

#: Fid namespace width per worker (also the per-shard AID serial stride).
FID_STRIDE = 1_000_000_000
SERIAL_STRIDE = 1_000_000_000

#: ResolveFrame kinds.  ``affirm``/``deny`` are relayed definite
#: resolutions, applied at ``time + lookahead`` by the ``__remote__``
#: pseudo-process.  ``detector_deny`` is the coordinator's failure-
#: detector action for a dead worker's assumptions, applied at ``time``
#: exactly by the ``__detector__`` pseudo-process.
AFFIRM = "affirm"
DENY = "deny"
DETECTOR_DENY = "detector_deny"


def make_fid(worker_index: int, seq: int) -> int:
    return (worker_index + 1) * FID_STRIDE + seq


def fid_origin(fid: int) -> int:
    return fid // FID_STRIDE - 1


class MsgFrame(NamedTuple):
    """One cross-shard message: payload plus the sender's AID tag keys."""

    fid: int
    src: str
    dst: str
    payload: Any
    tags: tuple          # sorted AID key strings
    send_time: float
    deliver_time: float  # send_time + lookahead


class RetractFrame(NamedTuple):
    """Kill an already shipped message (sender's interval rolled back).

    In-flight optimization only: even without it the receiver drops the
    message at delivery, because its tags name the denied AID (the
    ``drop_dead_message`` path).  ``dst`` names the destination process
    so the coordinator can route without a fid table."""

    fid: int
    dst: str
    seq: int


class AckFrame(NamedTuple):
    """Receipt acknowledgement, routed back to ``fid_origin(fid)``."""

    fid: int


class ResolveFrame(NamedTuple):
    """A definite affirm/deny crossing shard boundaries."""

    kind: str            # AFFIRM | DENY | DETECTOR_DENY
    key: str             # AID key ("name#serial")
    origin: int          # issuing worker index (-1: the coordinator)
    time: float          # issue time; applied at time (+ lookahead)
    seq: int


class ShardSpec(NamedTuple):
    """Everything a worker needs to build its shard (crosses via fork)."""

    index: int
    nworkers: int
    specs: tuple         # ((name, fn, args), ...) for this shard only
    placement: dict      # process name -> worker index (all processes)
    lookahead: float
    config: dict         # engine kwargs subset (seed, latency, ...)
    crash_at: Optional[float]
    max_events: Optional[int]


_TYPE_RANK = {AckFrame: 0, RetractFrame: 1, MsgFrame: 2, ResolveFrame: 3}


def frame_sort_key(frame, lookahead: float) -> tuple:
    """Total order for injecting one grant's frames into a shard.

    Acks and retracts apply instantly at injection (they only flip
    bookkeeping bits), so they sort first; messages and resolutions sort
    by the virtual time their scheduled effect lands."""
    if type(frame) is MsgFrame:
        return (frame.deliver_time, 2, fid_origin(frame.fid), frame.fid)
    if type(frame) is ResolveFrame:
        apply = frame.time if frame.kind == DETECTOR_DENY else frame.time + lookahead
        return (apply, 3, frame.origin, frame.seq)
    if type(frame) is RetractFrame:
        return (-1.0, 1, fid_origin(frame.fid), frame.seq)
    return (-1.0, 0, fid_origin(frame.fid), frame.fid)


def frame_apply_time(frame, lookahead: float) -> Optional[float]:
    """Earliest virtual time the frame makes its destination busy, or
    None for bookkeeping-only frames (acks, retracts) that never wake an
    idle shard."""
    if type(frame) is MsgFrame:
        return frame.deliver_time
    if type(frame) is ResolveFrame:
        if frame.kind == DETECTOR_DENY:
            return frame.time
        return frame.time + lookahead
    return None
