"""The user-facing HOPE API: the process facade and AID handles.

A HOPE process body is a generator function ``def body(p, *args)`` whose
``p`` is a :class:`HopeProcess`.  Every interaction with the world is a
``yield`` of one of ``p``'s effect constructors::

    def worker(p):
        x = yield p.aid_init("page-not-full")
        yield p.send("worrywart", ("check", x))
        if (yield p.guess(x)):
            yield p.compute(2.0)        # optimistic path
        else:
            yield p.compute(8.0)        # pessimistic path (after rollback)

Idiomatically — exactly as §3 prescribes — ``guess`` sits in an ``if``:
the True branch is the optimistic algorithm, the False branch the
pessimistic one, and the runtime re-executes from the ``guess`` with
False when the assumption is denied.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from .effects import (
    AffirmEffect,
    AidInitEffect,
    CommitPointEffect,
    ComputeEffect,
    DenyEffect,
    EmitEffect,
    FreeOfEffect,
    GuessEffect,
    NowEffect,
    RandomEffect,
    RecvEffect,
    SendEffect,
)
from .messages import ReceivedMessage, RpcReply, RpcRequest


class AidHandle:
    """A user-space reference to an assumption identifier.

    Handles are plain immutable values: they can be stored, compared, and
    sent inside message payloads to other processes (which is how Figure 2
    hands ``PartPage`` and ``Order`` to the WorryWart).

    A handle the engine made (``aid_init``, or a durable resume decoding
    one) is *bound*: ``aid`` is the :class:`~repro.core.aid.AssumptionId`,
    and ``guess`` / ``affirm`` / ``deny`` / ``free_of`` through it reach
    the machine by object; the pass that settles the AID points ``aid`` at
    the shared verdict of its status (:data:`~repro.core.aid.VERDICTS`:
    read its ``status``, not its ``key``).  ``aid`` is not part of the
    value: equality, hash, ``repr`` and pickling see ``key`` and ``name``
    only, so an unpickled copy is unbound and is looked up by key.
    """

    __slots__ = ("key", "name", "aid", "__weakref__")

    def __init__(self, key: str, name: str, aid: Any = None) -> None:
        _set_key(self, key)
        _set_name(self, name)
        _set_aid(self, aid)

    def __setattr__(self, attr: str, value: Any) -> None:
        raise AttributeError(f"AidHandle is immutable (cannot set {attr!r})")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"AidHandle is immutable (cannot delete {attr!r})")

    def __eq__(self, other: Any) -> bool:
        if type(other) is not AidHandle:
            return NotImplemented
        return self.key == other.key and self.name == other.name

    def __hash__(self) -> int:
        return hash((self.key, self.name))

    # Pickled as the two-field value it always was (the bytes of a durable
    # image do not change), and restored unbound.
    def __getstate__(self) -> dict:
        return {"key": self.key, "name": self.name}

    def __setstate__(self, state: dict) -> None:
        AidHandle.__init__(self, state["key"], state["name"])

    # Handles are immutable values, so copying them as identity is
    # semantically free — and load-bearing for fossil collection: while
    # its AID is pending, the engine keeps it from retiring for as long as
    # *this object* is reachable (a weak reference on the AID), and
    # commit-point states are deep-copied.  A copy that produced a fresh
    # object would drop that hold when the original died.  (A settled AID
    # needs no hold: the bound handle holds its verdict.)
    def __copy__(self) -> "AidHandle":
        return self

    def __deepcopy__(self, memo) -> "AidHandle":
        return self

    def __repr__(self) -> str:
        return f"AID<{self.key}>"


_set_key = AidHandle.key.__set__
_set_name = AidHandle.name.__set__
#: Binds a handle to its AID, or to its verdict once settled (``Machine.on_settle``).
_set_aid = AidHandle.aid.__set__


AidRef = Union[AidHandle, str]


def aid_key(ref: AidRef) -> str:
    """Accept an :class:`AidHandle` or a raw key string."""
    if isinstance(ref, AidHandle):
        return ref.key
    return ref


def _key_and_aid(ref: AidRef) -> tuple:
    """``(key, bound AID or None)``: what a resolution effect carries."""
    if isinstance(ref, AidHandle):
        return ref.key, ref.aid
    return ref, None


class HopeProcess:
    """Effect-constructor facade handed to every HOPE process body.

    Thin by design: each method builds an effect for the engine; no state
    lives here except identity, so user code cannot accidentally bypass
    the effect log.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    # ------------------------------------------------------------------
    # the five HOPE primitives (§3)
    # ------------------------------------------------------------------
    def aid_init(self, name: str = "aid") -> AidInitEffect:
        """Create an assumption identifier; resumes with an :class:`AidHandle`."""
        return AidInitEffect(name)

    def guess(self, aid: AidRef) -> GuessEffect:
        """Make the optimistic assumption ``aid``; resumes with True, or
        False when re-executed after the assumption is denied."""
        return GuessEffect(*_key_and_aid(aid))

    def affirm(self, aid: AidRef) -> AffirmEffect:
        """Assert the assumption identified by ``aid`` is true."""
        return AffirmEffect(*_key_and_aid(aid))

    def deny(self, aid: AidRef) -> DenyEffect:
        """Assert the assumption identified by ``aid`` is false."""
        return DenyEffect(*_key_and_aid(aid))

    def free_of(self, aid: AidRef) -> FreeOfEffect:
        """Assert this computation is (and will stay) causally free of ``aid``."""
        return FreeOfEffect(*_key_and_aid(aid))

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(self, dst: str, payload: Any) -> SendEffect:
        """Asynchronously send ``payload``; automatically tagged with the
        sender's current assumption dependencies (§7)."""
        # Built via __new__ + slot stores rather than the constructor:
        # one effect is allocated per send and skipping the __init__
        # frame is measurable on the message hot path.
        effect = _new_effect(SendEffect)
        effect.dst = dst
        effect.payload = payload
        return effect

    def recv(
        self,
        timeout: Optional[float] = None,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> RecvEffect:
        """Receive the next message; resumes with a :class:`ReceivedMessage`
        (or :data:`repro.sim.TIMED_OUT`).  Tagged messages first apply the
        implicit guesses of §3."""
        if timeout is None and predicate is None:
            return _RECV_ANY  # immutable: the common case shares one object
        return RecvEffect(timeout, predicate)

    def reply(self, request: ReceivedMessage, body: Any) -> SendEffect:
        """Answer an :class:`RpcRequest` carried by ``request``."""
        payload = request.payload
        if not isinstance(payload, RpcRequest):
            raise TypeError(f"reply() needs an RpcRequest payload, got {payload!r}")
        return SendEffect(payload.reply_to, RpcReply(body, payload.corr))

    # ------------------------------------------------------------------
    # local computation & environment
    # ------------------------------------------------------------------
    def compute(self, duration: float) -> ComputeEffect:
        """Model ``duration`` time units of local CPU work."""
        return ComputeEffect(duration)

    def now(self) -> NowEffect:
        """Read the virtual clock (replay-safe)."""
        return _NOW

    def random(self) -> RandomEffect:
        """Uniform float in [0,1) from this process's stream (replay-safe)."""
        return _RANDOM

    def emit(self, value: Any) -> EmitEffect:
        """Produce an output value under the output-commit discipline:
        withdrawn on rollback, committed once all assumptions resolve.
        Read results with :meth:`HopeSystem.outputs` /
        :meth:`HopeSystem.committed_outputs`."""
        return EmitEffect(value)

    def commit_point(self, state: Any) -> CommitPointEffect:
        """Declare that ``state`` fully captures this process here.

        The engine deep-copies ``state`` and, once the commit frontier
        passes this point (all guesses taken before it are finalized),
        fossil-collects the effect-log prefix behind it: future restarts
        call the body with ``resume=<copy of state>`` instead of
        replaying from program entry, so long-running processes stop
        accumulating journal entries.

        Contract — the body must support resumption::

            def worker(p, resume=None):
                state = resume if resume is not None else make_initial_state()
                if resume is None:
                    ... one-time setup effects ...
                while True:
                    ... one round of work mutating state ...
                    yield p.commit_point(state)

        Everything the body carries across the commit point must live in
        ``state`` (locals not derivable from it are lost on a rebased
        restart), and ``state`` must be deep-copyable.  The resumed
        body's first effect must be the one *following* the commit entry,
        i.e. ``state`` must be the state after the commit point — so the
        commit point goes at the end of the round it describes, not at
        the top of the loop (a body that yields it before the work fails
        its first rebased restart with a ``ReplayDivergenceError`` saying
        so).  Resumes with ``None``.
        """
        return CommitPointEffect(state)


#: Shared instances for the stateless effects (they are immutable and
#: handlers only read them, so one object serves every yield — the
#: allocation per message round-trip was measurable in TRACK).
_RECV_ANY = RecvEffect(None, None)
_new_effect = object.__new__
_NOW = NowEffect()
_RANDOM = RandomEffect()


def call(p: HopeProcess, dst: str, body: Any, corr: int):
    """Sub-generator implementing a synchronous RPC (Figure 1's semantics).

    Usage::

        reply = yield from call(p, "printer", ("print", text), corr)

    ``corr`` must be unique per outstanding request within the caller; a
    plain local counter in the body is replay-safe (a replay re-executes
    the body, so it reproduces the same ids).
    """
    yield p.send(dst, RpcRequest(body, p.name, corr))
    message = yield p.recv(
        predicate=lambda m: isinstance(m.payload, RpcReply) and m.payload.corr == corr
    )
    return message.payload.body
