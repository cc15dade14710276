"""HOPE-level effects: what a HOPE process body may ``yield``.

User process bodies never touch the simulator directly; they yield these
effect objects (built by the :class:`repro.runtime.api.HopeProcess`
facade) and the engine performs them.  Keeping *every* interaction with
the world behind an effect is what makes replay-based rollback sound:
the engine logs each effect's result, and a restarted incarnation is fed
the logged results instead of re-performing the effects, restoring the
exact pre-guess state (DESIGN.md §2, checkpoint substitution).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.process import Effect


class HopeEffect(Effect):
    """Marker base class for effects handled by the HOPE engine."""

    __slots__ = ()

    #: replay key — must identify the effect kind for log-shape checking
    kind: str = "hope"


class AidInitEffect(HopeEffect):
    """Create a fresh assumption identifier (the paper's aid_init)."""

    __slots__ = ("name",)
    kind = "aid_init"

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"AidInit({self.name!r})"


class _AidEffect(HopeEffect):
    """An effect on one assumption: its key, and the AID (or its verdict)
    when the program named it through a bound handle (else by key)."""

    __slots__ = ("aid_key", "aid")
    label = ""

    def __init__(self, aid_key: str, aid: Any = None) -> None:
        self.aid_key = aid_key
        self.aid = aid

    def __repr__(self) -> str:
        return f"{self.label}({self.aid_key})"


class GuessEffect(_AidEffect):
    """guess(x): speculatively returns True; False after a denial."""

    __slots__ = ()
    kind = "guess"
    label = "Guess"


class AffirmEffect(_AidEffect):
    """affirm(x): assert the assumption is true."""

    __slots__ = ()
    kind = "affirm"
    label = "Affirm"


class DenyEffect(_AidEffect):
    """deny(x): assert the assumption is false."""

    __slots__ = ()
    kind = "deny"
    label = "Deny"


class FreeOfEffect(_AidEffect):
    """free_of(x): assert causal independence from x (§3, §5.4)."""

    __slots__ = ()
    kind = "free_of"
    label = "FreeOf"


class SendEffect(HopeEffect):
    """Asynchronous send; the engine tags it with the sender's dependencies."""

    __slots__ = ("dst", "payload")
    kind = "send"

    def __init__(self, dst: str, payload: Any) -> None:
        self.dst = dst
        self.payload = payload

    def __repr__(self) -> str:
        return f"Send(dst={self.dst!r})"


class RecvEffect(HopeEffect):
    """Blocking receive; tagged messages trigger implicit guesses first."""

    __slots__ = ("timeout", "predicate")
    kind = "recv"

    def __init__(
        self,
        timeout: Optional[float] = None,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.timeout = timeout
        self.predicate = predicate

    def __repr__(self) -> str:
        return f"Recv(timeout={self.timeout!r})"


class ComputeEffect(HopeEffect):
    """Local computation for ``duration`` virtual time units (busy time)."""

    __slots__ = ("duration",)
    kind = "compute"

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"compute duration must be >= 0, got {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Compute({self.duration!r})"


class NowEffect(HopeEffect):
    """Read the virtual clock (logged, so replay sees the original time)."""

    __slots__ = ()
    kind = "now"

    def __repr__(self) -> str:
        return "Now()"


class RandomEffect(HopeEffect):
    """Draw a uniform float from the process's random stream (logged)."""

    __slots__ = ()
    kind = "random"

    def __repr__(self) -> str:
        return "Random()"


class EmitEffect(HopeEffect):
    """Produce an externally visible output value.

    Outputs are buffered by the engine and withdrawn if the emitting
    interval rolls back — the *output commit* discipline of optimistic
    recovery (Strom & Yemini [24]): an output is only **committed** once
    every assumption it depends on is affirmed.  Unlike raw Python side
    effects in a process body (which re-run during replay), emits are
    logged and replay-safe.
    """

    __slots__ = ("value",)
    kind = "emit"

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Emit({self.value!r})"


class CommitPointEffect(HopeEffect):
    """Declare a rebase point: ``state`` fully captures the process here.

    The engine deep-copies ``state`` and remembers it as a *rebase
    candidate*.  Once the commit frontier passes this point, fossil
    collection may drop the effect-log prefix behind it and rebuild
    future incarnations by calling the body with ``resume=<state copy>``
    instead of replaying from program entry (see
    :meth:`repro.runtime.api.HopeProcess.commit_point` for the contract).
    """

    __slots__ = ("state",)
    kind = "commit"

    def __init__(self, state: Any) -> None:
        self.state = state

    def __repr__(self) -> str:
        return "CommitPoint()"
