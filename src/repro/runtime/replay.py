"""Replay-based checkpointing: the effect log.

The paper's prototype takes state checkpoints at every guess ("simple and
fairly portable, but not particularly efficient", §7).  Python generators
cannot be snapshotted mid-frame, so we substitute *deterministic replay*:
the engine logs every effect result; a checkpoint is just an index into
that log.  Restoring a checkpoint = restarting the process function and
feeding it the logged results up to the index — the process deterministically
re-reaches the exact pre-guess state without touching the outside world.

The substitution is behaviour-preserving because a HOPE process's state is
a pure function of its effect results (all nondeterminism — time, messages,
randomness — flows through effects).  It is also *measurable*: the CKPT
benchmark charges real wall-clock for replays, matching the paper's remark
that their checkpointing is the inefficiency to optimize.

Replaying from entry 0 makes a restart cost the whole run so far.  A body
that declares commit points (``p.commit_point(state)``) bounds it instead:
at a fossil pass the newest :class:`RebasePoint` behind the commit
frontier becomes the log's base, the prefix is dropped,
and a restart calls ``body(resume=state)`` and replays only the entries
since — O(speculative window), not O(full history); a restart before
that pass starts from the newest commit point the rollback kept.  That
is the one rollback path; see docs/PERFORMANCE.md §3.  A body that returns has
declared its last commit point (:class:`Exited`): once everything it did
is committed its whole log is prefix, so a run keeps the logs of the
processes still running, not of every process it ever ran (§14).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Iterator, NamedTuple, Optional

from ..core.errors import HopeError
from . import effects
from .messages import ReceivedMessage, new_received

#: Code ``i`` of a log's ``kinds`` column names ``KINDS[i]``, a HOPE effect's ``kind``.
KINDS: tuple = tuple(sorted({cls.kind for cls in vars(effects).values() if isinstance(cls, type)
                             and "kind" in vars(cls) and cls is not effects.HopeEffect}))
KIND_CODE: dict = {kind: code for code, kind in enumerate(KINDS)}
RECV_CODE: int = KIND_CODE["recv"]


class ReplayDivergenceError(HopeError):
    """The re-executed process yielded a different effect than the log.

    This means the process body is not deterministic given its effect
    results (e.g. it consulted global mutable state or an unlogged RNG) —
    replay-based rollback is unsound for such a process, so we fail loudly.
    """


class LogEntry(NamedTuple):
    """One performed effect and its result, as :meth:`EffectLog.entry_at`
    builds it on demand; the log itself stores no instances of it."""

    kind: str
    result: Any


class Checkpoint:
    """A guess-point checkpoint: a log position plus the virtual time.

    Stored in the interval's ``A.PS`` slot (Eq 1).  ``log_index`` is the
    number of log entries that precede the guess — replay feeds exactly
    that many results, then the process re-executes live from the guess
    statement.
    """

    __slots__ = ("log_index", "time")

    def __init__(self, log_index: int, time: float) -> None:
        self.log_index = log_index
        self.time = time

    def __repr__(self) -> str:
        return f"Checkpoint(log_index={self.log_index}, t={self.time:.4f})"


class RebasePoint:
    """A committed restart state: ``body(resume=state)`` reproduces the
    process as it stood just after log entry ``log_index - 1``.

    Captured by a :class:`~repro.runtime.effects.CommitPointEffect`
    (``log_index`` is the log length *after* the commit entry, so a
    resumed incarnation's first yield lines up with ``entry_at(log_index)``).
    Once the commit frontier passes ``log_index``, fossil collection
    promotes the point to be the log's base and drops the prefix.
    """

    __slots__ = ("log_index", "state", "time")

    def __init__(self, log_index: int, state: Any, time: float) -> None:
        self.log_index = log_index
        self.state = state
        self.time = time


class Exited(NamedTuple):
    """The state of a *terminal* :class:`RebasePoint`: the body returned
    ``result``.  Exit is the last commit point — a terminated process is a
    value, with no context left to restore — so the engine records one at
    the end of the log when a body returns, and once the commit frontier
    reaches it the whole log is prefix.  An incarnation started from this
    point replays nothing and returns the result (only a durable resume
    ever starts one)."""

    result: Any

    def body(self) -> Generator:
        """The whole remaining program of an exited process."""
        return self.result
        yield  # unreachable: makes this a generator function


class EffectLog:
    """The per-process effect journal with a replay cursor.

    Live execution appends entries; after a rollback the engine truncates
    to the checkpoint and the new incarnation consumes entries via
    :meth:`feed` until the cursor reaches the end, at which point the
    process is live again.

    An entry is a code byte in ``kinds`` (:data:`KIND_CODE`; reads name
    kinds) and a slot in ``results``: 9 bytes, as a running body keeps its
    log.  A receive's slot holds the payload (or ``TIMED_OUT``), and its
    ``src`` and ``msg_id`` are a row of two slots in ``envelopes``
    (``None, None`` for a timeout) that reads rebuild the
    :class:`ReceivedMessage` from (docs/PERFORMANCE.md §15, §27).  Only
    this class and the two inlined appends in ``runtime.engine`` know
    the layout: never append to one list alone.

    All indices (``cursor``, checkpoint/truncation/replay positions) are
    **absolute** journal positions, stable across fossil collection.
    ``base`` counts entries dropped from the front by :meth:`drop_prefix`
    — physically, the lists hold positions ``[base, base + retained)``.
    A fresh incarnation replays from its ``origin``: ``base`` (the engine
    rebuilds the pre-base state from the promoted :class:`RebasePoint`)
    or a newer commit point, so dropping the prefix is only sound once a
    rebase point at ``base`` exists.
    """

    __slots__ = ("kinds", "results", "envelopes", "base", "origin", "cursor", "pending",
                 "envelope_at", "replayed_entries_total")

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.results: list[Any] = []
        self.envelopes: Any = ()     # (the first receive makes it a list)
        #: Absolute position of slot 0 (entries dropped in front).
        self.base = 0
        #: Absolute position the current incarnation started from.
        self.origin = 0
        self.cursor = 0
        #: Entries still to be re-fed before the process is live again —
        #: always ``base + retained - cursor``, maintained explicitly
        #: because the engine consults it once per live effect (the replay
        #: fast-forward guard) and the three-load arithmetic was
        #: measurable there.
        self.pending = 0
        #: The row in ``envelopes`` of the next receive a replay feeds.
        self.envelope_at = 0
        self.replayed_entries_total = 0

    # ------------------------------------------------------------------
    # live side
    # ------------------------------------------------------------------
    def append(self, kind: str, result: Any) -> None:
        code = KIND_CODE[kind]
        if code == RECV_CODE:
            result, *row = result if type(result) is ReceivedMessage else (result, None, None)
            self.envelopes = self.envelopes or []
            self.envelopes += row
        self.kinds.append(code)
        self.results.append(result)
        # Live appends keep the cursor at the tail (the live-side
        # invariant ``cursor == base + retained``, so += 1 suffices);
        # only begin_replay rewinds it.
        self.cursor += 1

    def __len__(self) -> int:
        """Absolute journal length (including the dropped prefix)."""
        return self.base + len(self.kinds)

    @property
    def retained(self) -> int:
        """Entries physically held: positions ``[base, len(self))``."""
        return len(self.kinds)

    def _slot(self, index: int) -> int:
        """List offset of position ``index``: never negative (the log's end)."""
        if index < self.base:
            raise HopeError(f"log entry {index} is behind the fossil base {self.base}")
        return index - self.base

    def entry_at(self, index: int) -> LogEntry:
        """The entry at absolute position ``index`` (``IndexError`` past the end)."""
        self.kinds[self._slot(index)]              # (the bounds check)
        return LogEntry(*next(self.pairs(index, index + 1)))

    def pairs(self, start: int, stop: int) -> Iterator[tuple]:
        """``(kind, result)`` of the entries at positions ``[start, stop)``."""
        lo, hi = self._slot(start), self._slot(stop)
        kinds, row = self.kinds[lo:hi], 2 * self.kinds.count(RECV_CODE, 0, lo)
        envelopes = self.envelopes[row : row + 2 * kinds.count(RECV_CODE)]
        return _pairs(kinds, self.results[lo:hi], envelopes)

    def load(self, base: int, pairs: Iterable[tuple]) -> None:
        """Replace the log by ``pairs`` from position ``base`` on, live at the tail."""
        self.truncate(0)
        for kind, result in pairs:
            self.append(kind, result)
        self.base = base
        self.cursor += base

    # ------------------------------------------------------------------
    # replay side
    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        return self.pending > 0

    def begin_replay(self, origin: Optional[int] = None) -> None:
        """Reset the cursor for a fresh incarnation starting at ``origin``.

        The default is ``base``: program entry, or the promoted rebase
        point (positions below it were fossil-collected).  A newer commit
        point the engine can rebuild the state from moves it forward, so
        only the entries from ``origin`` on are re-fed.
        """
        if origin is None:
            origin = self.base
        self._slot(origin)
        self.cursor = self.origin = origin
        self.pending = self.base + len(self.kinds) - origin
        self.envelope_at = 2 * self.kinds.count(RECV_CODE, 0, origin - self.base)

    def feed(self, kind: str) -> Any:
        """Return the logged result for the next effect, checking its kind."""
        at = self.cursor - self.base
        logged = self.kinds[at]
        if logged != KIND_CODE[kind]:
            logged = KINDS[logged]
            if self.cursor == self.origin > 0:
                # The very first effect of an incarnation resumed from a
                # rebase point: what a misplaced commit point looks like.
                raise ReplayDivergenceError(
                    f"replay divergence at entry {self.cursor}, the first "
                    f"after a promoted commit point: the resumed body "
                    f"yielded {kind!r} but the log recorded {logged!r} — "
                    "the resumed body's first effect must be the one "
                    "following the commit entry, i.e. the state passed to "
                    "commit_point must be the state *after* the commit point"
                )
            raise ReplayDivergenceError(
                f"replay divergence at entry {self.cursor}: process yielded "
                f"{kind!r} but the log recorded {logged!r} — the process "
                "body is not deterministic in its effect results"
            )
        self.cursor += 1
        self.pending -= 1
        self.replayed_entries_total += 1
        if logged == RECV_CODE:
            row = self.envelope_at
            self.envelope_at = row + 2
            return _received(self.results[at], self.envelopes, row)
        return self.results[at]

    def truncate(self, index: int) -> int:
        """Drop entries from absolute position ``index`` on.

        Returns how many were dropped.  ``index == 0`` is a crash-style
        full reset and also clears the fossil base (the restarted
        incarnation begins at program entry; any rebase state is volatile
        and the engine discards it alongside).  A truncation *into* the
        dropped prefix otherwise is impossible — it would mean a rollback
        crossed the commit frontier, contradicting Theorem 6.1.
        """
        if index == 0:
            dropped = self.base + len(self.kinds)
            self.kinds.clear()
            self.results.clear()
            self.envelopes = ()
            self.base = self.cursor = self.pending = self.envelope_at = 0
            return dropped
        if index < self.base:
            raise HopeError(
                f"log truncation at {index} crosses the fossil base "
                f"{self.base} — rollback behind the commit frontier"
            )
        dropped = self.base + len(self.kinds) - index
        if dropped < 0:
            raise HopeError(
                f"log truncation index {index} beyond log length {len(self)}"
            )
        at = index - self.base
        cut = 2 * self.kinds.count(RECV_CODE, at)
        if cut:
            del self.envelopes[-cut:]
        del self.kinds[at:]
        del self.results[at:]
        if self.cursor > index:
            self.cursor = index
        self.pending = index - self.cursor
        return dropped

    def drop_prefix(self, index: int) -> int:
        """Fossil-collect entries below absolute position ``index``.

        The caller must hold a :class:`RebasePoint` at exactly ``index``
        and must not drop past the replay cursor (an in-flight replay
        still needs those entries).  Returns the number dropped.
        """
        if index <= self.base:
            return 0
        if index > self.cursor:
            raise HopeError(
                f"drop_prefix({index}) past the replay cursor {self.cursor}"
            )
        dropped = index - self.base
        cut = 2 * self.kinds.count(RECV_CODE, 0, dropped)
        if cut:
            del self.envelopes[:cut]
            if self.pending:
                self.envelope_at -= cut
        del self.kinds[:dropped]
        del self.results[:dropped]
        self.base = index
        return dropped

    def __repr__(self) -> str:
        return (
            f"<EffectLog {self.cursor}/{len(self)} base={self.base} "
            f"replayed={self.replayed_entries_total}>"
        )


def _received(payload: Any, envelopes: list, row: int) -> Any:
    """A receive's logged result, from its payload slot and envelope row."""
    src = envelopes[row]
    return payload if src is None else new_received((payload, src, envelopes[row + 1]))


def _pairs(kinds: bytearray, results: list, envelopes: list) -> Iterator[tuple]:
    row = 0
    for code, result in zip(kinds, results):
        if code == RECV_CODE:
            result = _received(result, envelopes, row)
            row += 2
        yield KINDS[code], result
