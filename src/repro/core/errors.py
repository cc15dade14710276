"""Errors raised by the HOPE abstract machine and runtime."""

from __future__ import annotations


class HopeError(Exception):
    """Base class for all HOPE-level errors."""


class UnknownAidError(HopeError):
    """An operation referenced an assumption identifier that was never created."""


class UnknownProcessError(HopeError):
    """An operation referenced a process the machine has never seen."""


class ResolutionConflictError(HopeError):
    """Conflicting affirm/deny/free_of on one assumption identifier.

    The paper (§5.2): "more than one affirm or deny primitive applied to a
    single assumption identifier, in any combination, is a user error, and
    the meaning is undefined."  We refuse to leave it undefined: a
    redundant same-direction resolution is a no-op and only a
    contradiction raises.
    """


class FinalizePreconditionError(HopeError):
    """finalize(A) was attempted while A.IDO was non-empty (violates Eq 20)."""


class IntervalStateError(HopeError):
    """An interval was used in a state that should be unreachable.

    E.g. rolling back an interval that is already definite — Theorem 5.2
    says this can never happen; reaching it indicates a bug, so it is an
    error rather than a silent no-op.
    """


class MachineInvariantError(HopeError):
    """An internal consistency check failed (e.g. Lemma 5.1 symmetry)."""
