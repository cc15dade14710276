"""HOPE — Hopefully Optimistic Programming Environment.

A from-scratch reproduction of Cowan & Lutfiyya, *Formal Semantics for
Expressing Optimism: The Meaning of HOPE* (PODC 1995): the abstract
machine of §4–5, a simulator-embedded runtime with automatic dependency
tracking and rollback, the Figure 1/2 Call Streaming application,
baselines (pessimistic execution, Time Warp, statically-scoped optimism),
and a verification harness for the paper's theorems.

Quickstart::

    from repro import HopeSystem

    sys_ = HopeSystem(seed=1)

    def worker(p):
        x = yield p.aid_init("lock-granted")
        granted = yield p.guess(x)
        if granted:
            yield p.compute(5.0)          # optimistic path
        else:
            yield p.compute(20.0)         # pessimistic path

    def verifier(p, x):
        yield p.compute(10.0)
        yield p.affirm(x)                 # or p.deny(x)

    # see examples/quickstart.py for the full program
"""

from .core import (
    AidStatus,
    AssumptionId,
    HopeError,
    Interval,
    Machine,
    ResolutionConflictError,
)
from .obs import MetricsRegistry, NullRegistry
from .runtime import HopeProcess, HopeSystem

__version__ = "1.0.0"

__all__ = [
    "HopeSystem",
    "HopeProcess",
    "Machine",
    "AssumptionId",
    "AidStatus",
    "Interval",
    "HopeError",
    "MetricsRegistry",
    "NullRegistry",
    "ResolutionConflictError",
    "__version__",
]
