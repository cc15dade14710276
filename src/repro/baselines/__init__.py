"""Baselines the paper positions HOPE against (§2).

Figure 1's synchronous RPCs are :func:`repro.apps.call_streaming.run_pessimistic`.

* :mod:`repro.baselines.static_scope` — Bubenik/Zwaenepoel-style
  statically-bounded optimism [2, 3]: speculation that cannot cross a
  process boundary;
* :mod:`repro.baselines.timewarp` — Jefferson's Time Warp [16, 17]: the
  single hard-wired message-order assumption, with anti-messages and GVT.
"""

from .static_scope import run_static_scope, static_scope_wart, static_scope_worker
from .timewarp import (
    Emission,
    GvtManager,
    LogicalProcess,
    SequentialOracle,
    TimeWarpEngine,
    TWMessage,
)

__all__ = [
    "run_static_scope",
    "static_scope_worker",
    "static_scope_wart",
    "TWMessage",
    "LogicalProcess",
    "Emission",
    "TimeWarpEngine",
    "GvtManager",
    "SequentialOracle",
]
