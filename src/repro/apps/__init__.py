"""Applications built on HOPE.

* :mod:`repro.apps.call_streaming` — Figures 1–2: the paper's worked
  example and the workload behind the headline performance claim;
* :mod:`repro.apps.virtual_time` — timestamp-order processing (the §2
  Time Warp subsumption);
* :mod:`repro.apps.replication` — optimistic concurrency for replicated
  data (§7 future work, [6]);
* :mod:`repro.apps.recovery` — Strom/Yemini-style optimistic recovery
  with crash injection (§2, [24]);
* :mod:`repro.apps.tms` — assumption-based search / truth maintenance
  (§7 future work, [12]);
* :mod:`repro.apps.numerics` — optimistic numerical computation
  (§7 future work, [7]);
* :mod:`repro.apps.coedit` — lock-free co-operative editing
  (§7 future work, [5]);
* :mod:`repro.apps.commit` — optimistic two-phase commit with
  cross-transaction speculation.
"""

from importlib import import_module

__all__ = [
    "call_streaming",
    "virtual_time",
    "replication",
    "recovery",
    "tms",
    "numerics",
    "coedit",
    "commit",
]


def __getattr__(name: str):
    """Import an application on first use (PEP 562): a run loads only the
    apps it runs — ``numerics`` alone pulls in ``numpy``."""
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
