"""Applications built on HOPE — the ones an experiment or the benchmark runs.

* :mod:`repro.apps.call_streaming` — Figures 1–2: the paper's worked
  example and the workload behind the headline performance claim;
* :mod:`repro.apps.virtual_time` — timestamp-order processing (the §2
  Time Warp subsumption);
* :mod:`repro.apps.replication` — optimistic concurrency for replicated
  data (§7 future work, [6]);
* :mod:`repro.apps.recovery` — Strom/Yemini-style optimistic recovery
  with crash injection (§2, [24]).

Import the one you run (``from repro.apps import call_streaming``): this
package imports none of them.  The rest of §7's future-work list —
numerical computation, co-operative editing, truth maintenance — and
optimistic two-phase commit are scripts under ``examples/``.
"""
