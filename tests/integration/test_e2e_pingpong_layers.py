"""What the benchmark's ``pingpong`` workload exercises, layer by layer.

``benchmarks/e2e/test_e2e_selfcheck.py::test_pingpong_bypasses_replay_and_fossil``
(outside tier-1, frozen with the rest of ``benchmarks/e2e``) asserts three
counters on ``pingpong``: no restart, no rollback, no fossil pass.  The
third stopped holding when collection became the default, so CI deselects
that self-check; this test keeps the two assertions that still hold and
states the third the way it now reads, on the same workload body and the
same ``layers.counters`` rows the harness prints.  It goes when the
self-check is corrected (ROADMAP, benchmark-only PR).

The child also takes a census of the ``AssumptionId`` objects alive at
quiescence outside ``machine.aids``, on the same body at N (the
``--quick`` size) and 4N rounds: the pass that settles an AID points the
handles in ``ping``'s log at a shared verdict, so none outlives it.

Run in a child process: ``benchmarks/e2e`` is a directory of scripts with
top-level module names (``workloads``, ``layers``), not a package.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import gc, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
from repro.core import AssumptionId
from repro.runtime import HopeSystem
from workloads import WORKLOADS
workload = WORKLOADS["pingpong"](int(sys.argv[3]), quick=True)
outcome = workload.start()()
rows = layers.counters(outcome.stats, workload.ops, 1.0)
rows["failed_ops"] = workload.failed_ops(outcome.ledger)

def live_aids():
    gc.collect()
    return sum(type(o) is AssumptionId for o in gc.get_objects())

def outliving_aids(scale):    # alive at quiescence outside machine.aids
    workload = WORKLOADS["pingpong"](int(sys.argv[3]), quick=True)
    workload.payloads *= scale
    workload.ops *= scale
    before = live_aids()
    system = HopeSystem(**workload.options())
    workload.build(system)
    system.run()
    return live_aids() - before - len(system.machine.aids)

rows["outliving_aids"] = [outliving_aids(1), outliving_aids(4)]
print(json.dumps(rows))
"""


def test_pingpong_bypasses_replay_and_collects():
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "src"),
         str(ROOT / "benchmarks" / "e2e"), "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    rows = json.loads(done.stdout.strip().splitlines()[-1])
    assert rows["failed_ops"] == 0
    assert rows["runtime.replay.restarts"] == 0
    assert rows["core.machine.rollbacks"] == 0
    # ... and, since collection is what a run does, not "== 0":
    assert rows["core.fossil.collections"] > 0
    assert rows["core.fossil.history_dropped"] > 0
    # No AssumptionId outlives its settling: as many retired ones are
    # alive at 4N rounds as at N: none (1 984 and 8 000 while each handle
    # kept its AID).
    at_n, at_4n = rows["outliving_aids"]
    assert at_n == at_4n == 0
