"""What a *running* body costs per round: columns, not records.

A body without ``commit_point`` keeps its whole effect log until it
exits (exit is the commit point PR 22 added), and with it a handle per
AID it minted — so for a process that is still running the only lever is
what a log entry and a settled AID cost.  Pinned here, on a
``pingpong``-shaped pair:

* the bytes a round leaves behind, as a budget (``tests/footprint.py``:
  ``BUDGETS["running round"]``);
* no ``LogEntry`` or ``ReceivedMessage`` object exists after a run (an
  entry is a code byte and a slot, a receive's slot its payload and its
  envelope a row of two slots), and every handle in the log reads one of the two
  shared verdicts: a settled AID has retired from ``machine.aids`` and
  no ``AssumptionId`` outlives it, at N rounds or at 4N;
* the lists replay: a deny at the very end restarts the guesser, which
  re-feeds the whole log and commits what its uncollected twin commits.
"""

import gc

from repro.core.aid import SETTLED_DOM, VERDICTS, AidStatus
from repro.runtime import ReceivedMessage
from repro.runtime.replay import LogEntry

from ..footprint import ROUNDS as _N
from ..footprint import budget, outliving_aids, running_pair, running_round

_PER_ROUND = 5 + 3          # ping: aid_init guess send recv emit; pong: recv affirm send


def test_a_round_of_a_running_body_costs_columns_not_records():
    short, system, traced, blocks = running_round()
    max_bytes, max_blocks = budget("running round")
    assert traced <= max_bytes
    assert blocks <= max_blocks

    # Still running, nothing retired, the whole log kept ...
    assert system.stats()["processes_retired"] == 0
    logs = [proc.log for proc in system.procs.values()]
    assert all(log.base == 0 and len(log.kinds) == len(log.results) for log in logs)
    assert sum(len(log.envelopes) for log in logs) == 2 * (2 * 4 * _N + 1)    # a row a receive
    assert sum(log.retained for log in logs) == _PER_ROUND * 4 * _N + 4 + 3
    # ... in no per-entry object: a receive keeps its payload, not the
    # envelope the body was handed,
    assert not any(type(o) in (LogEntry, ReceivedMessage) for o in gc.get_objects())
    assert type(system.procs["ping"].log.entry_at(0)) is LogEntry
    # ... and no AID that outlives its settling: the pass that found an
    # AID resolved pointed the handle the log keeps at the shared verdict
    # and retired the AID.  The pass a run owes at quiescence finds the
    # last few, so every handle reads a verdict and the table is the same
    # size at N rounds and at 4N.
    ping = system.procs["ping"].log
    handles = [result for kind, result in ping.pairs(0, len(ping))
               if kind == "aid_init"]
    assert len(handles) == 4 * _N + 1
    verdicts = set(VERDICTS.values())
    assert all(h.aid is VERDICTS[h.aid.status] for h in handles)
    assert handles[0].aid is VERDICTS[AidStatus.AFFIRMED]
    assert handles[-1].aid is VERDICTS[AidStatus.DENIED]
    assert all(v.dom is SETTLED_DOM and v.handles is None for v in verdicts)
    assert len(short.machine.aids) == len(system.machine.aids) <= 1
    system.machine.check_invariants()

    # The deny restarted ping, which re-fed every entry before the last
    # guess from the columns and committed its twin's ledger.
    twin = running_pair(4 * _N, fossil_collect=False)
    ping = system.procs["ping"]
    assert ping.restarts == twin.procs["ping"].restarts == 1
    assert ping.log.replayed_entries_total == 5 * 4 * _N + 2
    assert not any(aid.dom is SETTLED_DOM for aid in twin.machine.aids.values())
    for name in system.process_names():
        assert system.committed_outputs(name) == twin.committed_outputs(name)
    assert system.committed_outputs("ping")[-1] == "pessimistic"
    assert len(system.committed_outputs("ping")) == 4 * _N + 1


def test_no_assumption_id_outlives_its_settling():
    """A census of the ``AssumptionId`` objects a running pair keeps once
    they have left ``machine.aids``: as many at 4N rounds as at N — none
    — where each handle the log keeps used to keep its AID."""
    _, small = outliving_aids(lambda: running_pair(_N))
    _, large = outliving_aids(lambda: running_pair(4 * _N))
    assert small == large == 0
