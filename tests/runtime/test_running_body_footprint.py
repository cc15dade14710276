"""What a *running* body costs per round: columns, not records.

A body without ``commit_point`` keeps its whole effect log until it
exits (exit is the commit point PR 22 added), and with it a handle per
AID it minted — so for a process that is still running the only lever is
what a log entry and a settled AID cost.  Pinned here, on a
``pingpong``-shaped pair:

* the bytes a round leaves behind, as a budget;
* no ``LogEntry`` object exists after a run (an entry is a slot in each
  of two columns), every settled AID shares one empty DOM, and a settled
  AID retires from ``machine.aids`` under the handle the log keeps;
* the columns replay: a deny at the very end restarts the guesser, which
  re-feeds the whole log and commits what its uncollected twin commits.
"""

import gc

from repro.core.aid import SETTLED_DOM
from repro.runtime.replay import LogEntry

from ..footprint import ROUNDS as _N
from ..footprint import budget, running_pair, running_round

_PER_ROUND = 5 + 3          # ping: aid_init guess send recv emit; pong: recv affirm send

#: Bytes and blocks one more round leaves behind (tests/footprint.py),
#: measured + 10 %.  (At the parent of the columns 1 801 bytes: eight
#: 64-byte ``LogEntry`` tuples less eight column slots, and a 216-byte
#: empty DOM set, more; with them 1 139; with a settled AID retired under
#: its handle — no weak reference, no slot in four tables, a slotted
#: handle — 905; with a committed emit kept as its value, not an
#: ``OutputRecord`` with a boxed log index and a time float, 787 — 774
#: on 3.10; with a byte per entry in the kinds column, not a pointer,
#: 726 — 714 on 3.10.)
_ROUND = {
    (3, 10): (786, 13.9),
    (3, 11): (799, 13.9),
    (3, 12): (799, 13.9),
    (3, 13): (799, 13.9),
}


def test_a_round_of_a_running_body_costs_columns_not_records():
    short, system, traced, blocks = running_round()
    max_bytes, max_blocks = budget(_ROUND)
    assert traced <= max_bytes
    assert blocks <= max_blocks

    # Still running, nothing retired, the whole log kept ...
    assert system.stats()["processes_retired"] == 0
    logs = [proc.log for proc in system.procs.values()]
    assert all(log.base == 0 and len(log.kinds) == len(log.results) for log in logs)
    assert sum(log.retained for log in logs) == _PER_ROUND * 4 * _N + 4 + 3
    # ... in no per-entry object,
    assert not any(type(o) is LogEntry for o in gc.get_objects())
    assert type(system.procs["ping"].log.entry_at(0)) is LogEntry
    # ... and no AID table that grows with it: an AID a pass has found
    # resolved is settled — it owns no DOM of its own and has retired
    # under the handle the log keeps; after one more pass the table is the
    # same size at N rounds and at 4N.
    ping = system.procs["ping"].log
    aids = [result.aid for kind, result in ping.pairs(0, len(ping))
            if kind == "aid_init"]
    assert len(aids) == 4 * _N + 1 and not any(aid.pending for aid in aids)
    settled = [aid for aid in aids if aid.dom is SETTLED_DOM]
    assert len(settled) >= 4 * _N - system.fossil_interval
    assert all(not aid.dom and type(aid.dom) is set
               for aid in aids if aid.dom is not SETTLED_DOM)
    assert len(system.machine.aids) <= system.fossil_interval
    for done in (short, system):
        done._run_fossil_collection()
    assert len(short.machine.aids) == len(system.machine.aids) <= 1
    system.machine.check_invariants()

    # The deny restarted ping, which re-fed every entry before the last
    # guess from the columns and committed its twin's ledger.
    twin = running_pair(4 * _N, fossil_collect=False)
    ping = system.procs["ping"]
    assert ping.restarts == twin.procs["ping"].restarts == 1
    assert ping.log.replayed_entries_total == 5 * 4 * _N + 2
    assert not any(aid.dom is SETTLED_DOM for aid in twin.machine.aids.values())
    for name in system.procs:
        assert system.committed_outputs(name) == twin.committed_outputs(name)
    assert system.committed_outputs("ping")[-1] == "pessimistic"
    assert len(system.committed_outputs("ping")) == 4 * _N + 1
