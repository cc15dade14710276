"""A fossil pass costs what it reclaims, and leaves nothing behind the
commit frontier reachable.

The program is the ``pingpong`` shape: ``ping`` mints an AID per round
and never declares a commit point, so its effect log keeps every handle
and every AID ends up affirmed and unreferenced — settled, so it retires
under the handle.  A pass must not look at the run behind it: not at the
AIDs that wait on a pin, the mailboxes, or records that did not change.
"""

import gc
from collections import Counter

import pytest

from repro.core import AssumptionId
from repro.core.interval import Interval
from repro.runtime import HopeSystem, ReliableConfig
from repro.sim import ConstantLatency
from repro.sim.channel import Message
from repro.sim.kernel import ScheduledEvent

N = 400
FOSSIL_INTERVAL = 16


def _ping(p, peer, rounds):
    acc = 0
    for i in range(rounds):
        x = yield p.aid_init("round")
        yield p.guess(x)
        yield p.send(peer, (x, i))
        acc += (yield p.recv()).payload
        yield p.emit((i, acc))


def _lingering_ping(p, peer, rounds):
    """``_ping``, then blocked in ``recv``: live, so its log is kept."""
    yield from _ping(p, peer, rounds)
    yield p.recv()


def _pong(p, peer, rounds):
    for _ in range(rounds):
        x, i = (yield p.recv()).payload
        yield p.affirm(x)
        yield p.send(peer, 2 * i + 1)


class _NoScan(dict):
    """A dict that refuses to be iterated or copied while ``armed`` —
    membership tests, lookups and ``len`` stay free."""

    armed = False

    def _refuse(self, *_args, **_kwargs):
        if _NoScan.armed:
            raise AssertionError("a fossil pass walked a whole table")
        return None

    def __iter__(self):
        self._refuse()
        return super().__iter__()

    def keys(self):
        self._refuse()
        return super().keys()

    def values(self):
        self._refuse()
        return super().values()

    def items(self):
        self._refuse()
        return super().items()

    def copy(self):
        self._refuse()
        return super().copy()


def _run(rounds, **options):
    """Run the pair; returns the system and, per pass, the records it
    visited plus the AIDs it examined.  The tables a pass used to walk
    (the handle table is gone) are swapped for ones that refuse to be
    walked during a pass.  ``ping`` lingers, so its log stays to be
    read, and the pass at quiescence retires ``pong`` alone (retiring
    both would have ``Network.close`` rebuild the emptied mailbox
    table, once)."""
    system = HopeSystem(
        seed=1, latency=ConstantLatency(1.0), fossil_interval=FOSSIL_INTERVAL, **options
    )
    system.network._mailboxes = _NoScan(system.network._mailboxes)
    system.machine._retire_deferred = _NoScan()
    if system.reliable is not None:
        system.reliable._pending = _NoScan()
    system.spawn("pong", _pong, "ping", rounds)
    system.spawn("ping", _lingering_ping, "pong", rounds)
    costs = []
    run_pass = system._run_fossil_collection
    stats = system.machine.stats

    def counted_pass(whole=False):
        before = stats["fossil_records_visited"] + stats["fossil_aids_examined"]
        _NoScan.armed = True
        try:
            run_pass(whole)
        finally:
            _NoScan.armed = False
        costs.append(stats["fossil_records_visited"] + stats["fossil_aids_examined"] - before)

    system._run_fossil_collection = counted_pass
    system.run()
    assert system.committed_outputs("ping")[-1][0] == rounds - 1
    return system, costs


def _quarters(costs):
    q = len(costs) // 4
    return sum(costs[:q]) / q, sum(costs[-q:]) / q


# ----------------------------------------------------------------------
# (b) cost flat in run length
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "options", [{}, {"reliable": ReliableConfig()}], ids=["plain", "reliable"]
)
def test_pass_cost_is_flat_in_run_length(options):
    short, costs = _run(N, **options)
    long_, costs4 = _run(4 * N, **options)
    # the cadence is the floor here (two records): one pass per
    # FOSSIL_INTERVAL finalizes, two finalizes per round, and the one the
    # run owes at quiescence
    assert len(costs) == 2 * N // FOSSIL_INTERVAL + 1
    assert len(costs4) - 1 == 4 * (len(costs) - 1)
    # ping's log keeps every handle, and no AID waits on it: each one
    # retires once affirmed and settled (the handles read it by object) ...
    assert len(long_.machine._retire_deferred) <= 1
    assert long_.stats()["fossil_aids_retired"] >= 4 * N - 1
    # ... and no pass pays for the run behind it
    first, last = _quarters(costs4)
    assert last <= 1.1 * first, (first, last)
    assert _quarters(costs4)[1] <= 1.1 * _quarters(costs)[0]
    # what a pass does pay for: the two records, and per round the AID
    # minted and the AID affirmed
    assert max(costs4) <= 2 + 2 * FOSSIL_INTERVAL


def test_a_record_is_not_revisited_for_holding_speculation():
    """Ten processes guess once and then sit on the open interval while
    the pair runs: they are visited when they change, not once per pass."""
    def sitter(p):
        x = yield p.aid_init("open")
        yield p.guess(x)
        yield p.recv()                               # never comes

    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), fossil_interval=FOSSIL_INTERVAL)
    for i in range(10):
        system.spawn(f"sitter{i}", sitter)
    system.spawn("pong", _pong, "ping", N)
    system.spawn("ping", _ping, "pong", N)
    system.run()
    stats = system.stats()
    passes = stats["fossil_collections"]
    assert passes >= 2 * N // FOSSIL_INTERVAL - 1
    assert stats["fossil_records_visited"] == 10 + 2 * passes
    assert all(system.machine.process(f"sitter{i}").speculative for i in range(10))
    # their open IDO sets are still interned: alive with their interval,
    # not because a pass found them
    assert len(system.machine.depsets) >= 11


def test_the_change_queue_holds_a_record_once():
    """Seventy pairs keep every pass busy with records that have intervals
    to drop, so the ones that merely changed get their turn a few at a
    time — and are visited out of turn, as reclaimable, again and again.
    The queue they wait in must not grow by an entry per visit."""
    pairs, rounds = 70, 30
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0))
    for k in range(pairs):
        system.spawn(f"pong{k}", _pong, f"ping{k}", rounds)
        system.spawn(f"ping{k}", _ping, f"pong{k}", rounds)
    lengths = []
    run_pass = system._run_fossil_collection

    def checked_pass(whole=False):
        run_pass(whole)
        queue = system.machine.changed
        assert len(set(map(id, queue))) == len(queue) <= 2 * pairs
        lengths.append(len(queue))

    system._run_fossil_collection = checked_pass
    system.run()
    stats = system.stats()
    assert stats["fossil_collections"] == 2 * pairs * rounds // 64 + 1   # + at quiescence
    turns = HopeSystem._PASS_TURNS
    assert max(lengths) > 2 * turns                      # they did wait
    assert stats["fossil_records_visited"] <= (
        stats["fossil_intervals_dropped"] + turns * stats["fossil_collections"]
    )


# ----------------------------------------------------------------------
# (c) nothing behind the frontier stays reachable
# ----------------------------------------------------------------------
def _census(rounds):
    gc.collect()
    kinds = (Interval, Message, ScheduledEvent)
    before = Counter(type(o) for o in gc.get_objects() if type(o) in kinds)
    system, _ = _run(rounds)
    gc.collect()
    after = Counter(type(o) for o in gc.get_objects() if type(o) in kinds)
    return system, {kind.__name__: after[kind] - before[kind] for kind in kinds}


def _reaches_interval(aid):
    """Intervals reachable from ``aid`` through plain containers."""
    found, stack, seen = [], [aid], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Interval):
            found.append(obj)                         # do not walk through it
        elif obj is aid or isinstance(obj, (set, frozenset, list, tuple, dict)):
            stack.extend(gc.get_referents(obj))
    return found


def test_nothing_behind_the_frontier_is_reachable():
    short, census = _census(N)
    long_, census4 = _census(4 * N)
    # O(window): what the last FOSSIL_INTERVAL finalizes left, whatever
    # the length of the run
    assert census4 == census, (census, census4)
    assert census["Interval"] <= FOSSIL_INTERVAL
    assert census["Message"] <= FOSSIL_INTERVAL
    assert census["ScheduledEvent"] <= 2 * FOSSIL_INTERVAL
    assert long_.stats()["fossil_intervals_dropped"] >= 8 * N - FOSSIL_INTERVAL
    # the AIDs themselves survive only in the handles of ping's log, not
    # in the table — and none of them leads back to an interval that has
    # finalized
    assert not long_.machine.aids
    log = long_.procs["ping"].log
    aids = [log.entry_at(i).result.aid for i in range(log.base, len(log))
            if log.entry_at(i).kind == "aid_init"]
    assert len(aids) == 4 * N and all(isinstance(a, AssumptionId) for a in aids)
    for aid in aids:
        assert aid.speculative_affirmer is None or aid.speculative_affirmer.speculative
        assert all(iv.speculative for iv in _reaches_interval(aid)), aid
