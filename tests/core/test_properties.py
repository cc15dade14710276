"""Property-based tests: machine invariants under random primitive sequences.

A hypothesis-driven interpreter issues random but *well-formed* HOPE
primitive sequences (each AID resolved at most once by a live path) and
checks after every step that the machine's invariants — Lemma 5.1
symmetry, the Theorem 5.1 subset chain, IS/I consistency — hold, and that
the headline theorems are respected at quiescence.
"""

from hypothesis import example, given, settings, strategies as st

import pytest

from repro.core.fossil import FossilStats
from repro.core import (
    AidStatus,
    IntervalState,
    Machine,
    MachineInvariantError,
    ProcessRecord,
    ResolutionConflictError,
)

PROCS = ["p0", "p1", "p2"]


def _machine():
    machine = Machine()
    for name in PROCS:
        machine.create_process(name)
    return machine


# Each action is (opcode, process index, aid index) over a fixed pool.
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["guess", "affirm", "deny", "free_of", "recv", "step"]),
        st.integers(min_value=0, max_value=len(PROCS) - 1),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=40,
)


def _apply(machine, aids, op, pid, aid):
    """Apply one random action; resolution conflicts are legal outcomes."""
    try:
        if op == "guess":
            machine.guess(pid, aid)
        elif op == "affirm":
            machine.affirm(pid, aid)
        elif op == "deny":
            machine.deny(pid, aid)
        elif op == "free_of":
            machine.free_of(pid, aid)
        elif op == "recv":
            live, deps = machine.resolve_tags([aid])
            if live:
                machine.guess_many(pid, deps)
        elif op == "step":
            machine.step(pid, "work")
    except ResolutionConflictError:
        pass


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_invariants_hold_under_random_schedules(actions):
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
        machine.check_invariants()


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_definite_intervals_stay_definite(actions):
    """Theorem 5.2: once finalized, an interval is never rolled back."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    finalized = set()
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
        for record in machine.processes.values():
            for interval in record.intervals:
                if interval.state is IntervalState.DEFINITE:
                    finalized.add(interval)
    for interval in finalized:
        assert interval.state is IntervalState.DEFINITE


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_resolved_aids_have_empty_dom_and_stable_status(actions):
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    resolved: dict = {}
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
        for aid in aids:
            if aid.status is not AidStatus.PENDING:
                assert not aid.dom
                if aid in resolved:
                    assert resolved[aid] == aid.status
                else:
                    resolved[aid] = aid.status


@settings(max_examples=200, deadline=None)
@given(ACTIONS)
def test_history_indices_monotone_per_process(actions):
    """Rollback truncation must keep histories strictly ordered."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
        for record in machine.processes.values():
            indices = [e.index for e in record.history]
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)


@settings(max_examples=150, deadline=None)
@given(ACTIONS, st.integers(min_value=0, max_value=4))
def test_theorem_6_2_finalize_iff_all_affirmed(actions, target_idx):
    """Theorem 6.2 (forward direction, observable form): an interval that
    is definite at quiescence had every AID it ever depended on either
    affirmed or replaced by affirmed ones — no definite interval may
    coexist with a *denied* AID it transitively depended on at the end."""
    machine = _machine()
    aids = [machine.aid_init(f"a{i}") for i in range(5)]
    for op, pidx, aidx in actions:
        _apply(machine, aids, op, PROCS[pidx], aids[aidx])
    for record in machine.processes.values():
        for interval in record.intervals:
            if interval.state is IntervalState.DEFINITE:
                assert not interval.ido


# ----------------------------------------------------------------------
# truncate_from cuts the tail: same answer as the whole-history partition
# ----------------------------------------------------------------------
def _partition_truncate(record, start_index):
    """The pre-suffix-cut ``truncate_from``: validate strict order over
    the whole history, then partition it.  Returns ``(keep, drop)``."""
    indices = [entry.index for entry in record.history]
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise MachineInvariantError("not strictly index-ordered")
    keep = [e for e in record.history if e.index < start_index]
    drop = [e for e in record.history if e.index >= start_index]
    return keep, drop


HISTORY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 6)),
        st.tuples(st.just("truncate"), st.floats(0, 1)),
        st.tuples(st.just("fossilize"), st.floats(0, 1)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(HISTORY_OPS)
def test_truncate_from_matches_the_partition_reference(ops):
    record = ProcessRecord("p")
    for op, arg in ops:
        if op == "append":
            for _ in range(arg):
                record.append("event")
        elif op == "fossilize":
            record.fossilize_before(int(arg * record._next_index))
        else:
            start = int(arg * record._next_index)
            keep, drop = _partition_truncate(record, start)
            assert record.truncate_from(start) == drop
            assert record.history == keep
            assert record._next_index == start
    indices = [e.index for e in record.history]
    assert indices == list(range(record._next_index - len(indices), record._next_index))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.data())
def test_truncate_from_rejects_a_stranded_entry(n, data):
    """An entry at or after the cut sitting *before* an older one means the
    deletion is not a contiguous suffix — the tail cut must still see it."""
    record = ProcessRecord("p")
    for _ in range(n):
        record.append("event")
    high = data.draw(st.integers(1, n - 1))
    low = data.draw(st.integers(0, high - 1))
    history = record.history
    history.insert(low, history.pop(high))      # strand `high` before `low`
    start = data.draw(st.integers(low + 1, high))
    with pytest.raises(MachineInvariantError):
        _partition_truncate(record, start)
    with pytest.raises(MachineInvariantError):
        record.truncate_from(start)


def test_append_refuses_to_create_disorder():
    record = ProcessRecord("p")
    record.append("event")
    record.append("event")
    record._next_index = 1                      # a rewound clock, entries kept
    with pytest.raises(MachineInvariantError):
        record.append("event")


# ----------------------------------------------------------------------
# fossil passes over the changed-record set: same answer as a full sweep
# ----------------------------------------------------------------------
def _full_sweep(machine, held=frozenset()):
    """The pre-incremental ``fossil.collect``: visit every record and every
    AID in the table, and decide by reachability.  Kept here as the
    reference the incremental pass is compared against; ignores
    ``Machine.changed``, the candidate queues and the per-AID bookkeeping
    (``parked_denies``, ``handles``), reads the pins as a plain set of
    keys, and keeps a pending AID whose key is in ``held`` (a live handle
    object names it)."""
    out = FossilStats()
    pinned_keys = set(machine.pins)
    referenced = set()
    for record in machine.processes.values():
        hist, ivs = record.fossilize_before(record.frontier_index())
        out.history_dropped += hist
        out.intervals_dropped += ivs
    for record in machine.processes.values():
        for iv in record.intervals:
            referenced.update(iv.ido)
            referenced.update(iv.ihd)
            referenced.update(iv.spec_affirms)
    retired = [
        aid for key, aid in machine.aids.items()
        if not (aid.dom or aid in referenced or key in pinned_keys
                or (aid.pending and key in held))
    ]
    for aid in retired:
        del machine.aids[aid.key]
        machine.stats["aids_retired_" + aid.status.value] += 1
    out.aids_retired = len(retired)
    if retired:
        gone, gone_keys = set(retired), {a.key for a in retired}
        for cache, dead in (
            (machine._resolve_cache, gone), (machine._resolve_key_cache, gone_keys)
        ):
            stale = [k for k in cache if not dead.isdisjoint(k)]
            out.resolve_entries_purged += len(stale)
            for k in stale:
                del cache[k]
    machine.stats["fossil_collections"] += 1
    machine.stats["fossil_history_dropped"] += out.history_dropped
    machine.stats["fossil_intervals_dropped"] += out.intervals_dropped
    machine.stats["fossil_aids_retired"] += out.aids_retired
    return out


def _tables(machine):
    """Everything a fossil pass may touch, in a comparable form."""
    def keys(aids):
        return tuple(sorted(a.key for a in aids))

    return {
        "aids": sorted(machine.aids),
        "history": {n: [e.index for e in r.history] for n, r in machine.processes.items()},
        "intervals": {n: [iv.serial for iv in r.intervals] for n, r in machine.processes.items()},
        "parents": {
            n: [iv.parent.serial if iv.parent is not None else None for iv in r.intervals]
            for n, r in machine.processes.items()
        },
        "resolve_cache": sorted(keys(tagset) for tagset in machine._resolve_cache),
        "resolve_key_cache": sorted(tuple(sorted(k)) for k in machine._resolve_key_cache),
        "stats": {
            k: v for k, v in machine.stats.items()
            if k.startswith(("fossil_", "aids_retired_"))
            and k not in ("fossil_records_visited", "fossil_aids_examined")   # cost, not effect
        },
    }


FOSSIL_ACTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["guess", "affirm", "deny", "free_of", "recv", "step"]),
            st.integers(0, len(PROCS) - 1),
            st.integers(0, 40),
        ),
        st.tuples(st.just("aid_init"), st.integers(0, len(PROCS) - 1), st.just(0)),
        st.tuples(st.just("resolve_key"), st.just(0), st.integers(0, 40)),
        # a pass, before which the pins are moved to the AIDs whose pool
        # index has a bit set in the mask (pins taken and released)
        st.tuples(st.just("collect"), st.just(0), st.integers(0, 255)),
        # handle objects: two made for each masked AID not held, one let
        # go for each held AID not masked
        st.tuples(st.just("hold"), st.just(0), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(FOSSIL_ACTIONS)
# An AID a pass skipped for its non-empty DOM, then orphaned by the
# rollback of its only dependent (another AID of that interval is denied):
@example([("guess", 0, 1), ("guess", 0, 0), ("collect", 0, 0),
          ("deny", 1, 1), ("collect", 0, 0)])
# ... and one whose DOM a speculative affirm emptied, orphaned when the
# affirming interval rolls back:
@example([("guess", 2, 0), ("collect", 0, 0), ("guess", 0, 1),
          ("affirm", 0, 0), ("deny", 1, 1), ("collect", 0, 0)])
def test_incremental_fossil_pass_reclaims_what_a_full_sweep_does(actions):
    """Two machines in lockstep over random primitive / rollback /
    orphaning schedules with passes at random points (and pins taken and
    released, handle objects made and dropped, between them): one runs
    the incremental pass, the other a full sweep.  After every pass the
    tables and the FossilStats agree — orphaned-AID retirement and the
    resolve-cache purge included — although the incremental pass only
    visits the records queued as changed and examines only the AIDs whose
    state changed or whose last pin or held handle went."""
    machine, reference = _machine(), _machine()
    pools = [[m.aid_init(f"a{i}") for i in range(3)] for m in (machine, reference)]
    handles = [{}, {}]                      # per machine: key -> live handle objects
    passes = 0
    # close with nothing pinned and every handle gone
    for op, pidx, n in [*actions, ("hold", 0, -1), ("collect", 0, 0)]:
        for m, aids, held in zip((machine, reference), pools, handles):
            aid = aids[n % len(aids)]
            if op == "aid_init":
                # minted by a process, possibly inside an interval that later
                # rolls back (an orphan once nothing references or pins it)
                aids.append(m.aid_init(f"a{len(aids)}"))
            elif op == "resolve_key":
                if aid.key in m.aids:
                    m.resolve_tag_keys(frozenset([aid.key]))
            elif op == "collect":
                _move_pins(m, aids, n)
            elif op == "hold":
                _move_handles(m, aids, n, held)
            else:
                _apply(m, aids, op, PROCS[pidx], aid)
        if op == "collect":
            want = _full_sweep(reference, {key for key, objs in handles[1].items() if objs})
            got = machine.fossil_collect()
            for field in FossilStats.__slots__:
                assert getattr(got, field) == getattr(want, field), field
            assert _tables(machine) == _tables(reference)
            machine.check_invariants()
            passes += 1
            assert machine.stats["fossil_collections"] == passes
    assert not machine._retire_deferred


def _move_pins(machine, aids, mask):
    """Pin exactly the AIDs whose pool index has a bit set in ``mask``,
    through the counting interface: release what was pinned and is not
    wanted, pin what is wanted and was not."""
    wanted = {a.key for i, a in enumerate(aids) if mask >> (i % 8) & 1}
    held = set(machine.pins)
    machine.unpin(sorted(held - wanted))
    machine.pin(sorted(wanted - held))


class _Handle:
    """A stand-in for an ``AidHandle`` object: all a hold needs is a
    weak reference to it."""


def _move_handles(machine, aids, mask, held):
    """Give each pending AID whose pool index has a bit set in ``mask``
    and no live handle two handle objects (``Machine.hold`` counts each,
    as it does the decoded copies of one handle), and drop one object of
    each other AID that has some — the machine hears of it only through
    the weak reference's callback.  A negative ``mask`` drops them all."""
    for i, aid in enumerate(aids):
        objs = held.setdefault(aid.key, [])
        if mask < 0:
            objs.clear()
        elif mask >> (i % 8) & 1:
            if not objs and aid.pending:
                objs.extend((_Handle(), _Handle()))
                for obj in objs:
                    machine.hold(aid, obj)
        elif objs:
            objs.pop()


def test_a_pass_visits_only_changed_records():
    machine = Machine()
    for i in range(50):
        machine.create_process(f"idle{i}")
    machine.create_process("p")
    machine.create_process("q")
    machine.fossil_collect()
    assert machine.stats["fossil_records_visited"] == 52     # all new
    x = machine.aid_init("x")
    machine.guess("p", x)
    machine.fossil_collect()
    machine.fossil_collect()
    # p changed; that it still speculates is no reason to look again
    assert machine.stats["fossil_records_visited"] == 52 + 1 + 0
    machine.affirm("q", x)
    machine.fossil_collect()
    machine.fossil_collect()
    assert machine.stats["fossil_records_visited"] == 53 + 2 + 0
    assert x.key not in machine.aids


def test_take_queued_serves_the_reclaimable_first_and_the_rest_in_turn():
    machine = Machine()
    names = [f"p{i}" for i in range(10)]
    for name in names:
        machine.create_process(name)             # queued: they changed ("init")
    x, y = machine.aid_init("x"), machine.aid_init("y")
    machine.guess("p7", x)
    machine.guess("p8", y)
    machine.affirm("p9", x)                      # p7's interval finalizes
    machine.deny("p9", y)                        # p8's rolls back

    def taken(limit):
        return [r.name for r in machine.take_queued(limit)]

    # those with a dead interval always, then ``limit`` of the others,
    # first come first served
    assert taken(2) == ["p7", "p8", "p0", "p1"]
    assert taken(1) == ["p2"]
    assert taken(0) == []
    machine.step("p0", "again")                  # re-queued, behind the others
    machine.step("p7", "again")                  # keeps the place it never used
    assert taken(None) == ["p3", "p4", "p5", "p6", "p7", "p9", "p0"]
    assert machine.changed == [] and machine.reclaimable == []
    # however often a record is visited out of turn, it is queued once
    z = [machine.aid_init(f"z{i}") for i in range(50)]
    for aid in z:
        machine.guess("p1", aid)
        machine.affirm("p2", aid)
        assert taken(0) == ["p1"]                # p2 merely changed: it waits
        assert [r.name for r in machine.changed] == ["p1", "p2"]
    assert taken(None) == ["p2"]                 # p1's place had gone stale
    machine.fossil_collect()
    machine.check_invariants()


# ----------------------------------------------------------------------
# Machine(history=False): the same machine, minus the entries
# ----------------------------------------------------------------------
def _without_entries(machine):
    """:func:`_tables` with the history rows swapped for the index clock
    they were handed out by, plus every interval field and every counter."""
    view = _tables(machine)
    del view["history"]
    view["clock"] = {
        n: (r._next_index, r._floor_index, r.frontier_index(), r.rollback_count, r.g)
        for n, r in machine.processes.items()
    }
    view["intervals"] = {
        n: [
            (iv.serial, iv.start_index, iv.ps, iv.state, sorted(a.key for a in iv.ido))
            for iv in r.intervals
        ]
        for n, r in machine.processes.items()
    }
    view["stats"] = dict(machine.stats)
    return view


@settings(max_examples=300, deadline=None)
@given(FOSSIL_ACTIONS)
def test_machine_without_history_is_the_same_machine(actions):
    """Random primitive / rollback / fossil-pass schedules on a recording
    machine and on ``Machine(history=False)`` in lockstep: every index,
    interval, AID table, counter and FossilStats field agrees (a pass
    counts the history it drops in indices, so even that one does), the
    invariants hold on both, and the second keeps no entry at all."""
    machines = [Machine(), Machine(history=False)]
    pools = []
    for machine in machines:
        for name in PROCS:
            machine.create_process(name)
        pools.append([machine.aid_init(f"a{i}") for i in range(3)])
    for op, pidx, n in actions:
        passes = []
        for machine, aids in zip(machines, pools):
            aid = aids[n % len(aids)]
            if op == "aid_init":
                aids.append(machine.aid_init(f"a{len(aids)}"))
            elif op == "resolve_key":
                if aid.key in machine.aids:
                    machine.resolve_tag_keys(frozenset([aid.key]))
            elif op == "collect":
                _move_pins(machine, aids, n)
                got = machine.fossil_collect()
                passes.append([getattr(got, f) for f in FossilStats.__slots__])
            else:
                _apply(machine, aids, op, PROCS[pidx], aid)
            machine.check_invariants()
        assert passes[:1] == passes[1:]
        assert _without_entries(machines[0]) == _without_entries(machines[1])
    recording, clock_only = machines
    for name in PROCS:
        kept = recording.processes[name]
        assert [e.index for e in kept.history] == list(
            range(kept._floor_index, kept._next_index)
        )
        assert clock_only.processes[name].history == ()
