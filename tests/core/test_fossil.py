"""Fossil collection at the machine level: frontier correctness.

Theorem 6.1 is the soundness argument — finalized intervals never roll
back, so everything strictly behind a process's oldest speculative
interval is committed and reclaimable.  These tests pin down the three
load-bearing properties: the frontier is computed correctly, collection
never crosses it, and collection changes no observable resolution
(``check_invariants`` and ``resolve_tags`` agree before and after).
"""

import pytest

from repro.core import (
    Machine,
    MachineInvariantError,
    ProcessRecord,
    UnknownAidError,
)


def _machine(procs=("p", "q")):
    machine = Machine()
    for name in procs:
        machine.create_process(name)
    return machine


# ----------------------------------------------------------------- frontier
class TestFrontier:
    def test_definite_process_frontier_is_next_index(self):
        record = ProcessRecord("p")
        for _ in range(3):
            record.append("event")
        assert record.frontier_index() == 3

    def test_frontier_is_oldest_speculative_interval(self):
        machine = _machine()
        aids = [machine.aid_init(f"a{i}") for i in range(3)]
        for aid in aids:
            machine.guess("p", aid)
        record = machine.process("p")
        chain = list(record.intervals)
        assert record.frontier_index() == chain[0].start_index
        # resolving the oldest guess advances the frontier
        machine.affirm("q", aids[0])
        assert record.frontier_index() == chain[1].start_index

    def test_fossilize_past_frontier_rejected(self):
        machine = _machine()
        x = machine.aid_init("x")
        machine.guess("p", x)
        record = machine.process("p")
        with pytest.raises(MachineInvariantError):
            record.fossilize_before(record.frontier_index() + 1)

    def test_fossilize_keeps_current_interval(self):
        machine = _machine()
        old = machine.aid_init("old")
        machine.guess("p", old)
        machine.affirm("q", old)
        young = machine.aid_init("young")
        machine.guess("p", young)            # current stays speculative
        record = machine.process("p")
        record.fossilize_before(record.frontier_index())
        assert record.current in record.intervals


# --------------------------------------------------------------- collection
class TestCollect:
    def _resolved_run(self):
        """p guesses then q affirms everything: all fossil, no frontier."""
        machine = _machine()
        aids = [machine.aid_init(f"a{i}") for i in range(8)]
        for aid in aids:
            machine.guess("p", aid)
            machine.step("p", "compute", cost=1)
        for aid in aids:
            machine.affirm("q", aid)
        return machine, aids

    def test_collect_drops_history_and_retires_aids(self):
        machine, aids = self._resolved_run()
        before = len(machine.process("p").history)
        stats = machine.fossil_collect()
        assert stats.history_dropped > 0
        assert len(machine.process("p").history) < before
        assert stats.aids_retired == len(aids)
        for aid in aids:
            with pytest.raises(UnknownAidError):
                machine.aid(aid.key)
        machine.check_invariants()

    def test_retired_counters_preserve_totals(self):
        machine, aids = self._resolved_run()
        machine.fossil_collect()
        assert machine.stats["aids_retired_affirmed"] == len(aids)
        assert machine.stats["fossil_aids_retired"] == len(aids)
        assert machine.stats["fossil_collections"] == 1

    def test_pending_and_referenced_aids_survive(self):
        machine = _machine()
        done = machine.aid_init("done")
        machine.guess("p", done)
        machine.affirm("q", done)
        pending = machine.aid_init("pending")
        machine.guess("p", pending)          # keeps p speculative
        machine.fossil_collect()
        assert machine.aid(pending.key) is pending
        machine.check_invariants()

    def test_pinned_keys_block_retirement(self):
        machine, aids = self._resolved_run()
        pinned = aids[0]
        machine.pin([pinned.key])
        stats = machine.fossil_collect()
        assert stats.aids_retired == len(aids) - 1
        assert machine.aid(pinned.key) is pinned
        machine.check_invariants()

    def test_release_of_the_last_pin_is_what_retires(self):
        """A pinned AID is not looked at again until its pin count drops
        to zero; the pass after that retires it."""
        machine, aids = self._resolved_run()
        key = aids[0].key
        machine.pin([key])
        machine.pin([key])
        machine.fossil_collect()
        machine.unpin([key])
        examined = machine.stats["fossil_aids_examined"]
        assert not machine.fossil_collect().aids_retired
        assert machine.stats["fossil_aids_examined"] == examined
        machine.unpin([key])
        assert machine.fossil_collect().aids_retired == 1
        assert machine.stats["fossil_aids_examined"] == examined + 1
        assert not machine.pins

    def test_lookup_of_a_retired_key_says_so(self):
        """A key this machine minted and a pass retired is told apart from
        one that never existed (serial past the mint counter, serial 0 —
        below the first one minted — or not a key at all)."""
        machine, aids = self._resolved_run()
        machine.fossil_collect()
        with pytest.raises(UnknownAidError, match="retired by collection.*hold the `AidHandle`"):
            machine.aid(aids[3].key)
        for never in ("a9#9", "nonsense", "a#", "a#0"):
            with pytest.raises(UnknownAidError, match="unknown assumption identifier"):
                machine.aid(never)

    def test_retired_aid_still_usable_by_object(self):
        """By-object use survives retirement (Theorem 6.1: the answer is
        fixed); only by-key lookup is forfeited."""
        machine, aids = self._resolved_run()
        machine.fossil_collect()
        assert aids[0].affirmed
        # a fresh guess on a retained reference behaves as for any
        # affirmed AID: G=True with no new speculation
        assert machine.guess("q", aids[0]) is True
        assert not machine.process("q").speculative

    def test_collect_behind_frontier_is_partial(self):
        """Resolved prefix fossilizes while an open guess pins the rest."""
        machine = _machine()
        old = machine.aid_init("old")
        machine.guess("p", old)
        machine.affirm("q", old)
        young = machine.aid_init("young")
        machine.guess("p", young)
        machine.step("p", "compute", cost=1)
        record = machine.process("p")
        frontier = record.frontier_index()
        machine.fossil_collect()
        # everything at/after the frontier is untouched
        assert all(e.index >= frontier for e in record.history)
        assert record.frontier_index() == frontier
        machine.check_invariants()

    def test_orphaned_pending_aids_are_retired(self):
        """An AID minted inside a rolled-back interval is unreachable:
        its creation entry is gone from history, nothing retained
        references it, so no one can ever resolve it — garbage despite
        being PENDING."""
        machine = _machine()
        root = machine.aid_init("root")
        machine.guess("p", root)
        orphan = machine.aid_init("orphan")
        machine.guess("p", orphan)           # lives inside root's world
        machine.deny("q", root)              # rolls both intervals back
        assert orphan.pending
        stats = machine.fossil_collect()
        assert stats.aids_retired >= 1
        assert machine.stats["aids_retired_pending"] >= 1
        with pytest.raises(UnknownAidError):
            machine.aid(orphan.key)
        # pinning still protects an orphan someone can name
        machine.check_invariants()

    def test_pinned_orphan_survives(self):
        machine = _machine()
        root = machine.aid_init("root")
        machine.guess("p", root)
        orphan = machine.aid_init("orphan")
        machine.guess("p", orphan)
        machine.deny("q", root)
        machine.pin([orphan.key])
        machine.fossil_collect()
        assert machine.aid(orphan.key) is orphan

    def test_collect_is_idempotent_when_nothing_new(self):
        machine, _ = self._resolved_run()
        machine.fossil_collect()
        second = machine.fossil_collect()
        assert not (second.history_dropped or second.intervals_dropped or second.aids_retired
                    or second.resolve_entries_purged)


# ---------------------------------------------------------------- caches
class TestCachePurge:
    def test_resolve_cache_entries_for_retired_aids_purged(self):
        """Satellite: retirement must not leave memoized resolutions
        pinning a dead identifier."""
        machine, aids = self._run_and_resolve(4)
        # memoize post-resolution results that mention the doomed AIDs
        machine.resolve_tags([aids[0], aids[1]])
        machine.resolve_tag_keys(frozenset({aids[2].key}))
        assert machine._resolve_cache and machine._resolve_key_cache
        stats = machine.fossil_collect()
        assert stats.resolve_entries_purged >= 2
        retired = set(aids)
        for tagset in machine._resolve_cache:
            assert retired.isdisjoint(tagset)
        retired_keys = {a.key for a in aids}
        for keyset in machine._resolve_key_cache:
            assert retired_keys.isdisjoint(keyset)

    def test_resolution_identical_before_and_after_collect(self):
        machine = _machine()
        stay = machine.aid_init("stay")
        gone = machine.aid_init("gone")
        machine.guess("p", gone)
        machine.affirm("q", gone)
        machine.guess("p", stay)
        before = machine.resolve_tags([stay])
        machine.fossil_collect()
        assert machine.resolve_tags([stay]) == before
        machine.check_invariants()

    @staticmethod
    def _run_and_resolve(n):
        machine = _machine()
        aids = [machine.aid_init(f"a{i}") for i in range(n)]
        for aid in aids:
            machine.guess("p", aid)
        for aid in aids:
            machine.affirm("q", aid)
        return machine, aids
