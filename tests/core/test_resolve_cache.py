"""Memoized tag resolution: epoch-based invalidation regression tests.

``Machine.resolve_tags`` caches results per distinct tag set; the cache
MUST be flushed by every state change that can alter what a tag means at
delivery time (affirm, deny, finalize, rollback), or stale resolutions
would break the Theorem 6.3 delivery-side merge.  Each test constructs a
tag set whose meaning actually changes and asserts the post-change
resolution differs — i.e. it would fail if the cache survived the event.
"""

import pytest

from repro.core import Machine, UnknownAidError


def _machine(procs=("p", "q")):
    machine = Machine()
    for name in procs:
        machine.create_process(name)
    return machine


class TestEpochBumps:
    def test_affirm_bumps_epoch_and_flushes(self):
        machine = _machine()
        x = machine.aid_init("x")
        machine.guess("p", x)
        live, deps = machine.resolve_tags([x])
        assert live and deps == {x}
        epoch = machine.resolution_epoch
        machine.affirm("q", x)
        assert machine.resolution_epoch > epoch
        live, deps = machine.resolve_tags([x])
        assert live and deps == frozenset()  # affirmed tag imposes nothing

    def test_deny_bumps_epoch_and_flushes(self):
        machine = _machine()
        x = machine.aid_init("x")
        machine.guess("p", x)
        live, _ = machine.resolve_tags([x])
        assert live
        epoch = machine.resolution_epoch
        machine.deny("q", x)
        assert machine.resolution_epoch > epoch
        live, _ = machine.resolve_tags([x])
        assert not live  # denied tag now marks the message dead

    def test_rollback_bumps_epoch_and_flushes(self):
        """A rollback releases a speculative affirmer, changing what its
        AID's tag resolves to: affirmer's deps before, itself after."""
        machine = _machine()
        x, y = machine.aid_init("x"), machine.aid_init("y")
        machine.guess("p", x)
        machine.guess("p", y)
        machine.affirm("p", y)   # speculative affirm: y maps to {x} now
        live, deps = machine.resolve_tags([y])
        assert live and deps == {x}
        epoch = machine.resolution_epoch
        machine.deny("q", x)     # rolls p back; the affirm of y is undone
        assert machine.resolution_epoch > epoch
        assert y.pending
        live, deps = machine.resolve_tags([y])
        assert live and deps == {y}  # y stands for itself again

    def test_guess_does_not_bump_epoch(self):
        """Pending, unaffirmed tags resolve to themselves no matter how
        many intervals depend on them — guessing keeps the cache warm."""
        machine = _machine()
        x = machine.aid_init("x")
        machine.resolve_tags([x])
        epoch = machine.resolution_epoch
        machine.guess("p", x)
        machine.guess("q", x)
        assert machine.resolution_epoch == epoch

    def test_finalize_bumps_epoch(self):
        """free_of completing an interval finalizes it; parked speculative
        state becomes definite, so the caches flush."""
        machine = _machine()
        x = machine.aid_init("x")
        machine.guess("p", x)
        epoch = machine.resolution_epoch
        machine.affirm("q", x)   # resolves x and finalizes p's interval
        assert machine.resolution_epoch > epoch


class TestCacheBehaviour:
    def test_repeat_resolution_hits_cache(self):
        machine = _machine()
        x, y = machine.aid_init("x"), machine.aid_init("y")
        machine.guess("p", x)
        machine.guess("p", y)
        machine.resolve_tags([x, y])
        misses = machine.stats["resolve_cache_misses"]
        hits = machine.stats["resolve_cache_hits"]
        for _ in range(5):
            machine.resolve_tags([x, y])
        assert machine.stats["resolve_cache_hits"] == hits + 5
        assert machine.stats["resolve_cache_misses"] == misses

    def test_key_cache_agrees_with_aid_cache(self):
        machine = _machine()
        x, y = machine.aid_init("x"), machine.aid_init("y")
        machine.guess("p", x)
        machine.guess("p", y)
        by_aid = machine.resolve_tags([x, y])
        by_key = machine.resolve_tag_keys(frozenset({x.key, y.key}))
        assert by_aid == by_key
        # and the key-level cache serves repeats without AID lookups
        hits = machine.stats["resolve_cache_hits"]
        machine.resolve_tag_keys(frozenset({x.key, y.key}))
        assert machine.stats["resolve_cache_hits"] == hits + 1

    def test_key_lookup_names_the_key_it_cannot_find(self):
        machine = _machine()
        x = machine.aid_init("x")
        with pytest.raises(UnknownAidError, match="'ghost#9'"):
            machine.resolve_tag_keys(frozenset({x.key, "ghost#9"}))
        assert not machine._resolve_key_cache

    def test_cached_result_is_correct_across_distinct_tagsets(self):
        machine = _machine()
        x, y = machine.aid_init("x"), machine.aid_init("y")
        machine.guess("p", x)
        assert machine.resolve_tags([x]) == (True, frozenset({x}))
        assert machine.resolve_tags([y]) == (True, frozenset({y}))
        assert machine.resolve_tags([x, y]) == (True, frozenset({x, y}))
