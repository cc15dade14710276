"""Unit tests for the effect log and replay machinery."""

import random

import pytest

from repro.runtime import (
    Checkpoint,
    EffectLog,
    HopeSystem,
    LogEntry,
    ReplayDivergenceError,
)
from repro.runtime import ReceivedMessage, effects
from repro.runtime.replay import KIND_CODE, KINDS, HopeError
from repro.sim.process import TIMED_OUT


def test_append_advances_cursor_keeps_live():
    log = EffectLog()
    log.append("compute", None)
    log.append("recv", "msg")
    assert len(log) == 2
    assert not log.pending


def test_begin_replay_rewinds_and_feeds_in_order():
    log = EffectLog()
    log.append("now", 1)
    log.append("random", 2)
    log.begin_replay()
    assert log.pending
    assert log.feed("now") == 1
    assert log.feed("random") == 2
    assert not log.pending
    assert (log.origin, log.replayed_entries_total) == (0, 2)


def test_feed_checks_effect_kind():
    log = EffectLog()
    log.append("compute", None)
    log.begin_replay()
    with pytest.raises(ReplayDivergenceError):
        log.feed("recv")


def test_truncate_drops_suffix_and_clamps_cursor():
    log = EffectLog()
    for i in range(5):
        log.append("emit", i)
    dropped = log.truncate(2)
    assert dropped == 3
    assert len(log) == 2
    assert not log.pending            # cursor clamped to the new tail


def test_truncate_beyond_length_raises():
    log = EffectLog()
    log.append("emit", 0)
    with pytest.raises(HopeError):
        log.truncate(5)


def test_live_appends_during_partial_replay_not_allowed_by_shape():
    """After replay finishes, appends continue the same log."""
    log = EffectLog()
    log.append("now", 1)
    log.begin_replay()
    log.feed("now")
    log.append("random", 2)
    assert len(log) == 2
    assert not log.pending


def test_begin_replay_on_empty_log_counts_nothing():
    log = EffectLog()
    log.begin_replay()
    assert (log.pending, log.replayed_entries_total) == (0, 0)
    assert not log.pending


def test_checkpoint_repr_and_fields():
    cp = Checkpoint(log_index=7, time=3.25)
    assert cp.log_index == 7
    assert cp.time == 3.25
    assert "7" in repr(cp)


def test_log_entry_repr():
    entry = LogEntry("recv", "payload")
    assert "recv" in repr(entry)


def test_entry_at_is_bounded_on_both_sides():
    log = EffectLog()
    for i in range(5):
        log.append("now", i)
    log.drop_prefix(3)
    assert log.retained == 2 and len(log) == 5
    assert log.entry_at(3) == LogEntry("now", 3) == ("now", 3)
    assert log.entry_at(4).result == 4
    # index - base < 0 used to be a negative list index: the *last* entries
    for behind in (2, 0):
        with pytest.raises(HopeError, match=f"log entry {behind} is behind the fossil base 3"):
            log.entry_at(behind)
    with pytest.raises(IndexError):
        log.entry_at(5)
    with pytest.raises(HopeError, match="behind the fossil base"):
        list(log.pairs(2, 4))
    assert list(log.pairs(3, 5)) == [("now", 3), ("now", 4)]
    assert list(log.pairs(4, 4)) == []


def test_load_replaces_the_log_live_at_the_tail():
    log = EffectLog()
    log.append("now", 0)
    log.begin_replay()
    log.load(7, iter([("recv", "m"), ("send", 2)]))
    assert (log.base, log.retained, len(log), log.cursor, log.pending) == (7, 2, 9, 9, 0)
    assert log.entry_at(8) == ("send", 2)
    assert log.kinds == bytes([KIND_CODE["recv"], KIND_CODE["send"]])
    log.load(0, [])
    assert (log.base, log.retained, log.cursor, log.pending) == (0, 0, 0, 0)


def _effect_classes(cls=effects.HopeEffect):
    for sub in cls.__subclasses__():
        yield sub
        yield from _effect_classes(sub)


def test_every_effect_kind_has_a_code_and_reads_back_by_name():
    """The ``kinds`` column holds one byte per entry; what is read out of
    the log (``entry_at``, ``pairs``, a divergence message) names kinds."""
    kinds = {cls.kind for cls in _effect_classes()
             if "kind" in vars(cls) and cls.__module__.startswith("repro.")}
    assert kinds == set(KINDS) and len(KINDS) < 256
    assert all(KINDS[KIND_CODE[kind]] == kind for kind in kinds)
    log = EffectLog()
    for i, kind in enumerate(KINDS):
        log.append(kind, i)
    assert type(log.kinds) is bytearray and len(log.kinds) == len(KINDS)
    assert [log.entry_at(i) for i in range(len(log))] == list(zip(KINDS, range(len(KINDS))))
    assert all(type(kind) is str for kind, _ in log.pairs(0, len(log)))
    assert list(log.pairs(1, 3)) == [(KINDS[1], 1), (KINDS[2], 2)]
    with pytest.raises(KeyError):
        log.append("made-up", None)         # the table is closed


_KINDS = ("send", "recv", "now", "guess", "commit")


def _logged(kind, step, rng):
    """A result as the engine logs it: a receive's is a
    ``ReceivedMessage`` or ``TIMED_OUT``."""
    if kind != "recv":
        return (step, rng.random())
    if rng.random() < 0.2:
        return TIMED_OUT
    return ReceivedMessage((step, rng.random()), f"p{rng.randrange(3)}", step)


def _same(read, logged):
    """Equal, and around the very payload object that was logged."""
    if type(logged) is ReceivedMessage:
        return type(read) is ReceivedMessage and read == logged and read.payload is logged.payload
    return read is logged


def _assert_in_step(log, model, base, cursor, rng):
    """The lists against a list of pairs, and the cursor arithmetic."""
    assert len(log.kinds) == len(log.results) == log.retained == len(model)
    assert len(log.envelopes) == 2 * sum(kind == "recv" for kind, _ in model)
    assert (log.base, log.cursor, len(log)) == (base, cursor, base + len(model))
    assert log.pending == log.base + log.retained - log.cursor
    assert (log.pending > 0) == (cursor < base + len(model))
    pairs = list(log.pairs(base, len(log)))
    assert pairs == model and all(map(_same, (r for _, r in pairs), (r for _, r in model)))
    if model:
        at = rng.randrange(len(model))
        entry = log.entry_at(base + at)
        assert entry == model[at] and _same(entry.result, model[at][1])


@pytest.mark.parametrize("seed", range(8))
def test_random_op_sequences_keep_columns_and_cursor_in_step(seed):
    """append / feed / truncate / drop_prefix / load / begin_replay in any
    order the engine could issue them (it appends only when live), checked
    after every step against a plain list of ``(kind, result)`` pairs: a
    receive reads back as the ``ReceivedMessage`` it was logged as, around
    the same payload object, or as ``TIMED_OUT``."""
    rng = random.Random(seed)
    log, model, base, cursor, fed = EffectLog(), [], 0, 0, 0
    for step in range(400):
        end = base + len(model)
        op = rng.choice(("work",) * 6 + ("truncate", "drop", "replay", "load"))
        if op == "work" and cursor == end:
            kind = rng.choice(_KINDS)
            pair = (kind, _logged(kind, step, rng))
            log.append(*pair)
            model.append(pair)
            cursor += 1
        elif op == "work":
            kind, result = model[cursor - base]
            assert _same(log.feed(kind), result)
            cursor += 1
            fed += 1
        elif op == "truncate":
            index = rng.randint(base, end)
            assert log.truncate(index) == end - index
            if index == 0:                      # the crash-style full reset
                base = 0
            del model[index - base:]
            cursor = min(cursor, index)
        elif op == "drop":
            index = rng.randint(base, end)
            if index > cursor:                  # an in-flight replay needs them
                with pytest.raises(HopeError, match="past the replay cursor"):
                    log.drop_prefix(index)
            else:
                assert log.drop_prefix(index) == index - base
                del model[:index - base]
                base = index
        elif op == "load":                      # a durable restore
            base = rng.choice((0, base, base + 3))
            log.load(base, list(model))
            cursor = base + len(model)
        else:                                   # from entry, or a commit point
            cursor = rng.choice((base, rng.randint(base, end)))
            log.begin_replay(cursor)
        _assert_in_step(log, model, base, cursor, rng)
    while log.pending:                        # ... and feed to exhaustion
        kind, result = model[cursor - base]
        assert _same(log.feed(kind), result)
        cursor += 1
        fed += 1
    _assert_in_step(log, model, base, cursor, rng)
    assert log.replayed_entries_total == fed > 0


# ----------------------------------------------------------------------
# the one rollback path, end to end: restart + replay from the log base
# ----------------------------------------------------------------------
def test_restart_replays_the_logged_prefix():
    """A denied guess restarts the body and re-feeds every logged effect
    before the guess; the re-executed guess then returns False."""
    prefix = 40

    def worker(p):
        for _ in range(prefix):
            yield p.compute(0.01)
        a = yield p.aid_init("flaky")
        yield p.send("judge", a)
        if (yield p.guess(a)):
            yield p.compute(5.0)
            yield p.emit("speculative")
            return "spec-done"
        yield p.compute(0.5)
        return "denied"

    def judge(p):
        msg = yield p.recv()
        yield p.compute(2.0)
        yield p.deny(msg.payload)

    system = HopeSystem()
    system.spawn("judge", judge)
    proc = system.spawn("worker", worker)       # (kept: it retires at quiescence)
    system.run()
    stats = system.stats()
    assert stats["rollbacks"] == 1
    assert stats["replayed_effects"] == prefix + 2    # computes, aid_init, send
    assert system.result_of("worker") == "denied" and system.outputs("worker") == []
    assert len(proc.log) > prefix and not proc.log.pending
    system.machine.check_invariants()


def test_rollback_to_older_guess_replays_to_the_right_answer():
    """Denying the older of two nested guesses truncates below the newer
    one; replay re-reaches the older guess and both are re-decided."""
    def worker(p):
        for _ in range(10):
            yield p.compute(0.01)
        x = yield p.aid_init("x")
        y = yield p.aid_init("y")
        yield p.send("judge", x)
        vx = yield p.guess(x)
        yield p.compute(1.0)
        vy = yield p.guess(y)
        yield p.compute(5.0)
        return ("both", vx, vy)

    def judge(p):
        msg = yield p.recv()
        yield p.compute(3.0)       # after the worker's second guess
        yield p.deny(msg.payload)  # denies x: the older guess

    system = HopeSystem()
    system.spawn("judge", judge)
    system.spawn("worker", worker)
    system.run()
    assert system.result_of("worker") == ("both", False, True)
    stats = system.stats()
    assert stats["rollbacks"] == 1
    assert stats["replayed_effects"] == 13
    system.machine.check_invariants()


def test_divergence_right_after_a_rebase_blames_the_commit_point():
    log = EffectLog()
    for kind in ("recv", "commit", "recv"):
        log.append(kind, None)
    log.drop_prefix(2)
    log.begin_replay()
    with pytest.raises(ReplayDivergenceError) as blamed:
        log.feed("commit")
    assert str(blamed.value) == (
        "replay divergence at entry 2, the first after a promoted commit "
        "point: the resumed body yielded 'commit' but the log recorded 'recv' "
        "— the resumed body's first effect must be the one following the "
        "commit entry, i.e. the state passed to commit_point must be the "
        "state *after* the commit point"
    )
    # ... but a later mismatch is still a determinism complaint
    log.feed("recv")
    log.append("send", 1)
    log.begin_replay()
    log.feed("recv")
    with pytest.raises(ReplayDivergenceError) as diverged:
        log.feed("recv")
    assert str(diverged.value) == (
        "replay divergence at entry 3: process yielded 'recv' but the log "
        "recorded 'send' — the process body is not deterministic in its "
        "effect results"
    )
    assert (log.cursor, log.pending) == (3, 1)      # a refused feed moves nothing
