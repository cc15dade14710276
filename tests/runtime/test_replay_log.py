"""Unit tests for the effect log and replay machinery."""

import pytest

from repro.runtime import (
    Checkpoint,
    EffectLog,
    HopeSystem,
    LogEntry,
    ReplayDivergenceError,
)
from repro.runtime.replay import HopeError


def test_append_advances_cursor_keeps_live():
    log = EffectLog()
    log.append("compute", None)
    log.append("recv", "msg")
    assert len(log) == 2
    assert not log.replaying


def test_begin_replay_rewinds_and_feeds_in_order():
    log = EffectLog()
    log.append("a", 1)
    log.append("b", 2)
    log.begin_replay()
    assert log.replaying
    assert log.feed("a") == 1
    assert log.feed("b") == 2
    assert not log.replaying
    assert log.replay_count == 1
    assert log.replayed_entries_total == 2


def test_feed_checks_effect_kind():
    log = EffectLog()
    log.append("compute", None)
    log.begin_replay()
    with pytest.raises(ReplayDivergenceError):
        log.feed("recv")


def test_truncate_drops_suffix_and_clamps_cursor():
    log = EffectLog()
    for i in range(5):
        log.append("e", i)
    dropped = log.truncate(2)
    assert dropped == 3
    assert len(log) == 2
    assert not log.replaying            # cursor clamped to the new tail


def test_truncate_beyond_length_raises():
    log = EffectLog()
    log.append("e", 0)
    with pytest.raises(HopeError):
        log.truncate(5)


def test_live_appends_during_partial_replay_not_allowed_by_shape():
    """After replay finishes, appends continue the same log."""
    log = EffectLog()
    log.append("a", 1)
    log.begin_replay()
    log.feed("a")
    log.append("b", 2)
    assert len(log) == 2
    assert not log.replaying


def test_begin_replay_on_empty_log_counts_nothing():
    log = EffectLog()
    log.begin_replay()
    assert log.replay_count == 0
    assert not log.replaying


def test_checkpoint_repr_and_fields():
    cp = Checkpoint(log_index=7, time=3.25)
    assert cp.log_index == 7
    assert cp.time == 3.25
    assert "7" in repr(cp)


def test_log_entry_repr():
    entry = LogEntry("recv", "payload")
    assert "recv" in repr(entry)


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
    system.spawn("worker", worker)
    system.run()
    stats = system.stats()
    assert stats["rollbacks"] == 1
    assert stats["replayed_effects"] == prefix + 2    # computes, aid_init, send
    proc = system.procs["worker"]
    assert proc.result == "denied" and system.outputs("worker") == []
    assert len(proc.log) > prefix and not proc.log.replaying
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
    with pytest.raises(ReplayDivergenceError, match="state \\*after\\* the commit point"):
        log.feed("commit")
    # ... but a later mismatch is still a determinism complaint
    log.feed("recv")
    log.append("send", 1)
    log.begin_replay()
    log.feed("recv")
    with pytest.raises(ReplayDivergenceError, match="not deterministic"):
        log.feed("recv")
