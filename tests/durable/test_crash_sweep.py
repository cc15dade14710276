"""Every durable file operation is a crash point of the one driver.

:func:`repro.verify.sweep` crashes one durable run before each operation
its store hands the file system, rebuilds what the crash leaves — as
written, and losing what no ``fsync`` covered — and resumes each distinct
state once.  Each resumed run must commit what the twin commits, leave no
process stuck, pass the image check, count every rejection and restore at
least the newest sealed batch.  Seeded store bugs must fail the sweep.
"""

import io
import json

import pytest

from repro.bench.workloads import build_durable_counter
from repro.chaos import CRASH_WORKLOADS
from repro.cli import main
from repro.durable import DurableStore
from repro.durable.store import LEDGER_FILE
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, EventLimitExceeded
from repro.verify import Scenario, reproduce, sweep
from repro.verify.driver import LOST, WRITTEN, crash_states

from .test_durable_image import BUILDS
from .test_durable_resume import _build_wide

SHAPES = {
    **CRASH_WORKLOADS,
    "steady": Scenario("steady", BUILDS["steady"], None),
    "staggered": Scenario("staggered", BUILDS["staggered"], None),
    "wide": Scenario("wide", _build_wide, None),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_crash_state_recovers(shape):
    report = sweep(SHAPES[shape], seed=1)
    assert report.record.ok, report.record.failure
    assert report.points > report.states > 0
    assert not report.failures, [(run.label, run.failure) for run in report.failures]


def test_the_two_states_of_a_crash():
    """As written: every earlier operation landed.  Lost: each file cut
    back to its last fsync, names back to the last directory fsync."""
    ops = [("open", "a", "a", 0, None), ("write", "a", b"x", 1, None),
           ("fsync", "a", None, 2, None), ("dirsync", ".", None, 3, None),
           ("write", "a", b"y", 4, None), ("open", "b", "a", 5, None),
           ("replace", "b", "c", 6, None), ("unlink", "a", None, 7, None),
           ("flush", "c", None, 8, None)]
    states = {(k, mode): files for k, mode, files, _ in crash_states({"old": b"o"}, ops)}
    assert states[1, WRITTEN] == {"old": b"o", "a": b""}
    assert states[1, LOST] == {"old": b"o"}
    assert states[5, WRITTEN] == {"old": b"o", "a": b"xy"}
    assert states[5, LOST] == {"old": b"o", "a": b"x"}
    assert states[8, WRITTEN] == {"old": b"o", "c": b""}
    assert states[8, LOST] == {"old": b"o", "a": b"x"}


def _skip_fsync(monkeypatch, skipped):
    """The store's file fsyncs, less those of files ``skipped`` names:
    the ledger's is :meth:`DurableStore.seal_ledger`'s, a WAL's is
    :meth:`DurableStore.write_marker`'s."""
    flush = DurableStore._flush
    monkeypatch.setattr(DurableStore, "_flush", lambda self, fh, name, sync=True:
                        flush(self, fh, name, sync and not skipped(name)))


def _skip_wal_dirsync(monkeypatch):
    """``open_wal`` without the directory fsync that makes a new WAL's
    name durable."""
    open_wal = DurableStore.open_wal

    def without_dirsync(self, gen, fresh=False):
        self._dir_fsync = lambda: None
        try:
            open_wal(self, gen, fresh)
        finally:
            del self._dir_fsync

    monkeypatch.setattr(DurableStore, "open_wal", without_dirsync)


@pytest.mark.parametrize("bug,says", [
    (lambda mp: _skip_fsync(mp, lambda name: name == LEDGER_FILE),
     "ledger: holds 0 rows where the envelope sealed"),
    (lambda mp: _skip_fsync(mp, lambda name: name.startswith("wal-")),
     "short of the batch sealed"),
    (_skip_wal_dirsync, "short of the batch sealed"),
], ids=["seal_ledger-without-fsync", "write_marker-without-fsync", "open_wal-without-dirsync"])
def test_a_seeded_store_bug_fails_the_sweep(monkeypatch, bug, says):
    bug(monkeypatch)
    report = sweep(CRASH_WORKLOADS["counter"], seed=1)
    assert report.record.ok
    # (each only loses what no fsync covered)
    assert report.failures and all(run.label.endswith(", lost)") for run in report.failures)
    assert any(says in run.failure for run in report.failures), report.failures[0].failure


def test_a_crash_reproducer_replays_under_both_commands(tmp_path, monkeypatch):
    _skip_fsync(monkeypatch, lambda name: name.startswith("wal-"))
    report = sweep(CRASH_WORKLOADS["counter"], seed=1, repro_dir=str(tmp_path))
    assert len(report.repro_files) == len(report.failures) > 0
    for path in report.repro_files:
        for command in ("verify", "chaos"):
            assert main([command, "--repro", path], out=io.StringIO()) == 1
    monkeypatch.undo()
    out = io.StringIO()
    assert main(["chaos", "--repro", report.repro_files[0]], out=out) == 0
    assert "no longer fails" in out.getvalue()


def test_a_crash_while_the_system_is_built_replays(tmp_path):
    """The key written without its fsync: losing what no fsync covered
    after the first directory fsync leaves an empty key.  That crash point
    comes before any scheduling choice — inside the ``HopeSystem``
    constructor — and its reproducer replays to a failure, not a
    traceback."""
    with pytest.MonkeyPatch.context() as mp:
        _skip_fsync(mp, lambda name: name == ".key.bin.tmp")
        report = sweep(CRASH_WORKLOADS["counter"], seed=1)
        path = reproduce(report.failures[0], str(tmp_path / "crash.json"))
        with open(path, encoding="utf-8") as fh:
            choices = json.load(fh)["choices"]
        assert choices[-1] == LOST and not any(choices[:-1])
        crashed_at = len(choices) - 1
        assert report.record.disk[1][crashed_at][3] == crashed_at    # no tie before it
        assert "seal key too short" in report.failures[0].failure
        for command in ("verify", "chaos"):
            assert main([command, "--repro", path], out=io.StringIO()) == 1


def test_a_fresh_start_over_a_torn_wal_keeps_its_own_batches(tmp_path):
    """Nothing in WAL 0 was restorable — its first batch is torn — so the
    resumed run starts that WAL over: its own sealed batches survive the
    next crash.  (Appended behind the torn bytes, they were unreadable.)"""
    kwargs = dict(seed=1, latency=ConstantLatency(1.0), fossil_interval=4)
    twin = HopeSystem(**kwargs)
    build_durable_counter(twin)
    twin.run()
    with open(tmp_path / "wal-00000000.jsonl", "wb") as fh:
        fh.write(b'{"t":"f","p":"c0"')
    kwargs["durable_opts"] = {"snapshot_every": 10**9}      # WAL 0 only
    first = HopeSystem.resume(str(tmp_path), build_durable_counter, **kwargs)
    assert first.stats()["durable"]["resumed"] is False
    with pytest.raises(EventLimitExceeded):
        first.run(max_events=twin.stats()["sim_events"] - 1)
    assert first.stats()["durable"]["wal_batches"] >= 1
    del first                           # abandoned mid-run
    again = HopeSystem.resume(str(tmp_path), build_durable_counter, **kwargs)
    assert again.stats()["durable"]["frames_replayed"] > 0
