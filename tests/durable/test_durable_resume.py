"""Crash–restart recovery end to end: crash a durable run, resume it, and
require the committed state to reconverge byte-identically with an
uninterrupted twin (the durable extension of the paper's twin-equality
property — a crash is just more network/scheduling weather, and Theorem
6.1 says the finalized prefix can never roll back, so it must survive).

Also covers: recording passivity (durable tracing changes no trace
byte), the commit_point restart edges under collection (base-aware
snapshots, EffectLog ``base`` accounting across the roundtrip),
corruption detection with one-generation fallback, and the constructor
guardrails.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.bench.workloads import build_durable_counter
from repro.chaos import (
    CRASH_WORKLOADS,
    format_crash_report,
    run_corruption_case,
    run_crash_matrix,
)
from repro.core.aid import VERDICTS, AidStatus
from repro.durable import DurableError
from repro.core.errors import HopeError
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, EventLimitExceeded, Tracer
from repro.verify import RecordingController, check_run, sweep
from repro.verify.driver import LOST, WRITTEN, crash_states


def _durable_kwargs(run_dir, **extra):
    kwargs = dict(
        seed=1,
        latency=ConstantLatency(1.0),
        fossil_interval=4,
        durable_dir=str(run_dir),
        durable_opts={"snapshot_every": 1},
    )
    kwargs.update(extra)
    return kwargs


def _resume(run_dir, build=build_durable_counter, **extra):
    kwargs = _durable_kwargs(run_dir, **extra)
    kwargs.pop("durable_dir")
    opts = kwargs.pop("durable_opts")
    return HopeSystem.resume(str(run_dir), build, durable_opts=opts, **kwargs)


def _committed(system):
    return {
        name: tuple(sorted(repr(v) for v in system.committed_outputs(name)))
        for name in system.process_names()
    }


# ------------------------------------------------------- recording passivity
class TestRecordingIsPassive:
    def test_durable_trace_is_byte_identical_to_plain_fossil_run(self, tmp_path):
        """The recorder only *observes* the committed frontier: same seed,
        same workload, same trace fingerprint with recording on or off."""
        def run(durable_dir):
            tracer = Tracer()
            kwargs = dict(
                seed=3, latency=ConstantLatency(1.0), trace=tracer,
                fossil_interval=4,
            )
            if durable_dir is not None:
                kwargs.update(
                    durable_dir=str(durable_dir),
                    durable_opts={"snapshot_every": 1},
                )
            system = HopeSystem(**kwargs)
            build_durable_counter(system)
            final = system.run()
            return tracer.fingerprint(), final, _committed(system)

        plain = run(None)
        durable = run(tmp_path)
        assert durable == plain


# ------------------------------------------------------------- clean restart
class TestCleanRestart:
    def test_completed_run_resumes_to_same_state(self, tmp_path):
        system = HopeSystem(**_durable_kwargs(tmp_path))
        build_durable_counter(system)
        system.run()
        want = _committed(system)
        resumed = _resume(tmp_path)
        resumed.run()
        assert _committed(resumed) == want
        stats = resumed.stats()["durable"]
        assert stats["resumed"] is True
        assert stats["resumed_generation"] >= 1

    def test_resume_on_empty_dir_starts_fresh(self, tmp_path):
        system = _resume(tmp_path)
        assert system.stats()["durable"]["resumed"] is False
        system.run()
        # ... and the fresh run is just a normal durable run.
        assert system.stats()["durable"]["snapshots_written"] >= 1


# ---------------------------------------------------------- kill/resume core
#: The crash sweep's durable settings (``repro.verify.sweep``'s defaults).
_SWEPT = dict(fossil_interval=4, durable_opts={"snapshot_every": 1})


@functools.lru_cache(maxsize=None)
def _recorded(workload, seed):
    """One uninterrupted durable run under a recording controller (its
    ``disk`` holds the file operations: the crash points)."""
    run = check_run(CRASH_WORKLOADS[workload], seed=seed,
                    controller=RecordingController(), **_SWEPT)
    assert run.ok, run.failure
    return run


def _crash_at(workload, seed, frac, mode):
    """The state a crash (``mode``) before the file operation at ``frac``
    of the run's crash points leaves, resumed and judged, the
    uninterrupted run as the twin."""
    record = _recorded(workload, seed)
    at = int(frac * len(record.disk[1]))
    (disk,) = [s[2:] for s in crash_states(*record.disk) if s[:2] == (at, mode)]
    return check_run(CRASH_WORKLOADS[workload], seed=seed, twin=record, disk=disk, **_SWEPT)


class TestKillResume:
    """The kill fractions are crash points of the one driver now: a crash
    at a fraction of the run's file operations, as written and lost."""

    @pytest.mark.parametrize("workload", ["mesh", "counter"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("frac", [0.25, 0.55, 0.85])
    def test_resumed_state_matches_uninterrupted_twin(self, workload, seed, frac):
        for mode in (WRITTEN, LOST):
            result = _crash_at(workload, seed, frac, mode)
            assert result.ok, result.failure

    @pytest.mark.parametrize("frac", [0.55, 0.85])
    def test_ring_kill_points(self, frac):
        for mode in (WRITTEN, LOST):
            result = _crash_at("ring", 5, frac, mode)
            assert result.ok, result.failure

    @pytest.mark.parametrize("workload,frac", [("counter", 0.55), ("mesh", 0.85)])
    def test_real_process_death(self, workload, frac):
        """A process death loses what sat in its write buffers; the lost
        state loses everything no fsync covered, which is more."""
        result = _crash_at(workload, 2, frac, LOST)
        assert result.ok, result.failure

    def test_matrix_helper_reports_counts(self):
        report = run_crash_matrix(workloads=["counter"], seeds=(1,), repro_dir=None)
        first, leg = report["sweeps"]
        assert report["failures"] == 0
        assert (first.record.label, leg.record.label) == ("record", "resumed")
        assert first.points > first.states > 0 and leg.points > leg.states > 0
        assert [mode for _, mode, _ in report["corruptions"]] == ["envelope", "wal", "ledger"]
        assert "0 failing" in format_crash_report(report)

    @pytest.mark.parametrize("workload", ["mesh", "ring", "counter"])
    def test_a_resume_of_a_resume_matches_the_twin(self, workload):
        """Crashed at the middle point as written, resumed, and the resumed
        leg crashed at each of its own points: every state recovers the
        twin's committed state."""
        record = _recorded(workload, 2)
        step = record.disk[1][len(record.disk[1]) // 2][3]
        leg = sweep(CRASH_WORKLOADS[workload], seed=2, prefix=record.choices[:step] + [WRITTEN])
        assert leg.record.stats["durable"]["resumed"] is True
        assert leg.states > 0
        assert not leg.failures, [(run.label, run.failure) for run in leg.failures]

    def test_all_kill_resume_workloads_registered(self):
        assert set(CRASH_WORKLOADS) >= {"mesh", "ring", "counter"}


# ---------------------------------------------------- corruption + fallback
@functools.lru_cache(maxsize=None)
def _swept():
    return sweep(CRASH_WORKLOADS["counter"], seed=1)


class TestCorruptionFallback:
    """Damage the newest as-written crash state that has something to
    damage, then resume it."""

    def test_envelope_corruption_is_detected_and_survived(self):
        assert run_corruption_case(_swept().record, "envelope") is None

    def test_wal_corruption_is_detected_and_survived(self):
        assert run_corruption_case(_swept().record, "wal") is None

    def test_ledger_corruption_is_refused_by_name(self):
        """No fallback to pretend with: an output exists only in the ledger."""
        assert run_corruption_case(_swept().record, "ledger") is None

    def test_undamaged_ledger_fails_the_ledger_case(self, monkeypatch):
        """The case passes only on the named refusal, not on a clean resume."""
        import repro.chaos

        monkeypatch.setitem(repro.chaos._CORRUPTIONS, "ledger", (lambda root: root, None))
        failure = run_corruption_case(_swept().record, "ledger")
        assert failure is not None and "not detected" in failure

    def test_bad_corrupt_mode_raises(self, tmp_path, monkeypatch):
        """Refused before anything runs: no run directory is left behind."""
        import tempfile

        swept = _swept().record
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValueError, match="envelope.*wal"):
            run_corruption_case(swept, "bitrot")
        assert list(tmp_path.iterdir()) == []


# -------------------------------------- commit_point × fossil restart edges
class TestFossilRestartEdges:
    def _kill_and_resume(self, tmp_path, kill_events):
        system = HopeSystem(**_durable_kwargs(tmp_path))
        build_durable_counter(system)
        with pytest.raises(EventLimitExceeded):
            system.run(max_events=kill_events)
        del system          # abandoned mid-run: the in-process "crash"
        return _resume(tmp_path)

    def test_resume_lands_on_base_aware_snapshot(self, tmp_path):
        """A late kill resumes from a snapshot whose logs were already
        fossil-trimmed: some process restarts with ``log.base > 0`` and a
        rebase point, not from program entry."""
        resumed = self._kill_and_resume(tmp_path, kill_events=29)
        assert resumed.stats()["durable"]["resumed"] is True
        bases = {name: proc.log.base for name, proc in resumed.procs.items()}
        assert any(base > 0 for base in bases.values()), bases
        rebased = [p for p in resumed.procs.values() if p.rebase is not None]
        assert rebased, "expected at least one restored rebase point"

    def test_effectlog_base_accounting_survives_roundtrip(self, tmp_path):
        """The absolute-index invariant ``cursor == base + len(entries)``
        must hold for every restored log before the run continues, and
        the continued run must still converge."""
        resumed = self._kill_and_resume(tmp_path, kill_events=29)
        for name, proc in resumed.procs.items():
            log = proc.log
            # Restored logs rewind to the absolute base: the committed
            # entries sit *ahead* of the cursor, queued for replay.
            assert log.cursor == log.base, name
        resumed.run()
        for name, proc in resumed.procs.items():
            log = proc.log
            # ... and once live, the absolute-index invariant is back.
            assert log.cursor == log.base + log.retained, name
        # Converged: same committed state as a never-interrupted run.
        twin = HopeSystem(seed=1, latency=ConstantLatency(1.0), fossil_interval=4)
        build_durable_counter(twin)
        twin.run()
        assert _committed(resumed) == _committed(twin)

    def test_mid_fossil_cycle_snapshot_counts_consistent(self, tmp_path):
        resumed = self._kill_and_resume(tmp_path, kill_events=29)
        stats = resumed.stats()["durable"]
        assert stats["resumed"] is True
        # The consolidation snapshot at restore is a *new* generation on
        # top of the one recovery loaded.
        assert stats["generation"] > stats["resumed_generation"]


# ------------------------------------------- the watermark across a resume
def _build_long_counter(system):
    build_durable_counter(system, workers=2, rounds=20)


class TestWatermarkAcrossResume:
    def test_kill_after_the_watermark_advanced_several_passes(self, tmp_path):
        system = HopeSystem(**_durable_kwargs(tmp_path, fossil_interval=2))
        _build_long_counter(system)
        with pytest.raises(EventLimitExceeded):
            system.run(max_events=90)
        assert system.stats()["fossil_collections"] >= 6
        flushed = {name: len(p.committed) for name, p in system.procs.items()}
        assert all(count >= 2 for count in flushed.values()), flushed
        del system          # abandoned mid-run: the in-process "crash"

        resumed = _resume(tmp_path, build=_build_long_counter, fossil_interval=2)
        restored = {}
        for name, proc in resumed.procs.items():
            # the rebuilt ledger is committed for good: values, no records
            assert 0 < len(proc.committed) <= flushed[name]
            assert proc.outputs == ()
            restored[name] = list(proc.committed)

        rollbacks = []
        apply_rollback = resumed.machine.on_rollback

        def checked_rollback(interval, discarded, cause):
            apply_rollback(interval, discarded, cause)
            proc = resumed.procs[interval.pid]
            kept = restored[interval.pid]
            # only post-resume outputs may be withdrawn
            assert proc.committed[:len(kept)] == kept
            rollbacks.append(interval.pid)

        resumed.machine.on_rollback = checked_rollback
        resumed.run()
        assert rollbacks, "the continued run never rolled back"
        twin = HopeSystem(seed=1, latency=ConstantLatency(1.0), fossil_interval=2)
        _build_long_counter(twin)
        twin.run()
        assert _committed(resumed) == _committed(twin)
        for name, proc in resumed.procs.items():
            assert proc.committed[:len(restored[name])] == restored[name]


# --------------------------------------- a sealed pass is a consistent cut
#: More definite pairs than a non-durable pass would visit in one go.
_WIDE_PAIRS = HopeSystem._PASS_ALLOWANCE + 6
_WIDE_ROUNDS = 3


def _definite_receiver(p):
    for _ in range(_WIDE_ROUNDS):
        yield p.emit((yield p.recv()).payload)


def _definite_sender(p, peer):
    for i in range(_WIDE_ROUNDS):
        yield p.send(peer, (p.name, i))
        yield p.compute(1.0)


def _build_wide(system):
    """Definite pairs that never finalize or commit — they are only ever
    *changed* — plus the counter, whose finalizes are what fires passes.
    Receivers are spawned first, so every one of them sits ahead of its
    sender in the machine's queue of changed records."""
    for i in range(_WIDE_PAIRS):
        system.spawn(f"r{i}", _definite_receiver)
    for i in range(_WIDE_PAIRS):
        system.spawn(f"s{i}", _definite_sender, f"r{i}")
    build_durable_counter(system, workers=3, rounds=3)


class _KilledAfterPass(Exception):
    pass


class TestWideSystemCut:
    """A pass on a durable run flushes every changed process, however
    many there are: a receiver's committed ``recv`` sealed without the
    definite sender's ``send`` would make resume run that send again,
    live, and the receiver consume the message twice."""

    def _twin(self):
        twin = HopeSystem(seed=1, latency=ConstantLatency(1.0), fossil_interval=1)
        _build_wide(twin)
        twin.run()
        return _committed(twin), twin.stats()["fossil_collections"]

    def test_kill_at_every_pass_boundary(self, tmp_path):
        want, passes = self._twin()
        assert passes >= 5
        for kill_after in range(1, passes + 1):
            run_dir = tmp_path / str(kill_after)
            run_dir.mkdir()
            system = HopeSystem(**_durable_kwargs(run_dir, fossil_interval=1))
            _build_wide(system)
            end_pass = system._durable.end_pass
            sealed = []

            def killing_end_pass(now, **kwargs):
                end_pass(now, **kwargs)
                sealed.append(now)
                if len(sealed) == kill_after:
                    raise _KilledAfterPass

            system._durable.end_pass = killing_end_pass
            with pytest.raises(_KilledAfterPass):
                system.run()
            if kill_after == 1:
                # the cut under test: receivers have consumed, no sender
                # has finalized or committed anything
                assert system.procs["r0"].log.retained
                assert not system.machine.process("s0").intervals
            del system      # abandoned mid-run: the in-process "crash"

            resumed = _resume(run_dir, build=_build_wide, fossil_interval=1)
            resumed.run()
            assert _committed(resumed) == want, kill_after


# --------------------------------------------------- bytes on disk are fixed
def _two_tag_sender(p, peer):
    x = yield p.aid_init("x")
    y = yield p.aid_init("y")
    yield p.send(peer, (x, y))
    yield p.guess(x)
    yield p.guess(y)
    for i in range(3):
        yield p.send(peer, i)           # tagged with both x and y
    yield p.emit("sent")


def _two_tag_peer(p):
    x, y = (yield p.recv()).payload
    for _ in range(3):
        yield p.emit((yield p.recv()).payload)
    yield p.affirm(y)
    yield p.affirm(x)


def _golden_run(run_dir):
    """The long counter plus a pair exchanging two-tag messages; returns
    the directory's (files, wal_records, wal_bytes) and its SHA-256 over
    (file name, file bytes)."""
    with open(os.path.join(run_dir, "key.bin"), "wb") as fh:
        fh.write(bytes(range(32)))
    system = HopeSystem(**_durable_kwargs(
        run_dir, durable_opts={"snapshot_every": 2, "retain": 1000}
    ))
    _build_long_counter(system)
    system.spawn("peer", _two_tag_peer)
    system.spawn("sender", _two_tag_sender, "peer")
    system.run()
    assert system.stats()["tags_attached"] >= 6
    return _dir_digest(run_dir, system)


def _dir_digest(run_dir, system):
    digest = hashlib.sha256()
    names = sorted(os.listdir(run_dir))
    for name in names:
        digest.update(name.encode())
        with open(os.path.join(run_dir, name), "rb") as fh:
            digest.update(fh.read())
    stats = system.stats()["durable"]
    return (len(names), stats["wal_records"], stats["wal_bytes"]), digest.hexdigest()


class TestBytesOnDisk:
    #: Recorded once for image version 2 (frames, ledger, live-state
    #: envelopes), key pinned.  Later changes may not move a byte, a CRC,
    #: an HMAC or a seal.
    #:
    #: Re-recorded once when pins became events (was (9, 336, 23673),
    #: 26a4c6d1…): a handle whose last reference is a message kept by an
    #: interval that the pass itself drops now releases its pin inside
    #: that pass, where the scan had already copied the handle table and
    #: kept the AID one pass longer.  Four registry-drop frames
    #: (``"t":"r"``) therefore name two keys each one pass earlier (and
    #: the last two keys are dropped at all); with them the batch markers
    #: and envelope seals move.  Pass count, frame count, frame order and
    #: every other frame are unchanged (compared frame by frame against
    #: the parent when this was recorded).
    #:
    #: Re-recorded once when exit became the last commit point (was
    #: (9, 336, 23697), b2f220bc…): ``peer`` and ``sender`` return and
    #: commit before the first pass, so their two frames in it carry a
    #: terminal rebase (``"b":9`` + ``"rb"``, the pickled ``Exited``
    #: result) instead of nine entries each — 18 records fewer — the same
    #: pass gains one registry-drop frame for ``x#3``/``y#4`` (the dropped
    #: logs were what pinned them for the whole run), its batch marker
    #: moves with them, and the three envelopes lose the two logs (894
    #: bytes each) and so change their seals.  Pass count, the other 27 of
    #: the WALs' 30 lines, their order and the second marker of that WAL
    #: are unchanged (compared line by line against the parent); WALs 1
    #: and 2 and the ledger are the parent's byte for byte.  Anything that
    #: changes *when* a process retires moves these bytes again.
    #:
    #: Re-recorded once when a settled AID began to retire under live
    #: handles (was (9, 318, 22880), 8221536d…): a registry row now
    #: outlives its AID while the image names the key, and the rows the
    #: image no longer names are dropped once per envelope, by one walk of
    #: the image, instead of at every pass.  So each envelope's pass drops
    #: what the passes before it used to (the mid-envelope drop frames are
    #: gone, 50 bytes less), and those batch markers move with them.  Every
    #: envelope — ``aids``, seals and all — the ledger, ``wal-3``, and every
    #: other frame are the parent's byte for byte: ``bytes_on_disk.diff``
    #: beside this file is the line-by-line diff.
    SHAPE = (9, 318, 22830)
    GOLDEN = "e225ac94e27c8923cc447bddf3fd4d731a8aaf2079903e94a679c72bd4b43247"

    def test_wal_and_envelopes_are_byte_identical_to_the_parent(self, tmp_path):
        shape, digest = _golden_run(str(tmp_path))
        assert shape == self.SHAPE
        assert digest == self.GOLDEN

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Set iteration order (a two-tag frozenset, the dicts of AID keys)
        must not reach the disk."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "from test_durable_resume import _golden_run;"
            "print(_golden_run(sys.argv[2])[1])"
        )
        for hash_seed in ("1", "2"):
            run_dir = tmp_path / hash_seed
            run_dir.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.dirname(os.path.dirname(repro.__file__)),
                 env.get("PYTHONPATH", "")]
            )
            done = subprocess.run(
                [sys.executable, "-c", script, os.path.dirname(__file__), str(run_dir)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == self.GOLDEN, hash_seed

    def test_shared_encoder_matches_json_dumps(self):
        from repro.durable.store import _json_bytes

        docs = [
            {"t": "e", "p": "c0", "i": 3, "k": "send", "r": 17,
             "x": {"d": "judge", "pl": {"$": "tuple", "v": [1, "é", None]}, "g": ["a#1"]}},
            {"b": [1.5, float("inf"), True], "a": {"z": 0, "y": "\u2028"}},
            [],
        ]
        for doc in docs:
            want = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")
            assert _json_bytes(doc) == want


# ------------------------------ a late resolution through a settled handle
def _late_maker(p, ok, held):
    x = yield p.aid_init("x")
    yield p.send("judge", x)
    yield p.compute(10.0)                    # passes settle x meanwhile
    held.append(x.aid)
    first = yield p.guess(x)
    yield (p.affirm(x) if ok else p.deny(x))     # redundant: a no-op
    yield p.free_of(x)
    yield p.emit(("late", first))
    yield p.compute(5.0)
    yield p.emit(("kept", x))


def _late_judge(p, ok):
    x = (yield p.recv()).payload
    yield (p.affirm(x) if ok else p.deny(x))
    for i in range(6):                       # finalizes keep passes coming
        y = yield p.aid_init(f"churn{i}")
        yield p.guess(y)
        yield p.affirm(y)


class TestLateResolution:
    """A resolution through a handle that holds only its shared verdict
    writes what it wrote through the handle's own ``AssumptionId``: the
    engine hands the recorder a settled AID under the handle's key."""

    #: ``_dir_digest`` at the commit before handles were pointed at shared
    #: verdicts (key pinned; hash-seed independent, like the golden above).
    GOLDEN = {
        True: ((6, 28), "dfffb2dc7f5457696261e486836786d086e94b0e5e6528b3b7776dab465d9a07"),
        False: ((6, 28), "f9497dfe2797c706398008be4fc633d8a4dc3c25482f243c1f0e15772840a1b6"),
    }

    @pytest.mark.parametrize("ok", [True, False], ids=["affirmed", "denied"])
    def test_frames_are_those_written_through_the_aid(self, tmp_path, ok):
        with open(os.path.join(tmp_path, "key.bin"), "wb") as fh:
            fh.write(bytes(range(32)))
        held = []
        system = HopeSystem(seed=1, latency=ConstantLatency(1.0), fossil_interval=1,
                            durable_dir=str(tmp_path), durable_opts={"snapshot_every": 2})
        system.spawn("judge", _late_judge, ok)
        system.spawn("maker", _late_maker, ok, held)
        system.run()
        assert held == [VERDICTS[AidStatus.AFFIRMED if ok else AidStatus.DENIED]]
        (files, records, _), digest = _dir_digest(str(tmp_path), system)
        assert ((files, records), digest) == self.GOLDEN[ok]


# -------------------------------------------------------------- guardrails
class TestGuardrails:
    def test_no_reliable_delivery(self, tmp_path):
        with pytest.raises(HopeError, match="reliable"):
            HopeSystem(seed=1, latency=ConstantLatency(1.0),
                       reliable=True, durable_dir=str(tmp_path))

    def test_crash_process_refused(self, tmp_path):
        system = HopeSystem(**_durable_kwargs(tmp_path))
        build_durable_counter(system)
        with pytest.raises(HopeError, match="kill/resume"):
            system.crash_process("judge")

    def test_fresh_init_on_used_dir_refused(self, tmp_path):
        system = HopeSystem(**_durable_kwargs(tmp_path))
        build_durable_counter(system)
        system.run()
        with pytest.raises(DurableError, match="resume"):
            HopeSystem(**_durable_kwargs(tmp_path))

    def test_seed_mismatch_refused_at_resume(self, tmp_path):
        system = HopeSystem(**_durable_kwargs(tmp_path))
        build_durable_counter(system)
        system.run()
        with pytest.raises(DurableError, match="seed"):
            _resume(tmp_path, seed=99)

    def test_missing_process_at_resume_names_it(self, tmp_path):
        system = HopeSystem(**_durable_kwargs(tmp_path))
        build_durable_counter(system)
        system.run()

        def wrong_build(sys_):
            build_durable_counter(sys_, workers=1)   # c1 missing

        with pytest.raises(DurableError, match="c1"):
            _resume(tmp_path, build=wrong_build)

    def test_unknown_durable_opt_rejected(self, tmp_path):
        with pytest.raises((DurableError, TypeError, ValueError),
                           match="snapshot_evry|unknown"):
            HopeSystem(
                seed=1, latency=ConstantLatency(1.0),
                durable_dir=str(tmp_path),
                durable_opts={"snapshot_evry": 2},
            )
