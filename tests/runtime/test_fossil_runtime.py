"""Fossil collection at the runtime level: a pure optimization.

Collection is the only mode, and its cadence is unobservable: the *same*
program, seed and latency collected after every finalize, after every
64, or never before the pass a run owes at quiescence (an interval
larger than the run's finalize count — the run that is uncollected until
it ends) produce the same traces but for what a restart replays, and
identical Theorem 5.2/6.1 outcomes — the same AIDs affirmed/denied, the
same rollbacks, the same committed outputs — on randomized
guess/affirm/deny schedules.  Collection may only change memory
accounting (shorter histories, retired AIDs, dropped log prefixes) and
how far back a restart starts, never behaviour.
"""

import gc
import weakref

import pytest

from repro.bench.workloads import build_chaos_mesh, build_chaos_ring
from repro.obs import MetricsRegistry
from repro.runtime import ReplayDivergenceError
from repro.runtime.engine import HopeSystem
from repro.sim import ConstantLatency, Tracer

from ..footprint import FOSSIL_EVENTS, NEVER, RESIDUE_GROWTH, fossil_peaks


# ---------------------------------------------------------------- workload
def worker(p, rounds, resume=None):
    """Steady-state loop: guess each round, commit-point after it."""
    state = resume if resume is not None else {"round": 0, "acc": 0}
    while state["round"] < rounds:
        a = yield p.aid_init(f"r{state['round']}")
        yield p.send("judge", a)
        if (yield p.guess(a)):
            yield p.compute(1.0)        # optimistic path
            state["acc"] += 3
        else:
            yield p.compute(2.0)        # pessimistic path after denial
            state["acc"] -= 1
        yield p.emit(("round", state["round"], state["acc"]))
        state["round"] += 1
        yield p.commit_point(state)
    return state["acc"]


def judge(p, rounds, deny_rate, resume=None):
    """Randomly affirms or denies each round's assumption (seeded).

    Commit-points after every verdict: without that, the judge's own
    effect log would keep each round's ReceivedMessage — and with it the
    AidHandle payload — alive forever, pinning every AID against
    retirement (the weak-handle pin sees the log entry as a user
    reference, exactly as designed).
    """
    state = resume if resume is not None else {"seen": 0}
    while state["seen"] < rounds:
        msg = yield p.recv()
        yield p.compute(0.3)
        if (yield p.random()) < deny_rate:
            yield p.deny(msg.payload)
        else:
            yield p.affirm(msg.payload)
        state["seen"] += 1
        yield p.commit_point(state)
    return "judged"


#: The cadences the property compares: every finalize, the default, never.
CADENCES = (1, 64, NEVER)


def _run(seed, interval=8, rounds=40, deny_rate=0.3, until=None):
    """The pair at ``seed``, run to quiescence — or to ``until``, with both
    still live (the pass a run owes at quiescence retires them)."""
    tracer = Tracer()
    system = HopeSystem(
        seed=seed,
        latency=ConstantLatency(1.0),
        trace=tracer,
        fossil_interval=interval,
    )
    system.spawn("judge", judge, rounds, deny_rate)
    system.spawn("worker", worker, rounds)
    final = system.run(until=until)
    system.machine.check_invariants()
    return system, tracer, final


_OUTCOME_KEYS = (
    "guesses",
    "rollbacks",
    "aids_affirmed",
    "aids_denied",
    "aids_pending",
    "messages_sent",
)


def _split_replay(tracer):
    """The trace as tuples with each restart's ``replay`` count taken out,
    and those counts: the one field that is a cost, not behaviour — a
    restart starts from the newest commit point it still has, and a run
    that collects less often has thinned more of them."""
    records, replays = [], []
    for rec in tracer.records:
        detail = dict(rec.detail)
        if rec.category == "restart":
            replays.append(detail.pop("replay"))
        records.append((rec.time, rec.category, rec.process, sorted(detail.items())))
    return records, replays


# ----------------------------------------------------------------- property
class TestCollectedEqualsUncollected:
    """The collection cadence is unobservable; "uncollected" is the run at
    :data:`NEVER`, which collects nothing until it ends."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_identical_traces_and_outcomes(self, seed):
        # 120 rounds finalize 78-88 intervals: 64 collects once mid-run
        runs = [_run(seed, interval, rounds=120) for interval in CADENCES]
        (every, _, t_every), _, (never, _, _) = runs
        passes = [system.stats()["fossil_collections"] for system, _, _ in runs]
        assert passes[0] > passes[1] == 2 and passes[2] == 1
        # identical traces but for what a restart replays: collection
        # draws no randomness and schedules nothing
        split = [_split_replay(tracer) for _, tracer, _ in runs]
        for (records, replays), (sparser_records, sparser) in zip(split, split[1:]):
            assert records == sparser_records
            assert replays and all(
                r <= s for r, s in zip(replays, sparser, strict=True)
            )
        assert sum(split[0][1]) < sum(split[2][1])
        for system, _, final in runs[1:]:
            assert final == t_every
            assert system.result_of("worker") == every.result_of("worker")
            assert system.result_of("judge") == every.result_of("judge")
            assert system.committed_outputs("worker") == every.committed_outputs("worker")
            # Theorem 5.2/6.1 outcomes: same resolutions, same rollbacks
            for key in _OUTCOME_KEYS:
                assert system.stats()[key] == every.stats()[key], key
        assert never.stats()["aids_denied"] > 0    # the schedule really denied

    @pytest.mark.parametrize("build", [build_chaos_mesh, build_chaos_ring])
    def test_identical_fingerprints_on_chaos_workloads(self, build):
        """Cross-process denies and cascades, collected after every
        finalize, every 64 or never: one trace fingerprint."""
        runs = []
        for interval in CADENCES:
            tracer = Tracer()
            system = HopeSystem(seed=3, latency=ConstantLatency(1.0),
                                trace=tracer, fossil_interval=interval)
            build(system)
            system.run(max_events=200_000)
            stats = system.stats()
            runs.append((tracer.fingerprint(), {k: stats[k] for k in _OUTCOME_KEYS}))
            assert stats["rollbacks"] > 0
        assert stats["fossil_collections"] == 1            # (at NEVER)
        assert runs[0] == runs[1] == runs[2]

    def test_collected_run_actually_reclaims(self):
        base, _, _ = _run(seed=3, interval=NEVER, until=40.0)
        coll, _, _ = _run(seed=3, until=40.0)
        s = coll.stats()
        assert s["fossil_history_dropped"] > 0
        assert s["fossil_aids_retired"] > 0
        assert s["fossil_log_dropped"] > 0
        # bounded tables: strictly smaller than the uncollected run's
        # (mid-run: a run that ends holds none).  The engine's
        # machine keeps no history entries, so the retained history is
        # the index window above the record's fossil floor.
        def retained(system):
            record = system.machine.process("worker")
            return record._next_index - record._floor_index

        assert retained(coll) < retained(base)
        assert len(coll.machine.aids) < len(base.machine.aids)
        assert coll.procs["worker"].log.retained < base.procs["worker"].log.retained
        assert coll.procs["worker"].log.base > 0

    def test_finalized_intervals_stay_definite(self):
        """Theorem 6.1 end-to-end: after a collected run completes, no
        interval is speculative and every output is committed — so each
        exit is definite, and the pass the run owes retired both."""
        coll, _, _ = _run(seed=5)
        assert not coll.machine.processes and not coll.procs
        assert coll.stats()["processes_retired"] == 2
        for name in coll.process_names():
            assert coll.is_done(name)
            assert coll.outputs(name) == coll.committed_outputs(name)


# ------------------------------------------------------------- commit_point
class TestCommitPointSemantics:
    def test_restart_resumes_from_rebase_state(self):
        """Once the frontier passes a commit point, a denial replays from
        the rebase snapshot instead of program entry: from entry, a
        restart would re-feed every entry up to the absolute log position
        its rollback returned to (the trace's ``to_log_index``)."""
        coll, tracer, _ = _run(seed=2, rounds=60)
        entry = [r.detail["to_log_index"] for r in tracer.records if r.category == "rollback"]
        replays = [r.detail["replay"] for r in tracer.records if r.category == "restart"]
        assert len(replays) == len(entry) == coll.stats()["rollbacks"] > 0
        # the same result from far fewer replayed effects
        never, _, _ = _run(seed=2, interval=NEVER, rounds=60)
        assert coll.result_of("worker") == never.result_of("worker")
        assert all(r <= e for r, e in zip(replays, entry))
        assert coll.stats()["replayed_effects"] == sum(replays) < sum(entry) // 4

    def test_a_restart_starts_from_the_newest_surviving_commit_point(self):
        """A denial of round r's guess restarts the worker from the commit
        point that closed round r - 1 — promoted or not — so it re-feeds
        that round's ``aid_init`` and ``send`` and nothing older."""
        coll, tracer, _ = _run(seed=2, rounds=60, until=0.0)
        before = coll.stats()
        coll.run()
        after = coll.stats()
        restarts = [r for r in tracer.records if (r.category, r.process) == ("restart", "worker")]
        assert restarts and all(r.detail["replay"] == 2 for r in restarts)
        assert after["restarts"] - before["restarts"] == len(restarts)
        assert after["replayed_effects"] - before["replayed_effects"] == 2 * len(restarts)

    def test_replay_counters_count_what_a_restart_refeeds(self):
        """``hope_replay_entries_total`` and the trace's ``restart replay=``
        count the entries an incarnation re-feeds, as ``replayed_effects``
        does — not the log's absolute length, dropped prefix included."""
        registry = MetricsRegistry()
        tracer = Tracer()
        system = HopeSystem(
            seed=2, latency=ConstantLatency(1.0), trace=tracer, metrics=registry,
            fossil_interval=8,
        )
        system.spawn("judge", judge, 60, 0.3)
        system.spawn("worker", worker, 60)
        system.run()
        replayed = system.stats()["replayed_effects"]
        assert replayed and system.stats()["fossil_log_dropped"]
        assert registry.get("hope_replay_entries_total").value == replayed
        restarts = [r for r in tracer.records if r.category == "restart"]
        assert sum(r.detail["replay"] for r in restarts) == replayed

    def test_crash_clears_rebase_state(self):
        coll, _, _ = _run(seed=1, rounds=40, until=40.0)
        proc = coll.procs["worker"]
        assert proc.rebase is not None
        coll.crash_process("worker")
        assert proc.rebase is None
        assert not proc.rebase_candidates
        assert proc.log.base == 0 and len(proc.log) == 0

    def test_rebase_state_is_isolated_per_restart(self):
        """Restarts get a deep copy: mutations by one incarnation must
        not leak into the parked rebase snapshot."""
        coll, _, _ = _run(seed=4, rounds=60, until=60.0)
        proc = coll.procs["worker"]
        snapshot = proc.rebase
        assert snapshot is not None
        snapshot_round = snapshot.state["round"]
        restarts = proc.restarts
        coll.run()
        # the incarnations after it ran past the snapshot, and on to the
        # end, without mutating it
        assert proc.restarts > restarts and proc.done
        assert proc.result == coll.result_of("worker")
        assert snapshot.state["round"] == snapshot_round < 60

    def test_misplaced_commit_point_is_named_as_such(self):
        """commit_point at the *top* of the loop captures the state before
        the round it precedes: the resumed body re-yields the commit
        instead of the effect that follows it.  The error must say that,
        not blame the body's determinism."""
        def misplaced(p, rounds, resume=None):
            state = resume if resume is not None else {"round": 0}
            while state["round"] < rounds:
                yield p.commit_point(state)        # wrong: before the work
                a = yield p.aid_init(f"r{state['round']}")
                yield p.send("judge", a)
                yield p.guess(a)
                yield p.compute(1.0)
                state["round"] += 1

        system = HopeSystem(
            seed=0, latency=ConstantLatency(1.0), fossil_interval=8,
        )
        system.spawn("judge", judge, 40, 0.3)
        system.spawn("worker", misplaced, 40)
        with pytest.raises(ReplayDivergenceError) as err:
            system.run()
        message = str(err.value)
        assert "state *after* the commit point" in message
        assert "not deterministic" not in message


# ---------------------------------------------------------------- pinning
class TestHandlePinning:
    def test_held_handle_blocks_retirement(self):
        """A user-reachable AidHandle holds its *pending* AID: by-key
        lookup must keep working while a guess through the handle can
        still make the key a message tag.  Here the handle lives only in
        the keeper's body (its ``aid_init`` entry is rebased away) across
        the churn's passes; then the keeper guesses it and sends tagged,
        and the judge resolves the tag by key.  Once affirmed and settled
        the AID retires although the handle lives: the handle still
        answers, by object."""
        held = []
        pending_at_pass = []

        def keeper(p, resume=None):
            a = yield p.aid_init("kept")
            held.append(a)
            # churn enough finalizes to trigger collection
            for i in range(20):
                b = yield p.aid_init(f"churn{i}")
                yield p.send("judge", b)
                if (yield p.guess(b)):
                    yield p.compute(0.1)
                yield p.commit_point({"i": i, "a": a})
            yield p.guess(a)
            yield p.send("judge", a)             # tagged {a}
            return "ok"

        def affirm_all(p):
            for _ in range(21):
                msg = yield p.recv()
                yield p.affirm(msg.payload)
            return "done"

        system = HopeSystem(latency=ConstantLatency(1.0), fossil_interval=4)
        run_pass = system._run_fossil_collection

        def sampled_pass(whole=False):
            run_pass(whole)
            if held and held[0].aid.pending:
                pending_at_pass.append(held[0].key in system.machine.aids)

        system._run_fossil_collection = sampled_pass
        system.spawn("judge", affirm_all)
        proc = system.spawn("keeper", keeper)   # (kept: it retires at quiescence)
        system.run()
        assert proc.log.base > 0                            # the entry went
        # held and pending across the passes: never retired
        assert len(pending_at_pass) >= 3 and all(pending_at_pass)
        assert system.stats()["aids_retired_pending"] == 0
        # settled: retired (by the pass the run owes at quiescence) under
        # the live handle, which still answers
        assert held[0].key not in system.machine.aids
        assert system.aid(held[0]).affirmed
        assert system.aid_status(held[0]).value == "affirmed"
        system.machine.check_invariants()


# ------------------------------------------------- the watermark and leaks
def _emitting_counter(p, judge_name, rounds, refs, resume=None):
    """The e2e ``steady`` shape: the handle travels in the payload, every
    round emits, and ``commit_point`` comes last."""
    state = resume if resume is not None else {"round": 0, "acc": 0}
    while state["round"] < rounds:
        i = state["round"]
        a = yield p.aid_init("round")
        refs.setdefault((p.name, i), weakref.ref(a))
        yield p.send(judge_name, (a, p.name, i))
        ok = yield p.guess(a)
        yield p.compute(1.0 if ok else 2.0)
        state["acc"] += 3 if ok else -1
        yield p.emit(((p.name, i), state["acc"]))
        state["round"] += 1
        yield p.commit_point(dict(state))


def _emitting_judge(p, total, resume=None):
    state = resume if resume is not None else {"seen": 0}
    while state["seen"] < total:
        a, name, i = (yield p.recv()).payload
        yield p.compute(0.3)
        ok = (i * 7 + len(name)) % 4 != 0
        if ok:
            yield p.affirm(a)
        else:
            yield p.deny(a)
        state["seen"] += 1
        yield p.emit(((name, i), "checked", ok))
        yield p.commit_point(dict(state))


def _steady_peaks(rounds, counters=2):
    """Run the shape to quiescence; returns (system, refs, table sizes at
    their largest over the run — sampled as each fossil pass starts, i.e.
    at their high-water marks)."""
    system = HopeSystem(
        seed=3, latency=ConstantLatency(1.0), fossil_interval=16
    )
    refs: dict = {}
    system.spawn("judge", _emitting_judge, counters * rounds)
    for w in range(counters):
        system.spawn(f"c{w}", _emitting_counter, "judge", rounds, refs)
    peaks = {"aids": 0, "held": 0, "intervals": 0}
    run_pass = system._run_fossil_collection

    def sampled_pass(whole=False):
        reachable = {
            id(r.interval)
            for proc in system.procs.values()
            for r in proc.outputs
            if r.interval is not None
        }
        held = sum(aid.handles is not None for aid in system.machine.aids.values())
        peaks["aids"] = max(peaks["aids"], len(system.machine.aids))
        peaks["held"] = max(peaks["held"], held)
        peaks["intervals"] = max(peaks["intervals"], len(reachable))
        run_pass(whole)

    system._run_fossil_collection = sampled_pass
    system.run()
    system.machine.check_invariants()
    return system, refs, peaks


class TestCommittedOutputsPinNothing:
    def test_tables_are_flat_across_the_horizon(self):
        short, _, at_100 = _steady_peaks(100)
        long_, refs, at_400 = _steady_peaks(400)
        assert long_.stats()["fossil_collections"] > 3 * short.stats()["fossil_collections"]
        for table, size in at_400.items():
            assert 0 < at_100[table] and size <= 1.25 * at_100[table], (table, at_100, at_400)
        assert at_400["aids"] < 100
        # committed outputs keep their value and nothing else: no record
        for name in long_.process_names():
            assert long_.committed_outputs(name)
            assert long_.outputs(name) == long_.committed_outputs(name)
        assert len(long_.committed_outputs("judge")) == 800
        # every AID ever minted was retired, bar the live tail
        stats = long_.stats()
        minted = long_.machine._aid_serials
        assert minted >= 800
        assert len(long_.machine.aids) <= at_100["aids"]
        assert stats["fossil_aids_retired"] == minted - len(long_.machine.aids)

    def test_early_round_handles_die(self):
        """From round 1 on the handle rides in a *tagged* message, which
        the judge's implicit-guess interval holds — and a committed output
        record used to hold that interval for the rest of the run."""
        system, refs, _ = _steady_peaks(100)    # the system stays alive
        gc.collect()
        early = [ref for (_name, i), ref in refs.items() if i < 50]
        assert len(early) == 100
        assert [ref() for ref in early] == [None] * 100
        assert len(system.committed_outputs("judge")) == 200


def test_a_run_that_never_quiesces_holds_its_peak_flat():
    """FOSSIL: a worker and judge that never return, collected every 32
    commit points, reach no higher a ``tracemalloc`` peak over 4N events
    than over N (``footprint.fossil_peak``): 1.1x of a ~216 KiB peak
    leaves ~22 KiB for 3N more events, so a leak of 3 bytes an event
    fails it."""
    small, large = fossil_peaks()
    assert large <= RESIDUE_GROWTH * small, (FOSSIL_EVENTS, small, large)


class TestPassCost:
    @staticmethod
    def _visits_per_pass(idle, interval=8, rounds=80):
        """One active worker/judge pair among ``idle`` processes that
        spawn, block on a receive, and never hear anything.  Returns the
        system and the number of records each pass visited (the last:
        the pass the run owes at quiescence, which visits every record
        still queued)."""
        def sleeper(p):
            yield p.recv()

        system = HopeSystem(seed=0, latency=ConstantLatency(1.0), fossil_interval=interval)
        for i in range(idle):
            system.spawn(f"idle{i}", sleeper)
        system.spawn("judge", judge, rounds, 0.0)
        system.spawn("worker", worker, rounds)
        visits = []
        run_pass = system._run_fossil_collection
        stats = system.machine.stats

        def counted(whole=False):
            before = stats["fossil_records_visited"]
            run_pass(whole)
            visits.append(stats["fossil_records_visited"] - before)

        system._run_fossil_collection = counted
        system.run()
        assert stats["finalizes"] == rounds
        return system, visits

    def test_idle_processes_are_not_visited(self):
        """The pair is visited at every pass — it is what there is to
        reclaim from — while the 2 000 records that were queued at spawn
        and never did anything again take turns, a pass's allowance at a
        time, once each; how many of them wait makes no difference."""
        system, visits = self._visits_per_pass(2000)
        allowance = HopeSystem._PASS_ALLOWANCE
        assert len(visits) == 80 // 8 + 1
        assert visits[:-1] == [allowance] * (len(visits) - 1)   # the pair + 62 idle ones
        # at quiescence, the idle ones still waiting and the worker (which
        # ran on after the last finalize): each idle one is visited once
        assert sum(visits) == 2000 + 2 * (len(visits) - 1) + 1
        stats = system.stats()
        assert stats["fossil_intervals_dropped"] >= 80 - 8  # the pair never waited
        assert stats["fossil_log_dropped"] > 0
        assert self._visits_per_pass(4000)[1][:-1] == visits[:-1]
        # ... and once everyone has had a turn, it is the pair alone
        system, visits = self._visits_per_pass(100, rounds=120)
        assert visits[:3] == [allowance, 100 + 2 - allowance + 2, 2]
        assert set(visits[2:-1]) == {2} and visits[-1] == 1       # (the worker)
        assert sum(visits) == 100 + 2 * (len(visits) - 1) + 1

    def test_the_queue_advances_however_many_records_are_reclaimable(self):
        """Every pass here finds more reclaimable records than its
        allowance, and a definite process — it never finalizes or commits,
        so it is only ever *changed* — waits behind 150 idle ones.  It is
        reached all the same, ``_PASS_TURNS`` records a pass, and then
        again: its output watermark keeps moving."""
        pairs, idle, rounds = HopeSystem._PASS_ALLOWANCE + 6, 150, 40

        def sleeper(p):
            yield p.recv()

        def guesser(p, peer):
            for i in range(rounds):
                a = yield p.aid_init(f"r{i}")
                yield p.send(peer, a)
                yield p.guess(a)
                yield p.compute(1.0)

        def affirmer(p):
            for _ in range(rounds):
                yield p.affirm((yield p.recv()).payload)

        def ticker(p):
            for i in range(4 * rounds):
                yield p.compute(1.0)
                yield p.emit(i)

        system = HopeSystem(seed=0, latency=ConstantLatency(1.0))
        for i in range(idle):
            system.spawn(f"idle{i}", sleeper)
        ticker_proc = system.spawn("ticker", ticker)    # (kept: it retires at quiescence)
        for i in range(pairs):
            system.spawn(f"a{i}", affirmer)
            system.spawn(f"g{i}", guesser, f"a{i}")
        run_pass = system._run_fossil_collection
        reclaimable, watermark = [], []

        def observed(whole=False):
            reclaimable.append(len(system.machine.reclaimable))
            run_pass(whole)
            watermark.append(len(ticker_proc.committed))

        system._run_fossil_collection = observed
        system.run()
        assert len(reclaimable) >= rounds
        assert min(reclaimable) >= HopeSystem._PASS_ALLOWANCE
        turns = HopeSystem._PASS_TURNS
        first = (idle + 1) // turns                 # the pass that reaches it
        assert watermark[first - 1] == 0 < watermark[first]
        assert len(set(watermark[first:])) >= 5     # and its turn comes round again

    def test_small_systems_are_settled_whole_at_every_pass(self):
        """Up to the allowance, a pass visits everything that changed:
        the rule before there was one (and what the durable bytes-on-disk
        golden depends on)."""
        for idle in (0, 14):                   # 2 and 16 records
            _, visits = self._visits_per_pass(idle)
            assert visits == [idle + 2] + [2] * (80 // 8 - 1) + [1]


# ----------------------------------------------------- the default, the only mode
class TestCollectionIsTheDefault:
    def test_a_plain_system_collects(self):
        system = HopeSystem(seed=3, latency=ConstantLatency(1.0))
        assert system.fossil_interval == 64
        system.spawn("judge", judge, 80, 0.0)
        system.spawn("worker", worker, 80)
        system.run()
        stats = system.stats()
        assert stats["fossil_collections"] >= 1
        assert stats["fossil_aids_retired"] > 0 and stats["fossil_log_dropped"] > 0
        assert stats["fossil_aids_examined"] >= stats["fossil_aids_retired"]

    def test_a_retired_handle_key_is_named_in_the_error(self):
        """What a user who kept ``aid.key`` instead of the handle now sees."""
        from repro.core import UnknownAidError

        system = HopeSystem(seed=3, latency=ConstantLatency(1.0), fossil_interval=4)
        system.spawn("judge", judge, 40, 0.0)
        system.spawn("worker", worker, 40)
        system.run()
        assert "r0#1" not in system.machine.aids
        with pytest.raises(UnknownAidError, match="retired by collection"):
            system.aid("r0#1")

    def test_no_system_runs_uncollected(self, tmp_path):
        """``fossil_collect`` accepts only ``True``, durable or not."""
        from repro.core import HopeError

        for options in ({}, {"durable_dir": str(tmp_path)}):
            with pytest.raises(HopeError, match="collection is the only mode"):
                HopeSystem(fossil_collect=False, **options)
        assert HopeSystem(fossil_collect=True).fossil_interval == 64
