"""The recoverable image: what a durable pass writes, and what it may forget.

A pass persists the *change* to the image (one WAL frame per process),
envelopes hold live state only, committed outputs live in the ledger and
a registry row leaves with its AID.  Each of those is a way to lose
something a resumed run needs, so each is pinned here:

* every sealed pass boundary recovers exactly the image the recorder held
  there, re-adopts exactly its registry, and reconverges with the twin;
* every cut of the WAL — at each frame boundary and inside each frame —
  recovers the last sealed batch and counts the rest;
* nothing the image can reach names an AID without a registry row;
* a committed send's tags are all affirmed when it flushes (why no tag is
  persisted);
* bytes per committed op and envelope size do not grow with run length;
* a body with no commit point keeps its whole committed log until it
  exits, and then none of it;
* a version-1 directory is refused by name.
"""

import copy
import json
import os
import shutil

import pytest

from repro.durable.codec import decode_value
from repro.runtime.replay import Exited

from repro.bench.workloads import (
    build_chaos_mesh,
    build_chaos_ring,
    build_durable_counter,
)
from repro.durable import DurableError, DurableStore
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, EventLimitExceeded

def _steady_worker(p, judge, rounds, resume=None):
    """The commit-point counter with every worker denied one round in four
    (``build_durable_counter``'s predicate denies ``c0`` always and ``c1``
    never, so its fossil passes stop when ``c1`` finishes) and every AID
    named alike, so only the serial tells two of them apart."""
    state = resume if resume is not None else {"round": 0, "acc": 0}
    while state["round"] < rounds:
        i = state["round"]
        a = yield p.aid_init("round")
        yield p.send(judge, (a, p.name, i))
        ok = yield p.guess(a)
        yield p.compute(1.0 if ok else 2.0)
        state["acc"] += 3 if ok else -1
        yield p.emit((p.name, i, state["acc"]))
        state["round"] += 1
        yield p.commit_point(dict(state))


def _steady_judge(p, total, resume=None):
    state = resume if resume is not None else {"seen": 0}
    while state["seen"] < total:
        a, name, i = (yield p.recv()).payload
        yield p.compute(0.3)
        if i % 4 == 3:
            yield p.deny(a)
        else:
            yield p.affirm(a)
        state["seen"] += 1
        yield p.emit(("judged", name, i))
        yield p.commit_point(dict(state))


def _build_steady(system, rounds=12):
    system.spawn("judge", _steady_judge, 2 * rounds)
    for name in ("c0", "c1"):
        system.spawn(name, _steady_worker, "judge", rounds)


def _build_staggered(system):
    """Members that exit at different times: the token ring (its nodes
    leave one by one during the last lap, no commit point anywhere) beside
    commit-point counters of 3, 6 and 10 rounds."""
    build_chaos_ring(system, nodes=4, laps=3)
    rounds = {"c0": 3, "c1": 6, "c2": 10}
    system.spawn("judge", _steady_judge, sum(rounds.values()))
    for name, count in rounds.items():
        system.spawn(name, _steady_worker, "judge", count)


BUILDS = {
    "steady": _build_steady,
    "staggered": _build_staggered,
    "mesh": lambda system: build_chaos_mesh(system, workers=3, rounds=5),
    "ring": lambda system: build_chaos_ring(system, nodes=4, laps=4),
    "counter": lambda system: build_durable_counter(system, workers=2, rounds=12),
}
BASE = dict(latency=ConstantLatency(1.0), fossil_collect=True, fossil_interval=2)


def _system(run_dir, seed, build, **opts):
    system = HopeSystem(seed=seed, durable_dir=str(run_dir),
                        durable_opts=opts or {"snapshot_every": 2}, **BASE)
    build(system)
    return system


def _resume(run_dir, seed, build, **opts):
    return HopeSystem.resume(str(run_dir), build, seed=seed,
                             durable_opts=opts or {"snapshot_every": 2}, **BASE)


def _committed(system):
    return {
        name: sorted(repr(v) for v in system.committed_outputs(name))
        for name in system.procs
    }


def _twin(seed, build):
    twin = HopeSystem(seed=seed, **BASE)
    build(twin)
    twin.run()
    return twin


_UNTOUCHED = {"base": 0, "entries": [], "rebase": None}


def _image(recorder):
    """The image, less the processes nothing has been persisted for."""
    return copy.deepcopy((
        {name: img.doc() for name, img in recorder.procs.items()
         if img.doc() != _UNTOUCHED},
        recorder.registry,
        recorder.open_sends,
    ))


# ------------------------------------------------ every sealed pass boundary
@pytest.mark.parametrize("workload", sorted(BUILDS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_pass_boundary_recovers_the_image_it_sealed(tmp_path, workload, seed):
    build = BUILDS[workload]
    system = _system(tmp_path / "run", seed, build)
    recorder = system._durable
    boundaries = []
    end_pass = recorder.end_pass

    def checked_end_pass(*args, **kwargs):
        end_pass(*args, **kwargs)
        # Reachability: whatever a resume would replay or re-inject can
        # only name AIDs the registry still has, and the registry only
        # AIDs the machine still has.
        recorder.check_image()
        assert recorder.image_aid_keys() <= recorder.registry.keys()
        assert recorder.registry.keys() <= system.machine.aids.keys()
        copy_dir = tmp_path / f"pass-{len(boundaries)}"
        shutil.copytree(tmp_path / "run", copy_dir)
        boundaries.append((copy_dir, _image(recorder)))

    recorder.end_pass = checked_end_pass
    system.run()
    assert len(boundaries) >= 5
    want = _committed(_twin(seed, build))
    assert _committed(system) == want

    for copy_dir, image in boundaries:
        resumed = _resume(copy_dir, seed, build)
        stats = resumed.stats()["durable"]
        assert stats["envelopes_rejected"] == stats["wal_records_discarded"] == 0
        if stats["resumed"]:
            assert _image(resumed._durable) == image
            # ... and only the registry's AIDs came back
            assert resumed.machine.aids.keys() == image[1].keys()
        else:
            assert image == ({}, {}, {})
        resumed.run()
        assert _committed(resumed) == want, copy_dir.name
        resumed.machine.check_invariants()


# ----------------------------------------------------- every torn WAL tail
def test_every_cut_of_the_wal_recovers_the_last_sealed_batch(tmp_path):
    seed, build = 1, BUILDS["counter"]
    twin = _twin(seed, build)
    want = _committed(twin)
    opts = {"snapshot_every": 10**9}          # one WAL, no envelope
    system = _system(tmp_path / "run", seed, build, **opts)
    with pytest.raises(EventLimitExceeded):
        system.run(max_events=twin.stats()["sim_events"] - 1)
    system._durable.store.close()             # the unsealed tail lands too
    del system
    wal = (tmp_path / "run" / "wal-00000000.jsonl").read_bytes()
    lines = wal.splitlines(keepends=True)
    assert sum(b'"t":"f"' in line for line in lines) >= 8
    assert sum(b'"t":"m"' in line for line in lines) >= 4

    cuts = []                # (offset, frames after the last marker before it)
    offset = unsealed = 0
    for line in lines:
        cuts.append((offset + len(line) // 2, unsealed))      # inside the line
        offset += len(line)
        unsealed = 0 if b'"t":"m"' in line else unsealed + 1
        cuts.append((offset, unsealed))                       # at its boundary
    for number, (cut, unsealed) in enumerate(cuts):
        copy_dir = tmp_path / f"cut-{number}"
        shutil.copytree(tmp_path / "run", copy_dir)
        with open(copy_dir / "wal-00000000.jsonl", "r+b") as fh:
            fh.truncate(cut)
        resumed = _resume(copy_dir, seed, build, **opts)
        assert resumed.stats()["durable"]["wal_records_discarded"] == unsealed, cut
        resumed.run()
        assert _committed(resumed) == want, cut


# ----------------------------------- why a persisted send carries no tags
@pytest.mark.parametrize("workload", sorted(BUILDS))
def test_committed_sends_are_tagged_with_affirmed_aids_only(tmp_path, workload):
    system = _system(tmp_path, 2, BUILDS[workload])
    recorder, machine = system._durable, system.machine
    tags_of = {}
    send = system.network.send

    def tagging_send(src, dst, payload, tags=frozenset()):
        delivery = send(src, dst, payload, tags=tags)
        tags_of[delivery.message.msg_id] = tags
        return delivery

    flush_proc = recorder.flush_proc
    tagged = []

    def checked_flush(proc, target, rebase=None):
        for pos, msg_id, _dst, _payload in recorder._img(proc.name).send_extras:
            if pos < target and tags_of[msg_id]:
                tagged.append(msg_id)
                for key in tags_of[msg_id]:
                    aid = machine.aids.get(key)       # None: retired, so resolved
                    assert aid is None or aid.affirmed, (msg_id, key)
        flush_proc(proc, target, rebase)

    system.network.send = tagging_send
    recorder.flush_proc = checked_flush
    system.run()
    # (the two counters send before they guess: nothing of theirs is tagged)
    assert tagged or workload in ("counter", "steady")


# ------------------------------------------ exit is the last commit point
def test_an_exited_member_leaves_the_image_and_every_later_envelope(tmp_path):
    """Once a pass has promoted a member's exit, its frame carried a
    terminal rebase point and no entry, the image holds its result in
    place of its log, and no envelope sealed from then on contains one
    entry of it.  (Every boundary of this run is also killed and resumed:
    ``staggered`` is one of ``BUILDS``.)"""
    seed, build = 2, BUILDS["staggered"]
    system = _system(tmp_path, seed, build)
    recorder = system._durable
    end_pass = recorder.end_pass
    retired_by_pass = []

    def checked_end_pass(*args, **kwargs):
        end_pass(*args, **kwargs)
        recorder.check_image()
        retired = {name for name, proc in system.procs.items() if proc.task is None}
        for name in retired:
            proc, img = system.procs[name], recorder.procs[name]
            assert proc.done and proc.log.retained == 0 and img.entries == [], name
            assert img.base == len(proc.log) > 0, name
            assert decode_value(img.rebase[0]) == Exited(proc.result), name
        gens = recorder.store.envelope_gens()
        if gens and not recorder.passes_since_snapshot:     # one was just sealed
            doc, _seal = recorder.store.load_envelope(max(gens))
            for name in retired:
                pdoc = doc["procs"][name]
                assert pdoc["entries"] == [] and pdoc["base"] > 0, name
            retired_by_pass.append((max(gens), len(retired)))

    recorder.end_pass = checked_end_pass
    system.run()
    twin = _twin(seed, build)
    assert _committed(system) == _committed(twin)
    # they left one by one, over many envelopes, and all but the last to
    # exit (no pass follows) were gone by the end
    counts = [count for _gen, count in retired_by_pass]
    assert counts == sorted(counts) and len(set(counts)) >= 4
    assert counts[-1] >= len(system.procs) - 2
    assert system.stats()["processes_retired"] == counts[-1]
    for name in system.procs:
        assert system.result_of(name) == twin.result_of(name), name


def _minted_elsewhere(mode):
    """A creator that hands its AID out and is gone from the image — it
    exits, or declares a commit point and idles — long before the others
    use the handle: ``late`` guesses at t≈60, ``verifier`` affirms at t≈90."""
    def creator(p, resume=None):
        if resume is None:
            x = yield p.aid_init("x")
            yield p.send("late", x)
            yield p.send("verifier", x)
            yield p.emit("made")
            if mode == "commit":
                yield p.commit_point("sent")
        if mode == "commit":
            yield p.recv()
        return "made"

    def late(p):
        x = (yield p.recv()).payload
        yield p.compute(60.0)
        ok = yield p.guess(x)
        yield p.emit(("late", ok))
        return ok

    def verifier(p):
        x = (yield p.recv()).payload
        yield p.compute(90.0)
        yield p.affirm(x)
        yield p.emit("judged")

    def build(system):
        system.spawn("creator", creator)
        system.spawn("late", late)
        system.spawn("verifier", verifier)
        system.spawn("tally", _steady_judge, 60)            # keeps passes coming
        system.spawn("w0", _steady_worker, "tally", 60)

    return build


@pytest.mark.parametrize("mode", ["exit", "commit"])
def test_a_handle_outlives_its_creators_log_across_a_resume(tmp_path, mode):
    """A pin lasts as long as the handle *object* it was counted on, and a
    resumed run rebuilds handles as new values: ``HopeSystem.resume`` pins
    every AID the image can name, or the first pass after it would retire
    ``x`` — its creator's ``aid_init`` entry, the one pin restore counts,
    left the image with the creator's log — under the two processes that
    still hold its handle.  (``commit``: raised ``UnknownAidError`` at the
    parent from each of the six kills before t=60; ``exit``: would now.)"""
    seed, build = 1, _minted_elsewhere(mode)
    twin = _twin(seed, build)
    want = _committed(twin)
    assert want["late"] == ["('late', True)"]
    events = twin.stats()["sim_events"]
    for tenth in range(1, 10):
        run_dir = tmp_path / str(tenth)
        system = _system(run_dir, seed, build)
        with pytest.raises(EventLimitExceeded):
            system.run(max_events=events * tenth // 10)
        creator = system._durable.procs["creator"]
        assert creator.entries == [] and creator.base > 0       # gone by the first kill
        # ... while a recv entry of ``late`` and of ``verifier`` names x
        assert "x#1" in system._durable.image_aid_keys()
        del system
        resumed = _resume(run_dir, seed, build)
        assert "x#1" in resumed.machine.pins, tenth
        resumed.run()
        assert _committed(resumed) == want, tenth
        resumed.machine.check_invariants()


# --------------------------------------------------- flat in run length
def _long_run(tmp_path, rounds):
    system = _system(tmp_path, 1, lambda system: _build_steady(system, rounds),
                     snapshot_every=2, retain=10**6)
    recorder = system._durable
    write_snapshot = recorder.write_snapshot

    def checked_snapshot(now):
        write_snapshot(now)
        assert recorder.registry.keys() <= system.machine.aids.keys()

    recorder.write_snapshot = checked_snapshot
    system.run()
    envelopes = sorted(
        name for name in os.listdir(tmp_path) if name.endswith(".env")
    )
    sizes = []
    for name in envelopes:
        with open(tmp_path / name, "rb") as fh:
            fh.readline()
            body = fh.read()
        sizes.append(len(body))
        doc = json.loads(body)
        assert all(set(pdoc) == {"base", "entries", "rebase"}
                   for pdoc in doc["procs"].values())
    held = sum(
        len(getattr(img, slot))
        for img in recorder.procs.values()
        for slot in ("entries", "send_extras", "res_extras")
    ) + len(recorder.registry) + len(recorder.open_sends)
    stats = system.stats()["durable"]
    assert stats["ledger_rows"] == 2 * 2 * rounds         # workers + the judge
    assert stats["envelope_bytes"] >= sizes[-1]
    return stats, max(sizes), held


def test_bytes_per_op_and_envelope_size_do_not_grow_with_the_run(tmp_path):
    rounds = 12
    short, short_env, short_held = _long_run(tmp_path / "n", rounds)
    long, long_env, long_held = _long_run(tmp_path / "4n", 4 * rounds)
    assert long["snapshots_written"] >= 3 * short["snapshots_written"]
    assert long["envelope_bytes"] <= 1.25 * short["envelope_bytes"]
    assert long_env <= 1.25 * short_env
    per_op = short["wal_bytes"] / (2 * rounds)
    assert long["wal_bytes"] / (2 * 4 * rounds) <= 1.1 * per_op
    # what the recorder holds at the end is the live image, not a ledger
    assert long_held <= 1.25 * short_held + 4
    assert long_held < long["ledger_rows"]


# ------------------- no commit point: the whole log survives, until exit
def test_a_body_without_commit_points_keeps_its_whole_committed_log(tmp_path):
    """Entries are elided only behind a promoted rebase point; the ring
    never yields ``commit_point``, so while a member runs, replay needs
    every committed entry.  Exit is the last commit point: a member that
    had returned and committed leaves no entry, only its result."""
    seed, build = 5, BUILDS["ring"]
    twin = _twin(seed, build)
    system = _system(tmp_path, seed, build)
    with pytest.raises(EventLimitExceeded):
        system.run(max_events=int(twin.stats()["sim_events"] * 0.85))
    images = system._durable.procs
    exited = {name for name, proc in system.procs.items() if proc.task is None}
    assert exited and len(exited) < len(images)
    for name in exited:
        img = images[name]
        assert img.entries == [] and img.rebase is not None, name
        assert img.base == len(system.procs[name].log) > 0, name
    sealed = {name: len(img.entries) for name, img in images.items()}
    assert all(
        images[name].base == 0 and images[name].rebase is None
        for name in sealed.keys() - exited
    )
    assert sum(sealed.values()) >= 40
    del system
    resumed = _resume(tmp_path, seed, build)
    for name, count in sealed.items():
        log = resumed.procs[name].log
        assert (log.base, log.retained) == (images[name].base, count), name
    resumed.run()
    for name in exited:
        assert resumed.procs[name].log.replayed_entries_total == 0, name
        assert resumed.result_of(name) == twin.result_of(name), name
    assert _committed(resumed) == _committed(twin)


# ------------------------------------------------------- version-1 refusal
class TestVersionOneIsRefused:
    def test_envelope(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.write_envelope(1, {
            "v": 1, "gen": 1, "prev": "", "seed": 1, "time": 0.0,
            "aid_serials": 0, "interval_serials": 0, "messages_sent": 0,
            "aids": {}, "open_sends": {}, "consumed": [], "procs": {},
        })
        store.close()
        with pytest.raises(DurableError, match="unsupported durable image version 1"):
            _resume(tmp_path, 1, build_durable_counter)

    def test_wal_only(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.open_wal(0)
        store.append_record({"t": "e", "p": "c0", "i": 0, "k": "compute", "r": None})
        store.write_marker(1)
        store.close()
        with pytest.raises(DurableError, match="unsupported durable image version"):
            _resume(tmp_path, 1, build_durable_counter)
