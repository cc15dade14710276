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
* the ledger appends the output rows the WAL sealed, byte for byte;
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
BASE = dict(latency=ConstantLatency(1.0), fossil_interval=2)


def _system(run_dir, seed, build, **opts):
    system = HopeSystem(seed=seed, durable_dir=str(run_dir),
                        durable_opts=opts or {"snapshot_every": 2}, **BASE)
    build(system)
    return system


def _resume(run_dir, seed, build, **opts):
    return HopeSystem.resume(str(run_dir), build, seed=seed,
                             durable_opts=opts or {"snapshot_every": 2}, **BASE)


def _logged_at_retirement(system):
    """name -> how long its effect log was when a pass retired it (the
    process and its log are gone after)."""
    logged = {}
    retire = system._retire

    def recording(proc):
        logged[proc.name] = len(proc.log)
        retire(proc)

    system._retire = recording
    return logged


def _committed(system):
    return {
        name: sorted(repr(v) for v in system.committed_outputs(name))
        for name in system.process_names()
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
        # only name AIDs the registry still has, and once an envelope has
        # been sealed the registry only AIDs the machine still has or
        # keys the image names (a settled AID retires under live handles;
        # its row waits for the next envelope's walk).
        recorder.check_image()
        named = recorder.image_aid_keys()
        assert named <= recorder.registry.keys()
        if not recorder.passes_since_snapshot:
            assert recorder.registry.keys() - system.machine.aids.keys() <= named
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

    def checked_flush(proc, target, passed, rebase=None):
        for pos, msg_id, _dst, _payload in recorder._img(proc.name).send_extras:
            if pos < target and tags_of[msg_id]:
                tagged.append(msg_id)
                for key in tags_of[msg_id]:
                    aid = machine.aids.get(key)       # None: retired, so resolved
                    assert aid is None or aid.affirmed, (msg_id, key)
        flush_proc(proc, target, passed, rebase)

    system.network.send = tagging_send
    recorder.flush_proc = checked_flush
    system.run()
    # (the two counters send before they guess: nothing of theirs is tagged)
    assert tagged or workload in ("counter", "steady")


# -------------------------------- the ledger holds what the WAL sealed
def _aliasing_emitter(p, judge, rounds):
    box = [0]
    for i in range(rounds):
        a = yield p.aid_init("round")
        yield p.send(judge, a)
        yield p.guess(a)
        box[0] = i
        yield p.emit(box)               # the same list every round
        yield p.compute(1.0)


def _affirmer(p, rounds):
    for _ in range(rounds):
        yield p.affirm((yield p.recv()).payload)


def test_the_ledger_appends_the_rows_the_wal_sealed(tmp_path):
    """An emitted value is kept by reference, so a body that mutates it
    after the emit changes what its record holds.  The ledger must not
    care: it appends the rows the WAL sealed when the outputs committed,
    byte for byte, not the values as they stand at envelope time (else a
    kill between a flush and its envelope resumes to other values)."""
    rounds = 16
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), fossil_interval=4,
                        durable_dir=str(tmp_path), durable_opts={"snapshot_every": 2})
    system.spawn("judge", _affirmer, rounds)
    system.spawn("box", _aliasing_emitter, "judge", rounds)
    store = system._durable.store
    append_record = store.append_record
    sealed = []

    def recording(rec):
        sealed.extend(json.dumps(row, sort_keys=True) for row in rec.get("o", ()))
        return append_record(rec)

    store.append_record = recording
    system.run()
    assert system._durable.stats["snapshots_written"] > 1
    ledger = []
    with open(tmp_path / "ledger.jsonl", "rb") as fh:
        for line in fh:
            body = json.loads(line.rpartition(b" ")[0])
            assert body["p"] == "box"
            ledger.extend(json.dumps(row, sort_keys=True) for row in body["r"])
    assert ledger == sealed and len(ledger) == rounds
    # (each frame encoded the list as it stood at its pass: not one value)
    assert len({json.dumps(json.loads(row)[0]) for row in ledger}) > 1


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
    logged = _logged_at_retirement(system)

    def checked_end_pass(*args, **kwargs):
        end_pass(*args, **kwargs)
        recorder.check_image()
        retired = set(system.process_names()) - system.procs.keys()
        assert retired == logged.keys()
        for name in retired:
            img = recorder.procs[name]
            assert system.is_done(name) and img.entries == [], name
            assert img.base == logged[name] > 0, name
            assert decode_value(img.rebase[0]) == Exited(system.result_of(name)), name
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
    assert counts[-1] >= len(system.process_names()) - 2
    assert system.stats()["processes_retired"] == counts[-1]
    for name in system.process_names():
        assert system.result_of(name) == twin.result_of(name), name


class _Boxed:
    """A handle inside a slotted object: no ``__dict__`` to walk."""

    __slots__ = ("handle",)

    def __init__(self, handle):
        self.handle = handle


def _minted_elsewhere(mode, boxed=False):
    """A creator that hands its AID out and is gone from the image — it
    exits, or declares a commit point and idles — long before the others
    use the handle: ``late`` guesses at t≈60, ``verifier`` affirms at t≈90.
    ``boxed`` sends the handle inside a :class:`_Boxed`."""
    def creator(p, resume=None):
        if resume is None:
            x = yield p.aid_init("x")
            yield p.send("late", _Boxed(x) if boxed else x)
            yield p.send("verifier", _Boxed(x) if boxed else x)
            yield p.emit("made")
            if mode == "commit":
                yield p.commit_point("sent")
        if mode == "commit":
            yield p.recv()
        return "made"

    def unbox(payload):
        return payload.handle if boxed else payload

    def late(p):
        x = unbox((yield p.recv()).payload)
        yield p.compute(60.0)
        ok = yield p.guess(x)
        yield p.emit(("late", ok))
        return ok

    def verifier(p):
        x = unbox((yield p.recv()).payload)
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
    """A resumed run rebuilds handles as new values: ``restore`` binds
    every handle it decodes — here the ones in the recv entries of
    ``late`` and ``verifier`` — to its adopted AID, and each one holds a
    pending ``x`` for as long as it lives.  Nothing pins the image's keys
    wholesale any more.  (``commit``: raised ``UnknownAidError`` from each
    of the six kills before t=60 when only ``aid_init`` entries were
    re-pinned — the creator's had left the image with its log.)"""
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
        x = resumed.machine.aids["x#1"]
        assert not resumed.machine.pins, tenth
        assert x.affirmed or len(x.handles) == 2, tenth      # one per decoded copy
        resumed.run()
        assert _committed(resumed) == want, tenth
        resumed.machine.check_invariants()


def test_a_handle_inside_a_slotted_payload_is_named_and_bound(tmp_path):
    """The image walk follows ``__slots__`` as pickling does: a handle
    inside a slotted payload is one the image names (``check_image``),
    and one ``restore`` binds.  (When the walk read ``__dict__`` only, the
    resumed run retired ``x`` as an orphan and ``late``'s guess raised
    ``UnknownAidError``.)"""
    seed, build = 1, _minted_elsewhere("commit", boxed=True)
    twin = _twin(seed, build)
    want = _committed(twin)
    events = twin.stats()["sim_events"]
    for tenth in (2, 4, 6):
        run_dir = tmp_path / str(tenth)
        system = _system(run_dir, seed, build)
        with pytest.raises(EventLimitExceeded):
            system.run(max_events=events * tenth // 10)
        assert "x#1" in system._durable.image_aid_keys()
        del system
        resumed = _resume(run_dir, seed, build)
        late_entry = resumed.procs["late"].log.entry_at(0).result
        assert late_entry.payload.handle.aid is resumed.machine.aids["x#1"]
        resumed.run()
        assert _committed(resumed) == want, tenth


def test_a_retired_key_the_image_names_again_gets_its_verdict_row(tmp_path):
    """A settled AID retires under the handle its creator's body keeps;
    once nothing in the image names the key (the commit point dropped the
    ``aid_init`` entry) an envelope's walk drops its row.  The body then
    sends the handle: the frame that opens the send names the key again,
    and writes its row — the verdict, from the bound handle — so that
    every sealed pass boundary satisfies ``check_image``.  (The body keeps
    ``x`` in a local across its commit point; nothing here restarts it.)"""
    def creator(p, resume=None):
        x = yield p.aid_init("x")
        yield p.affirm(x)
        yield p.commit_point("made")
        yield p.compute(40.0)                   # passes and envelopes go by
        yield p.send("late", x)

    def late(p):
        yield p.emit(("late", (yield p.guess((yield p.recv()).payload))))

    def build(system):
        system.spawn("creator", creator)
        system.spawn("late", late)
        system.spawn("tally", _steady_judge, 60)
        system.spawn("w0", _steady_worker, "tally", 60)

    system = _system(tmp_path, 1, build)
    recorder = system._durable
    end_pass = recorder.end_pass
    rows = []

    def checked_end_pass(*args, **kwargs):
        end_pass(*args, **kwargs)
        recorder.check_image()
        rows.append(recorder.registry.get("x#1"))

    recorder.end_pass = checked_end_pass
    system.run()
    assert _committed(system) == _committed(_twin(1, build))
    assert system.committed_outputs("late") == [("late", True)]
    # the row: written, dropped while nothing named the key, written again
    # (and dropped for good once ``late`` has exited)
    dropped = rows.index(None, rows.index("affirmed"))
    assert "affirmed" in rows[dropped:], rows


def _two_copies(p_a_exit=30.0, p_b_guess=60.0):
    """``a`` and ``b`` each receive the creator's handle — in a resumed
    run, two decoded copies of it.  ``a`` exits soon after, so its copy
    goes with its log; ``b`` guesses much later and sends a message tagged
    with the AID, which ``sink`` resolves by key; ``judge`` affirms it
    from ``b``'s tagged copy."""
    def creator(p):
        x = yield p.aid_init("x")
        yield p.send("a", x)
        yield p.send("b", x)

    def a(p):
        (yield p.recv())
        yield p.compute(p_a_exit)

    def b(p):
        x = (yield p.recv()).payload
        yield p.compute(p_b_guess)
        yield p.guess(x)
        yield p.send("sink", "tagged")
        yield p.send("judge", x)

    def sink(p):
        yield p.emit((yield p.recv()).payload)

    def judge(p):
        yield p.affirm((yield p.recv()).payload)
        yield p.emit("judged")

    def build(system):
        for name, body in (("creator", creator), ("a", a), ("b", b),
                           ("sink", sink), ("judge", judge)):
            system.spawn(name, body)
        system.spawn("tally", _steady_judge, 60)            # keeps passes coming
        system.spawn("w0", _steady_worker, "tally", 60)

    return build


def test_decoded_copies_of_a_pending_handle_hold_it_one_each(tmp_path):
    """A hold is counted per handle *object*: the first decoded copy dies
    with ``a``'s log, and the second — alone now — keeps the pending AID
    resolvable by key for the tagged send ``b`` makes after the resume."""
    seed, build = 1, _two_copies()
    twin = _twin(seed, build)
    want = _committed(twin)
    assert want["sink"] == ["'tagged'"]
    events = twin.stats()["sim_events"]
    both_held = first_died = 0
    for tenth in range(1, 10):
        run_dir = tmp_path / str(tenth)
        system = _system(run_dir, seed, build)
        with pytest.raises(EventLimitExceeded):
            system.run(max_events=events * tenth // 10)
        del system
        resumed = _resume(run_dir, seed, build)
        x = resumed.machine.aids.get("x#1")
        two = x is not None and x.pending and len(x.handles or ()) == 2
        resumed.run()                # the sink resolves x#1 by key
        assert _committed(resumed) == want, tenth
        both_held += two
        first_died += two and "a" not in resumed.procs      # a's log went
    assert both_held >= 2 and first_died >= 1


def _holds_only_what_is_pending(system):
    """What a resumed run keeps after its first pass: every AID is pending
    and held by a live handle or a tag pin, and no pin comes from the
    image (it persists no tags, so nothing is pinned before the run
    sends).  The resume pin broke this: it kept every image key, settled
    or not, for the rest of the run."""
    machine = system.machine
    assert not machine.pins, sorted(machine.pins)
    for key, aid in machine.aids.items():
        held = any(ref() is not None for ref in aid.handles or ())
        assert aid.pending and (held or key in machine.pins), key


@pytest.mark.parametrize("workload", ["mesh", "staggered"])
def test_a_resume_of_a_resume_holds_no_more_than_the_first(tmp_path, workload):
    """Kill → resume → kill → resume, the kills at every tenth of the run:
    after its first pass each resumed leg holds only what is pending (see
    ``_holds_only_what_is_pending``), and the second leg commits what the
    twin commits.  How many AIDs a leg keeps depends on where the kill
    lands, so the legs are not compared by count."""
    seed, build = 2, BUILDS[workload]
    twin = _twin(seed, build)
    want = _committed(twin)
    events = twin.stats()["sim_events"]
    killed_twice = 0
    for tenth in range(1, 10):
        run_dir = tmp_path / str(tenth)
        system = _system(run_dir, seed, build)
        with pytest.raises(EventLimitExceeded):
            system.run(max_events=events * tenth // 10)
        del system
        for leg in (1, 2):
            resumed = _resume(run_dir, seed, build)
            resumed._run_fossil_collection()        # what the image adopted settles
            _holds_only_what_is_pending(resumed)
            if leg == 1:
                try:
                    resumed.run(max_events=events * tenth // 10)
                except EventLimitExceeded:
                    killed_twice += 1
                del resumed
        resumed.run()
        assert _committed(resumed) == want, tenth
        resumed.machine.check_invariants()
    assert killed_twice >= 4


# --------------------------------------------------- flat in run length
def _long_run(tmp_path, rounds):
    system = _system(tmp_path, 1, lambda system: _build_steady(system, rounds),
                     snapshot_every=2, retain=10**6)
    recorder = system._durable
    write_snapshot = recorder.write_snapshot

    def checked_snapshot(now):
        write_snapshot(now)
        assert (recorder.registry.keys() - system.machine.aids.keys()
                <= recorder.image_aid_keys())

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
    logged = _logged_at_retirement(system)
    with pytest.raises(EventLimitExceeded):
        system.run(max_events=int(twin.stats()["sim_events"] * 0.85))
    images = system._durable.procs
    exited = set(system.process_names()) - system.procs.keys()
    assert exited and len(exited) < len(images)
    for name in exited:
        img = images[name]
        assert img.entries == [] and img.rebase is not None, name
        assert img.base == logged[name] > 0, name
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
    members = {name: resumed.procs[name] for name in exited}
    resumed.run()
    for name in exited:
        assert members[name].log.replayed_entries_total == 0, name
        assert name not in resumed.procs, name      # retired again
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
