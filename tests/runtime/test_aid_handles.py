"""A resolved AID lives in its handles.

``AidHandle`` carries its ``AssumptionId``.  The handle holds the AID
against retirement only while it is pending — a guess through it may yet
make the AID a message tag, and tags resolve by key — so a settled AID
retires from ``machine.aids`` whatever handles are alive, and every
primitive through a handle reaches it by object.  Pinned here:

* the handle is the same value it was: equality, hash, ``repr`` and the
  pickled bytes ignore the AID, an unpickled copy is unbound;
* a settled AID retires under a live handle, and ``guess`` / ``affirm``
  / ``deny`` / ``free_of`` / ``aid()`` / ``aid_status()`` through it
  still answer — emitting the trace the uncollected twin emits;
* holds count per handle object and die with it; the pass that settles
  the AID points every live handle at the shared verdict of its status
  and drops them all;
* a late primitive through a handle that holds only the verdict behaves
  as it did through the AID: same value, same trace, the handle's key in
  every trace record, event and error text — which no longer names the
  resolver.
"""

import copy
import gc
import pickle

import pytest

from repro.core import GuessSkippedEvent, Machine, ResolutionConflictError, UnknownAidError
from repro.core.aid import VERDICTS, AidStatus
from repro.runtime import AidHandle, HopeSystem
from repro.sim import ConstantLatency, Tracer

from ..footprint import NEVER

#: ``pickle.dumps(AidHandle("x#1", "x"), protocol=4)`` when the handle was
#: a frozen two-field dataclass: the bytes of every durable image.
_DATACLASS_BYTES = (
    b"\x80\x04\x95B\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.runtime.api\x94"
    b"\x8c\tAidHandle\x94\x93\x94)\x81\x94}\x94(\x8c\x03key\x94\x8c\x03x#1\x94"
    b"\x8c\x04name\x94\x8c\x01x\x94ub."
)


class TestTheValue:
    def test_the_aid_is_not_part_of_the_value(self):
        machine = Machine()
        aid = machine.aid_init("x")
        bound, unbound = AidHandle(aid.key, "x", aid), AidHandle(aid.key, "x")
        assert bound == unbound and hash(bound) == hash(unbound)
        assert repr(bound) == "AID<x#1>"
        assert bound != AidHandle(aid.key, "y") and bound != aid.key

    def test_pickled_bytes_are_the_two_field_value(self):
        aid = Machine().aid_init("x")
        blob = pickle.dumps(AidHandle("x#1", "x", aid), protocol=4)
        assert blob == _DATACLASS_BYTES
        copy_ = pickle.loads(blob)
        assert copy_ == AidHandle("x#1", "x") and copy_.aid is None

    def test_immutable_and_copied_as_identity(self):
        handle = AidHandle("x#1", "x")
        with pytest.raises(AttributeError):
            handle.key = "y#2"
        with pytest.raises(AttributeError):
            del handle.name
        assert copy.copy(handle) is handle and copy.deepcopy([handle])[0] is handle


class TestHolds:
    def test_a_hold_counts_per_object_and_dies_with_it(self):
        machine = Machine()
        aid = machine.aid_init("x")
        first, second = AidHandle(aid.key, "x", aid), AidHandle(aid.key, "x", aid)
        machine.hold(aid, first)
        machine.hold(aid, second)
        machine.fossil_collect()
        assert machine._retire_deferred == {aid.key: aid}    # held, not retired
        del first
        gc.collect()
        assert len(aid.handles) == 1
        machine.fossil_collect()
        assert aid.key in machine.aids                       # the copy still holds
        del second
        gc.collect()
        assert aid.handles is None and not machine._retire_deferred
        machine.fossil_collect()                             # the release queued it
        assert aid.key not in machine.aids
        assert machine.stats["aids_retired_pending"] == 1

    def test_settling_drops_the_holds(self):
        machine = Machine()
        machine.create_process("p")
        aid = machine.aid_init("x")
        handle = AidHandle(aid.key, "x", aid)
        machine.hold(aid, handle)
        machine.affirm("p", aid)
        machine.fossil_collect()
        assert aid.key not in machine.aids and aid.handles is None
        assert handle.aid is aid and aid.affirmed


# ----------------------------------------------------------------------
# through the engine
# ----------------------------------------------------------------------
def _maker(p, got, ok):
    x = yield p.aid_init("x")
    got.append(x)
    yield p.send("judge", x)
    yield p.compute(10.0)                    # passes settle x meanwhile
    first = yield p.guess(x)                 # a late guess: the verdict
    yield (p.affirm(x) if ok else p.deny(x))     # duplicate resolution: no-op
    yield p.free_of(x)                       # resolved: trivially decided
    yield p.emit(("late", first))


def _judge(p, ok):
    x = (yield p.recv()).payload
    yield (p.affirm(x) if ok else p.deny(x))
    for i in range(6):                       # finalizes keep passes coming
        y = yield p.aid_init(f"churn{i}")
        yield p.guess(y)
        yield p.affirm(y)


def _run(interval, ok=True):
    got = []
    tracer = Tracer()
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), trace=tracer,
                        fossil_interval=interval)
    system.spawn("judge", _judge, ok)
    system.spawn("maker", _maker, got, ok)
    system.run()
    return system, tracer, got[0]


@pytest.mark.parametrize("ok", [True, False], ids=["affirmed", "denied"])
def test_a_settled_aid_retires_under_a_live_handle(ok):
    system, tracer, handle = _run(1, ok=ok)
    twin, twin_tracer, twin_handle = _run(NEVER, ok=ok)
    # The handle lives (the test and maker's log hold it), the AID left
    # the table before the late guess, and every primitive read it by
    # object: the same trace, byte for byte, as the run that retires
    # nothing before it ends.
    assert handle.key not in system.machine.aids and handle.aid.handles is None
    assert handle.aid is VERDICTS[AidStatus.AFFIRMED if ok else AidStatus.DENIED]
    assert twin_handle.key == handle.key and twin.stats()["fossil_collections"] == 1
    assert tracer.fingerprint() == twin_tracer.fingerprint()
    assert system.committed_outputs("maker") == [("late", ok)]
    # ... and the public lookups answer through the handle; the raw key
    # names a retired AID.
    assert system.aid(handle) is handle.aid
    assert system.aid_status(handle).value == ("affirmed" if ok else "denied")
    with pytest.raises(UnknownAidError, match="retired by collection"):
        system.aid(handle.key)
    with pytest.raises(UnknownAidError, match="retired by collection"):
        system.aid(AidHandle(handle.key, handle.name))       # an unbound copy
    system.machine.check_invariants()


# ----------------------------------------------------------------------
# a late primitive through a handle that holds only the verdict
# ----------------------------------------------------------------------
_LATE = {
    "guess": lambda p, x: p.guess(x),
    "affirm": lambda p, x: p.affirm(x),
    "deny": lambda p, x: p.deny(x),
    "free_of": lambda p, x: p.free_of(x),
}


def _late_maker(p, seen, late):
    x = yield p.aid_init("x")
    yield p.send("judge", x)
    yield p.compute(10.0)                    # passes settle x meanwhile
    seen.append((x, x.aid))                  # what the handle holds now
    seen.append((yield _LATE[late](p, x)))
    yield p.emit("late")


def _late_run(interval, ok, late):
    seen, events = [], []
    tracer = Tracer()
    system = HopeSystem(seed=1, latency=ConstantLatency(1.0), trace=tracer,
                        fossil_interval=interval)
    system.machine.subscribe(events.append)
    system.spawn("judge", _judge, ok)
    system.spawn("maker", _late_maker, seen, late)
    try:
        system.run()
        error = None
    except ResolutionConflictError as exc:
        error = str(exc)
    return system, tracer, seen, events, error


@pytest.mark.parametrize("late", sorted(_LATE))
@pytest.mark.parametrize("ok", [True, False], ids=["affirmed", "denied"])
def test_a_late_primitive_through_a_verdict_is_unchanged(ok, late):
    system, tracer, seen, events, error = _late_run(1, ok, late)
    twin, twin_tracer, twin_seen, _, twin_error = _late_run(NEVER, ok, late)
    (handle, held), *rest = seen
    verdict = VERDICTS[AidStatus.AFFIRMED if ok else AidStatus.DENIED]
    # The pass had pointed the handle at the shared verdict before the
    # primitive ran; where no pass had run, the handle still held its AID.
    assert held is verdict and twin_seen[0][1].key == handle.key
    assert twin_seen[0][1] is not verdict
    # The same value, the same trace byte for byte, the key in every
    # record and event that names an AID ...
    assert rest == twin_seen[1:]
    assert tracer.fingerprint() == twin_tracer.fingerprint()
    late_records = [r for r in tracer.records
                    if r.process == "maker" and r.category == late]
    assert late_records or error
    assert all(r.detail["aid"] == handle.key for r in late_records)
    skips = [e for e in events if type(e) is GuessSkippedEvent]
    assert all(e.aid.key == handle.key for e in skips)
    assert bool(skips) == (late == "guess")
    # ... and the same error text, less the resolver's name: a verdict is
    # shared, so it does not know who resolved this AID.
    assert (error is None) == (twin_error is None)
    if error is not None:
        assert handle.key in error
        assert error == twin_error.replace(" by 'judge'", "")
    # The public lookups answer with the verdict.
    assert system.aid(handle) is verdict
    assert system.aid_status(handle) is verdict.status
    assert twin.aid_status(handle) is verdict.status
