"""Parameterized HOPE scenarios: what :func:`repro.verify.check_run` runs.

Each scenario knows how to build itself onto a fresh :class:`HopeSystem`
and what its *committed reference output* must be — computed directly
from the scenario's decision parameters, independent of any execution —
or, for the chaos workloads, that its oracle is the fault-free twin.
Every checked run must commit exactly what that normal-order run does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..bench.workloads import build_chaos_mesh, build_chaos_ring, build_durable_counter
from ..runtime import HopeSystem
from ..sim import TIMED_OUT, RandomStream


@dataclass(frozen=True)
class Scenario:
    """A buildable workload plus its expected committed ledger.

    ``reference=None`` makes the fault-free twin the oracle: the same
    workload run without faults or directed choices must commit the same
    multiset per process (a fault may legitimately permute *when* an
    output commits, never *what* commits), and every process must finish.

    ``blocking_oracle`` marks scenarios whose observable outcome does not
    depend on speculation-vs-waiting (all assumptions resolved by other
    processes, no timing-dependent branches): for those, the explorer
    additionally runs the program with ``speculation=False`` and requires
    the identical committed ledger — the strongest oracle available,
    because it executes the *same program text* pessimistically.

    ``spec`` is the JSON-serializable recipe that rebuilt this scenario
    (``{"factory": name, "kwargs": {...}}``) — what reproducer files store
    so :func:`scenario_from_spec` can reconstruct the workload.
    """

    name: str
    build: object                # Callable[[HopeSystem], None]
    reference: Optional[dict]    # process name -> expected committed outputs
    blocking_oracle: bool = False
    spec: Optional[dict] = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# scenario: speculation chain
# ---------------------------------------------------------------------------
def chain_scenario(depth: int, decide: bool, verify_delay: float) -> Scenario:
    """A root guess relayed through ``depth`` processes, then resolved.

    Every relay emits what it saw; if the assumption is denied, nothing
    downstream of the guess may commit.
    """

    def build(system: HopeSystem) -> None:
        def root(p):
            x = yield p.aid_init("x")
            yield p.send("judge", x)
            if (yield p.guess(x)):
                yield p.emit("root-optimistic")
                yield p.send("relay-0", 0)
            else:
                yield p.emit("root-pessimistic")
            yield p.compute(1.0)

        def relay(p, i):
            msg = yield p.recv()
            yield p.emit(("saw", i))
            yield p.compute(0.5)
            if i + 1 < depth:
                yield p.send(f"relay-{i + 1}", i + 1)

        def judge(p):
            msg = yield p.recv()
            yield p.compute(verify_delay)
            if decide:
                yield p.affirm(msg.payload)
            else:
                yield p.deny(msg.payload)

        system.spawn("root", root)
        system.spawn("judge", judge)
        for i in range(depth):
            system.spawn(f"relay-{i}", relay, i)

    reference = {"root": ["root-optimistic" if decide else "root-pessimistic"]}
    for i in range(depth):
        reference[f"relay-{i}"] = [("saw", i)] if decide else []
    return Scenario(
        f"chain(depth={depth},decide={decide})",
        build,
        reference,
        blocking_oracle=True,
        spec={
            "factory": "chain",
            "kwargs": {"depth": depth, "decide": decide, "verify_delay": verify_delay},
        },
    )


# ---------------------------------------------------------------------------
# scenario: two independent assumptions with independent verdicts
# ---------------------------------------------------------------------------
def two_aid_scenario(decide_x: bool, decide_y: bool, dx: float, dy: float) -> Scenario:
    def build(system: HopeSystem) -> None:
        def worker(p):
            x = yield p.aid_init("x")
            y = yield p.aid_init("y")
            yield p.send("judge-x", x)
            yield p.send("judge-y", y)
            gx = yield p.guess(x)
            yield p.emit(("x", gx))
            yield p.compute(1.0)
            gy = yield p.guess(y)
            yield p.emit(("y", gy))
            yield p.compute(1.0)
            yield p.emit("end")

        def judge(p, decision, delay):
            msg = yield p.recv()
            yield p.compute(delay)
            if decision:
                yield p.affirm(msg.payload)
            else:
                yield p.deny(msg.payload)

        system.spawn("worker", worker)
        system.spawn("judge-x", judge, decide_x, dx)
        system.spawn("judge-y", judge, decide_y, dy)

    # The committed trace replays the decision tree: a denied guess
    # re-executes with False.  Possible interleavings collapse to the
    # final values because withdrawn emits never commit.
    reference = {
        "worker": [("x", decide_x), ("y", decide_y), "end"]
    }
    return Scenario(
        f"two_aid(x={decide_x},y={decide_y})",
        build,
        reference,
        blocking_oracle=True,
        spec={
            "factory": "two_aid",
            "kwargs": {
                "decide_x": decide_x, "decide_y": decide_y, "dx": dx, "dy": dy,
            },
        },
    )


# ---------------------------------------------------------------------------
# scenario: free_of ordering race (Figure 2 in miniature)
# ---------------------------------------------------------------------------
def free_of_scenario(violate: bool) -> Scenario:
    """A sink that must stay causally free of a speculative writer.

    ``violate=True`` routes the speculative message so the checker *does*
    become dependent — free_of must deny and roll the world back; the
    writer then re-executes pessimistically.
    """

    def build(system: HopeSystem) -> None:
        def writer(p):
            x = yield p.aid_init("x")
            yield p.send("checker", x)        # definite: FIFO beats the taint
            if (yield p.guess(x)):
                if violate:
                    yield p.send("checker", "tainted")
                yield p.emit("spec-write")
            else:
                yield p.emit("plain-write")
            yield p.compute(1.0)

        def checker(p):
            # Robust to event reordering: collect messages until the AID
            # handle (and, in the violating variant, the taint) has been
            # seen; a timeout covers the post-rollback re-execution where
            # the tainted message is dead.
            from ..runtime import AidHandle

            x = None
            seen_taint = False
            while x is None or (violate and not seen_taint):
                msg = yield p.recv(timeout=50.0)
                if msg is TIMED_OUT:
                    break
                if isinstance(msg.payload, AidHandle):
                    x = msg.payload
                else:
                    seen_taint = True         # dependent on x via the tag
            yield p.compute(1.0)
            yield p.free_of(x)                # the Figure 2 Order discipline
            yield p.emit("checked")

        system.spawn("writer", writer)
        system.spawn("checker", checker)

    if violate:
        # free_of denies x: the writer re-executes the pessimistic branch;
        # the checker re-executes free_of (no-op) and commits.
        reference = {"writer": ["plain-write"], "checker": ["checked"]}
    else:
        # free_of affirms x: the speculative write commits.
        reference = {"writer": ["spec-write"], "checker": ["checked"]}
    return Scenario(
        f"free_of(violate={violate})",
        build,
        reference,
        spec={"factory": "free_of", "kwargs": {"violate": violate}},
    )


# ---------------------------------------------------------------------------
# scenario: diamond — two speculative paths reconverge at one sink
# ---------------------------------------------------------------------------
def diamond_scenario(decide: bool, verify_delay: float) -> Scenario:
    """The source's assumption reaches the sink along two branches.

    The second tagged arrival must fold into the sink's existing
    dependency (no new interval, no double rollback), and a denial must
    withdraw the sink's combined output exactly once.
    """

    def build(system: HopeSystem) -> None:
        def source(p):
            x = yield p.aid_init("x")
            yield p.send("judge", x)
            if (yield p.guess(x)):
                yield p.send("left", 1)
                yield p.send("right", 2)
            else:
                yield p.emit("source-pessimistic")
            yield p.compute(1.0)

        def branch(p, scale):
            msg = yield p.recv()
            yield p.compute(0.5)
            yield p.send("sink", msg.payload * scale)

        def sink(p):
            first = yield p.recv()
            second = yield p.recv()
            yield p.emit(("combined", first.payload + second.payload))

        def judge(p):
            msg = yield p.recv()
            yield p.compute(verify_delay)
            if decide:
                yield p.affirm(msg.payload)
            else:
                yield p.deny(msg.payload)

        system.spawn("source", source)
        system.spawn("left", branch, 10)
        system.spawn("right", branch, 100)
        system.spawn("sink", sink)
        system.spawn("judge", judge)

    if decide:
        reference = {"source": [], "sink": [("combined", 1 * 10 + 2 * 100)]}
    else:
        reference = {"source": ["source-pessimistic"], "sink": []}
    return Scenario(
        f"diamond(decide={decide})",
        build,
        reference,
        blocking_oracle=True,
        spec={
            "factory": "diamond",
            "kwargs": {"decide": decide, "verify_delay": verify_delay},
        },
    )


# ---------------------------------------------------------------------------
# scenario: an assumption nobody ever resolves
# ---------------------------------------------------------------------------
def orphan_scenario(resolve: bool) -> Scenario:
    """A worker initializes an AID and (maybe) never has it resolved.

    Nobody guesses on the AID, so the run quiesces cleanly either way —
    but with ``resolve=False`` the AID is left *pending with no
    speculative affirmer*, which the strict quiescence check
    (``check_quiescent(..., allow_pending_orphans=False)``) rejects:
    an orphaned assumption is usually a program that forgot a judge.
    """

    def build(system: HopeSystem) -> None:
        def worker(p):
            x = yield p.aid_init("x")
            if resolve:
                yield p.send("judge", x)
            yield p.emit("done")

        def judge(p):
            msg = yield p.recv()
            yield p.compute(0.25)
            yield p.affirm(msg.payload)

        system.spawn("worker", worker)
        if resolve:
            system.spawn("judge", judge)

    reference = {"worker": ["done"]}
    return Scenario(
        f"orphan(resolve={resolve})",
        build,
        reference,
        blocking_oracle=False,
        spec={"factory": "orphan", "kwargs": {"resolve": resolve}},
    )


# ---------------------------------------------------------------------------
# scenario factory used by the explorer
# ---------------------------------------------------------------------------
def random_scenario(stream: RandomStream) -> Scenario:
    """Draw one scenario with randomized parameters."""
    pick = stream.randint(0, 3)
    if pick == 0:
        return chain_scenario(
            depth=stream.randint(1, 4),
            decide=stream.bernoulli(0.5),
            verify_delay=stream.uniform(0.1, 8.0),
        )
    if pick == 1:
        return two_aid_scenario(
            decide_x=stream.bernoulli(0.5),
            decide_y=stream.bernoulli(0.5),
            dx=stream.uniform(0.1, 6.0),
            dy=stream.uniform(0.1, 6.0),
        )
    if pick == 2:
        return diamond_scenario(
            decide=stream.bernoulli(0.5),
            verify_delay=stream.uniform(0.1, 8.0),
        )
    return free_of_scenario(violate=stream.bernoulli(0.5))


def _workload(name: str, build) -> Callable[[], Scenario]:
    """A chaos workload (:mod:`repro.bench.workloads`) as a twin-oracle scenario."""
    return lambda: Scenario(name, build, None, spec={"factory": name, "kwargs": {}})


#: Factory registry keyed by the ``spec["factory"]`` names reproducer
#: files store (see :func:`scenario_from_spec`).
FACTORIES: dict = {
    "chain": chain_scenario,
    "two_aid": two_aid_scenario,
    "diamond": diamond_scenario,
    "free_of": free_of_scenario,
    "orphan": orphan_scenario,
    "mesh": _workload("mesh", build_chaos_mesh),
    "ring": _workload("ring", build_chaos_ring),
    "counter": _workload("counter", build_durable_counter),
}


def scenario_from_spec(spec: dict) -> Scenario:
    """Rebuild a scenario from its serialized ``Scenario.spec`` recipe."""
    try:
        factory = FACTORIES[spec["factory"]]
    except KeyError:
        raise ValueError(f"unknown scenario factory {spec.get('factory')!r}")
    return factory(**spec.get("kwargs", {}))
