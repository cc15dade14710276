"""The six benchmark workloads: seeded inputs, process bodies, oracles.

Each workload is a fixed, seeded input run to quiescence on the
deterministic simulator.  A workload knows three things the harness
needs: how to set a run up (``start``), the ledger a correct run must
commit (``expected`` — closed form, computed from the inputs alone, never
from the runtime), and how many operations that ledger stands for.

Only the public surface of ``repro`` is imported, and every system is
constructed through :func:`system_options` below, so that the ROADMAP's
deletions (kernels, rollback paths, backends) cannot break the
benchmark; see README.md for the rule and the forbidden options.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional

from repro import HopeSystem
from repro.apps import call_streaming
from repro.runtime import ReliableConfig
from repro.sim import ConstantLatency
from repro.sim.faults import FaultPlan, LinkFaults

#: Committed outputs grouped by operation: op id -> records, in commit order.
Ledger = dict

_MOD = 1_000_003


class Outcome(NamedTuple):
    """What one run to quiescence produced."""

    makespan: float          # virtual time at quiescence
    stats: dict              # HopeSystem.stats()
    ledger: Ledger           # committed outputs, grouped by op


def system_options(seed: int, latency: float, *, metrics=None, **defining) -> dict:
    """Constructor options for a workload's system — the one place they
    are assembled, shared by fresh construction and ``HopeSystem.resume``.

    ``defining`` holds the options that define a workload and nothing else
    (``fossil_collect``, ``durable_dir``, ``faults``, ``reliable``); an
    option left at its default is not passed at all.
    """
    options = {"seed": seed, "latency": ConstantLatency(latency)}
    options.update((k, v) for k, v in defining.items() if v)
    if metrics is not None:
        options["metrics"] = metrics
    return options


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _one_in(rng: random.Random, n: int, every: int) -> frozenset:
    """Indices below ``n`` with exactly one drawn from each full block of
    ``every``: the rate is fixed, the seed moves only the positions, so
    the amount of work barely depends on the seed."""
    return frozenset(
        block + rng.randrange(every) for block in range(0, n - every + 1, every)
    )


def _by_op(system: HopeSystem, names) -> Ledger:
    """Group the committed ``(op, ...)`` records of ``names`` by op."""
    ledger: Ledger = {}
    for name in names:
        for record in system.committed_outputs(name):
            ledger.setdefault(record[0], []).append(record)
    return ledger


def _finish(system: HopeSystem, names, max_events: Optional[int] = None) -> Outcome:
    makespan = system.run(max_events=max_events)
    return Outcome(makespan, system.stats(), _by_op(system, names))


def _fold(acc: int, bump: int, ok: bool) -> int:
    """One round of a worker's running checksum: order- and verdict-sensitive."""
    return (acc * 31 + bump + (0 if ok else 1)) % _MOD


def _round_ledger(name: str, bumps, denied) -> Ledger:
    """What a worker and its checker must commit for every round of
    ``bumps``, the rounds in ``denied`` pessimistically."""
    ledger, acc = {}, 0
    for i, bump in enumerate(bumps):
        ok = i not in denied
        acc = _fold(acc, bump, ok)
        ledger[(name, i)] = [((name, i), acc), ((name, i), "checked", ok)]
    return ledger


class Workload:
    """Base: subclasses set ``name``/``why`` and build inputs from a seed."""

    name = ""
    why = ""
    ops = 0
    #: One-way latency and the options that define the workload's system.
    latency = 1.0
    defining: dict = {}

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.scale = 10 if quick else 1
        self.rng = _rng(self.name, seed)

    def options(self, metrics=None, durable_dir=None) -> dict:
        return system_options(
            self.seed, self.latency, metrics=metrics,
            durable_dir=durable_dir, **self.defining,
        )

    def build(self, system: HopeSystem, spec: bool = True) -> None:
        """Spawn the process tree (``spec=False``: the pessimistic twin)."""
        raise NotImplementedError

    def emitters(self) -> list:
        """Names of the processes whose outputs form the ledger."""
        raise NotImplementedError

    def expected(self) -> Ledger:
        raise NotImplementedError

    def start(self, metrics=None, twin: bool = False, durable_dir=None) -> Callable[..., Outcome]:
        """Set a run up; the returned thunk runs it to quiescence.

        The twin is the pessimistic program: same work, every ``guess``
        replaced by waiting for the verdict message, same seed, never
        durable.
        """
        options = self.options(metrics, None if twin else durable_dir)
        system = HopeSystem(**options)
        self.build(system, spec=not twin)
        names = self.emitters()
        return lambda max_events=None: _finish(system, names, max_events)

    def failed_ops(self, ledger: Ledger) -> int:
        """Ops whose committed records disagree with the oracle."""
        expected = self.expected()
        wrong = sum(1 for op, records in expected.items() if ledger.get(op) != records)
        return min(self.ops, wrong + sum(1 for op in ledger if op not in expected))


# ---------------------------------------------------------------------------
# stream — the paper's Figure 2 against Figure 1
# ---------------------------------------------------------------------------
class Stream(Workload):
    name = "stream"
    why = (
        "the paper's headline row (Call Streaming vs Figure 1) and the long-log "
        "case where full replay from entry 0 dominates runtime.replay"
    )
    latency = 10.0

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        n = 1000 // self.scale
        fails = _one_in(self.rng, n, 10)          # PartPage holds with p = 0.9
        page = 1000
        self.config = call_streaming.CallStreamConfig(
            page_size=page,
            # a failing report overflows the page whatever came before it;
            # a holding one adds a few seeded lines, far too few to fill it
            report_lines=tuple(
                page + 1 if i in fails else self.rng.randint(1, 5) for i in range(n)
            ),
            latency=self.latency,
            n_warts=8,
        )
        self.ops = n

    def start(self, metrics=None, twin: bool = False, durable_dir=None):
        # The app's own drivers construct the Figure 1/2 systems.
        run = call_streaming.run_pessimistic if twin else call_streaming.run_optimistic

        def thunk(max_events=None) -> Outcome:
            result = run(self.config, seed=self.seed, metrics=metrics)
            return Outcome(result.makespan, result.stats, self._by_report(result.server_output))

        return thunk

    @staticmethod
    def _by_report(server_output) -> Ledger:
        """Group the print server's ledger by report; a newpage belongs to
        the report whose total it follows.  The line counter in every
        record makes the grouping sensitive to order across reports."""
        ledger: Ledger = {}
        op = None
        for record in server_output:
            if record[0] == "print":
                op = int(record[1].rsplit("-", 1)[1])
            ledger.setdefault(op, []).append(tuple(record))
        return ledger

    def expected(self) -> Ledger:
        return self._by_report(call_streaming.expected_output(self.config))


# ---------------------------------------------------------------------------
# pingpong — the hot path, nothing ever denied
# ---------------------------------------------------------------------------
def _ping(p, peer, warmup, payloads, spec):
    yield p.compute(warmup)
    acc = 0
    for i, payload in enumerate(payloads):
        if spec:
            x = yield p.aid_init("round")
            yield p.guess(x)
            yield p.send(peer, (x, payload))
        else:
            yield p.send(peer, None)
            yield p.recv()                         # the verdict
            yield p.send(peer, (None, payload))
        acc = (acc * 31 + (yield p.recv()).payload) % _MOD
        yield p.emit((i, acc))


def _pong(p, peer, rounds, spec):
    for _ in range(rounds):
        if not spec:
            yield p.recv()
            yield p.send(peer, True)
        x, payload = (yield p.recv()).payload
        if spec:
            yield p.affirm(x)
        yield p.send(peer, 2 * payload + 1)


class PingPong(Workload):
    name = "pingpong"
    why = (
        "hot path through runtime.engine, sim.channel, sim.kernel and the "
        "guess/affirm/finalize half of core.machine with the queue one event deep; "
        "bypasses rollback, replay, fossil, fault and durable layers"
    )

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.ops = 20_000 // self.scale
        self.warmup = round(self.rng.uniform(0.5, 1.5), 3)
        self.payloads = tuple(self.rng.randrange(_MOD) for _ in range(self.ops))

    def build(self, system, spec=True):
        system.spawn("pong", _pong, "ping", self.ops, spec)
        system.spawn("ping", _ping, "pong", self.warmup, self.payloads, spec)

    def emitters(self):
        return ["ping"]

    def expected(self) -> Ledger:
        ledger, acc = {}, 0
        for i, payload in enumerate(self.payloads):
            acc = (acc * 31 + 2 * payload + 1) % _MOD
            ledger[i] = [(i, acc)]
        return ledger


# ---------------------------------------------------------------------------
# cascade — the deny half: transitive rollback down relay chains
# ---------------------------------------------------------------------------
_PREFIX = 10          # definite p.now() effects before a process can speculate
_HOP = 3.0            # relay service time; one hop = _HOP + latency
_DEPTH = 16


def _root(p, tree, judge, first, start, payload, spec):
    for _ in range(_PREFIX):
        yield p.now()
    yield p.compute(start)
    if spec:
        x = yield p.aid_init("tree")
        yield p.send(judge, x)
        ok = yield p.guess(x)
    else:
        yield p.send(judge, None)
        ok = (yield p.recv()).payload
    # Branch-symmetric: a denied root sends the same work again, definite.
    yield p.send(first, payload)
    yield p.compute(1.0)
    yield p.emit(((tree, "root"), ok, payload))


def _relay(p, tree, index, nxt):
    for _ in range(_PREFIX):
        yield p.now()
    value = (yield p.recv()).payload
    yield p.compute(_HOP)
    if nxt is not None:
        yield p.send(nxt, (value * 7 + index) % _MOD)
    yield p.emit(((tree, index), value))


def _tree_judge(p, tree, root, wait, ok, spec):
    x = (yield p.recv()).payload
    yield p.compute(wait)
    if not spec:
        yield p.send(root, ok)
    elif ok:
        yield p.affirm(x)
    else:
        yield p.deny(x)
    yield p.emit(((tree, "judge"), ok))


class Cascade(Workload):
    name = "cascade"
    why = (
        "the deny half of core.machine, delivery retraction in sim.channel, "
        "short-log replay, and sim.kernel with thousands of pending events and "
        "cancellations: pingpong's layers used the opposite way"
    )

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.trees = 1000 // self.scale
        # Trees start in pairs, 0.7 apart; the second of each pair is denied
        # (the last tree never, so the optimistic makespan ends on an
        # affirmed one).  The verdict lands when the chain is 12 of 16 deep
        # with the 13th hop in flight: root + 12 relays roll back and one
        # delivery is retracted before arrival.  The seed moves each pair's
        # start and verdict time within those windows, and the payloads.
        self.inputs = []
        for t in range(self.trees):
            if t % 2 == 0:
                shift = round(self.rng.uniform(0.0, 0.35), 3)
                wait = 12 * (_HOP + self.latency) - round(self.rng.uniform(0.1, 0.9), 3)
            ok = t % 2 == 1
            self.inputs.append((0.7 * t + shift, wait, self.rng.randrange(_MOD), ok))
        self.ops = self.trees * (_DEPTH + 2)

    def build(self, system, spec=True):
        for t, (start, wait, payload, ok) in enumerate(self.inputs):
            root, judge = f"t{t}.root", f"t{t}.judge"
            relays = [f"t{t}.n{i}" for i in range(_DEPTH)]
            system.spawn(root, _root, t, judge, relays[0], start, payload, spec)
            system.spawn(judge, _tree_judge, t, root, wait, ok, spec)
            for i, name in enumerate(relays):
                nxt = relays[i + 1] if i + 1 < _DEPTH else None
                system.spawn(name, _relay, t, i, nxt)

    def emitters(self):
        return [
            f"t{t}.{member}"
            for t in range(self.trees)
            for member in ["root", "judge", *(f"n{i}" for i in range(_DEPTH))]
        ]

    def expected(self) -> Ledger:
        ledger = {}
        for t, (_start, _wait, payload, ok) in enumerate(self.inputs):
            ledger[(t, "root")] = [((t, "root"), ok, payload)]
            ledger[(t, "judge")] = [((t, "judge"), ok)]
            value = payload
            for i in range(_DEPTH):
                ledger[(t, i)] = [((t, i), value)]
                value = (value * 7 + i) % _MOD
        return ledger


# ---------------------------------------------------------------------------
# steady / durable — the long-horizon shape under fossil collection
# ---------------------------------------------------------------------------
def _counter(p, judge, rounds, bumps, spec, resume=None):
    state = resume if resume is not None else {"round": 0, "acc": 0}
    while state["round"] < rounds:
        i = state["round"]
        if spec:
            a = yield p.aid_init("round")
            yield p.send(judge, (a, p.name, i))
            ok = yield p.guess(a)
        else:
            yield p.send(judge, (None, p.name, i))
            ok = (yield p.recv()).payload
        yield p.compute(1.0 if ok else 2.0)
        state["acc"] = _fold(state["acc"], bumps[i], ok)
        yield p.emit(((p.name, i), state["acc"]))
        state["round"] += 1
        yield p.commit_point(dict(state))


def _counter_judge(p, total, denied, spec, resume=None):
    state = resume if resume is not None else {"seen": 0}
    while state["seen"] < total:
        a, name, i = (yield p.recv()).payload
        yield p.compute(0.3)
        ok = i not in denied[name]
        if not spec:
            yield p.send(name, ok)
        elif ok:
            yield p.affirm(a)
        else:
            yield p.deny(a)
        state["seen"] += 1
        yield p.emit(((name, i), "checked", ok))
        yield p.commit_point(dict(state))


class Steady(Workload):
    name = "steady"
    why = (
        "the long-horizon shape where core.fossil and rebased short-log replay "
        "do the work and peak_rss_mib is the metric that matters"
    )
    defining = {"fossil_collect": True}
    counters = 4
    rounds = 3000

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.rounds = self.rounds // self.scale
        self.names = [f"c{w}" for w in range(self.counters)]
        self.bumps = {
            name: tuple(self.rng.randrange(_MOD) for _ in range(self.rounds))
            for name in self.names
        }
        self.denied = {name: _one_in(self.rng, self.rounds, 4) for name in self.names}
        self.ops = self.counters * self.rounds

    def build(self, system, spec=True):
        system.spawn("judge", _counter_judge, self.ops, self.denied, spec)
        for name in self.names:
            system.spawn(name, _counter, "judge", self.rounds, self.bumps[name], spec)

    def emitters(self):
        return [*self.names, "judge"]

    def expected(self) -> Ledger:
        ledger = {}
        for name in self.names:
            ledger.update(_round_ledger(name, self.bumps[name], self.denied[name]))
        return ledger


class Durable(Steady):
    name = "durable"
    why = (
        "the steady program with durable_dir set: identical work plus the durable "
        "layer, so encode + WAL + fsync cost is the difference between two rows"
    )
    rounds = 1500

    def resume(self, durable_dir: str) -> Callable[..., Outcome]:
        """Reload a killed run from ``durable_dir``; the thunk finishes it."""
        system = HopeSystem.resume(durable_dir, self.build, **self.options())
        names = self.emitters()
        return lambda max_events=None: _finish(system, names, max_events)


# ---------------------------------------------------------------------------
# lossy — faults + reliable delivery
# ---------------------------------------------------------------------------
def _lossy_worker(p, validator, bumps, spec):
    acc = 0
    for i, bump in enumerate(bumps):
        if spec:
            x = yield p.aid_init("round")
            ok = yield p.guess(x)                  # guess before send: tagged
            yield p.send(validator, (x, i))
        else:
            yield p.send(validator, (None, i))
            ok = (yield p.recv()).payload
        yield p.compute(1.0)
        acc = _fold(acc, bump, ok)
        yield p.emit(((p.name, i), acc))


def _lossy_validator(p, worker, rounds, denied, spec):
    for _ in range(rounds):
        x, i = (yield p.recv()).payload
        ok = i not in denied
        if not spec:
            yield p.send(worker, ok)
        elif ok:
            yield p.affirm(x)
        else:
            yield p.deny(x)
        yield p.emit(((worker, i), "checked", ok))


_NETWORK_SEED = 1995


class Lossy(Workload):
    name = "lossy"
    why = (
        "the only shape where sim.faults and runtime.resilience run, and where "
        "sim.kernel serves ack timers that are mostly cancelled"
    )
    rounds = 25

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.pairs = 256 // self.scale
        self.defining = {
            "faults": FaultPlan(
                default=LinkFaults(
                    drop=0.05, duplicate=0.05, reorder=0.1, reorder_window=4, jitter=1
                )
            ),
            "reliable": ReliableConfig(),
        }
        self.bumps = [
            tuple(self.rng.randrange(_MOD) for _ in range(self.rounds))
            for _ in range(self.pairs)
        ]
        # The loss pattern and the denied rounds are part of the workload,
        # not of the seed: quiescence under random loss waits for the longest
        # run of retry back-offs, and across ten network seeds that makespan
        # ranged 73-143.  No bound could tell a regression from a reseed, so
        # the benchmark seed moves only the payloads.
        self.seed = _NETWORK_SEED
        network = _rng(self.name, _NETWORK_SEED)
        self.denied = [_one_in(network, self.rounds, 8) for _ in range(self.pairs)]
        self.ops = self.pairs * self.rounds

    def build(self, system, spec=True):
        for k in range(self.pairs):
            worker, validator = f"w{k}", f"v{k}"
            system.spawn(validator, _lossy_validator, worker, self.rounds, self.denied[k], spec)
            system.spawn(worker, _lossy_worker, validator, self.bumps[k], spec)

    def emitters(self):
        return [f"{role}{k}" for k in range(self.pairs) for role in "wv"]

    def expected(self) -> Ledger:
        ledger = {}
        for k in range(self.pairs):
            ledger.update(_round_ledger(f"w{k}", self.bumps[k], self.denied[k]))
        return ledger


WORKLOADS = {cls.name: cls for cls in (Stream, PingPong, Cascade, Steady, Durable, Lossy)}
