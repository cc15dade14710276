"""Workload generators shared by the benchmark suite."""

from __future__ import annotations

from typing import Optional

from ..apps.call_streaming import CallStreamConfig
from ..apps.virtual_time import Job, VtWorkload
from ..baselines.timewarp import Emission
from ..sim import RandomStreams


def streaming_config(
    n_reports: int = 10,
    latency: float = 25.0,
    page_size: int = 10_000,
    n_warts: Optional[int] = None,
    local_compute: float = 1.0,
    summary_prep: float = 2.0,
    rollback_overhead: float = 0.0,
) -> CallStreamConfig:
    """A happy-path call-streaming workload (pages never fill)."""
    if n_warts is None:
        n_warts = n_reports           # fully pipelined verification
    return CallStreamConfig(
        report_lines=tuple([10] * n_reports),
        page_size=page_size,
        latency=latency,
        n_warts=n_warts,
        local_compute=local_compute,
        summary_prep=summary_prep,
        rollback_overhead=rollback_overhead,
    )


def probabilistic_config(
    n_reports: int,
    success_probability: float,
    seed: int = 0,
    latency: float = 25.0,
    rollback_overhead: float = 0.0,
    n_warts: Optional[int] = None,
) -> CallStreamConfig:
    """A call-streaming workload where each report fills the page (the
    PartPage assumption fails) with probability ``1 - success_probability``.

    Report heights are derived by tracking the server's line counter, so
    each report's outcome is exactly the drawn one regardless of history:
    successes add a single line; failures add exactly enough to exceed
    the page (which then resets via S2's newpage).
    """
    if not 0.0 <= success_probability <= 1.0:
        raise ValueError(f"probability must be in [0,1], got {success_probability}")
    page_size = max(1000, 4 * n_reports)
    summary_lines = 1
    stream = RandomStreams(seed)["pageload"]
    lines = []
    line = 0
    for _ in range(n_reports):
        if stream.bernoulli(success_probability):
            lines.append(1)                       # line stays within the page
            line += 1 + summary_lines
        else:
            lines.append(page_size - line + 10)   # exceeds: S2 fires
            line = summary_lines                  # newpage, then the summary
    if n_warts is None:
        n_warts = n_reports
    return CallStreamConfig(
        report_lines=tuple(lines),
        page_size=page_size,
        summary_lines=summary_lines,
        latency=latency,
        n_warts=n_warts,
        rollback_overhead=rollback_overhead,
    )


def vt_workload(
    n_senders: int,
    jobs_per_sender: int,
    vt_step: float = 3.0,
    spacing: float = 1.5,
) -> VtWorkload:
    """Interleaved timestamp streams for the Time Warp comparison."""
    streams = []
    for s in range(n_senders):
        jobs = tuple(
            Job(0.5 + s * (vt_step / (n_senders + 1)) + vt_step * i, s * 1000 + i)
            for i in range(jobs_per_sender)
        )
        streams.append(jobs)
    return VtWorkload(streams=tuple(streams), send_spacing=spacing)


# ---------------------------------------------------------------------------
# chaos workloads (repro.chaos)
#
# Built for twin-equality checking under faults: every emission is
# *branch-symmetric* — the speculative (guess=True) and pessimistic
# (guess=False after a deny) executions emit the same values — which is
# the paper's own correctness contract for optimistic programs (§2: the
# guess only changes *when* work happens, not *what* is computed).  The
# committed-output multiset of a faulty run therefore has to match its
# fault-free twin's, whatever the fault plan did to message timing.
# ---------------------------------------------------------------------------


def chaos_deny_predicate(name: str, round_index: int) -> bool:
    """Deterministic affirm/deny choice (no salted ``hash()`` — this must
    be identical across interpreter runs for twin equality)."""
    return (sum(ord(c) for c in name) + 3 * round_index) % 3 == 0


def chaos_worker(p, validator: str, rounds: int):
    """Guesses an assumption per round, ships it to the validator, and
    emits a branch-symmetric record; the validator resolves the AID."""
    for i in range(rounds):
        x = yield p.aid_init(f"{p.name}-r{i}")
        yield p.guess(x)
        yield p.send(validator, ("check", x, p.name, i))
        yield p.compute(1.0)
        yield p.emit((p.name, i))
    return rounds


def chaos_validator(p, total: int):
    """Resolves each worker assumption by the deterministic predicate.

    Dead messages (retracted by a rollback upstream) never reach the
    body, so the loop index only advances on live deliveries — each
    worker round completes exactly once however often it was replayed.
    """
    for _ in range(total):
        msg = yield p.recv()
        _kind, x, name, i = msg.payload
        if chaos_deny_predicate(name, i):
            yield p.deny(x)
        else:
            yield p.affirm(x)
        yield p.emit(("checked", name, i))
    return total


def build_chaos_mesh(system, workers: int = 3, rounds: int = 3) -> None:
    """Fan-in mesh: N speculative workers against one validator.

    Exercises tagged sends, implicit guesses, definite denies with
    cross-process cascades, and speculative affirms — under whatever the
    fault plan throws at the links.
    """
    system.spawn("validator", chaos_validator, workers * rounds)
    for w in range(workers):
        system.spawn(f"w{w}", chaos_worker, "validator", rounds)


def chaos_ring_node(p, nxt: str, visits: int):
    """One ring node: receive the token, guess, emit, forward, affirm.

    Every 7th hop is denied instead of affirmed, forcing a rollback
    cascade down the ring; the re-execution forwards the same token, so
    the committed hop log is unchanged.
    """
    for _ in range(visits):
        msg = yield p.recv()
        hops = msg.payload
        x = yield p.aid_init(f"h{hops}")
        yield p.guess(x)
        yield p.emit(("hop", hops))
        if hops > 1:
            yield p.send(nxt, hops - 1)
        if hops % 7 == 0:
            yield p.deny(x)
        else:
            yield p.affirm(x)
    return visits


def chaos_ring_driver(p, first: str, total: int):
    yield p.send(first, total)
    return total


def build_chaos_ring(system, nodes: int = 4, laps: int = 2) -> None:
    """Token ring: a token circulates ``laps`` times over ``nodes``
    speculative hops, each tagged with the forwarding node's assumption."""
    names = [f"n{i}" for i in range(nodes)]
    total = nodes * laps
    for i, name in enumerate(names):
        system.spawn(name, chaos_ring_node, names[(i + 1) % nodes], laps)
    system.spawn("driver", chaos_ring_driver, names[0], total)


def counter_worker(p, judge: str, rounds: int, resume=None):
    """Commit-point worker for the durable kill/resume workload.

    Deterministic end to end (the judge's verdict is a pure function of
    the round index, and no ``p.random()`` is drawn), so the committed
    outputs are independent of crash timing — the property the durable
    twin check relies on.  ``resume=`` receives the last ``commit_point``
    state after a fossil rebase, exactly like the fossil-runtime tests.
    """
    state = resume if resume is not None else {"round": 0, "acc": 0}
    while state["round"] < rounds:
        i = state["round"]
        a = yield p.aid_init(f"{p.name}-c{i}")
        yield p.send(judge, (a, p.name, i))
        if (yield p.guess(a)):
            yield p.compute(1.0)
            state["acc"] += 3
        else:
            yield p.compute(2.0)
            state["acc"] -= 1
        yield p.emit((p.name, i, state["acc"]))
        state["round"] += 1
        yield p.commit_point(dict(state))
    return state["acc"]


def counter_judge(p, total: int, resume=None):
    """Affirms/denies each counter round by the deterministic predicate,
    snapshotting its own progress at every commit point."""
    state = resume if resume is not None else {"seen": 0}
    while state["seen"] < total:
        msg = yield p.recv()
        a, name, i = msg.payload
        yield p.compute(0.3)
        if chaos_deny_predicate(name, i):
            yield p.deny(a)
        else:
            yield p.affirm(a)
        state["seen"] += 1
        yield p.emit(("judged", name, i))
        yield p.commit_point(dict(state))
    return state["seen"]


def build_durable_counter(system, workers: int = 2, rounds: int = 4) -> None:
    """Commit-point counters judged centrally: the durable subsystem's
    reference workload (base-aware snapshots, fossil-trimmed WALs)."""
    system.spawn("judge", counter_judge, workers * rounds)
    for w in range(workers):
        system.spawn(f"c{w}", counter_worker, "judge", rounds)


def counting_ring_handler(state, vt, payload):
    """The Time Warp ring workload handler (pure & deterministic)."""
    state["count"] += 1
    state["checksum"] = (state["checksum"] * 131 + int(vt * 100) + payload) % 999_983
    hops = payload
    if hops > 0:
        return [Emission(state["next"], state["delay"], hops - 1)]
    return []


def build_tw_ring(engine_or_oracle, n_lps: int, hops: int, delay: float = 1.7) -> None:
    """Install the counting ring on a TimeWarpEngine or SequentialOracle."""
    names = [f"lp{i}" for i in range(n_lps)]
    for index, name in enumerate(names):
        state = {
            "count": 0,
            "checksum": 7,
            "next": names[(index + 1) % n_lps],
            "delay": delay,
        }
        engine_or_oracle.add_lp(name, counting_ring_handler, state)
    engine_or_oracle.inject("lp0", 1.0, hops)
