"""speculation=False: every guess blocks until resolution.

The same program text runs pessimistically — the universal ablation: no
intervals, no rollbacks, no withdrawn outputs, and the guess returns the
*actual* truth of the assumption.
"""

import pytest

from repro.apps.call_streaming import (
    CallStreamConfig,
    expected_output,
    oneway_gateway,
    optimistic_worker,
    print_server,
    worrywart,
)
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, LinkLatency


def _program(decision):
    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("verifier", x)
        if (yield p.guess(x)):
            yield p.emit("optimistic-branch")
        else:
            yield p.emit("pessimistic-branch")
        yield p.emit((yield p.now()))

    def verifier(p):
        msg = yield p.recv()
        yield p.compute(5.0)
        if decision == "affirm":
            yield p.affirm(msg.payload)
        else:
            yield p.deny(msg.payload)

    return worker, verifier


@pytest.mark.parametrize(
    "decision,branch", [("affirm", "optimistic-branch"), ("deny", "pessimistic-branch")]
)
def test_blocking_guess_returns_actual_truth(decision, branch):
    system = HopeSystem(speculation=False)
    worker, verifier = _program(decision)
    system.spawn("worker", worker)
    system.spawn("verifier", verifier)
    system.run()
    outputs = system.committed_outputs("worker")
    assert outputs[0] == branch
    assert outputs[1] >= 5.0             # really waited for the verdict
    assert system.stats()["rollbacks"] == 0
    assert system.stats()["intervals_discarded"] == 0


def test_pessimistic_mode_never_creates_intervals():
    system = HopeSystem(speculation=False)
    worker, verifier = _program("affirm")
    system.spawn("worker", worker)
    system.spawn("verifier", verifier)
    system.run()
    for record in system.machine.processes.values():
        assert not record.intervals
    assert system.network.tag_count_total == 0


def test_speculative_and_pessimistic_commit_identically():
    for decision in ("affirm", "deny"):
        ledgers = {}
        for speculation in (True, False):
            system = HopeSystem(speculation=speculation)
            worker, verifier = _program(decision)
            system.spawn("worker", worker)
            system.spawn("verifier", verifier)
            system.run()
            ledgers[speculation] = system.committed_outputs("worker")[0]
        assert ledgers[True] == ledgers[False]


def test_speculation_beats_blocking_on_makespan():
    def worker(p):
        x = yield p.aid_init("x")
        yield p.send("verifier", x)
        yield p.guess(x)
        yield p.compute(4.0)           # overlaps verification when speculative

    def verifier(p):
        msg = yield p.recv()
        yield p.compute(5.0)
        yield p.affirm(msg.payload)

    def build(speculation):
        system = HopeSystem(speculation=speculation)
        system.spawn("worker", worker)
        system.spawn("verifier", verifier)
        return system.run()

    assert build(True) == 5.0          # compute hidden inside the wait
    assert build(False) == 9.0         # wait, then compute


def test_call_streaming_under_blocking_mode():
    """Figure 2's program, executed without speculation, still prints the
    serial ledger — it just pays the waits (a Figure 1.5, as it were)."""
    config = CallStreamConfig(report_lines=(30, 70, 20), page_size=60)
    links = LinkLatency(default=ConstantLatency(config.latency))
    links.set_link("worker", "worrywart-0", ConstantLatency(config.wart_latency))
    links.set_link("worrywart-0", "worker", ConstantLatency(config.wart_latency))
    links.set_link("server_oneway", "server", ConstantLatency(0.0))
    links.set_link("server", "server_oneway", ConstantLatency(0.0))
    system = HopeSystem(latency=links, speculation=False)
    system.spawn("server", print_server, config.page_size, config.server_service_time)
    system.spawn("server_oneway", oneway_gateway)
    system.spawn("worrywart-0", worrywart, config, config.n_reports)
    system.spawn("worker", optimistic_worker, config)
    system.run(max_events=2_000_000)
    assert system.committed_outputs("server") == expected_output(config)
    assert system.stats()["rollbacks"] == 0
