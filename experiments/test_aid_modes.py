"""Experiment AIDMODE: centralized registry vs distributed AID tasks (§7).

The paper's prototype runs dependency tracking over PVM messages; the
runtime idealizes that to a registry with zero latency.  The sweep raises
the latency of the AID-task timing model below and measures what
distribution costs: control traffic, wasted speculation (victims keep
computing until the NOTIFY lands), and end-to-end makespan — with
committed output equivalence asserted throughout.
"""

from repro.apps.call_streaming import (
    CallStreamConfig,
    expected_output,
    oneway_gateway,
    optimistic_worker,
    print_server,
    worrywart,
)
from repro.bench import format_table, sweep
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, LinkLatency

from . import check_table

CONTROL_LATENCIES = [0.0, 0.5, 2.0, 5.0, 10.0]


class AidTaskTiming:
    """§7's AID tasks as a timing model wrapped around one system's machine.

    Every ``affirm`` / ``deny`` / ``free_of`` is a control message that
    reaches the AID task ``control_latency`` later; the caller never
    blocks.  Each restart the delayed primitive causes is one NOTIFY
    message, and the victim restarts ``control_latency`` later still.  A
    guess sends one DEPEND registration per dependency it adds.
    ``messages`` counts all three kinds.

    Delayed application commutes with the runtime's lenient
    resolution-conflict policy, so a run reaches the same AID statuses and
    committed outputs as on the registry; only timing and wasted work
    differ.
    """

    def __init__(self, system: HopeSystem, control_latency: float) -> None:
        self.system = system
        self.control_latency = control_latency
        self.messages = 0
        self._applying = False
        machine = system.machine
        for name in ("affirm", "deny", "free_of"):
            setattr(machine, name, self._delayed(getattr(machine, name)))
        guess, guess_many = machine.guess, machine.guess_many

        def depend_guess(pid, aid, ps=None):
            value = guess(pid, aid, ps)
            if value and aid.pending:            # a real interval opened
                self.messages += 1
            return value

        def depend_guess_many(pid, aids, ps=None):
            interval = guess_many(pid, aids, ps)
            if interval is not None:
                self.messages += len(aids)
            return interval

        machine.guess, machine.guess_many = depend_guess, depend_guess_many

    def _delayed(self, primitive):
        def send(pid, aid, *args, **kwargs):
            if self._applying:       # free_of resolving through affirm/deny
                return primitive(pid, aid, *args, **kwargs)
            self.messages += 1
            self.system.sim.schedule(
                self.control_latency, self._apply, primitive, pid, aid,
                label=f"aidctl:{primitive.__name__}:{aid.key}",
            )

        return send

    def _restarts(self) -> int:
        return sum(proc.restarts for proc in self.system.procs.values())

    def _apply(self, primitive, pid, aid) -> None:
        system = self.system
        overhead = system.rollback_overhead
        before = self._restarts()
        self._applying = True
        system.rollback_overhead = overhead + self.control_latency  # NOTIFY
        try:
            primitive(pid, aid)
        finally:
            self._applying = False
            system.rollback_overhead = overhead
        self.messages += self._restarts() - before


def _run(control_latency: float):
    config = CallStreamConfig(report_lines=(30, 70, 20, 70, 10), page_size=60)
    links = LinkLatency(default=ConstantLatency(config.latency))
    links.set_link("worker", "worrywart-0", ConstantLatency(config.wart_latency))
    links.set_link("worrywart-0", "worker", ConstantLatency(config.wart_latency))
    links.set_link("server_oneway", "server", ConstantLatency(0.0))
    links.set_link("server", "server_oneway", ConstantLatency(0.0))
    system = HopeSystem(latency=links)
    timing = AidTaskTiming(system, control_latency) if control_latency else None
    system.spawn("server", print_server, config.page_size, config.server_service_time)
    system.spawn("server_oneway", oneway_gateway)
    system.spawn("worrywart-0", worrywart, config, config.n_reports)
    system.spawn("worker", optimistic_worker, config)
    makespan = system.run(max_events=2_000_000)
    assert system.committed_outputs("server") == expected_output(config)
    return system, makespan, timing


def run_latency(control_latency: float) -> dict:
    system, makespan, timing = _run(control_latency)
    stats = system.stats()
    return {
        "mode": "registry" if timing is None else "aid_task",
        "makespan": makespan,
        "control_msgs": 0 if timing is None else timing.messages,
        "wasted": stats["wasted_time"],
        "rollbacks": stats["rollbacks"],
    }


def test_aid_modes():
    result = sweep("ctl latency", CONTROL_LATENCIES, run_latency)
    metrics = ["mode", "makespan", "control_msgs", "wasted", "rollbacks"]
    check_table(
        "aid_modes",
        format_table(
            "AIDMODE — registry vs distributed AID-task control plane "
            "(page-full workload, output equivalence asserted)",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    # distribution costs messages the registry never sends
    assert result.column("control_msgs")[0] == 0
    assert all(c > 0 for c in result.column("control_msgs")[1:])
    # slower control plane ⇒ no faster recovery (weakly monotone makespan)
    spans = result.column("makespan")
    assert spans[1] <= spans[-1]
