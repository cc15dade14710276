"""Ablation: what exactly does speculation buy?

Three executions of the report workload, all committing the identical
ledger:

* **figure1** — the pessimistic program (synchronous RPCs, no WorryWart);
* **blocking** — the *Figure 2 program* with ``speculation=False``: the
  structure (parallel WorryWart verification) without the optimism
  (guesses block until verdicts arrive);
* **hope** — full speculation.

The gap between figure1 and blocking is what *restructuring* buys; the
gap between blocking and hope is what *optimism itself* buys — the
decomposition the paper's §2/§3 argument implies but never measures.
"""

from repro.apps.call_streaming import (
    expected_output,
    oneway_gateway,
    optimistic_worker,
    print_server,
    run_pessimistic,
    worrywart,
)
from repro.bench import format_table, streaming_config, sweep
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, LinkLatency

from . import check_table

LATENCIES = [2.0, 10.0, 25.0, 50.0]


def _figure2_system(config, speculation: bool) -> HopeSystem:
    links = LinkLatency(default=ConstantLatency(config.latency))
    for w in range(config.n_warts):
        wart = f"worrywart-{w}"
        links.set_link("worker", wart, ConstantLatency(config.wart_latency))
        links.set_link(wart, "worker", ConstantLatency(config.wart_latency))
    links.set_link("server_oneway", "server", ConstantLatency(0.0))
    links.set_link("server", "server_oneway", ConstantLatency(0.0))
    system = HopeSystem(latency=links, speculation=speculation)
    system.spawn("server", print_server, config.page_size, config.server_service_time)
    system.spawn("server_oneway", oneway_gateway)
    for w in range(config.n_warts):
        expected = len(range(w, config.n_reports, config.n_warts))
        system.spawn(f"worrywart-{w}", worrywart, config, expected)
    system.spawn("worker", optimistic_worker, config)
    return system


def run_latency(latency: float) -> dict:
    config = streaming_config(n_reports=10, latency=latency)
    reference = expected_output(config)
    figure1 = run_pessimistic(config).makespan
    blocking_system = _figure2_system(config, speculation=False)
    blocking = blocking_system.run(max_events=2_000_000)
    assert blocking_system.committed_outputs("server") == reference
    hope_system = _figure2_system(config, speculation=True)
    hope = hope_system.run(max_events=2_000_000)
    assert hope_system.committed_outputs("server") == reference
    return {
        "figure1": figure1,
        "blocking": blocking,
        "hope": hope,
        "restructure_gain_pct": 100 * (figure1 - blocking) / figure1,
        "optimism_gain_pct": 100 * (blocking - hope) / blocking,
    }


def test_speculation_toggle():
    result = sweep("latency", LATENCIES, run_latency)
    metrics = [
        "figure1",
        "blocking",
        "hope",
        "restructure_gain_pct",
        "optimism_gain_pct",
    ]
    check_table(
        "speculation_toggle",
        format_table(
            "ABLATION — restructuring vs optimism (10 reports, identical ledger)",
            result.headers(metrics),
            result.rows(metrics),
        ),
    )
    for figure1, blocking, hope in zip(
        result.column("figure1"), result.column("blocking"), result.column("hope")
    ):
        assert hope < blocking <= figure1 * 1.01
    # optimism itself contributes substantially, beyond restructuring
    assert min(result.column("optimism_gain_pct")) > 20.0
