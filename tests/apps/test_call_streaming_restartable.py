"""Call Streaming on the commit frontier: restartable bodies.

Every Figure 2 body takes ``resume=`` and declares a commit point per
loop iteration, and ``run_optimistic`` runs with ``fossil_collect=True``:
a restart replays the speculative window, not the run so far.  That must
be invisible in everything simulated — makespan, the committed ledger,
every machine count — and visible only in how much is replayed.
"""

from functools import partial

import pytest

import repro.apps.call_streaming as cs
from repro.apps.call_streaming import (
    CallStreamConfig,
    expected_output,
    run_optimistic,
    run_pessimistic,
)

N_REPORTS = 72


def _lines(failing) -> tuple:
    """Report heights: a failing report overflows the page whatever came
    before it, a holding one adds too few lines to matter."""
    return tuple(1001 if i in failing else 1 + i % 4 for i in range(N_REPORTS))


#: name -> config overrides.  ``holds``: every PartPage assumption holds;
#: ``page-breaks``: every sixth report overflows the page (PartPage
#: denied); ``order-races``: S3 overtakes S1 on every third report (Order
#: denied by free_of) on top of the page breaks.
PATTERNS = {
    "holds": dict(report_lines=_lines(())),
    "page-breaks": dict(report_lines=_lines(range(5, N_REPORTS, 6))),
    "order-races": dict(
        report_lines=_lines(range(7, N_REPORTS, 8)),
        summary_prep_per_report=tuple(
            0.0 if i % 3 == 0 else 2.0 for i in range(N_REPORTS)
        ),
        wart_latency=3.0,
    ),
}

_COUNTS = ("guesses", "implicit_guesses", "affirms", "denies", "finalizes",
           "rollbacks", "intervals_discarded")


def _config(pattern: str, n_warts: int) -> CallStreamConfig:
    return CallStreamConfig(
        page_size=1000, latency=10.0, n_warts=n_warts, **PATTERNS[pattern]
    )


def _run_without_frontier(config: CallStreamConfig, seed: int):
    """``run_optimistic`` with collection switched off: the same program,
    every commit point a no-op, every restart a replay from process start."""
    system = cs._build_system(config, seed, None, fossil_collect=False)
    cs._spawn_optimistic(system, config)
    return cs._collect(system, system.run())


# ------------------------------------------------------ (i) fossil on vs off
@pytest.mark.parametrize("n_warts", [1, 3, 8])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_commit_frontier_changes_nothing_simulated(pattern, n_warts):
    config = _config(pattern, n_warts)
    on = run_optimistic(config, seed=3)
    off = _run_without_frontier(config, seed=3)
    assert on.makespan == off.makespan
    assert on.server_output == off.server_output == expected_output(config)
    for key in _COUNTS:
        assert on.stats[key] == off.stats[key], key
    assert on.stats["restarts"] == off.stats["restarts"]
    assert on.wasted_time == off.wasted_time
    # ... and the frontier really ran: prefixes dropped, less replayed
    assert on.stats["fossil_collections"] >= 1
    assert on.stats["fossil_log_dropped"] > 0
    assert off.stats["fossil_collections"] == 0
    if on.stats["restarts"]:
        assert on.stats["replayed_effects"] < off.stats["replayed_effects"]


# ------------------------------------------------- (ii) cold start from resume
def _resume_states(config: CallStreamConfig, k: int) -> dict:
    """The state each body commits after report ``k - 1`` is fully served."""
    line = 0
    newpages = 0
    for op in expected_output(config):
        if op[0] == "print" and int(op[1].rsplit("-", 1)[1]) >= k:
            break
        line = 0 if op[0] == "newpage" else op[2]
        newpages += op[0] == "newpage"
    return {
        "server": line,
        "gateway": k,                       # one forwarded S3 per report
        "warts": [len(range(w, k, config.n_warts)) for w in range(config.n_warts)],
        "worker": (k, newpages),            # one newpage RPC per failed guess
    }


@pytest.mark.parametrize("k", [1, 6, 17, N_REPORTS - 1])
@pytest.mark.parametrize("pattern", ["page-breaks", "order-races"])
def test_bodies_started_from_a_mid_run_state_finish_the_same_ledger(pattern, k):
    """Start every body cold with the state it commits after ``k`` reports:
    the run must print exactly the rest of the serial ledger (under
    ``page-breaks`` k = 6 lands right after a break, so the resumed line
    counter is mid-page)."""
    config = _config(pattern, n_warts=3)
    states = _resume_states(config, k)
    system = cs._build_system(config, 3, None)
    # partial, not a positional argument: a rebased restart calls the body
    # with its own resume= keyword, which must win over the cold-start one
    system.spawn("server", partial(cs.print_server, resume=states["server"]),
                 config.page_size, config.server_service_time)
    system.spawn("server_oneway", partial(cs.oneway_gateway, resume=states["gateway"]))
    for w in range(config.n_warts):
        expected = len(range(w, config.n_reports, config.n_warts))
        system.spawn(f"worrywart-{w}",
                     partial(cs.worrywart, resume=states["warts"][w]),
                     config, expected)
    system.spawn("worker", partial(cs.optimistic_worker, resume=states["worker"]),
                 config)
    system.run()
    rest = [
        op for op in _ledger_by_report(expected_output(config)) if op[0] >= k
    ]
    assert _ledger_by_report(system.committed_outputs("server")) == rest
    assert all(system.is_done(f"worrywart-{w}") for w in range(config.n_warts))
    assert system.is_done("worker")
    system.machine.check_invariants()


def _ledger_by_report(ledger) -> list:
    """Tag each ledger entry with the report it belongs to (a newpage
    belongs to the report whose total precedes it)."""
    out, report = [], None
    for op in ledger:
        if op[0] == "print":
            report = int(op[1].rsplit("-", 1)[1])
        out.append((report, op))
    return out


# ------------------------------------------------ (iii) restart cost scaling
def _benchmark_shape(n: int) -> CallStreamConfig:
    """The `stream` benchmark workload's shape: one failure per ten."""
    return CallStreamConfig(
        page_size=1000,
        report_lines=tuple(1001 if i % 10 == 7 else 1 + i % 5 for i in range(n)),
        latency=10.0,
        n_warts=8,
    )


def test_restart_cost_follows_the_window_not_the_run():
    """Counts, not seconds: entries replayed per restart must not grow
    with the length of the run (it grew ~4x from 100 to 400 reports when
    every restart replayed from entry 0)."""
    per_restart = {}
    for n in (100, 400):
        stats = run_optimistic(_benchmark_shape(n), seed=3).stats
        assert stats["restarts"] >= n // 10
        per_restart[n] = stats["replayed_effects"] / stats["restarts"]
    assert per_restart[400] <= 1.5 * per_restart[100], per_restart
    # the ablation is what the bound is there to exclude
    off = {
        n: _run_without_frontier(_benchmark_shape(n), seed=3).stats
        for n in (100, 400)
    }
    growth = (off[400]["replayed_effects"] / off[400]["restarts"]) / (
        off[100]["replayed_effects"] / off[100]["restarts"]
    )
    assert growth > 3.0, growth


# ------------------------------------------------- (iv) Figure 1 is untouched
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_pessimistic_run_unchanged(pattern):
    """Figure 1 never restarts: its makespan is the closed form (a round
    trip per RPC) and its ledger the serial one, commit points or not."""
    config = _config(pattern, n_warts=1)
    result = run_pessimistic(config, seed=3)
    ledger = expected_output(config)
    assert result.server_output == ledger
    round_trip = 2 * config.latency + config.server_service_time
    rpcs = len(ledger)                      # S1 + S3 per report, S2 per break
    thinking = sum(
        config.local_compute + config.prep_for(i) for i in range(config.n_reports)
    )
    assert result.makespan == pytest.approx(rpcs * round_trip + thinking, abs=1e-9)
    assert result.rollbacks == 0 and result.stats["restarts"] == 0
    assert result.messages == 2 * rpcs
