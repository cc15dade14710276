"""Call Streaming — the paper's worked example (Figures 1 and 2).

A Worker produces reports.  For each report it must, against a remote
print server:

* **S1** — print the report total (an RPC returning the current line);
* **S2** — if the page is now full, start a new page;
* **S3** — print the summary.

Figure 1 (pessimistic): S1, S2, S3 are synchronous RPCs; the Worker idles
for a round trip per call.  Figure 2 (optimistic): the Worker guesses the
page is **not** full (AID ``PartPage``), skips S2, and streams S3
immediately, while a **WorryWart** process runs S1 concurrently and
affirms or denies ``PartPage``.  A second AID, ``Order``, guards against
S3's message overtaking S1 at the server: the WorryWart asserts
``free_of(Order)``, which denies ``Order`` (rolling everything back) iff
the reply that carried S1's line number was contaminated by S3's
speculative execution.

The server's committed output (the sequence of print/newpage operations)
must be identical under both versions — that equivalence is asserted by
the integration tests and is the system-level correctness statement of
the reproduction.

Knobs that shape the experiments (see DESIGN.md §4):

* ``summary_prep`` — worker think time before streaming S3.  S1 leaves
  the (idle) WorryWart ``wart_latency`` after the report is handed over;
  S3 leaves the worker after ``summary_prep``.  Both travel the same
  distance to the server, so with an idle wart the Order violation occurs
  deterministically iff ``summary_prep < wart_latency``.  A *busy* wart
  (more in-flight reports than warts) delays S1 further and can lose the
  race even with a large prep — load-dependent assumption failure, which
  the CASCADE/SWEEP benchmarks exploit.
* ``n_warts`` — parallel WorryWarts (round-robin).  One wart serializes
  verification at one S1 round-trip per report; more warts pipeline it,
  which is what pushes the latency gain toward the paper's "up to 80%".

Multi-report runs preserve inter-report server order structurally
(``local_compute > 0`` plus constant per-link latency keeps S3(i) ahead
of S1(i+1)); the intra-report S1/S3 race is the one the paper's Order
AID guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..runtime import HopeSystem, call
from ..runtime.messages import RpcReply
from ..sim import ConstantLatency, LinkLatency, Span, Tracer


@dataclass(frozen=True)
class CallStreamConfig:
    """Workload and network parameters for the Figure 1/2 scenario.

    ``report_lines[i]`` is how many lines report *i*'s total-print adds;
    S2 fires (a new page starts) when the line counter exceeds
    ``page_size`` after S1.  All latencies are one-way virtual time.
    """

    page_size: int = 60
    report_lines: tuple = (10,)
    summary_lines: int = 1
    latency: float = 10.0                 # one-way latency to the server
    wart_latency: float = 1.0             # worker -> worrywart (near-local)
    server_service_time: float = 0.5
    local_compute: float = 1.0            # worker app work per report
    summary_prep: float = 2.0             # think time before streaming S3
    summary_prep_per_report: Optional[tuple] = None
    rollback_overhead: float = 0.0
    n_warts: int = 1

    @property
    def n_reports(self) -> int:
        return len(self.report_lines)

    def prep_for(self, index: int) -> float:
        if self.summary_prep_per_report is not None:
            return self.summary_prep_per_report[index]
        return self.summary_prep


@dataclass
class CallStreamResult:
    """Outcome of one run: timing, the server's committed ledger, stats."""

    makespan: float
    server_output: list = field(default_factory=list)
    worker_busy: float = 0.0
    worker_blocked: float = 0.0
    wasted_time: float = 0.0
    rollbacks: int = 0
    messages: int = 0
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the shared print server
# ---------------------------------------------------------------------------
def print_server(p, page_size: int, service_time: float, resume=None):
    """A page-oriented print service.

    Operations (all RPCs): ``("print", label, nlines)`` appends ``nlines``
    and replies with the line counter after printing; ``("newpage",)``
    resets the counter.  Every committed operation is emitted to the
    output ledger, which is the observable the equivalence tests compare.

    Restartable: ``resume`` is the line counter after the last served
    request.
    """
    line = 0 if resume is None else resume
    while True:
        msg = yield p.recv()
        request = msg.payload
        op = request.body
        yield p.compute(service_time)
        if op[0] == "print":
            _, label, nlines = op
            line += nlines
            yield p.emit(("print", label, line))
            yield p.reply(msg, line)
        elif op[0] == "newpage":
            line = 0
            yield p.emit(("newpage",))
            yield p.reply(msg, 0)
        else:
            raise ValueError(f"unknown print-server op {op!r}")
        yield p.commit_point(line)


# ---------------------------------------------------------------------------
# Figure 1: the pessimistic worker
# ---------------------------------------------------------------------------
def pessimistic_worker(p, config: CallStreamConfig):
    """Synchronous RPCs, exactly as Figure 1: wait for every answer."""
    corr = 0
    for index, nlines in enumerate(config.report_lines):
        yield p.compute(config.local_compute)
        # S1: print the total, learn the line number.
        line = yield from call(p, "server", ("print", f"total-{index}", nlines), corr)
        corr += 1
        # S2: conditional new page.
        if line > config.page_size:
            yield from call(p, "server", ("newpage",), corr)
            corr += 1
        # S3: print the summary (after the same think time as Figure 2).
        yield p.compute(config.prep_for(index))
        yield from call(
            p, "server", ("print", f"summary-{index}", config.summary_lines), corr
        )
        corr += 1


# ---------------------------------------------------------------------------
# Figure 2: the optimistic worker + WorryWart(s)
# ---------------------------------------------------------------------------
def optimistic_worker(p, config: CallStreamConfig, resume=None):
    """The Figure 2 transformation: guess PartPage, stream S3, let the
    WorryWart verify in parallel.

    Restartable: ``resume`` is ``(next report index, next correlation id)``.
    """
    start, corr = (0, 0) if resume is None else resume
    for index in range(start, config.n_reports):
        nlines = config.report_lines[index]
        yield p.compute(config.local_compute)
        part_page = yield p.aid_init(f"PartPage-{index}")
        order = yield p.aid_init(f"Order-{index}")
        wart = f"worrywart-{index % config.n_warts}"
        yield p.send(wart, (part_page, order, index, nlines))
        if (yield p.guess(part_page)):
            pass                                   # S2 elided optimistically
        else:
            yield from call(p, "server", ("newpage",), corr)
            corr += 1
        yield p.guess(order)                       # bare guess, as in Figure 2
        yield p.compute(config.prep_for(index))
        yield p.send(
            "server_oneway", ("print", f"summary-{index}", config.summary_lines)
        )
        yield p.commit_point((index + 1, corr))


def worrywart(p, config: CallStreamConfig, expected_reports: int, resume=None):
    """Executes S1 on the Worker's behalf and verifies PartPage (Figure 2).

    Restartable: ``resume`` is the number of reports already verified (one
    RPC each, so it is also the next correlation id).
    """
    corr = 0 if resume is None else resume
    while corr < expected_reports:
        msg = yield p.recv(predicate=lambda m: not isinstance(m.payload, RpcReply))
        part_page, order, index, nlines = msg.payload
        line = yield from call(p, "server", ("print", f"total-{index}", nlines), corr)
        corr += 1
        yield p.free_of(order)
        if line <= config.page_size:
            yield p.affirm(part_page)
        else:
            yield p.deny(part_page)
        yield p.commit_point(corr)


def oneway_gateway(p, resume=None):
    """Forwards one-way prints to the server and absorbs the replies.

    Figure 2's S3 is *streamed*: the Worker does not wait for the print
    to complete.  The gateway keeps the server's uniform RPC interface
    while giving the Worker fire-and-forget semantics — it forwards each
    request under its own name and discards the reply.  Because the
    gateway becomes dependent on the original message's tags at receive
    time, its forward carries them onward and rollback semantics are
    preserved end to end.

    Restartable: ``resume`` is the next correlation id.
    """
    corr = 0 if resume is None else resume
    while True:
        msg = yield p.recv(predicate=lambda m: not isinstance(m.payload, RpcReply))
        yield from call(p, "server", msg.payload, corr)
        corr += 1
        yield p.commit_point(corr)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------
def _build_system(
    config: CallStreamConfig,
    seed: int,
    trace: Optional[Tracer],
    metrics=None,
) -> HopeSystem:
    links = LinkLatency(default=ConstantLatency(config.latency))
    for w in range(config.n_warts):
        wart = f"worrywart-{w}"
        links.set_link("worker", wart, ConstantLatency(config.wart_latency))
        links.set_link(wart, "worker", ConstantLatency(config.wart_latency))
    # The gateway is co-located with the server: forwarding is free.
    links.set_link("server_oneway", "server", ConstantLatency(0.0))
    links.set_link("server", "server_oneway", ConstantLatency(0.0))
    return HopeSystem(
        seed=seed,
        latency=links,
        rollback_overhead=config.rollback_overhead,
        trace=trace,
        metrics=metrics,
    )


def run_pessimistic(
    config: CallStreamConfig,
    seed: int = 0,
    trace: Optional[Tracer] = None,
    metrics=None,
) -> CallStreamResult:
    """Run the Figure 1 program; returns timing and the server ledger."""
    system = _build_system(config, seed, trace, metrics)
    system.spawn("server", print_server, config.page_size, config.server_service_time)
    system.spawn("worker", pessimistic_worker, config)
    makespan = system.run()
    return _collect(system, makespan)


def run_optimistic(
    config: CallStreamConfig,
    seed: int = 0,
    trace: Optional[Tracer] = None,
    metrics=None,
) -> CallStreamResult:
    """Run the Figure 2 program; returns timing and the server ledger."""
    system = _build_system(config, seed, trace, metrics)
    _spawn_optimistic(system, config)
    makespan = system.run()
    return _collect(system, makespan)


def _spawn_optimistic(system: HopeSystem, config: CallStreamConfig) -> None:
    """The Figure 2 process tree: server, gateway, WorryWarts, Worker."""
    system.spawn("server", print_server, config.page_size, config.server_service_time)
    system.spawn("server_oneway", oneway_gateway)
    for w in range(config.n_warts):
        expected = len(range(w, config.n_reports, config.n_warts))
        system.spawn(f"worrywart-{w}", worrywart, config, expected)
    system.spawn("worker", optimistic_worker, config)


def _collect(system: HopeSystem, makespan: float) -> CallStreamResult:
    stats = system.stats()
    if system.metrics.enabled:
        # Fold run-level gauges (busy/blocked time, cache rates) into the
        # caller's registry so it is complete without keeping the system.
        system.metrics_snapshot()
    worker_tl = system.timeline.process("worker")
    return CallStreamResult(
        makespan=makespan,
        server_output=system.committed_outputs("server"),
        worker_busy=worker_tl.total(Span.BUSY),
        worker_blocked=worker_tl.total(Span.BLOCKED),
        wasted_time=stats["wasted_time"],
        rollbacks=stats["rollbacks"],
        messages=stats["messages_sent"],
        stats=stats,
    )


def expected_output(config: CallStreamConfig) -> list:
    """The reference ledger: what a serial execution must print.

    Computed directly from the workload — independent of either runtime —
    so equivalence tests have a third, trivially correct opinion.
    """
    ledger = []
    line = 0
    for index, nlines in enumerate(config.report_lines):
        line += nlines
        ledger.append(("print", f"total-{index}", line))
        if line > config.page_size:
            line = 0
            ledger.append(("newpage",))
        line += config.summary_lines
        ledger.append(("print", f"summary-{index}", line))
    return ledger
