"""The pessimistic baseline: synchronous RPC execution, plus its analytic
cost model.

Figure 1's semantics — every remote interaction waits for its reply — is
already runnable through :func:`repro.apps.call_streaming.run_pessimistic`;
this module adds the general pieces the benchmarks need:

* :class:`RpcChain` — an abstract client workload: local compute
  interleaved with synchronous RPCs;
* :func:`predict_completion` — the closed-form completion time of a chain
  (latency counts twice per call, nothing overlaps);
* :func:`run_chain` — the same chain executed on the HOPE runtime without
  any speculation, to validate the analytic model against the simulator.

Having both the formula and the simulation lets the benchmark harness
sanity-check itself: if simulated pessimistic time drifts from the
closed form, the harness (not the paper comparison) is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime import HopeSystem, call
from ..sim import ConstantLatency


@dataclass(frozen=True)
class RpcStep:
    """One unit of client work: ``compute`` locally, then (optionally)
    one synchronous RPC with the given service time at the server."""

    compute: float = 0.0
    rpc_service: Optional[float] = None


@dataclass(frozen=True)
class RpcChain:
    """A client workload: a sequence of steps against one remote server."""

    steps: tuple
    latency: float


def predict_completion(chain: RpcChain) -> float:
    """Closed-form pessimistic completion time.

    Each RPC costs a full round trip plus service; local compute is
    strictly serialized with the waits — the latency arithmetic of the
    paper's introduction (the 30 ms coast-to-coast photon).
    """
    total = 0.0
    for step in chain.steps:
        total += step.compute
        if step.rpc_service is not None:
            total += 2 * chain.latency + step.rpc_service
    return total


def _server(p):
    """Echo server: each request carries its service time."""
    while True:
        msg = yield p.recv()
        yield p.compute(msg.payload.body)
        yield p.reply(msg, None)


def _client(p, chain: RpcChain):
    corr = 0
    for step in chain.steps:
        if step.compute:
            yield p.compute(step.compute)
        if step.rpc_service is not None:
            yield from call(p, "server", step.rpc_service, corr)
            corr += 1


def run_chain(chain: RpcChain, seed: int = 0) -> float:
    """Execute the chain pessimistically on the runtime; returns makespan."""
    system = HopeSystem(seed=seed, latency=ConstantLatency(chain.latency))
    system.spawn("server", _server)
    system.spawn("client", _client, chain)
    return system.run()
