"""Optimistic numerical computation (§7 future work, ref [7]).

The paper's future-work list includes applying optimism to numerical
computation.  The classic pattern: an iterative solver wants an
aggressive parameter (fast convergence when it works, divergence when it
doesn't), and checking stability requires an expensive remote validation.
Pessimistically the solver validates every block of iterations before
continuing; optimistically it *guesses* the aggressive block was stable
and keeps iterating while a validator checks the residuals in parallel —
a denial rolls the solver back to the block boundary, where it redoes the
block with a safe parameter.

Concretely: weighted-Jacobi iteration for ``A x = b``.  The aggressive
relaxation ``omega_fast`` diverges on stiff systems; ``omega_safe``
always converges (for the diagonally dominant systems we generate).  The
validator affirms a block iff its residual shrank.

Everything is deterministic: matrices come from a seeded generator, and
the solver's arithmetic is pure, so replay-based rollback reproduces the
block boundary exactly.

Run:  python examples/optimistic_numerics.py
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime import HopeSystem, call
from repro.sim import ConstantLatency, LatencyModel, Tracer


@dataclass(frozen=True)
class JacobiProblem:
    """One linear system plus iteration parameters."""

    a: tuple                   # row-major matrix, as nested tuples
    b: tuple
    omega_fast: float = 1.4    # aggressive over-relaxation
    omega_safe: float = 0.7    # conservative under-relaxation
    block_size: int = 4        # iterations per validation block
    max_blocks: int = 60
    tolerance: float = 1e-8
    iteration_cost: float = 1.0     # virtual time per iteration
    validate_cost: float = 3.0      # remote residual check

    def reference_solution(self) -> list:
        """``A x = b`` by Gaussian elimination with partial pivoting."""
        n = len(self.b)
        m = [list(row) + [rhs] for row, rhs in zip(self.a, self.b)]
        for col in range(n):
            pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
            m[col], m[pivot] = m[pivot], m[col]
            for r in range(col + 1, n):
                factor = m[r][col] / m[col][col]
                for c in range(col, n + 1):
                    m[r][c] -= factor * m[col][c]
        x = [0.0] * n
        for r in reversed(range(n)):
            tail = math.fsum(m[r][c] * x[c] for c in range(r + 1, n))
            x[r] = (m[r][n] - tail) / m[r][r]
        return x


def make_problem(
    n: int = 6,
    seed: int = 0,
    dominance: float = 1.5,
    **overrides,
) -> JacobiProblem:
    """A random diagonally dominant system (weighted Jacobi converges for
    omega in (0, 1]; large omega may diverge as dominance shrinks)."""
    rng = random.Random(seed)
    a = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(a):
        row[i] = dominance * math.fsum(abs(v) for v in row)
    b = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
    return JacobiProblem(a=tuple(map(tuple, a)), b=b, **overrides)


def _jacobi_block(a, b, x, omega: float, steps: int) -> list:
    n = len(b)
    for _ in range(steps):
        x = [
            (1 - omega) * x[i]
            + omega * (b[i] - math.fsum(a[i][j] * x[j] for j in range(n) if j != i))
            / a[i][i]
            for i in range(n)
        ]
    return x


def _residual(a, b, x) -> float:
    return math.sqrt(math.fsum(
        (math.fsum(aij * xj for aij, xj in zip(row, x)) - bi) ** 2
        for row, bi in zip(a, b)
    ))


def _stable(problem: JacobiProblem, x, residual_before: float) -> bool:
    """The validator's verdict: an aggressive block from ``x`` shrinks
    the residual (or meets the tolerance)."""
    a, b = problem.a, problem.b
    residual_after = _residual(
        a, b, _jacobi_block(a, b, x, problem.omega_fast, problem.block_size)
    )
    return residual_after < residual_before or residual_after < problem.tolerance


def solver(p, problem: JacobiProblem):
    """Iterate in blocks; guess each aggressive block is stable."""
    a, b = problem.a, problem.b
    x = [0.0] * len(b)
    residual = _residual(a, b, x)
    blocks = 0
    fast_blocks = 0
    safe_blocks = 0
    while residual > problem.tolerance and blocks < problem.max_blocks:
        blocks += 1
        stable = yield p.aid_init(f"block-{blocks}-stable")
        yield p.send(
            "validator",
            ("check", stable, tuple(x), residual),
        )
        if (yield p.guess(stable)):
            omega = problem.omega_fast         # optimistic: aggressive step
            fast_blocks += 1
        else:
            omega = problem.omega_safe         # after a denial: safe step
            safe_blocks += 1
        yield p.compute(problem.iteration_cost * problem.block_size)
        x = _jacobi_block(a, b, x, omega, problem.block_size)
        residual = _residual(a, b, x)
        yield p.emit(("block", blocks, omega, residual))
    yield p.send("validator", ("done",))
    return {
        "x": tuple(x),
        "residual": residual,
        "blocks": blocks,
        "fast_blocks": fast_blocks,
        "safe_blocks": safe_blocks,
    }


def validator(p, problem: JacobiProblem):
    """Re-runs each aggressive block remotely and checks the residual
    shrank; affirms stability or denies it."""
    while True:
        msg = yield p.recv()
        if msg.payload[0] == "done":
            return None
        _tag, stable, x, residual_before = msg.payload
        yield p.compute(problem.validate_cost)
        if _stable(problem, x, residual_before):
            yield p.affirm(stable)
        else:
            yield p.deny(stable)


def pessimistic_solver(p, problem: JacobiProblem):
    """Validate-before-continue: the same decisions, serialized."""
    a, b = problem.a, problem.b
    x = [0.0] * len(b)
    residual = _residual(a, b, x)
    blocks = 0
    corr = 0
    while residual > problem.tolerance and blocks < problem.max_blocks:
        blocks += 1
        ok = yield from call(p, "validator_rpc", (tuple(x), residual), corr)
        corr += 1
        omega = problem.omega_fast if ok else problem.omega_safe
        yield p.compute(problem.iteration_cost * problem.block_size)
        x = _jacobi_block(a, b, x, omega, problem.block_size)
        residual = _residual(a, b, x)
        yield p.emit(("block", blocks, omega, residual))
    return {"x": tuple(x), "residual": residual, "blocks": blocks}


def rpc_validator(p, problem: JacobiProblem):
    while True:
        msg = yield p.recv()
        x, residual_before = msg.payload.body
        yield p.compute(problem.validate_cost)
        yield p.reply(msg, _stable(problem, x, residual_before))


@dataclass
class JacobiResult:
    makespan: float
    x: tuple = ()
    residual: float = float("inf")
    blocks: int = 0
    rollbacks: int = 0
    stats: dict = field(default_factory=dict)

    def error_vs(self, reference) -> float:
        return math.sqrt(math.fsum((xi - ri) ** 2 for xi, ri in zip(self.x, reference)))


def _run_jacobi(problem, bodies, latency, seed, trace=None) -> JacobiResult:
    system = HopeSystem(
        seed=seed,
        latency=latency if latency is not None else ConstantLatency(5.0),
        trace=trace,
    )
    for name, body in bodies:
        system.spawn(name, body, problem)
    makespan = system.run(max_events=5_000_000)
    outcome = system.result_of("solver")
    stats = system.stats()
    return JacobiResult(
        makespan=makespan,
        x=outcome["x"],
        residual=outcome["residual"],
        blocks=outcome["blocks"],
        rollbacks=stats["rollbacks"],
        stats=stats,
    )


def run_optimistic_jacobi(
    problem: JacobiProblem,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
    trace: Optional[Tracer] = None,
) -> JacobiResult:
    bodies = (("validator", validator), ("solver", solver))
    return _run_jacobi(problem, bodies, latency, seed, trace)


def run_pessimistic_jacobi(
    problem: JacobiProblem,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
) -> JacobiResult:
    bodies = (("validator_rpc", rpc_validator), ("solver", pessimistic_solver))
    return _run_jacobi(problem, bodies, latency, seed)


def main() -> None:
    latency = ConstantLatency(20.0)           # validation is a remote round trip
    for title, problem in (
        ("well conditioned: every aggressive block holds",
         make_problem(n=6, seed=1, dominance=3.0)),
        ("stiff: aggressive blocks diverge and are rolled back",
         make_problem(n=6, seed=2, dominance=0.52, omega_fast=1.9,
                      omega_safe=0.5, max_blocks=200, tolerance=1e-7)),
    ):
        opt = run_optimistic_jacobi(problem, latency=latency)
        pess = run_pessimistic_jacobi(problem, latency=latency)
        print(f"\n=== {title} ===")
        print(f"  makespan  : optimistic {opt.makespan:g}, "
              f"pessimistic {pess.makespan:g}")
        print(f"  rollbacks : {opt.rollbacks}, blocks: {opt.blocks}")
        error = opt.error_vs(problem.reference_solution())
        print(f"  distance from Gaussian elimination: {error:.1e}")


if __name__ == "__main__":
    main()
