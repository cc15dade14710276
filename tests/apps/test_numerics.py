"""Optimistic numerical computation tests."""

from ..examples import load_example

numerics = load_example("optimistic_numerics")
make_problem = numerics.make_problem
run_optimistic_jacobi = numerics.run_optimistic_jacobi
run_pessimistic_jacobi = numerics.run_pessimistic_jacobi


def test_problem_generator_is_deterministic():
    a = make_problem(n=5, seed=3)
    b = make_problem(n=5, seed=3)
    assert a == b
    assert make_problem(n=5, seed=4) != a


def test_stable_system_converges_without_rollbacks():
    problem = make_problem(n=6, seed=1, dominance=3.0)
    result = run_optimistic_jacobi(problem)
    assert result.residual < problem.tolerance
    assert result.rollbacks == 0
    assert result.error_vs(problem.reference_solution()) < 1e-6


def test_stiff_system_rolls_back_and_still_converges():
    # low dominance + aggressive omega: fast blocks diverge
    problem = make_problem(
        n=6, seed=2, dominance=0.52, omega_fast=1.9, omega_safe=0.5,
        max_blocks=200, tolerance=1e-7,
    )
    result = run_optimistic_jacobi(problem)
    assert result.rollbacks > 0
    assert result.residual < problem.tolerance
    assert result.error_vs(problem.reference_solution()) < 1e-5


def test_optimistic_matches_pessimistic_solution():
    for dominance in (3.0, 0.55):
        problem = make_problem(
            n=5, seed=7, dominance=dominance, max_blocks=200, tolerance=1e-7
        )
        opt = run_optimistic_jacobi(problem)
        pess = run_pessimistic_jacobi(problem)
        assert opt.residual < problem.tolerance
        assert pess.residual < problem.tolerance
        # both land on the same fixed point (the true solution)
        reference = problem.reference_solution()
        assert opt.error_vs(reference) < 1e-5
        assert pess.error_vs(reference) < 1e-5


def test_optimistic_faster_when_validation_is_remote():
    from repro.sim import ConstantLatency

    problem = make_problem(n=6, seed=1, dominance=3.0)
    latency = ConstantLatency(20.0)
    opt = run_optimistic_jacobi(problem, latency=latency)
    pess = run_pessimistic_jacobi(problem, latency=latency)
    # pessimistic pays a validation round trip per block
    assert opt.makespan < 0.5 * pess.makespan


def test_block_ledger_committed_residuals_decrease_overall():
    from repro.runtime import HopeSystem
    from repro.sim import ConstantLatency

    problem = make_problem(n=6, seed=1, dominance=3.0)
    system = HopeSystem(latency=ConstantLatency(2.0))
    system.spawn("validator", numerics.validator, problem)
    system.spawn("solver", numerics.solver, problem)
    system.run(max_events=5_000_000)
    residuals = [entry[3] for entry in system.committed_outputs("solver")]
    assert residuals, "no blocks committed"
    assert residuals[-1] < residuals[0]
    assert residuals == sorted(residuals, reverse=True)
