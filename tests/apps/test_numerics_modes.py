"""The Jacobi app across execution modes: same fixed point everywhere."""

from repro.apps.numerics import make_problem, solver, validator
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency


def run_mode(problem, **kwargs):
    system = HopeSystem(latency=ConstantLatency(5.0), **kwargs)
    system.spawn("validator", validator, problem)
    system.spawn("solver", solver, problem)
    makespan = system.run(max_events=5_000_000)
    return system, makespan


def test_blocking_mode_same_solution_slower():
    problem = make_problem(n=6, seed=1, dominance=3.0)
    spec_system, spec_time = run_mode(problem)
    block_system, block_time = run_mode(problem, speculation=False)
    spec = spec_system.result_of("solver")
    block = block_system.result_of("solver")
    assert spec["x"] == block["x"]            # identical fixed point
    assert spec["blocks"] == block["blocks"]
    assert block_system.stats()["rollbacks"] == 0
    assert spec_time < block_time             # optimism hides validation

