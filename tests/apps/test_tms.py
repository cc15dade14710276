"""Assumption-based search tests: HOPE backtracking equals reference DFS."""

import pytest

from ..examples import load_example

tms = load_example("truth_maintenance")
SearchProblem = tms.SearchProblem
clause_status = tms.clause_status
is_model = tms.is_model
reference_solution = tms.reference_solution
run_search = tms.run_search


def lit(var, polarity=True):
    return (var, polarity)


def test_clause_status():
    clause = (lit("a"), lit("b", False))
    assert clause_status(clause, {}) == "open"
    assert clause_status(clause, {"a": True}) == "sat"
    assert clause_status(clause, {"a": False}) == "open"
    assert clause_status(clause, {"a": False, "b": True}) == "violated"


def test_unknown_variable_rejected():
    problem = SearchProblem(variables=("a",), clauses=(((("b", True)),),))
    with pytest.raises(ValueError):
        run_search(problem)


def test_trivially_sat_no_backtracking():
    problem = SearchProblem(
        variables=("a", "b"),
        clauses=((lit("a"),), (lit("b"),)),
    )
    result = run_search(problem)
    assert result.model == {"a": True, "b": True}
    assert result.backtracks == 0


def test_single_flip():
    """(¬a) forces the first decision to be retracted."""
    problem = SearchProblem(variables=("a",), clauses=(((lit("a", False)),),))
    result = run_search(problem)
    assert result.model == {"a": False}
    assert result.backtracks >= 1


def test_matches_reference_dfs_order():
    problem = SearchProblem(
        variables=("a", "b", "c"),
        clauses=(
            (lit("a", False), lit("b", False)),
            (lit("b"), lit("c")),
            (lit("a", False), lit("c", False)),
        ),
    )
    expected = reference_solution(problem)
    result = run_search(problem)
    assert result.model == expected
    assert is_model(problem.clauses, result.model)


def test_deep_backtracking_chain():
    """Forces conflicts that unwind several decisions at once."""
    problem = SearchProblem(
        variables=("a", "b", "c", "d"),
        clauses=(
            (lit("a", False), lit("b", False), lit("c", False), lit("d", False)),
            (lit("a", False), lit("b", False), lit("c", False), lit("d")),
        ),
    )
    expected = reference_solution(problem)
    result = run_search(problem)
    assert result.model == expected
    assert result.backtracks >= 1


def test_unsat_detected():
    problem = SearchProblem(
        variables=("a",),
        clauses=((lit("a"),), (lit("a", False),)),
    )
    assert reference_solution(problem) is None
    result = run_search(problem)
    assert result.model is None
    assert result.backtracks >= 1


def test_unsat_three_vars():
    # classic: all eight combinations excluded pairwise via implications
    problem = SearchProblem(
        variables=("a", "b"),
        clauses=(
            (lit("a"), lit("b")),
            (lit("a"), lit("b", False)),
            (lit("a", False), lit("b")),
            (lit("a", False), lit("b", False)),
        ),
    )
    assert reference_solution(problem) is None
    result = run_search(problem)
    assert result.model is None


@pytest.mark.parametrize("n_vars", [4, 6])
def test_random_formulas_match_reference(n_vars):
    import random

    rng = random.Random(17 + n_vars)
    variables = tuple(f"v{i}" for i in range(n_vars))
    for trial in range(6):
        clauses = []
        for _ in range(n_vars * 2):
            width = rng.randint(1, 3)
            chosen = rng.sample(variables, width)
            clauses.append(tuple((v, rng.random() < 0.5) for v in chosen))
        problem = SearchProblem(variables=variables, clauses=tuple(clauses))
        expected = reference_solution(problem)
        result = run_search(problem)
        assert result.model == expected, f"trial {trial} diverged"
        if expected is not None:
            assert is_model(problem.clauses, result.model)
