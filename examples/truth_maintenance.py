"""Truth maintenance / assumption-based search in HOPE (§7 future work, [12]).

A Doyle-style truth-maintenance system keeps a network of beliefs
justified by *assumptions* and retracts every consequence of an
assumption that turns out false.  That is precisely HOPE's contract, so
this module demonstrates the §7 claim by building a distributed
assumption-based search (a small CNF solver) from HOPE primitives:

* the **solver** walks the variables; each decision is an optimistic
  assumption ``assume-v`` made with ``guess`` — True first, and False
  after the assumption is denied (the guess's False return *is* the
  backtrack);
* every assignment is streamed to a **checker** process, which evaluates
  clauses concurrently; the assignment messages' tags make the checker's
  belief state a causal descendant of the solver's assumptions;
* on a violated clause the checker **denies** the deepest True decision
  in its trail — chronological backtracking implemented entirely by
  HOPE's rollback: the solver rewinds to that guess, takes the False
  branch, and re-derives everything after it, while the checker's own
  trail rewinds automatically because its state depended on the same
  assumption;
* a completed consistent assignment is confirmed by affirming every
  decision assumption (oldest first), committing the solution.

The search order is exactly True-first depth-first search, so the found
model must equal :func:`reference_solution` — which the tests check.

Run:  python examples/truth_maintenance.py
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, LatencyModel, Tracer

#: A literal is (var_name, polarity); a clause is a tuple of literals;
#: a formula is a tuple of clauses.
Literal = tuple
Clause = tuple
Formula = tuple


@dataclass(frozen=True)
class SearchProblem:
    """A CNF formula plus the decision order of its variables."""

    variables: tuple
    clauses: Formula
    decision_compute: float = 0.5     # solver think time per decision
    check_compute: float = 0.2        # checker time per assignment

    def validate(self) -> None:
        known = set(self.variables)
        for clause in self.clauses:
            for var, _polarity in clause:
                if var not in known:
                    raise ValueError(f"clause mentions unknown variable {var!r}")


def clause_status(clause: Clause, assignment: dict) -> str:
    """'sat', 'violated', or 'open' under a partial assignment."""
    unassigned = False
    for var, polarity in clause:
        if var not in assignment:
            unassigned = True
        elif assignment[var] == polarity:
            return "sat"
    return "open" if unassigned else "violated"


def is_model(clauses: Formula, assignment: dict) -> bool:
    return all(clause_status(c, assignment) == "sat" for c in clauses)


def reference_solution(problem: SearchProblem) -> Optional[dict]:
    """True-first DFS with chronological backtracking — the oracle for the
    exact model the HOPE solver must find."""
    variables = problem.variables

    def extend(assignment: dict, depth: int) -> Optional[dict]:
        status = [clause_status(c, assignment) for c in problem.clauses]
        if "violated" in status:
            return None
        if depth == len(variables):
            return dict(assignment)
        for value in (True, False):
            assignment[variables[depth]] = value
            found = extend(assignment, depth + 1)
            if found is not None:
                return found
            del assignment[variables[depth]]
        return None

    return extend({}, 0)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------
def solver(p, problem: SearchProblem):
    """Decide variables True-first; stream decisions; await the verdict."""
    assignment = {}
    serial = count()
    for var in problem.variables:
        yield p.compute(problem.decision_compute)
        aid = yield p.aid_init(f"assume-{var}-{next(serial)}")
        value = yield p.guess(aid)          # True now; False after a denial
        assignment[var] = value
        yield p.send("checker", ("assign", var, value, aid.key))
    yield p.send("checker", ("complete",))
    verdict = yield p.recv()
    if verdict.payload[0] == "sat":
        yield p.emit(("model", tuple(sorted(assignment.items()))))
        return dict(assignment)
    yield p.emit(("unsat",))
    return None


def checker(p, problem: SearchProblem):
    """Evaluate clauses as assignments arrive; deny on violation."""
    assignment = {}
    trail = []                     # [(var, value, aid_key)] in arrival order
    while True:
        msg = yield p.recv()
        if msg.payload[0] == "complete":
            if not is_model(problem.clauses, assignment):
                raise AssertionError(
                    "complete assignment reached the checker with a violated "
                    "clause — a conflict was missed"
                )
            for var, value, aid_key in trail:
                if value:                   # True decisions are assumptions
                    yield p.affirm(aid_key)
            yield p.send("solver", ("sat",))
            return assignment
        _tag, var, value, aid_key = msg.payload
        yield p.compute(problem.check_compute)
        assignment[var] = value
        trail.append((var, value, aid_key))
        for clause in problem.clauses:
            if clause_status(clause, assignment) == "violated":
                # Chronological backtracking: flip the deepest decision
                # that is still an assumption (guessed True).
                for t_var, t_value, t_aid in reversed(trail):
                    if t_value:
                        yield p.deny(t_aid)
                        raise AssertionError(
                            "unreachable: the denying incarnation rolls back"
                        )
                # No assumption left to retract: the formula is UNSAT.
                yield p.send("solver", ("unsat",))
                return None


@dataclass
class SearchResult:
    makespan: float
    model: Optional[dict] = None
    backtracks: int = 0
    stats: dict = field(default_factory=dict)


def run_search(
    problem: SearchProblem,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
    trace: Optional[Tracer] = None,
) -> SearchResult:
    """Solve ``problem`` with the HOPE solver/checker pair."""
    problem.validate()
    system = HopeSystem(
        seed=seed,
        latency=latency if latency is not None else ConstantLatency(1.0),
        trace=trace,
    )
    system.spawn("solver", solver, problem)
    system.spawn("checker", checker, problem)
    makespan = system.run(max_events=5_000_000)
    stats = system.stats()
    return SearchResult(
        makespan=makespan,
        model=system.result_of("solver"),
        backtracks=stats["rollbacks"],
        stats=stats,
    )


def main() -> None:
    clauses = ((("a", False), ("b", False)), (("b", True), ("c", True)),
               (("a", False), ("c", False)))
    problem = SearchProblem(variables=("a", "b", "c"), clauses=clauses)
    result = run_search(problem)
    print("(¬a ∨ ¬b) ∧ (b ∨ c) ∧ (¬a ∨ ¬c), deciding a, b, c True-first")
    print(f"  model      : {result.model}")
    print(f"  denied assumptions: {result.stats['denies']}, "
          f"rollbacks: {result.backtracks}")
    print(f"  equals the true-first DFS: {result.model == reference_solution(problem)}")


if __name__ == "__main__":
    main()
