"""Static checks for mini-HOPE programs.

Checked before interpretation:

* duplicate process names;
* use of undeclared variables, assignment to undeclared variables;
* unknown functions and wrong builtin arity;
* ``recv``/``guess``-style primitives used as bare names;
* (warning) more than one ``affirm``/``deny``/``free_of`` of the same AID
  variable along one straight-line path — §5.2 calls that a user error,
  and it is the kind of bug static scanning can often catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .tokens import BUILTIN_ARITY, BUILTINS


class CheckError(Exception):
    """A static error that would make the program meaningless."""


@dataclass
class CheckReport:
    """Outcome of a static check: hard errors plus advisory warnings."""

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        if self.errors:
            raise CheckError("; ".join(self.errors))


def check_program(program: ast.Program) -> CheckReport:
    """Run all static checks; returns a :class:`CheckReport`."""
    report = CheckReport()
    seen = set()
    for proc in program.processes:
        if proc.name in seen:
            report.errors.append(f"duplicate process name {proc.name!r} (line {proc.line})")
        seen.add(proc.name)
        _check_body(proc.name, proc.params, proc.body, report)
    return report


def _check_body(owner, params, body, report: CheckReport) -> None:
    declared = set(params)
    _check_block(body, declared, report, owner, resolved=set())


def _check_block(
    body: tuple,
    declared: set,
    report: CheckReport,
    proc_name: str,
    resolved: set,
) -> None:
    for stmt in body:
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                _check_expr(stmt.init, declared, report, proc_name, resolved)
            if stmt.name in declared:
                report.warnings.append(
                    f"{proc_name}: 'var {stmt.name}' shadows an existing "
                    f"variable (line {stmt.line})"
                )
            declared.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            if stmt.name not in declared:
                report.errors.append(
                    f"{proc_name}: assignment to undeclared variable "
                    f"{stmt.name!r} (line {stmt.line})"
                )
            _check_expr(stmt.value, declared, report, proc_name, resolved)
        elif isinstance(stmt, ast.ExprStmt):
            _check_expr(stmt.expr, declared, report, proc_name, resolved)
        elif isinstance(stmt, ast.If):
            _check_expr(stmt.cond, declared, report, proc_name, resolved)
            # branches get copies: straight-line resolution tracking only
            _check_block(stmt.then, set(declared), report, proc_name, set(resolved))
            _check_block(stmt.otherwise, set(declared), report, proc_name, set(resolved))
        elif isinstance(stmt, ast.While):
            _check_expr(stmt.cond, declared, report, proc_name, resolved)
            _check_block(stmt.body, set(declared), report, proc_name, set(resolved))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                _check_expr(stmt.value, declared, report, proc_name, resolved)
        elif isinstance(stmt, ast.Skip):
            pass
        else:  # pragma: no cover - parser produces only the above
            report.errors.append(f"{proc_name}: unknown statement {stmt!r}")


def _check_expr(expr, declared, report, proc_name, resolved) -> None:
    if isinstance(expr, ast.Literal):
        return
    if isinstance(expr, ast.Var):
        if expr.name not in declared:
            report.errors.append(
                f"{proc_name}: use of undeclared variable {expr.name!r} "
                f"(line {expr.line})"
            )
        return
    if isinstance(expr, ast.Unary):
        _check_expr(expr.operand, declared, report, proc_name, resolved)
        return
    if isinstance(expr, ast.Binary):
        _check_expr(expr.left, declared, report, proc_name, resolved)
        _check_expr(expr.right, declared, report, proc_name, resolved)
        return
    if isinstance(expr, ast.Index):
        _check_expr(expr.base, declared, report, proc_name, resolved)
        _check_expr(expr.index, declared, report, proc_name, resolved)
        return
    if isinstance(expr, ast.CallExpr):
        if expr.func not in BUILTINS:
            report.errors.append(
                f"{proc_name}: unknown function {expr.func!r} (line {expr.line})"
            )
        else:
            arity = BUILTIN_ARITY[expr.func]
            count = len(expr.args)
            bad = (
                (isinstance(arity, int) and count != arity)
                or (isinstance(arity, tuple) and count not in arity)
            )
            if bad:
                report.errors.append(
                    f"{proc_name}: {expr.func}() takes {arity} argument(s), "
                    f"got {count} (line {expr.line})"
                )
        if expr.func in ("affirm", "deny", "free_of") and expr.args:
            target = expr.args[0]
            if isinstance(target, ast.Var):
                if target.name in resolved:
                    report.warnings.append(
                        f"{proc_name}: {expr.func}({target.name}) after the AID "
                        f"was already resolved on this path (line {expr.line}) — "
                        "§5.2 calls repeated resolution a user error"
                    )
                resolved.add(target.name)
        for arg in expr.args:
            _check_expr(arg, declared, report, proc_name, resolved)
        return
    report.errors.append(f"{proc_name}: unknown expression {expr!r}")
