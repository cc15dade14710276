"""AST node classes for the mini-HOPE language.

Plain dataclasses; every node carries its source line for error
reporting.  The interpreter walks these directly (no bytecode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Node:
    line: int


# ---------------------------------------------------------------- expressions
@dataclass(frozen=True)
class Literal(Node):
    value: object


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Unary(Node):
    op: str                  # '!' or '-'
    operand: "Expr"


@dataclass(frozen=True)
class Binary(Node):
    op: str                  # arithmetic / comparison / logic
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class CallExpr(Node):
    """A builtin invocation — HOPE primitives included."""

    func: str
    args: tuple


@dataclass(frozen=True)
class Index(Node):
    base: "Expr"
    index: "Expr"


Expr = object  # union of the above, kept loose for the tree-walker


# ---------------------------------------------------------------- statements
@dataclass(frozen=True)
class VarDecl(Node):
    name: str
    init: Optional[Expr]


@dataclass(frozen=True)
class Assign(Node):
    name: str
    value: Expr


@dataclass(frozen=True)
class ExprStmt(Node):
    expr: Expr


@dataclass(frozen=True)
class If(Node):
    cond: Expr
    then: tuple
    otherwise: tuple


@dataclass(frozen=True)
class While(Node):
    cond: Expr
    body: tuple


@dataclass(frozen=True)
class Return(Node):
    value: Optional[Expr]


@dataclass(frozen=True)
class Skip(Node):
    pass


# ---------------------------------------------------------------- top level
@dataclass(frozen=True)
class ProcessDef(Node):
    name: str
    params: tuple
    body: tuple


@dataclass(frozen=True)
class Program(Node):
    processes: tuple = field(default_factory=tuple)

    def process(self, name: str) -> ProcessDef:
        for proc in self.processes:
            if proc.name == name:
                return proc
        raise KeyError(f"no process named {name!r}")
