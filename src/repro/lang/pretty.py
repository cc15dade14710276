"""Pretty-printer (unparser) for mini-HOPE ASTs.

``pretty(parse(src))`` produces canonical source that re-parses to a
structurally identical program — the round-trip property the fuzz tests
check.  Useful for emitting generated programs and for diffing programs
structurally.
"""

from __future__ import annotations

from . import ast

_INDENT = "    "

#: binary operator precedence, matching the parser
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}


def pretty(program: ast.Program) -> str:
    """Render a whole program."""
    chunks = []
    for definition in program.processes:
        params = ", ".join(definition.params)
        chunks.append(f"process {definition.name}({params}) {{")
        chunks.extend(_stmts(definition.body, 1))
        chunks.append("}")
        chunks.append("")
    return "\n".join(chunks).rstrip() + "\n"


def _stmts(body: tuple, depth: int) -> list:
    lines = []
    pad = _INDENT * depth
    for stmt in body:
        lines.extend(_stmt(stmt, depth, pad))
    return lines


def _stmt(stmt, depth: int, pad: str) -> list:
    if isinstance(stmt, ast.VarDecl):
        if stmt.init is None:
            return [f"{pad}var {stmt.name};"]
        return [f"{pad}var {stmt.name} = {_expr(stmt.init)};"]
    if isinstance(stmt, ast.Assign):
        return [f"{pad}{stmt.name} = {_expr(stmt.value)};"]
    if isinstance(stmt, ast.ExprStmt):
        return [f"{pad}{_expr(stmt.expr)};"]
    if isinstance(stmt, ast.Return):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {_expr(stmt.value)};"]
    if isinstance(stmt, ast.Skip):
        return [f"{pad}skip;"]
    if isinstance(stmt, ast.While):
        lines = [f"{pad}while ({_expr(stmt.cond)}) {{"]
        lines.extend(_stmts(stmt.body, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.If):
        lines = [f"{pad}if ({_expr(stmt.cond)}) {{"]
        lines.extend(_stmts(stmt.then, depth + 1))
        if stmt.otherwise:
            lines.append(f"{pad}}} else {{")
            lines.extend(_stmts(stmt.otherwise, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"cannot pretty-print statement {stmt!r}")


def _expr(expr, parent_prec: int = 0) -> str:
    if isinstance(expr, ast.Literal):
        return _literal(expr.value)
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Unary):
        return f"{expr.op}{_expr(expr.operand, 6)}"
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE[expr.op]
        # left-associative: the right child needs parens at equal precedence
        left = _expr(expr.left, prec)
        right = _expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, ast.Index):
        return f"{_expr(expr.base, 7)}[{_expr(expr.index)}]"
    if isinstance(expr, ast.CallExpr):
        args = ", ".join(_expr(a) for a in expr.args)
        return f"{expr.func}({args})"
    raise TypeError(f"cannot pretty-print expression {expr!r}")


def _literal(value) -> str:
    if value is None:
        return "nil"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    return repr(value)


def ast_equal(a, b) -> bool:
    """Structural equality ignoring source positions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(ast_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, ast.Node):
        fields = [f for f in a.__dataclass_fields__ if f != "line"]
        return all(ast_equal(getattr(a, f), getattr(b, f)) for f in fields)
    return a == b
