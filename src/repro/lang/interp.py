"""Tree-walking interpreter: mini-HOPE processes as HOPE runtime bodies.

Each ``process`` definition compiles (by closure, not codegen) to a
generator function suitable for :meth:`repro.runtime.HopeSystem.spawn`.
Effectful builtins (``guess``, ``recv``, ``call``, ...) yield the
corresponding runtime effects; everything else evaluates locally.

Determinism note: the interpreter's state is ordinary Python locals built
from the effect results, so replay-based rollback works for interpreted
programs exactly as it does for hand-written bodies.
"""

from __future__ import annotations

from typing import Any, Optional

from ..runtime import HopeSystem, call as rpc_call
from . import ast
from .check import check_program
from .parser import parse


class HopeLangError(Exception):
    """Runtime failure inside an interpreted program."""


class _ReturnSignal(Exception):
    """Internal: unwinds the interpreter on ``return``."""

    def __init__(self, value: Any) -> None:
        self.value = value


class _Env:
    """A mutable variable scope (one per process instance)."""

    def __init__(self, initial: Optional[dict] = None) -> None:
        self.values: dict[str, Any] = dict(initial or {})

    def get(self, name: str, line: int) -> Any:
        if name not in self.values:
            raise HopeLangError(f"undefined variable {name!r} (line {line})")
        return self.values[name]

    def set(self, name: str, value: Any) -> None:
        self.values[name] = value


def compile_program(source: str) -> "CompiledProgram":
    """Parse + statically check + wrap a mini-HOPE program."""
    program = parse(source)
    report = check_program(program)
    report.raise_on_error()
    return CompiledProgram(program, report.warnings)


class _Ctx:
    """Interpreter context: the HOPE facade and the per-process RPC
    correlation counter (deterministic under replay)."""

    __slots__ = ("p", "_corr")

    def __init__(self, p) -> None:
        self.p = p
        self._corr = 0

    def next_corr(self) -> int:
        value = self._corr
        self._corr += 1
        return value


class CompiledProgram:
    """A checked program whose processes can be spawned on a HopeSystem."""

    def __init__(self, program: ast.Program, warnings: list) -> None:
        self.program = program
        self.warnings = warnings

    def body(self, process_name: str):
        """The generator function implementing ``process_name``."""
        definition = self.program.process(process_name)

        def run(p, *args):
            if len(args) != len(definition.params):
                raise HopeLangError(
                    f"process {process_name!r} expects {len(definition.params)} "
                    f"argument(s), got {len(args)}"
                )
            ctx = _Ctx(p)
            env = _Env(dict(zip(definition.params, args)))
            try:
                yield from _exec_block(ctx, env, definition.body)
            except _ReturnSignal as signal:
                return signal.value
            return None

        run.__name__ = f"hope_lang_{process_name}"
        return run

    def spawn(self, system: HopeSystem, instance: str, process_name: str, *args):
        """Spawn an instance of ``process_name`` under the name ``instance``."""
        return system.spawn(instance, self.body(process_name), *args)


# ---------------------------------------------------------------------------
# statement execution
# ---------------------------------------------------------------------------
def _exec_block(ctx: _Ctx, env: _Env, body: tuple):
    for stmt in body:
        yield from _exec_stmt(ctx, env, stmt)


def _exec_stmt(ctx: _Ctx, env: _Env, stmt):
    if isinstance(stmt, ast.VarDecl):
        value = None
        if stmt.init is not None:
            value = yield from _eval(ctx, env, stmt.init)
        env.set(stmt.name, value)
    elif isinstance(stmt, ast.Assign):
        value = yield from _eval(ctx, env, stmt.value)
        env.set(stmt.name, value)
    elif isinstance(stmt, ast.ExprStmt):
        yield from _eval(ctx, env, stmt.expr)
    elif isinstance(stmt, ast.If):
        cond = yield from _eval(ctx, env, stmt.cond)
        if cond:
            yield from _exec_block(ctx, env, stmt.then)
        else:
            yield from _exec_block(ctx, env, stmt.otherwise)
    elif isinstance(stmt, ast.While):
        while True:
            cond = yield from _eval(ctx, env, stmt.cond)
            if not cond:
                break
            yield from _exec_block(ctx, env, stmt.body)
    elif isinstance(stmt, ast.Return):
        value = None
        if stmt.value is not None:
            value = yield from _eval(ctx, env, stmt.value)
        raise _ReturnSignal(value)
    elif isinstance(stmt, ast.Skip):
        pass
    else:  # pragma: no cover - parser produces only the above
        raise HopeLangError(f"unknown statement {stmt!r}")


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------
def _eval(ctx: _Ctx, env: _Env, expr):
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Var):
        return env.get(expr.name, expr.line)
    if isinstance(expr, ast.Unary):
        value = yield from _eval(ctx, env, expr.operand)
        if expr.op == "!":
            return not value
        if expr.op == "-":
            return -value
        raise HopeLangError(f"unknown unary {expr.op!r}")
    if isinstance(expr, ast.Binary):
        return (yield from _eval_binary(ctx, env, expr))
    if isinstance(expr, ast.Index):
        base = yield from _eval(ctx, env, expr.base)
        index = yield from _eval(ctx, env, expr.index)
        try:
            return base[index]
        except (TypeError, KeyError, IndexError) as exc:
            raise HopeLangError(f"bad index (line {expr.line}): {exc}") from exc
    if isinstance(expr, ast.CallExpr):
        return (yield from _eval_call(ctx, env, expr))
    raise HopeLangError(f"unknown expression {expr!r}")


def _eval_binary(ctx: _Ctx, env: _Env, expr: ast.Binary):
    if expr.op == "&&":
        left = yield from _eval(ctx, env, expr.left)
        if not left:
            return False
        right = yield from _eval(ctx, env, expr.right)
        return bool(right)
    if expr.op == "||":
        left = yield from _eval(ctx, env, expr.left)
        if left:
            return True
        right = yield from _eval(ctx, env, expr.right)
        return bool(right)
    left = yield from _eval(ctx, env, expr.left)
    right = yield from _eval(ctx, env, expr.right)
    ops = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "%": lambda a, b: a % b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    try:
        return ops[expr.op](left, right)
    except TypeError as exc:
        raise HopeLangError(
            f"bad operands for {expr.op!r} (line {expr.line}): {exc}"
        ) from exc


def _eval_call(ctx: _Ctx, env: _Env, expr: ast.CallExpr):
    func = expr.func
    args = []
    for arg in expr.args:
        value = yield from _eval(ctx, env, arg)
        args.append(value)
    p = ctx.p
    # --- HOPE primitives ---
    if func == "aid_init":
        name = args[0] if args else "aid"
        return (yield p.aid_init(name))
    if func == "guess":
        return (yield p.guess(args[0]))
    if func == "affirm":
        return (yield p.affirm(args[0]))
    if func == "deny":
        return (yield p.deny(args[0]))
    if func == "free_of":
        return (yield p.free_of(args[0]))
    # --- communication ---
    if func == "send":
        return (yield p.send(args[0], args[1]))
    if func == "recv":
        timeout = args[0] if args else None
        return (yield p.recv(timeout=timeout))
    if func == "payload":
        # Servers see RPC requests unwrapped to their body; reply() still
        # takes the original message object.
        inner = args[0].payload
        from ..runtime.messages import RpcRequest

        return inner.body if isinstance(inner, RpcRequest) else inner
    if func == "sender":
        return args[0].src
    if func == "reply":
        return (yield p.reply(args[0], args[1]))
    if func == "call":
        return (yield from rpc_call(p, args[0], args[1], ctx.next_corr()))
    # --- local ---
    if func == "emit":
        return (yield p.emit(args[0]))
    if func == "compute":
        return (yield p.compute(float(args[0])))
    if func == "now":
        return (yield p.now())
    if func == "random":
        return (yield p.random())
    if func == "tuple":
        return tuple(args)
    if func == "len":
        return len(args[0])
    if func == "nth":
        return args[0][args[1]]
    if func == "str":
        return str(args[0])
    raise HopeLangError(f"unknown function {func!r} (line {expr.line})")
