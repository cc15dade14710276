"""Recursive-descent parser for the mini-HOPE language.

Grammar (EBNF-ish)::

    program    := processdef*
    processdef := "process" NAME "(" [params] ")" block
    block      := "{" stmt* "}"
    stmt       := "var" NAME ["=" expr] ";"
                | NAME "=" expr ";"
                | "if" "(" expr ")" block ["else" (block | if-stmt)]
                | "while" "(" expr ")" block
                | "return" [expr] ";"
                | "skip" ";"
                | expr ";"
    expr       := or  (precedence: || < && < ! < cmp < add < mul < unary)
    primary    := NUMBER | STRING | true | false | nil
                | NAME | NAME "(" [args] ")" | "(" expr ")"
    postfix    := primary ("[" expr "]")*
"""

from __future__ import annotations

from . import ast
from .lexer import tokenize
from .tokens import EOF, KEYWORD, NAME, NUMBER, OP, STRING, Token


class ParseError(SyntaxError):
    """Parsing failure with source position."""


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------- helpers
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def check(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def match(self, kind: str, value: str | None = None) -> Token | None:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.peek()
        if not self.check(kind, value):
            want = value if value is not None else kind
            raise ParseError(
                f"expected {want!r} but found {token.value or token.kind!r} "
                f"at {token.line}:{token.col}"
            )
        return self.advance()

    # ------------------------------------------------------------- program
    def program(self) -> ast.Program:
        processes = []
        first_line = self.peek().line
        while not self.check(EOF):
            processes.append(self.process_def())
        return ast.Program(line=first_line, processes=tuple(processes))

    def process_def(self) -> ast.ProcessDef:
        start = self.expect(KEYWORD, "process")
        name, params, body = self._def_tail()
        return ast.ProcessDef(line=start.line, name=name, params=params, body=body)

    def _def_tail(self) -> tuple:
        name = self.expect(NAME).value
        self.expect(OP, "(")
        params = []
        if not self.check(OP, ")"):
            params.append(self.expect(NAME).value)
            while self.match(OP, ","):
                params.append(self.expect(NAME).value)
        self.expect(OP, ")")
        body = self.block()
        return name, tuple(params), body

    def block(self) -> tuple:
        self.expect(OP, "{")
        statements = []
        while not self.check(OP, "}"):
            statements.append(self.statement())
        self.expect(OP, "}")
        return tuple(statements)

    # ------------------------------------------------------------ statements
    def statement(self):
        token = self.peek()
        if self.check(KEYWORD, "var"):
            return self.var_decl()
        if self.check(KEYWORD, "if"):
            return self.if_stmt()
        if self.check(KEYWORD, "while"):
            return self.while_stmt()
        if self.check(KEYWORD, "return"):
            self.advance()
            value = None
            if not self.check(OP, ";"):
                value = self.expression()
            self.expect(OP, ";")
            return ast.Return(line=token.line, value=value)
        if self.check(KEYWORD, "skip"):
            self.advance()
            self.expect(OP, ";")
            return ast.Skip(line=token.line)
        if self.check(NAME) and self.tokens[self.pos + 1].kind == OP \
                and self.tokens[self.pos + 1].value == "=":
            name = self.advance().value
            self.advance()  # '='
            value = self.expression()
            self.expect(OP, ";")
            return ast.Assign(line=token.line, name=name, value=value)
        expr = self.expression()
        self.expect(OP, ";")
        return ast.ExprStmt(line=token.line, expr=expr)

    def var_decl(self) -> ast.VarDecl:
        start = self.expect(KEYWORD, "var")
        name = self.expect(NAME).value
        init = None
        if self.match(OP, "="):
            init = self.expression()
        self.expect(OP, ";")
        return ast.VarDecl(line=start.line, name=name, init=init)

    def if_stmt(self) -> ast.If:
        start = self.expect(KEYWORD, "if")
        self.expect(OP, "(")
        cond = self.expression()
        self.expect(OP, ")")
        then = self.block()
        otherwise: tuple = ()
        if self.match(KEYWORD, "else"):
            if self.check(KEYWORD, "if"):
                otherwise = (self.if_stmt(),)
            else:
                otherwise = self.block()
        return ast.If(line=start.line, cond=cond, then=then, otherwise=otherwise)

    def while_stmt(self) -> ast.While:
        start = self.expect(KEYWORD, "while")
        self.expect(OP, "(")
        cond = self.expression()
        self.expect(OP, ")")
        body = self.block()
        return ast.While(line=start.line, cond=cond, body=body)

    # ------------------------------------------------------------ expressions
    def expression(self):
        return self.or_expr()

    def or_expr(self):
        left = self.and_expr()
        while self.check(OP, "||"):
            op = self.advance()
            right = self.and_expr()
            left = ast.Binary(line=op.line, op="||", left=left, right=right)
        return left

    def and_expr(self):
        left = self.comparison()
        while self.check(OP, "&&"):
            op = self.advance()
            right = self.comparison()
            left = ast.Binary(line=op.line, op="&&", left=left, right=right)
        return left

    def comparison(self):
        left = self.additive()
        while self.peek().kind == OP and self.peek().value in ("==", "!=", "<", "<=", ">", ">="):
            op = self.advance()
            right = self.additive()
            left = ast.Binary(line=op.line, op=op.value, left=left, right=right)
        return left

    def additive(self):
        left = self.multiplicative()
        while self.peek().kind == OP and self.peek().value in ("+", "-"):
            op = self.advance()
            right = self.multiplicative()
            left = ast.Binary(line=op.line, op=op.value, left=left, right=right)
        return left

    def multiplicative(self):
        left = self.unary()
        while self.peek().kind == OP and self.peek().value in ("*", "/", "%"):
            op = self.advance()
            right = self.unary()
            left = ast.Binary(line=op.line, op=op.value, left=left, right=right)
        return left

    def unary(self):
        if self.check(OP, "!") or self.check(OP, "-"):
            op = self.advance()
            operand = self.unary()
            return ast.Unary(line=op.line, op=op.value, operand=operand)
        return self.postfix()

    def postfix(self):
        expr = self.primary()
        while self.check(OP, "["):
            bracket = self.advance()
            index = self.expression()
            self.expect(OP, "]")
            expr = ast.Index(line=bracket.line, base=expr, index=index)
        return expr

    def primary(self):
        token = self.peek()
        if token.kind == NUMBER:
            self.advance()
            text = token.value
            value = float(text) if "." in text else int(text)
            return ast.Literal(line=token.line, value=value)
        if token.kind == STRING:
            self.advance()
            return ast.Literal(line=token.line, value=token.value)
        if token.kind == KEYWORD and token.value in ("true", "false", "nil"):
            self.advance()
            value = {"true": True, "false": False, "nil": None}[token.value]
            return ast.Literal(line=token.line, value=value)
        if token.kind == NAME:
            self.advance()
            if self.check(OP, "("):
                self.advance()
                args = []
                if not self.check(OP, ")"):
                    args.append(self.expression())
                    while self.match(OP, ","):
                        args.append(self.expression())
                self.expect(OP, ")")
                return ast.CallExpr(line=token.line, func=token.value, args=tuple(args))
            return ast.Var(line=token.line, name=token.value)
        if self.match(OP, "("):
            expr = self.expression()
            self.expect(OP, ")")
            return expr
        raise ParseError(
            f"unexpected token {token.value or token.kind!r} at {token.line}:{token.col}"
        )


def parse(source: str) -> ast.Program:
    """Parse mini-HOPE source text into a :class:`repro.lang.ast.Program`."""
    return _Parser(tokenize(source)).program()
