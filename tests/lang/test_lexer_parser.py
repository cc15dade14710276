"""Lexer and parser tests for mini-HOPE."""

import pytest

from repro.lang import LexError, ParseError, parse, tokenize
from repro.lang import ast
from repro.lang.tokens import EOF, KEYWORD, NAME, NUMBER, OP, STRING


# ---------------------------------------------------------------- lexer
def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_tokenize_basics():
    tokens = tokenize('var x = 42; // a comment\nsend("dst", 3.5);')
    values = [(t.kind, t.value) for t in tokens if t.kind != EOF]
    assert (KEYWORD, "var") in values
    assert (NAME, "x") in values
    assert (NUMBER, "42") in values
    assert (STRING, "dst") in values
    assert (NUMBER, "3.5") in values


def test_tokenize_multichar_operators():
    tokens = tokenize("a == b != c <= d >= e && f || g")
    ops = [t.value for t in tokens if t.kind == OP]
    assert ops == ["==", "!=", "<=", ">=", "&&", "||"]


def test_string_escapes():
    [token, _eof] = tokenize(r'"a\n\t\"\\"')
    assert token.value == 'a\n\t"\\'


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"unterminated')


def test_unknown_character_raises():
    with pytest.raises(LexError):
        tokenize("a @ b")


def test_line_numbers_tracked():
    tokens = tokenize("a\nb\n  c")
    named = [t for t in tokens if t.kind == NAME]
    assert [(t.line, t.col) for t in named] == [(1, 1), (2, 1), (3, 3)]


# ---------------------------------------------------------------- parser
def test_parse_empty_process():
    program = parse("process Main() { }")
    assert [proc.name for proc in program.processes] == ["Main"]
    assert program.process("Main").body == ()


def test_parse_params_and_statements():
    source = """
    process Worker(total, limit) {
        var x = total + 1;
        x = x * 2;
        if (x > limit) { emit("big"); } else { emit("small"); }
        while (x > 0) { x = x - 1; }
        return x;
    }
    """
    proc = parse(source).process("Worker")
    assert proc.params == ("total", "limit")
    assert isinstance(proc.body[0], ast.VarDecl)
    assert isinstance(proc.body[1], ast.Assign)
    assert isinstance(proc.body[2], ast.If)
    assert isinstance(proc.body[3], ast.While)
    assert isinstance(proc.body[4], ast.Return)


def test_parse_else_if_chain():
    source = """
    process P(x) {
        if (x == 1) { skip; } else if (x == 2) { skip; } else { skip; }
    }
    """
    stmt = parse(source).process("P").body[0]
    assert isinstance(stmt, ast.If)
    assert isinstance(stmt.otherwise[0], ast.If)


def test_operator_precedence():
    source = "process P() { var x = 1 + 2 * 3 == 7 && true; }"
    decl = parse(source).process("P").body[0]
    top = decl.init
    assert isinstance(top, ast.Binary) and top.op == "&&"
    cmp_node = top.left
    assert cmp_node.op == "=="
    assert cmp_node.left.op == "+"
    assert cmp_node.left.right.op == "*"


def test_indexing_parses():
    decl = parse("process P(m) { var x = m[0][1]; }").process("P").body[0]
    assert isinstance(decl.init, ast.Index)
    assert isinstance(decl.init.base, ast.Index)


def test_call_expression():
    decl = parse('process P() { var x = tuple(1, "a", true); }').process("P").body[0]
    assert isinstance(decl.init, ast.CallExpr)
    assert decl.init.func == "tuple"
    assert len(decl.init.args) == 3


def test_missing_semicolon_raises():
    with pytest.raises(ParseError):
        parse("process P() { var x = 1 }")


def test_unbalanced_braces_raise():
    with pytest.raises(ParseError):
        parse("process P() { if (true) { skip; }")


def test_multiple_processes():
    program = parse("process A() { } process B() { }")
    assert [proc.name for proc in program.processes] == ["A", "B"]
    with pytest.raises(KeyError):
        program.process("C")
