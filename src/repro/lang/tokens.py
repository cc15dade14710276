"""Token definitions for the mini-HOPE language."""

from __future__ import annotations

from dataclasses import dataclass

# token kinds
NAME = "NAME"
NUMBER = "NUMBER"
STRING = "STRING"
KEYWORD = "KEYWORD"
OP = "OP"
EOF = "EOF"

KEYWORDS = frozenset(
    {
        "process", "var", "if", "else", "while", "return", "skip",
        "true", "false", "nil",
    }
)

#: multi-character operators first so the lexer can match greedily
OPERATORS = (
    "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ",", ";", "=",
    "<", ">", "+", "-", "*", "/", "%", "!",
)

#: the built-in functions of the language; HOPE primitives are just calls
BUILTINS = frozenset(
    {
        "guess", "affirm", "deny", "free_of", "aid_init",
        "send", "recv", "reply", "call", "emit", "compute", "now", "random",
        "payload", "sender", "tuple", "len", "nth", "str",
    }
)

#: expected argument counts (None = variadic); checked statically
BUILTIN_ARITY = {
    "guess": 1,
    "affirm": 1,
    "deny": 1,
    "free_of": 1,
    "aid_init": (0, 1),
    "send": 2,
    "recv": (0, 1),
    "reply": 2,
    "call": 2,
    "emit": 1,
    "compute": 1,
    "now": 0,
    "random": 0,
    "payload": 1,
    "sender": 1,
    "tuple": None,
    "len": 1,
    "nth": 2,
    "str": 1,
}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based line/col)."""

    kind: str
    value: str
    line: int
    col: int
