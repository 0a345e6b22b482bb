"""Oracle for the lexer tests.

`tokenize` is the character-by-character tokenizer semfl shipped before
the regular-expression one in `semfl.lang.lexer`, kept unchanged. The
tests check that both give the same tokens, or fail with the same message
at the same position, on any text.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from semfl.errors import MiniImpSyntaxError

KEYWORDS = {
    "fn", "let", "if", "else", "while", "return", "assert", "throw",
    "try", "catch", "true", "false",
}

TWO_CHAR = {"<=", ">=", "==", "!=", "&&", "||"}
ONE_CHAR = set("+-*/%<>!=(){}[],;")
# Only ASCII: `str.isdigit` and `str.isalnum` also accept other scripts.
DIGITS = set(string.digits)
NAME_START = set(string.ascii_letters + "_")
NAME_CHARS = NAME_START | DIGITS


@dataclass(frozen=True)
class Token:
    type: str  # 'int', 'name', 'kw', 'op', 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if c in DIGITS:
            j = i
            while j < n and source[j] in DIGITS:
                j += 1
            tokens.append(Token("int", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in NAME_START:
            j = i
            while j < n and source[j] in NAME_CHARS:
                j += 1
            text = source[i:j]
            tokens.append(Token("kw" if text in KEYWORDS else "name", text, line, start_col))
            col += j - i
            i = j
            continue
        if source[i:i + 2] in TWO_CHAR:
            tokens.append(Token("op", source[i:i + 2], line, start_col))
            i += 2
            col += 2
            continue
        if c in ONE_CHAR:
            tokens.append(Token("op", c, line, start_col))
            i += 1
            col += 1
            continue
        raise MiniImpSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
