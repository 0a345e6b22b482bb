"""Tokenizer for MiniImp source text."""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import MiniImpSyntaxError

KEYWORDS = {
    "fn", "let", "if", "else", "while", "return", "assert", "throw",
    "try", "catch", "true", "false",
}

# Blanks, then one token: the alternatives are tried in order. The classes
# are spelled out because `\d`, `\w` and `\s` also match other scripts:
# numbers and names are ASCII only. A character that starts no token is
# matched by `error`.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<newline>\n)
  | (?P<comment>//[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<op>[<>=!]=|&&|\|\||[-+*/%<>!=(){}\[\],;])
  | (?P<error>.))""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    type: str  # 'int', 'name', 'kw', 'op', 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0  # line_start: index of the line's first character
    match = None
    # Without trailing blanks, every blank precedes a token, so a match
    # never has to give blanks back to `error`.
    for match in _TOKEN.finditer(source.rstrip(" \t\r")):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
            continue
        if kind == "comment":
            continue
        text = match[kind]
        col = match.end() - len(text) - line_start + 1
        if kind == "name":
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "error":
            raise MiniImpSyntaxError(f"unexpected character {text!r}", line, col)
        tokens.append(Token(kind, text, line, col))
    # End of input sits after the last character, or at the start of a
    # comment that ends the text.
    if match and match.lastgroup == "comment":
        end = match.start("comment")
    else:
        end = len(source)
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens
