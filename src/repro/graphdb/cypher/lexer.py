"""Cypher lexer.

Tokenizes the Cypher subset used by SecurityKG: MATCH / WHERE /
RETURN / CREATE queries with node-and-relationship patterns,
comparisons, boolean operators, string predicates and
ORDER BY / SKIP / LIMIT.
"""

from __future__ import annotations

import enum
import re


class CypherSyntaxError(ValueError):
    """Lexical or grammatical error in a Cypher query."""


class TokenType(enum.Enum):
    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "MATCH",
        "WHERE",
        "RETURN",
        "CREATE",
        "ORDER",
        "BY",
        "LIMIT",
        "SKIP",
        "AND",
        "OR",
        "NOT",
        "AS",
        "DISTINCT",
        "ASC",
        "DESC",
        "IN",
        "CONTAINS",
        "STARTS",
        "ENDS",
        "WITH",
        "NULL",
        "TRUE",
        "FALSE",
        "COUNT",
        "COLLECT",
        "AVG",
        "MIN",
        "MAX",
        "SUM",
        "EXPLAIN",
        "PROFILE",
        "IS",
    }
)

#: One alternative per token kind, named so ``match.lastgroup`` says
#: which one matched; multi-character symbols first so maximal munch
#: applies.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<symbol><=|>=|<>|->|<-|[()\[\]{}:,.\-<>=*])
    """,
    re.VERBOSE,
)


class Token:
    """One lexeme: its type, its value and its offset in the query."""

    __slots__ = ("type", "value", "position")

    def __init__(self, type: TokenType, value: str, position: int):
        self.type = type
        self.value = value
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.type.value}, {self.value!r})"


def tokenize(query: str) -> list[Token]:
    """Lex a query string; raises :class:`CypherSyntaxError` on junk."""
    tokens: list[Token] = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    pos = 0
    end = len(query)
    while pos < end:
        match = match_at(query, pos)
        if match is None:
            raise CypherSyntaxError(
                f"unexpected character {query[pos]!r} at offset {pos}"
            )
        kind = match.lastgroup
        start, pos = pos, match.end()
        if kind == "ws":
            continue
        text = match.group()
        if kind == "ident":
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start))
            else:
                append(Token(TokenType.IDENT, text, start))
        elif kind == "symbol":
            append(Token(TokenType.SYMBOL, text, start))
        elif kind == "string":
            value = text[1:-1]
            if "\\" in value:
                value = value.replace('\\"', '"').replace("\\'", "'").replace(
                    "\\\\", "\\"
                )
            append(Token(TokenType.STRING, value, start))
        else:
            append(Token(TokenType.NUMBER, text, start))
    append(Token(TokenType.EOF, "", end))
    return tokens


__all__ = ["CypherSyntaxError", "KEYWORDS", "Token", "TokenType", "tokenize"]
