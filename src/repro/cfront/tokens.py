"""Token definitions for the C frontend."""

from __future__ import annotations

from typing import NamedTuple

# Token kinds.
IDENT = "ident"
KEYWORD = "keyword"
INT_CONST = "int"
FLOAT_CONST = "float"
CHAR_CONST = "char"
STRING_CONST = "string"
PUNCT = "punct"
EOF = "eof"

#: C89 keywords plus the few C99 ones our benchmarks use.
KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if int long register return short signed sizeof static
    struct switch typedef union unsigned void volatile while inline
    """.split()
)

#: Punctuators, longest first: the lexer's alternation tries them in
#: this order, so ``>>=`` wins over ``>>`` over ``>``.
PUNCTUATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)


class Token(NamedTuple):
    """One lexical token with its source position.

    A named tuple: cheap to build, and equal to the plain tuple
    ``(kind, text, line, column)``.
    """

    kind: str
    text: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        """Whether this token is the punctuator ``text``."""
        return self.kind == PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        """Whether this token is the keyword ``text``."""
        return self.kind == KEYWORD and self.text == text

    def __str__(self) -> str:
        return f"{self.text!r}@{self.line}:{self.column}"
