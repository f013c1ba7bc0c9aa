"""A regex-driven lexer for the C subset.

One compiled master pattern (:data:`_TOKEN`) has a named alternative per
token class: whitespace, newlines, preprocessor directives (skipped:
like the paper's benchmarks, the frontend consumes directive-free
source), both comment styles, identifiers/keywords, integer and float
constants, string and character literals with the usual escapes, and
the punctuators longest first.  :class:`Lexer` advances with one
``match(source, pos)`` per lexeme.  Positions are 1-based, and newlines
inside directives, comments and literals (backslash continuations)
count.

:func:`tokenize` runs the native lexer when it built
(:mod:`repro.cfront.native`); :meth:`Lexer.tokens` stays the reference.
"""

from __future__ import annotations

import re
from typing import List

from . import native
from .errors import LexError
from .tokens import (
    CHAR_CONST,
    EOF,
    FLOAT_CONST,
    IDENT,
    INT_CONST,
    KEYWORD,
    KEYWORDS,
    PUNCT,
    PUNCTUATORS,
    STRING_CONST,
    Token,
)

#: Alternatives are tried in order.  Where two share a first character
#: the longer form comes first: ``number`` before the ``.`` punctuator,
#: comments before ``/``.  Each ``open_*`` alternative follows its full
#: form, so it matches only an unterminated comment or literal.
_TOKEN = re.compile(
    r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n[ \t\r]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>0[xX][0-9a-fA-F]*[uUlLfF]*
      | (?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?[uUlLfF]*)
  | (?P<comment>//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
  | (?P<open_comment>/\*)
  | (?P<punct>PUNCT)
  | (?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
  | (?P<char>'[^'\\\n]*(?:\\.[^'\\\n]*)*')
  | (?P<directive>\#(?:[^\n\\]|\\\n?)*\n?)
  | (?P<open_string>")
  | (?P<open_char>')
    """.replace("PUNCT", "|".join(map(re.escape, PUNCTUATORS))),
    re.VERBOSE | re.DOTALL,
)

_LITERAL_KINDS = {"string": STRING_CONST, "char": CHAR_CONST}
_UNTERMINATED = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_char": "unterminated character literal",
}
_HEX_DIGITS = "0123456789abcdefABCDEF"


def _number_kind(text: str) -> str:
    """A float has a fraction, an exponent or an ``f`` suffix."""
    if text[:2] in ("0x", "0X"):
        text = text[2:].lstrip(_HEX_DIGITS)  # leaves the suffix
    for mark in ".eEfF":
        if mark in text:
            return FLOAT_CONST
    return INT_CONST


class Lexer:
    """Single-pass lexer over a source string."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.source = source
        self.filename = filename

    def tokens(self) -> List[Token]:
        """Lex the whole input, appending a single EOF token."""
        source = self.source
        length = len(source)
        match = _TOKEN.match
        make = Token._make
        out: List[Token] = []
        append = out.append
        pos = 0
        line = 1
        line_start = 0  # offset of the current line's first character
        while pos < length:
            found = match(source, pos)
            if found is None:
                raise LexError(
                    f"unexpected character {source[pos]!r}",
                    line, pos - line_start + 1,
                )
            group = found.lastgroup
            end = found.end()
            if group == "ident":
                text = found.group()
                append(make((KEYWORD if text in KEYWORDS else IDENT,
                             text, line, pos - line_start + 1)))
            elif group == "punct":
                append(make((PUNCT, found.group(), line,
                             pos - line_start + 1)))
            elif group == "newline":
                line += 1
                line_start = pos + 1
            elif group == "number":
                text = found.group()
                append(make((_number_kind(text), text, line,
                             pos - line_start + 1)))
            elif group in _UNTERMINATED:
                raise LexError(_UNTERMINATED[group],
                               line, pos - line_start + 1)
            elif group != "space":
                # A literal, comment or directive: it may span lines.
                text = found.group()
                if group in _LITERAL_KINDS:
                    append(make((_LITERAL_KINDS[group], text, line,
                                 pos - line_start + 1)))
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rfind("\n") + 1
            pos = end
        out.append(make((EOF, "", line, pos - line_start + 1)))
        return out


if native.lexer is not None:
    #: Lex ``source`` into a token list: the native lexer, which gives
    #: :meth:`Lexer.tokens`' tokens or error (see
    #: :mod:`repro.cfront.native`).
    tokenize = native.lexer.tokenize
else:
    def tokenize(source: str, filename: str = "<input>") -> List[Token]:
        """Lex ``source`` into a token list (the Python lexer)."""
        return Lexer(source, filename).tokens()
