"""Property tests for token positions over generated C-ish sources.

A source is a sequence of lexemes separated by trivia (whitespace,
comments, directives).  Lexing must give back exactly the lexemes, and
each token's ``(line, column)`` must point at its own text in the
source; the EOF token must point just past the last character.  Both
position rules that are easy to get wrong are exercised: newlines
inside literals (backslash continuations) and comments, and a source
that ends in a ``//`` comment.  Both lexers are checked:
:func:`tokenize` (the native lexer when it built) and the Python
reference ``Lexer(source).tokens()``.
"""

from hypothesis import given, settings, strategies as st

from repro.cfront import Lexer, tokenize
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS

_PLAIN = st.text(
    alphabet="abcXYZ019 _+-*/%&|^~!<>=?:;,.()[]{}@$`\t", max_size=6
)


def _literal(quote):
    escape = st.sampled_from(["\\n", "\\\\", "\\" + quote, "\\\n"])
    body = st.lists(st.one_of(_PLAIN, escape), max_size=4)
    return body.map(lambda parts: quote + "".join(parts) + quote)


_LEXEMES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(PUNCTUATORS),
    st.sampled_from(["0", "42", "0x1F", "017u", "3ll", "1.5", ".25f",
                     "2e10", "1.0e-3", "7."]),
    _literal('"'),
    _literal("'"),
)

_COMMENT_TEXT = _PLAIN.filter(lambda text: "*/" not in text)
_TRIVIA = st.one_of(
    st.sampled_from([" ", "\t", "\n", "\r\n", "  \n\n\t"]),
    _COMMENT_TEXT.map(lambda text: "/*" + text + "*/"),
    _COMMENT_TEXT.map(lambda text: "/*\n" + text + "\n*/"),
    _PLAIN.map(lambda text: "//" + text + "\n"),
    _PLAIN.map(lambda text: "\n#define A " + text + "\n"),
    _PLAIN.map(lambda text: "\n#if " + text + " \\\n " + text + "\n"),
)
#: trivia that may end the source without a newline
_TAIL = st.one_of(
    st.just(""),
    _TRIVIA,
    _PLAIN.map(lambda text: "//" + text),
)


@st.composite
def sources(draw):
    lexemes = draw(st.lists(_LEXEMES, max_size=12))
    parts = draw(st.lists(_TRIVIA, max_size=2))
    for lexeme in lexemes:
        # "/" then a comment would lex as a longer comment
        parts.append(lexeme + " " if lexeme == "/" else lexeme)
        parts.append(draw(_TRIVIA))
    parts.append(draw(_TAIL))
    return lexemes, "".join(parts)


def line_offsets(source):
    """Offset of the first character of each line."""
    return [0] + [i + 1 for i, char in enumerate(source) if char == "\n"]


def check_positions(lex, case):
    lexemes, source = case
    *tokens, eof = lex(source)
    assert [token.text for token in tokens] == lexemes
    starts = line_offsets(source)
    for token in tokens:
        offset = starts[token.line - 1] + token.column - 1
        assert source.startswith(token.text, offset), token
        # The column stays on the token's line.
        assert "\n" not in source[starts[token.line - 1]:offset], token
    assert starts[eof.line - 1] + eof.column - 1 == len(source)
    assert eof.line == len(starts)


@given(sources())
@settings(max_examples=200, deadline=None)
def test_tokens_are_the_lexemes_at_their_positions(case):
    check_positions(tokenize, case)


@given(sources())
@settings(max_examples=200, deadline=None)
def test_python_lexer_tokens_are_the_lexemes_at_their_positions(case):
    check_positions(lambda source: Lexer(source).tokens(), case)
