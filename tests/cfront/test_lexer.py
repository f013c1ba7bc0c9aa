"""Tests for the C lexer."""

import pytest

from repro.cfront import LexError, tokenize
from repro.cfront.tokens import (
    CHAR_CONST,
    EOF,
    FLOAT_CONST,
    IDENT,
    INT_CONST,
    KEYWORD,
    PUNCT,
    STRING_CONST,
    Token,
)


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input_has_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_identifier(self):
        assert kinds("hello _under score2") == [IDENT, IDENT, IDENT]

    def test_keywords(self):
        assert kinds("int while typedef") == [KEYWORD] * 3

    def test_keyword_prefix_is_identifier(self):
        assert kinds("integer") == [IDENT]

    def test_punctuation_longest_match(self):
        assert texts("a >>= b >> c > d") == [
            "a", ">>=", "b", ">>", "c", ">", "d"
        ]

    def test_arrow_vs_minus(self):
        assert texts("p->q - r--") == ["p", "->", "q", "-", "r", "--"]

    def test_ellipsis(self):
        assert texts("f(int, ...)") == ["f", "(", "int", ",", "...", ")"]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestNumbers:
    def test_decimal(self):
        assert kinds("0 42 123456") == [INT_CONST] * 3

    def test_hex(self):
        tokens = tokenize("0x1F 0Xabc")
        assert [t.kind for t in tokens[:-1]] == [INT_CONST] * 2

    def test_suffixes(self):
        assert kinds("1u 2UL 3ll") == [INT_CONST] * 3

    def test_float(self):
        assert kinds("1.5 2e10 3.14e-2 1.0f") == [FLOAT_CONST] * 4

    def test_leading_dot_float(self):
        assert kinds(".5") == [FLOAT_CONST]

    def test_dot_alone_is_punct(self):
        assert kinds("a.b") == [IDENT, PUNCT, IDENT]


class TestStringsAndChars:
    def test_string(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind == STRING_CONST
        assert tokens[0].text == '"hello world"'

    def test_string_escapes(self):
        tokens = tokenize(r'"a\"b\\c\n"')
        assert tokens[0].kind == STRING_CONST

    def test_char(self):
        assert kinds(r"'a' '\n' '\''") == [CHAR_CONST] * 3

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_string_at_newline(self):
        with pytest.raises(LexError):
            tokenize('"abc\ndef"')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")


class TestCommentsAndDirectives:
    def test_line_comment(self):
        assert texts("a // comment here\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_block_comment_not_nested(self):
        assert texts("a /* /* */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_division_not_comment(self):
        assert texts("a / b") == ["a", "/", "b"]

    def test_directive_skipped(self):
        assert texts("#include <stdio.h>\nint x;") == ["int", "x", ";"]

    def test_directive_with_continuation(self):
        assert texts("#define A \\\n 5\nint x;") == ["int", "x", ";"]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as info:
            tokenize("int @ x;")
        assert info.value.line == 1

    def test_error_position(self):
        with pytest.raises(LexError) as info:
            tokenize("x\n  @")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("x;\n  @ y", "unexpected character '@'", 2, 3),
            ("x;\n\tint \f", "unexpected character '\\x0c'", 2, 6),
            ('x;\n  "abc', "unterminated string literal", 2, 3),
            ('x;\n  "abc\ny"', "unterminated string literal", 2, 3),
            ('"ok"; "a\\', "unterminated string literal", 1, 7),
            ("x;\n  'a", "unterminated character literal", 2, 3),
            ("x;\n  'a\n'", "unterminated character literal", 2, 3),
            ("/* a */ x;\n  /* never\nends", "unterminated block comment",
             2, 3),
            ('"a\\\nb" @', "unexpected character '@'", 2, 4),
            ("x; // c\n y /* c\n */ @", "unexpected character '@'", 3, 5),
        ],
    )
    def test_error_keeps_message_and_position(
        self, source, message, line, column
    ):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"{message} at {line}:{column}"


def positions(source):
    return [(t.text, t.line, t.column) for t in tokenize(source)]


class TestPositionRegressions:
    def test_backslash_newline_in_string_counts_a_line(self):
        assert positions('s = "a\\\nb";\nint y;')[-5:] == [
            (";", 2, 3), ("int", 3, 1), ("y", 3, 5), (";", 3, 6), ("", 3, 7),
        ]

    def test_backslash_newline_in_char_counts_a_line(self):
        assert positions("c = '\\\n';\nint y;")[-5:] == [
            (";", 2, 2), ("int", 3, 1), ("y", 3, 5), (";", 3, 6), ("", 3, 7),
        ]

    def test_eof_column_after_trailing_line_comment(self):
        assert positions("int x; // c")[-1] == ("", 1, 12)

    def test_eof_position_after_block_comment_and_directive(self):
        assert positions("/* a\nbc */")[-1] == ("", 2, 6)
        assert positions("#define A \\\n 1")[-1] == ("", 2, 3)
        assert positions("#define A 1\n")[-1] == ("", 2, 1)


class TestToken:
    def test_is_a_plain_tuple(self):
        token = tokenize("x")[0]
        assert token == (IDENT, "x", 1, 1)
        assert token == Token(IDENT, "x", 1, 1)
        kind, text, line, column = token
        assert (kind, text, line, column) == ("ident", "x", 1, 1)

    def test_is_immutable(self):
        token = Token(IDENT, "x", 1, 1)
        with pytest.raises(AttributeError):
            token.text = "y"

    def test_predicates_and_str(self):
        plus, kw = tokenize("+ while")[:2]
        assert plus.is_punct("+") and not plus.is_keyword("+")
        assert kw.is_keyword("while") and not kw.is_punct("while")
        assert str(kw) == "'while'@1:3"
