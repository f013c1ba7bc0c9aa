"""Differential tests: the native lexer against the Python reference.

On every source, :func:`repro.cfront.tokenize` (the native lexer of
:mod:`repro.cfront.native`) and ``Lexer(source).tokens()`` must give
equal lists of :class:`~repro.cfront.tokens.Token` tuples, or raise
:class:`~repro.cfront.LexError` with equal message, line and column.
The sources are the golden-token programs, generator draws, hand-picked
edges of every token class and seeded mutations of real programs.
"""

import random

import pytest

from repro.cfront import Lexer, LexError, native, tokenize
from repro.cfront.tokens import Token
from repro.workloads import generate_program
from repro.workloads.generator import GeneratorConfig

from tests.cfront.test_golden_tokens import SOURCES

pytestmark = pytest.mark.skipif(
    native.lexer is None,
    reason=f"native lexer unavailable: {native.build_error}")


def outcome(lex, source):
    """The tokens, or the error as (message, line, column)."""
    try:
        return lex(source)
    except LexError as error:
        return (str(error), error.line, error.column)


def python_lexer(source):
    return Lexer(source).tokens()


def assert_same(source):
    expected = outcome(python_lexer, source)
    got = outcome(native.lexer.tokenize, source)
    assert got == expected, source
    if isinstance(got, list):
        assert all(type(token) is Token for token in got), source


def program(name):
    source = SOURCES[name]
    return source if isinstance(source, str) else generate_program(source)


def test_tokenize_is_the_native_lexer():
    assert tokenize is native.lexer.tokenize


@pytest.mark.parametrize("name", list(SOURCES))
def test_golden_programs(name):
    assert_same(program(name))


def test_generator_draws():
    for seed in range(200):
        assert_same(generate_program(GeneratorConfig(
            name="draw", seed=seed, functions=1 + seed % 8)))


EDGES = [
    "",
    # literals and comments cut at the end of the source
    '"abc', "'a", "/* abc", "/*", "/", "// abc", '"a\\', "x = '\\",
    '"a\\\nb', "#define X \\", "#", "#\\",
    # a lone backslash at the end
    "\\", "x \\", "x;\n\\",
    # form feed, vertical tab and other stray characters
    "int\fx;", "a\vb", "x @ y", "$x", "`x`", "x ? y : z # w",
    # non-ASCII in identifiers, strings and comments (UCS1, UCS2, UCS4)
    "café = 1;", "x = \"héllo\"; @", "s = \"日本\"; y @", "c = '😀'; @",
    "/* é 日本 😀 */ x @", "// 😀\nx @", "日本", "😀", "x y",
    "#define S \"日本\" \\\n 😀\nx @",
    # CRLF line ends
    "int x;\r\nint y;\r\n", "#define A \\\r\n 1\r\nx", "/* a\r\nb */ @",
    '"a\\\r\nb"', "// c\r\nx @",
    # dots and numbers
    ".", "...", "..", "....", ".5", ".5.5", "a.b", "f(...)", "0x", "0X",
    "1e", "1e+", "1E-", "0x1fF", "0x1uf", "0x1ULF", "1.e5", "1.5e-3f",
    "017u", "3ll", "7.", "1..2", "0xg", "1f", "1uL", "0.", "00",
    # punctuators next to each other and to comments
    "a>>=b<<=c...d->e", "a+++b", "a/ /b", "a/*b*/c", "a//b\nc", "*/",
    "x=-1;", "p->*q",
]


@pytest.mark.parametrize("source", EDGES)
def test_edges(source):
    assert_same(source)


#: fragments the mutations insert
FRAGMENTS = [
    '"', "'", "/*", "*/", "//", "\\", "\\\n", "\n", "\r\n", "\f", "\v",
    "@", "$", "`", "#", "é", "日本", "😀", ".", "...", ".5", "0x", "1e",
    "0x1fF", "1e+", "'\\", '"\\', "\t", " ",
]


def mutants(count, seed=0):
    rng = random.Random(seed)
    programs = [program(name) for name in sorted(SOURCES)]
    for _ in range(count):
        source = rng.choice(programs)
        start = rng.randrange(len(source))
        source = source[start:start + rng.randrange(1, 400)]
        for _ in range(rng.randrange(4)):
            at = rng.randrange(len(source) + 1)
            source = source[:at] + rng.choice(FRAGMENTS) + source[at:]
        if rng.random() < 0.3:
            source = source[:rng.randrange(len(source) + 1)]
        yield source


def test_seeded_mutations():
    for source in mutants(3000):
        assert_same(source)


def test_filename_and_string_subclasses():
    class Source(str):
        pass

    source = Source("int x; /* é */ y")
    assert (native.lexer.tokenize(source, "x.c")
            == native.lexer.tokenize(source, filename="x.c")
            == Lexer(source, "x.c").tokens())


def test_non_string_is_a_type_error():
    for lex in (python_lexer, native.lexer.tokenize):
        with pytest.raises(TypeError):
            lex(b"int x;")
