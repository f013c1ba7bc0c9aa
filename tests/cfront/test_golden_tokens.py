"""Golden token streams: the lexer's output is pinned by a fingerprint.

Each digest is the SHA-256 of ``kind NUL text NUL line NUL column LF``
over every token (EOF included) of one program, so any change to a
token's kind, text or position shows up here.  The programs are every
``FULL_SUITE`` benchmark, every hand-written workload program, and a
small source that exercises the token classes the generator never
emits (comments, directives, escapes, every punctuator).  Both lexers
are pinned: :func:`tokenize` (the native lexer when it built) and the
Python reference ``Lexer(source).tokens()``.
"""

import hashlib

import pytest

from repro.cfront import Lexer, tokenize
from repro.workloads import ALL_PROGRAMS, FULL_SUITE, generate_program

LEXICON = r"""#include <stdio.h>
#define TWICE(x) \
    ((x) + (x))
/* block comment
   over lines */ int a = 0x1F, b = 017u, c = 42UL; // trailing
double d = 1.5e-3, e = .25f, f = 2E10, g = 3.;
char h = '\n', i = '\'', j = 'x';
char *s = "esc \" \\ \t", *t = "";
a <<= 1; a >>= 1; f(a, ...); p->q; a++; a--; a << b >> c;
a <= b >= c == d != e && f || g;
a += 1; a -= 1; a *= 1; a /= 1; a %= 1; a &= 1; a ^= 1; a |= 1;
a + b - c * d / e % f & g | h ^ ~i ! j < k > l = m ? n : o;
s.x[0] = {1, 2};
    # indented directive
int z; /* tail */
"""

#: name -> SHA-256 of the program's token stream
GOLDEN = {
    "allroots":
        "924808f64663b11727db0c49ccb046219ed65272312a6679d9f9391add9c3a95",
    "diff.diffh":
        "19fdca2fdb6a7151fd596516d9c95650f7284f2784ef58c43a930f15547740c7",
    "anagram":
        "b769d911b8b466cec66f2d21f6da1c43292cbdcb7b24672c2547579584e2248f",
    "genetic":
        "3df3a3a6803f9f61f0e95c529c857177e6d75c84d0061ed86db07f134c50b430",
    "ks":
        "35bbd7775b5f397943250a22950ad683f30f181c73e602dc0e517ac145448406",
    "ul":
        "6408b7900ce58c93dbd4536309520f5f0fca3daa6cdcff1c2acf6d51b835ab5d",
    "ft":
        "306512aaa72d1a9bd8f7b077cbe4303ff41f46df3422fa37db5d59a3b8c90563",
    "compress":
        "392bd8adc68acc538fdf3f8dd32ecfe7663fdf75a5ad2db2ef592e1d0774caa6",
    "ratfor":
        "652c7ece41fd4cb2eb365dc26f6f86f21b511e52fb95762c0af477cebe5781cb",
    "compiler":
        "ad5dadebe6b3cca8985fc1a598f4e9607f7f723aa571e117fd9bac2f85e340f9",
    "assembler":
        "7aba5652c800c4bfc33c2e3084a5a4c3df70cdb7a1685b2bfdcd9b70e3323bd8",
    "ML-typecheck":
        "55e62068a500443a403383c23cef3dbba3781c74d9b360c0534492e788b047d6",
    "eqntott":
        "6a37914c07cd81f6b98917ce68a08333215da52f01896cddd5bd7ca6b68efc10",
    "simulator":
        "fa421d36c28a83cd2586ff951fdf03e95ecb8eb41b2f2f7bb69d8260f8a0052b",
    "less-177":
        "87408bce716e69cccdd6ef450de68bc53c82c649a4a294cfb0517882cf0c3150",
    "li":
        "110cedba7c04d6f65e66f015c007c22f0fc099b36f1ac6c3e8f0b93d38233b88",
    "flex-2.4.7":
        "3673a845476e95c5c6eb572c308318143132a1004da01d9c39db76c0283ee121",
    "pmake":
        "6e099ec34076433a82c8df927a67f4cfd6842f362fa242e5826f5422302a98cc",
    "make-3.75":
        "aa5f55ca6f2bb0d6bff0e0402beae25d94e76d90c62338d4a6918cc654350417",
    "inform-5.5":
        "45cdf9a6bd3584d7c233af1015fe5ea664e828ca87ac35c6fb2f13ecfc2c1097",
    "tar-1.11.2":
        "dde83aa2c6aa1a28c4e733ada5c7c79389b42c6f6083f2172668ffbfb0f26366",
    "sgmls-1.1":
        "f450a6f27ccb3e156fc4f32e625bd1b910d0c31118d54fe2dcdcd28f87ae2791",
    "screen-3.5.2":
        "217de091f63f8bcd0d65954a0e203e13225eea332694420e8fc6c4d9f7763923",
    "cvs-1.3":
        "6765da16e4447e3f193c1e7bac8f2acc7aeddad63e60ce550324dc27cccee44d",
    "figure5":
        "4f384994de0ec7d5029d82ed5a668e81d9c4f150237daca075fff72ce13bada4",
    "linked_list":
        "06d466b6ec1d8996bdd7850bd048636e7584eec4c4dfc24700f587de02b51b81",
    "swap_cycle":
        "aef7a177871da7a2edfeabb51e55dadcbe8e35926765153bcc06a9ef1d5fc040",
    "function_pointers":
        "4144770570062ee317e2ab35b7a6c6725a6d45021aef3e002a5a35c3f574953a",
    "recursion":
        "56e4d1effb70c2e815f464bbc505996194367634a15187b9fbd611bca8592220",
    "multi_level":
        "154aa457c84e912771bd31736d19d786f2fb8221488138ab0b22e52061ad22c1",
    "hash_table":
        "23377b7cf2e4bab26fc68cf6e56f0584d5a7e71ff50ea72004e6b27b433cc42d",
    "arena":
        "74305cb5608997d17d710359b6305770b0c336eb295d664e7e9990c1c78cdfcf",
    "state_machine":
        "355603e7b91f81ae3668a85f0fdc58e2088f18bf8c3aa1d5c19e6b54bf3a0950",
    "lexicon":
        "2bf55394a7a35a57f76f3037bc5a8cf93df40904b99fe3f1eab9f3f0bde8e4d1",
}

SOURCES = {config.name: config for config in FULL_SUITE}
SOURCES.update(ALL_PROGRAMS)
SOURCES["lexicon"] = LEXICON


def stream_digest(source, lex=tokenize):
    digest = hashlib.sha256()
    for token in lex(source):
        digest.update(
            f"{token.kind}\0{token.text}\0{token.line}\0{token.column}\n"
            .encode()
        )
    return digest.hexdigest()


def test_every_program_has_a_golden_digest():
    assert set(GOLDEN) == set(SOURCES)


@pytest.mark.parametrize("name", list(SOURCES))
def test_token_stream_matches_golden(name):
    source = SOURCES[name]
    if not isinstance(source, str):
        source = generate_program(source)
    assert stream_digest(source) == GOLDEN[name]


@pytest.mark.parametrize("name", list(SOURCES))
def test_python_lexer_matches_golden(name):
    """The Python reference lexer, which :func:`tokenize` is not when
    the native lexer built, gives the same streams."""
    source = SOURCES[name]
    if not isinstance(source, str):
        source = generate_program(source)
    assert stream_digest(source, lambda text: Lexer(text).tokens()) == (
        GOLDEN[name])
