"""Seed-free expression hashes (:mod:`repro.constraints.hashing`).

Every constant below is the hash CPython 3.11+ gives the value under
``PYTHONHASHSEED=0``.  Expressions must hash to them in any process,
so bucket iteration order, and every solver counter, is the same under
any hash seed.
"""

import os
import subprocess
import sys

import pytest

from repro.andersen.locations import AbstractLocation, LocationKind
from repro.constraints.constructors import Constructor, ZERO_CONSTRUCTOR
from repro.constraints.expressions import ZERO, Term, Var
from repro.constraints.hashing import str_hash
from repro.constraints.variance import CONTRAVARIANT, COVARIANT, Variance
from repro.solver import native

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))

#: Strings and their seed-0 hashes: every length 0-17 (so each 8-byte
#: tail length), then latin-1, BMP (UTF-16) and astral (UTF-32) text.
STR_HASHES = {
    "": 0,
    "a": 4644417185603328019,
    "ab": 6148830537548944441,
    "abc": -4594863902769663758,
    "abcd": -2030606670787596663,
    "abcde": 2674923165546153122,
    "abcdef": 7070790388344807208,
    "abcdefg": 7904145750247929094,
    "abcdefgh": 4574395652268504554,
    "abcdefghi": -532774252720507163,
    "abcdefghij": -829746140550000655,
    "abcdefghijk": 1450545860578130900,
    "abcdefghijkl": -8996131201539021375,
    "abcdefghijklm": -7689147164244908826,
    "abcdefghijklmn": -162833645092072998,
    "abcdefghijklmno": 2293029479765367930,
    "abcdefghijklmnop": -7712962755478248686,
    "abcdefghijklmnopq": 7044894726457044172,
    "var": 5130368175956379818,
    "loc": 1061931638063975679,
    "ref": -1156067979394840722,
    "+": -7144434700638807671,
    "-": 8771679919975113486,
    "atom-1": -977493333062148978,
    "src": 3332885702635751156,
    "café": 137524001917817222,
    "ÿ" * 9: -2129700217430894956,
    "naïve résumé": -5889464207649980233,
    "λx.x": -2111259924334875061,
    "€" * 5: 5627357888335991562,
    "日本語テキスト": 5570022306295089571,
    "\U0001F600": -3536540696076613844,
    "emoji \U0001F680 rocket": 7995578262662409626,
    "\U00010348" * 3: 6932148814757532288,
}

REF = Constructor("ref", (COVARIANT, COVARIANT, CONTRAVARIANT))
LOC = Constructor("loc")
LOCATION = AbstractLocation(3, "main::p", LocationKind.VARIABLE)

#: (expression, the plain value CPython hashes the same way, its
#: seed-0 hash).  A Variance stands for its value, a Constructor for
#: ``(name, signature)``, a Var for ``("var", index)``, a location for
#: ``("loc", uid)`` and a Term for ``(constructor, args[, label])``.
EXPRESSIONS = {
    "var-0": (Var(0), ("var", 0), 8025854762020141260),
    "var-41": (Var(41, "x"), ("var", 41), 7195941727304337551),
    "ctor-nullary": (ZERO_CONSTRUCTOR, ("0", ()), -3522792803266981799),
    "ctor-ref": (REF, ("ref", ("+", "+", "-")), 7933008803503078177),
    "ctor-loc": (LOC, ("loc", ()), 2880651078214024986),
    "location": (LOCATION, ("loc", 3), 5985022467624557689),
    "term-no-label": (
        Term(REF, (Var(0), Var(1), ZERO)),
        (("ref", ("+", "+", "-")),
         (("var", 0), ("var", 1), (("0", ()), ()))),
        5512900319060315546,
    ),
    "term-str-label": (
        Term(Constructor("atom"), (), label="atom-1"),
        (("atom", ()), (), "atom-1"),
        -8552507439986939652,
    ),
    "term-tuple-label": (
        Term(Constructor("k", (COVARIANT,)), (ZERO,), label=("src", 2)),
        (("k", ("+",)), ((("0", ()), ()),), ("src", 2)),
        -7357393677848136911,
    ),
    "term-location-label": (
        Term(LOC, (), label=LOCATION),
        (("loc", ()), (), ("loc", 3)),
        -1632411048545850268,
    ),
}


@pytest.mark.parametrize("text", list(STR_HASHES), ids=ascii)
def test_str_hash_is_seed_zero_hash(text):
    assert str_hash(text) == STR_HASHES[text]


@pytest.mark.parametrize("name", list(EXPRESSIONS))
def test_expression_hash_is_seed_zero_hash(name):
    expression, _, expected = EXPRESSIONS[name]
    assert hash(expression) == expected


@pytest.mark.parametrize("name", [name for name in EXPRESSIONS
                                  if name.startswith(("var", "term"))])
def test_hash_is_the_cached_slot(name):
    """Term and Var hash to their ``_hash`` slot both through the
    native kernel's C ``tp_hash`` (``hash``, when the kernel built) and
    through the Python ``__hash__`` methods it stands in for."""
    expression, _, expected = EXPRESSIONS[name]
    assert expression._hash == expected
    assert hash(expression) == expression._hash
    assert type(expression).__hash__(expression) == expression._hash


@pytest.mark.skipif(native.kernel is None,
                    reason=f"native kernel unavailable: {native.build_error}")
def test_native_hash_is_installed_with_a_python_fallback():
    assert native.kernel.has_native_hash(Term)
    assert native.kernel.has_native_hash(Var)
    assert not native.kernel.has_native_hash(Constructor)
    # An unset slot goes to the Python method, which raises for it.
    term = Term(LOC, (), label="unset")
    del term._hash
    with pytest.raises(AttributeError):
        hash(term)


def test_term_equality():
    """``==`` on terms (natively for plain terms over one constructor
    and label) agrees with ``Term.__eq__``."""
    box = Constructor("box", (COVARIANT,))
    inner = Term(box, (ZERO,))
    cases = [
        (Term(box, (Var(1),)), Term(box, (Var(1),)), True),
        (Term(box, (inner,)), Term(box, (Term(box, (ZERO,)),)), True),
        (Term(box, (Var(1),)), Term(box, (Var(2),)), False),
        (Term(LOC, (), "a"), Term(LOC, (), "a"), True),
        (Term(LOC, (), "a"), Term(LOC, (), "b"), False),
        (Term(LOC, (), 7), Term(LOC, (), 7.0), True),
        (Term(LOC, (), float("nan")), Term(LOC, (), float("nan")), False),
        (Term(LOC, (), LOCATION), Term(LOC, (), LOCATION), True),
        (Term(LOC), Term(Constructor("loc")), True),
        (Term(LOC), Term(Constructor("other")), False),
        (Term(LOC), Var(0), False),
    ]
    for left, right, equal in cases:
        assert left.__eq__(right) is equal, (left, right)
        assert (left == right) is equal, (left, right)
        assert (left != right) is not equal, (left, right)
    nan = float("nan")
    same_nan = Term(LOC, (), nan)
    assert (same_nan == Term(LOC, (), nan)) is same_nan.__eq__(
        Term(LOC, (), nan))


def test_variance_hashes_are_constants():
    assert hash(Variance.COVARIANT) == STR_HASHES["+"]
    assert hash(Variance.CONTRAVARIANT) == STR_HASHES["-"]


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 hashes strings with SipHash-2-4, not 1-3",
)
def test_constants_match_cpython_under_seed_zero():
    """The constants are CPython's own: a ``PYTHONHASHSEED=0`` child
    hashes each string and each plain equivalent to them."""
    values = list(STR_HASHES) + [
        plain for _, plain, _ in EXPRESSIONS.values()
    ]
    script = (
        "import ast, sys\n"
        "for line in sys.stdin.read().splitlines():\n"
        "    print(hash(ast.literal_eval(line)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        input="\n".join(ascii(value) for value in values),
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    expected = list(STR_HASHES.values()) + [
        value for _, _, value in EXPRESSIONS.values()
    ]
    assert [int(line) for line in result.stdout.split()] == expected


def test_quick_suite_counters_under_another_seed_match_baseline():
    """``BASELINE.json`` was recorded under ``PYTHONHASHSEED=0``; the
    gate reproduces it exactly under seed 1."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--repeats", "1",
         "--baseline", os.path.join(REPO, "benchmarks", "BASELINE.json")],
        capture_output=True, text=True, cwd=REPO,
        env=dict(os.environ, PYTHONHASHSEED="1",
                 PYTHONPATH=os.path.join(REPO, "src")),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "no regressions against baseline" in result.stdout
