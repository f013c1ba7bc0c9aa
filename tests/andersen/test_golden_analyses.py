"""Golden analyses: both points-to analyses are pinned by fingerprints.

Two digests per program:

* ``andersen`` is the SHA-256 of the generated constraint system's
  text — every location (uid, name, kind), every variable (index,
  name) and every constraint in emission order, variables spelled with
  their index — so any change to the constraints Andersen's generator
  emits, their order or their variable names shows up here.
* ``steensgaard`` is the SHA-256 of the sorted Steensgaard points-to
  map, one ``name kind -> targets`` line per location.

The programs are every hand-written workload program and every
``FULL_SUITE`` benchmark; the suite programs outside the medium suite
are marked slow.
"""

import hashlib

import pytest

from repro.andersen import analyze_source, analyze_unit_steensgaard
from repro.cfront import parse
from repro.constraints import Var
from repro.workloads import ALL_PROGRAMS, FULL_SUITE, MEDIUM_SUITE
from repro.workloads import generate_program

#: name -> (SHA-256 of the Andersen system, SHA-256 of the Steensgaard map)
GOLDEN = {
    "figure5": (
        "a2f7b73c4e57fe01f554a48420059f48f2b3ff639fdc0796fed8a8190431c4be",
        "6971c24948f34007847818e58c7a5876447aa54312246561fca7b43291348c8d",
    ),
    "linked_list": (
        "2e18be3707f83bcd4b3315d2739bb2e4dc2b11229c23af37fbe7491ae86a7aee",
        "fdec79b03397186895e3988232ee59ff44bb045442aeb8c5b83fa2bf31785166",
    ),
    "swap_cycle": (
        "57ff89c97039ee312a8fb3dd164baafc92434bf4bff19e5be20b4783859fc531",
        "26de3d0eba94ae7b26797add41f006dd3cc5e887fb943baf47f6103ee22b6e04",
    ),
    "function_pointers": (
        "824cfc70b31690ca10eb13c35fd5d475bf69b820d485d99157a3bc1564256426",
        "8d4d998f5f35b0a9b917394c9388ca1825f78880dfa2a47a81e4952f34947dcf",
    ),
    "recursion": (
        "7d72f1035c60f92cdf7506d4b5729234baab36489b1516ec84ab601ff3d66b01",
        "63b7d98185b60d304eed44dbe45e49eff52cf48728be317c8d51eac44556cf92",
    ),
    "multi_level": (
        "a26176f55f24c37b0b1b4e7f4d3d4fdbc1cd5b4498a882c5c0c3694cf2c2bf39",
        "f089fc6fa09a59ac3382e5b315f0b7f77d5a480346192c33ca803f161e0e8fa4",
    ),
    "hash_table": (
        "547337f3b045c9198268e0caadb6cb9313b5b63df3b5ecd00127a628c8176ff8",
        "3319e87ae34a8c89ed41bb8ce0430b5efc321156fc54881a82ccd2b27dda6b5d",
    ),
    "arena": (
        "9917c162305d7ac9d76f7035dacbeea2d557dd35418b80310fa9460440482c4b",
        "c954ae76a09fd5492688940ac1a04cd2159b553443891533cca85e3d3add54ce",
    ),
    "state_machine": (
        "28a045bc87430c3df81371473176e06e171238fc62de1707be5034d4ad8b67cf",
        "0b7ce7d9a794e347f65b63c2b0036b110eb9dbf6ad11653f8c8ac922091bb771",
    ),
    "allroots": (
        "be40b3780413edb5544656bbf610c1b59a6440df207df246329d54ba4e53046d",
        "3f975ba597fec3efd1820732cc47772a034391802ea8a38313465193602bc820",
    ),
    "diff.diffh": (
        "3cd8af692115fbdc2e0446376a360c2bbc664649ad00b1eced577fff79e6636c",
        "ba225a85be68ba44693e564b809f0b4f9da9e9e41cfd8713c5e0465c086383b4",
    ),
    "anagram": (
        "b959b0e6167d6d9c9316446f803958e56d5ea72227eb0f77bbcf98cc4b7a49a6",
        "cf751ba37654f4286ca6a1b7f9bcdfe360a03dd015d738169aa7f3a0dab78844",
    ),
    "genetic": (
        "7f0da0da7b17adb347d7f6ce2f43c4b71921c3596978bab048796d20d9abb1ef",
        "988bca0f5ac753dc6da14cf7bc85aba0b80f6f6015c427578721d11c44d36a05",
    ),
    "ks": (
        "2e1dd869cdd4e684d9313301e60e45db03c641052c6b1eafb49e3c8ca4c30cd4",
        "eef37d68f2a83d708a2d315e7026d0cd080fb60811730b8f8f69f6bc76684572",
    ),
    "ul": (
        "e6789d222fc7cc2328ade571662cc5b2d1e3000e46aed4aa9007c43f0debe62e",
        "010d4ec421819c8b2ca42955f8207fdf88e7299c6edf5057a28ce0a939a404d9",
    ),
    "ft": (
        "17fe5702463525ed09f06e161f4c16d879a97db1a658609f017bd030b69757cc",
        "a01fd3b14989bb01740f54ab68235a93c246f87d636938b23d0d883732e20abf",
    ),
    "compress": (
        "4102962574bfed2959984507a963fec2030a12d93fb244ff99fe1c08ebc26558",
        "13014cd6ef6856a22827fc4a2ec969c735d7321ed4765c8e79dfdf8e7e200eb6",
    ),
    "ratfor": (
        "26b35a9c3422d64328e4c09d7f4b1a722b4b9a233aa9e3635c090f3af67de9a1",
        "51ce5f1454a490af9740f9faa66fab7182df99902a32b2088f13dc62e3ce6493",
    ),
    "compiler": (
        "72dc5dacaba4278a5f161d1bff08f890c1303ac1a648c7fee3ee81fd5540a54f",
        "a0b38445b9c1f7771984fe581c00da393fe4d1b643d92370213a00957e5b4dc0",
    ),
    "assembler": (
        "c8ec80acff8d686d8691c111ca105ac2475cbd29bee077f32d6ddb97465a6e98",
        "505079986a8cd08c8779af543663f2fa4a3eb609315bd92b58c146ce4120c9a3",
    ),
    "ML-typecheck": (
        "b9db3dff3bb9ee18327bfb13f64ab397791751ff5611c0d24b1b082adf2df4b4",
        "53eabcde38f74ea872a150a8ddffc9fcf6c6314086e190061899ed9a778bc42a",
    ),
    "eqntott": (
        "314dc85d1e022f25421a8d686c04b2d2f6b6fae317db3bf9b8ef344191ed8ba6",
        "b33001b176e88640fdb33308ca5112e1c59215e83fb34a07b025867b28eda3bf",
    ),
    "simulator": (
        "9c32018e35f70b9c02aa65a0c7d6c0e38af6253c19007f3d9dd9affc7fb9fe7f",
        "dfdb6fd11b9bdef60d6286c3e8eb38bb0b3182b66391003fe145a3b63ca7b947",
    ),
    "less-177": (
        "0392fe1e6fa37bdbaa0955c8e1ee69504ed21e3ccae8f0f04768ddac78a8393f",
        "dd38dace427feb42d2a582b6d0637616d2e9c2d39e1216783ffaa5565421c769",
    ),
    "li": (
        "0abe32b0efd5ecd666c22803260c21ae8b4d5067659fb02aae328c6391aa9a2f",
        "d4b56f2493759d26f29eb07468e04217de06d09ba4b8e6f3cfe9e909f54c967c",
    ),
    "flex-2.4.7": (
        "7f8274eee99c94d3015da7cc4e9f6da32a05b12489583304e1163b51fe0c88ee",
        "050ae26b79eb36f274706a58b56f28d96e926a0172131e328b2d60f9265d8931",
    ),
    "pmake": (
        "cf8360931597311d45b61f51aac410c25c4d41e9b7584a302bd9221957d70ef9",
        "d2171dc7563063d8fadeb94edf4c83481f722ebd3f0515f980852e3f06791461",
    ),
    "make-3.75": (
        "a7ae6338ef16c35ec41addec67cbc717ef4dd0b8c6760b5ad1c0757cb13645c9",
        "f5657f41aa99eaae382c047cb090e1ca596f41e5a33acf8c962f335865de5112",
    ),
    "inform-5.5": (
        "0a5b6895809709477227eaaed6eb221c470a8caee42871758f69bb701dbe91e9",
        "68b81552bb55ba35501be79b5fb89083ec04beba8c3292e167cd37fa544dec0d",
    ),
    "tar-1.11.2": (
        "4231b0b1367fc76f45435eff124521ab84e8f58bb384ded6ca1061039fa68704",
        "7b703fbb65c2f3c3e0168056024771c805b05d83bee2c99af912c22d4342ae9e",
    ),
    "sgmls-1.1": (
        "ebc7d6a1fcdbb35fbe21d86ddfa04ed544b41aed30f6f6cdf680af85d3350466",
        "2fb68aeafa1a0f448560fd236231af0989161db240fa141b26412d57edac2ae6",
    ),
    "screen-3.5.2": (
        "098bdce0e6c155e3c00dfd8b1a2399fc7262056250753656f2683359318198f4",
        "9fa5e8bcb8fe50f188c15f250ef69fc0d5de2473b7b41c4c4b4e1fbf7dd26de1",
    ),
    "cvs-1.3": (
        "eff79f8ae3332183a2ab043c0e723107672f9da3a0c9cbc0738d868dfe13d517",
        "64dcc623151d584e3f268a68ecd9ea8dcb8dcbe944c7aad200c9f4ed65496877",
    ),
}

SOURCES = dict(ALL_PROGRAMS)
SOURCES.update((config.name, config) for config in FULL_SUITE)
MEDIUM = {config.name for config in MEDIUM_SUITE}


def _source(name):
    source = SOURCES[name]
    return source if isinstance(source, str) else generate_program(source)


def _text(expr):
    if isinstance(expr, Var):
        return f"{expr.name}#{expr.index}"
    label = "" if expr.label is None else f"[{expr.label.uid}]"
    inner = ",".join(_text(arg) for arg in expr.args)
    return f"{expr.constructor.name}{label}({inner})"


def andersen_digest(source):
    program = analyze_source(source)
    digest = hashlib.sha256()
    for location in program.locations:
        digest.update(
            f"L {location.uid} {location.name} {location.kind.value}\n"
            .encode()
        )
    for var in program.system.variables:
        digest.update(f"V {var.index} {var.name}\n".encode())
    for left, right in program.system.constraints:
        digest.update(f"C {_text(left)} <= {_text(right)}\n".encode())
    return digest.hexdigest()


def steensgaard_digest(source):
    result = analyze_unit_steensgaard(parse(source))
    lines = sorted(
        f"{location.name} {location.kind.value} -> "
        + ",".join(sorted(t.name for t in result.points_to(location)))
        for location in result.locations
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _params():
    for name in SOURCES:
        slow = name not in ALL_PROGRAMS and name not in MEDIUM
        marks = [pytest.mark.slow] if slow else []
        yield pytest.param(name, marks=marks, id=name)


def test_every_program_has_a_golden_digest():
    assert set(GOLDEN) == set(SOURCES)


@pytest.mark.parametrize("name", list(_params()))
def test_analyses_match_golden(name):
    source = _source(name)
    expected_andersen, expected_steensgaard = GOLDEN[name]
    assert andersen_digest(source) == expected_andersen
    assert steensgaard_digest(source) == expected_steensgaard
