"""Seed-free hashes for set expressions.

The online configurations' Work depends on the order in which the
solver's ``set`` buckets of terms iterate, and that order follows the
terms' hash values.  CPython salts every ``str`` hash with a per-process
hash seed, so a term hash that folds in a constructor name or a string
label would give different counters in every process.

:func:`str_hash` computes, in any process, the value CPython 3.11+
gives a ``str`` under hash seed 0: SipHash-1-3 with an
all-zero key over the string's PEP 393 buffer (latin-1, UTF-16-LE or
UTF-32-LE, chosen by the widest character).  :func:`stand_in` replaces
each string inside a label by a :class:`Hashed` object that returns
that value, and leaves the combining to the builtin ``tuple`` hash,
which is seed-independent, as are ``int`` hashes.  Expressions built
from these hash to exactly the values they had under hash seed 0, so
counters recorded under that seed hold under every seed.
"""

from __future__ import annotations

from typing import Dict

_MASK = (1 << 64) - 1


def _rotl(x: int, bits: int) -> int:
    return ((x << bits) | (x >> (64 - bits))) & _MASK


def _siphash13(data: bytes) -> int:
    """SipHash-1-3 of ``data`` under the all-zero key, as in CPython's
    ``Python/pyhash.c`` (an unsigned 64-bit result)."""
    v0 = 0x736F6D6570736575
    v1 = 0x646F72616E646F6D
    v2 = 0x6C7967656E657261
    v3 = 0x7465646279746573

    def sip_round():
        nonlocal v0, v1, v2, v3
        v0 = (v0 + v1) & _MASK
        v2 = (v2 + v3) & _MASK
        v1 = _rotl(v1, 13) ^ v0
        v3 = _rotl(v3, 16) ^ v2
        v0 = _rotl(v0, 32)
        v2 = (v2 + v1) & _MASK
        v0 = (v0 + v3) & _MASK
        v1 = _rotl(v1, 17) ^ v2
        v3 = _rotl(v3, 21) ^ v0
        v2 = _rotl(v2, 32)

    whole = len(data) - len(data) % 8
    for start in range(0, whole, 8):
        word = int.from_bytes(data[start:start + 8], "little")
        v3 ^= word
        sip_round()
        v0 ^= word
    last = ((len(data) & 0xFF) << 56) | int.from_bytes(
        data[whole:], "little"
    )
    v3 ^= last
    sip_round()
    v0 ^= last
    v2 ^= 0xFF
    sip_round()
    sip_round()
    sip_round()
    return v0 ^ v1 ^ v2 ^ v3


_STR_HASHES: Dict[str, int] = {}


def str_hash(text: str) -> int:
    """``hash(text)`` as CPython 3.11+ computes it under hash seed 0,
    in any process (memoized per string)."""
    value = _STR_HASHES.get(text)
    if value is None:
        if not text:
            value = 0
        else:
            widest = max(map(ord, text))
            encoding = (
                "latin-1" if widest < 0x100
                else "utf-16-le" if widest < 0x10000
                else "utf-32-le"
            )
            value = _siphash13(text.encode(encoding, "surrogatepass"))
            if value >= 1 << 63:
                value -= 1 << 64
            if value == -1:
                value = -2
        _STR_HASHES[text] = value
    return value


class Hashed:
    """Stands in for a value inside a tuple whose hash is ``value``."""

    __slots__ = ("_hash",)

    def __init__(self, value: int) -> None:
        self._hash = value

    def __hash__(self) -> int:
        return self._hash


def stand_in(value: object) -> object:
    """``value`` with every ``str``, also inside tuples, replaced by a
    :class:`Hashed` of its :func:`str_hash`; anything else is returned
    as it is, to hash by its own ``__hash__``."""
    if isinstance(value, str):
        return Hashed(str_hash(value))
    if isinstance(value, tuple):
        return tuple(map(stand_in, value))
    return value
