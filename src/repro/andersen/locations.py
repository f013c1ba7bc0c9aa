"""Abstract memory locations for points-to analysis.

Andersen's analysis abstracts the store into a finite set of locations:
one per declared variable and parameter, one per heap-allocation site,
one per function, and one shared location for string literals
(Section 3 of the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..constraints.hashing import Hashed, str_hash

#: Stand-in for the ``"loc"`` tag of every location's hash.
_LOC_TAG = Hashed(str_hash("loc"))


class LocationKind(enum.Enum):
    VARIABLE = "var"
    PARAMETER = "param"
    HEAP = "heap"
    FUNCTION = "function"
    STRING = "string"


@dataclass(frozen=True)
class AbstractLocation:
    """One abstract memory location.

    ``uid`` is a dense index assigned by the location table; equality
    and hashing use only the uid, so locations are cheap dictionary
    keys; the hash, ``hash(("loc", uid))`` with the tag's seed-free
    string hash, is computed once.  ``name`` is the diagnostic
    spelling, qualified by function for locals (``main::p``) and by
    site for heap locations (``heap@12``).
    """

    uid: int
    name: str
    kind: LocationKind
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((_LOC_TAG, self.uid)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbstractLocation) and other.uid == self.uid

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return (
            f"AbstractLocation({self.uid}, {self.name!r}, "
            f"{self.kind.value})"
        )


class LocationTable:
    """Creates and indexes abstract locations."""

    def __init__(self) -> None:
        self._locations: list[AbstractLocation] = []

    def make(self, name: str, kind: LocationKind) -> AbstractLocation:
        location = AbstractLocation(len(self._locations), name, kind)
        self._locations.append(location)
        return location

    def __len__(self) -> int:
        return len(self._locations)

    def __iter__(self):
        return iter(self._locations)

    def by_uid(self, uid: int) -> AbstractLocation:
        return self._locations[uid]

    def by_name(self, name: str) -> AbstractLocation:
        for location in self._locations:
            if location.name == name:
                return location
        raise KeyError(name)
