"""Set constructors and their signatures.

A constructor ``c`` has a fixed *signature*: an arity and a variance for
each argument position (paper Section 2.1).  Constructors are plain value
objects — two constructors are the same constructor exactly when they
agree on name and signature.  :class:`repro.constraints.ConstraintSystem`
additionally enforces that a name is never reused with a different
signature within one system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .errors import SignatureError
from .hashing import stand_in
from .variance import Variance


@dataclass(frozen=True)
class Constructor:
    """An n-ary set constructor with per-argument variance.

    Attributes:
        name: the constructor's display name, e.g. ``"ref"``.
        signature: variance of each argument position; the arity is
            ``len(signature)``.
    """

    name: str
    signature: Tuple[Variance, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SignatureError("constructor name must be non-empty")
        if not isinstance(self.signature, tuple):
            # Allow lists for convenience but store a tuple.
            object.__setattr__(self, "signature", tuple(self.signature))
        for variance in self.signature:
            if not isinstance(variance, Variance):
                raise SignatureError(
                    f"signature of {self.name!r} contains non-Variance "
                    f"entry {variance!r}"
                )
        # Computed once, for every Term built over this constructor,
        # with the name's seed-free hash (see repro.constraints.hashing).
        object.__setattr__(
            self, "_hash", hash((stand_in(self.name), self.signature))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.signature)

    @property
    def is_nullary(self) -> bool:
        return not self.signature

    def __str__(self) -> str:
        if self.is_nullary:
            return self.name
        marks = ",".join(str(v) for v in self.signature)
        return f"{self.name}/{self.arity}({marks})"


#: The empty set, treated as a nullary constructor (paper Section 2.2:
#: "we treat 0 and 1 as constructors").
ZERO_CONSTRUCTOR = Constructor("0")

#: The universal set, also a nullary constructor.
ONE_CONSTRUCTOR = Constructor("1")
