"""Set expressions: variables, constructed terms, 0 and 1.

The grammar (paper Section 2.1)::

    L, R in se ::= X | c(se_1, ..., se_n) | 0 | 1

``0`` and ``1`` are represented as nullary terms over the distinguished
constructors :data:`~repro.constraints.constructors.ZERO_CONSTRUCTOR` and
:data:`~repro.constraints.constructors.ONE_CONSTRUCTOR`, matching the
paper's treatment of 0 and 1 as constructors.

Expressions are immutable and hashable; terms hash structurally, which is
what lets the solver deduplicate source/sink edges.  No hash depends on
the interpreter's hash seed: every string that reaches one (constructor
names, the ``"var"`` tag, string labels) goes through
:func:`repro.constraints.hashing.str_hash`, so bucket iteration order,
and with it every solver counter, is the same in every process.
"""

from __future__ import annotations

from typing import Tuple, Union

from .constructors import Constructor, ONE_CONSTRUCTOR, ZERO_CONSTRUCTOR
from .errors import MalformedExpressionError, SignatureError
from .hashing import Hashed, stand_in, str_hash

#: Stand-in for the ``"var"`` tag of every variable's hash.
_VAR_TAG = Hashed(str_hash("var"))


class SetExpression:
    """Abstract base for all set expressions."""

    __slots__ = ()

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Var)

    @property
    def is_term(self) -> bool:
        return isinstance(self, Term)

    @property
    def is_zero(self) -> bool:
        return isinstance(self, Term) and self.constructor is ZERO_CONSTRUCTOR

    @property
    def is_one(self) -> bool:
        return isinstance(self, Term) and self.constructor is ONE_CONSTRUCTOR


class Var(SetExpression):
    """A set variable.

    Variables are created through
    :meth:`repro.constraints.ConstraintSystem.fresh_var`, which assigns a
    deterministic creation ``index``.  Identity (and hashing) is by index,
    so two systems' variables must never be mixed — the system checks this.
    The hash, ``hash(("var", index))`` with the tag's seed-free string
    hash, is computed once.
    """

    __slots__ = ("index", "name", "_hash")

    def __init__(self, index: int, name: str = "") -> None:
        self.index = index
        self.name = name or f"v{index}"
        self._hash = hash((_VAR_TAG, index))

    def __repr__(self) -> str:
        return f"Var({self.index}, {self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.index == self.index


class Term(SetExpression):
    """A constructed term ``c(se_1, ..., se_n)``.

    Args must match the constructor's arity.  ``label`` is an optional
    opaque tag carried along for client use (Andersen's analysis stores
    the abstract location there); it participates in equality so that
    distinct locations yield distinct source terms.  ``_plan`` caches
    the term's :func:`~repro.constraints.resolution.flat_plan` once the
    solver first resolves it (``None`` until then).
    """

    __slots__ = ("constructor", "args", "label", "_hash", "_plan")

    def __init__(
        self,
        constructor: Constructor,
        args: Tuple[SetExpression, ...] = (),
        label: object = None,
    ) -> None:
        args = tuple(args)
        if len(args) != constructor.arity:
            raise SignatureError(
                f"constructor {constructor.name!r} expects "
                f"{constructor.arity} argument(s), got {len(args)}"
            )
        for arg in args:
            if not isinstance(arg, SetExpression):
                raise MalformedExpressionError(
                    f"term argument {arg!r} is not a set expression"
                )
        self.constructor = constructor
        self.args = args
        self.label = label
        self._plan = None
        # ``hash(None)`` is address-based before Python 3.12, which would
        # make unlabeled-term hashes (and hence set iteration order and
        # the solver's Work counts) vary between processes.  Omit the
        # label from the hash when absent; equality still checks it.
        # String labels, also inside tuples, hash seed-free.
        if label is None:
            self._hash = hash((constructor, args))
        else:
            self._hash = hash((constructor, args, stand_in(label)))

    def __repr__(self) -> str:
        return (
            f"Term({self.constructor.name!r}, {self.args!r}, "
            f"{self.label!r})"
        )

    def __str__(self) -> str:
        tag = f"[{self.label}]" if self.label is not None else ""
        if not self.args:
            return f"{self.constructor.name}{tag}"
        inner = ",".join(str(a) for a in self.args)
        return f"{self.constructor.name}{tag}({inner})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Term)
            and other._hash == self._hash
            and other.constructor == self.constructor
            and other.label == self.label
            and other.args == self.args
        )


#: The empty set ``0``.
ZERO = Term(ZERO_CONSTRUCTOR)

#: The universal set ``1``.
ONE = Term(ONE_CONSTRUCTOR)

#: Anything accepted where a set expression is expected.
SetExpr = Union[Var, Term]


def variables_of(expr: SetExpression) -> Tuple[Var, ...]:
    """Return the variables occurring in ``expr``, in left-to-right order.

    Duplicates are preserved; callers needing a set can wrap the result.
    Iterative (explicit stack) so pathologically deep terms cannot
    overflow the Python recursion limit.
    """
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.append(node)
        elif isinstance(node, Term):
            stack.extend(reversed(node.args))
        else:
            raise MalformedExpressionError(f"not a set expression: {node!r}")
    return tuple(out)
