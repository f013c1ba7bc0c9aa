"""Constraint system builder — the public entry point for clients.

A :class:`ConstraintSystem` accumulates variables, constructors, and raw
inclusion constraints ``L <= R``.  It is a passive container: solving is
performed by :func:`repro.solver.solve`, which may be invoked several
times on one system with different options (this is exactly how the
experiment harness runs the same constraints through all six
configurations of paper Table 4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .constructors import Constructor, ONE_CONSTRUCTOR, ZERO_CONSTRUCTOR
from .errors import (
    InvalidSystemError,
    MalformedExpressionError,
    SignatureError,
)
from .expressions import ONE, ZERO, SetExpression, Term, Var
from .variance import Variance


class ConstraintSystem:
    """A mutable collection of set variables and inclusion constraints."""

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self._constructors: Dict[str, Constructor] = {
            ZERO_CONSTRUCTOR.name: ZERO_CONSTRUCTOR,
            ONE_CONSTRUCTOR.name: ONE_CONSTRUCTOR,
        }
        self._vars: List[Var] = []
        self._constraints: List[Tuple[SetExpression, SetExpression]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def constructor(
        self,
        name: str,
        signature: Sequence[Variance] = (),
    ) -> Constructor:
        """Register (or look up) a constructor with the given signature.

        Raises :class:`SignatureError` if ``name`` was previously
        registered with a different signature.
        """
        signature = tuple(signature)
        existing = self._constructors.get(name)
        if existing is not None:
            if existing.signature != signature:
                raise SignatureError(
                    f"constructor {name!r} already registered with "
                    f"signature {existing.signature}, got {signature}"
                )
            return existing
        made = Constructor(name, signature)
        self._constructors[name] = made
        return made

    def fresh_var(self, name: str = "") -> Var:
        """Create a fresh set variable with a deterministic index."""
        var = Var(len(self._vars), name)
        self._vars.append(var)
        return var

    def fresh_vars(self, count: int, prefix: str = "v") -> List[Var]:
        """Create ``count`` fresh variables named ``prefix0..``."""
        return [self.fresh_var(f"{prefix}{i}") for i in range(count)]

    def term(
        self,
        constructor: Union[Constructor, str],
        args: Sequence[SetExpression] = (),
        label: object = None,
    ) -> Term:
        """Build a term, resolving a constructor name if necessary."""
        if isinstance(constructor, str):
            found = self._constructors.get(constructor)
            if found is None:
                raise SignatureError(
                    f"unknown constructor {constructor!r}; register it "
                    f"with ConstraintSystem.constructor first"
                )
            constructor = found
        return Term(constructor, tuple(args), label)

    def add(self, left: SetExpression, right: SetExpression) -> None:
        """Record the inclusion constraint ``left <= right``."""
        self._check_expr(left)
        self._check_expr(right)
        self._constraints.append((left, right))

    def add_all(
        self, pairs: Iterable[Tuple[SetExpression, SetExpression]]
    ) -> None:
        for left, right in pairs:
            self.add(left, right)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def zero(self) -> Term:
        return ZERO

    @property
    def one(self) -> Term:
        return ONE

    @property
    def num_vars(self) -> int:
        return len(self._vars)

    @property
    def variables(self) -> Tuple[Var, ...]:
        return tuple(self._vars)

    @property
    def constraints(self) -> Tuple[Tuple[SetExpression, SetExpression], ...]:
        return tuple(self._constraints)

    def var_by_index(self, index: int) -> Var:
        return self._vars[index]

    def check_var(self, var: Var) -> None:
        """Raise unless ``var`` is one of this system's own variables.

        Variables compare by index, so a variable of another system
        with a colliding index would silently stand for a different
        variable here.  Raises :class:`MalformedExpressionError`, as
        :meth:`add` does for a foreign variable.
        """
        index = var.index if isinstance(var, Var) else None
        if (index is None or not 0 <= index < len(self._vars)
                or self._vars[index] is not var):
            raise MalformedExpressionError(
                f"variable {var!r} does not belong to this system"
            )

    def find_var(self, name: str) -> Optional[Var]:
        """Return the first variable with the given name, if any."""
        for var in self._vars:
            if var.name == name:
                return var
        return None

    def __len__(self) -> int:
        return len(self._constraints)

    def __repr__(self) -> str:
        return (
            f"ConstraintSystem({self.name!r}, vars={self.num_vars}, "
            f"constraints={len(self._constraints)})"
        )

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_expr(self, expr: SetExpression) -> None:
        # Iterative (explicit stack): expressions can nest thousands of
        # constructors deep, and the recursion limit must not decide
        # whether an `add` succeeds.
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                if (node.index >= len(self._vars)
                        or self._vars[node.index] is not node):
                    raise MalformedExpressionError(
                        f"variable {node!r} does not belong to this system"
                    )
            elif isinstance(node, Term):
                stack.extend(node.args)
            else:
                raise MalformedExpressionError(
                    f"not a set expression: {node!r}"
                )

    def validate(self) -> None:
        """Re-validate every recorded constraint before solving.

        :meth:`add` already rejects foreign expressions, but constraints
        can reach a solver through other routes (deserialized systems,
        direct ``_constraints`` manipulation, hand-built ``Var`` objects
        with stale indices).  The solver engine calls this before
        closure so malformed input fails with a structured
        :class:`~repro.constraints.errors.InvalidSystemError` naming the
        offending constraint instead of leaking an ``IndexError`` or
        ``KeyError`` from deep inside the graph code.

        Checks, per constraint side: every node is a ``Var`` or
        ``Term``; variable indices lie in ``[0, num_vars)``; term
        argument counts match their constructor's arity; and no
        constructor name is used with a signature different from the
        registered one (arity/variance conflicts).
        """
        num_vars = len(self._vars)
        registered = self._constructors
        for position, (left, right) in enumerate(self._constraints):
            stack = [left, right]
            while stack:
                node = stack.pop()
                if isinstance(node, Var):
                    if not 0 <= node.index < num_vars:
                        raise InvalidSystemError(
                            "var-out-of-range",
                            f"variable {node!r} has index {node.index} "
                            f"outside [0, {num_vars})",
                            position,
                        )
                elif isinstance(node, Term):
                    ctor = node.constructor
                    if len(node.args) != ctor.arity:
                        raise InvalidSystemError(
                            "arity-mismatch",
                            f"term {node!r} carries {len(node.args)} "
                            f"argument(s) for {ctor.arity}-ary "
                            f"constructor {ctor.name!r}",
                            position,
                        )
                    known = registered.get(ctor.name)
                    if known is not None and known.signature != ctor.signature:
                        raise InvalidSystemError(
                            "signature-conflict",
                            f"constructor {ctor.name!r} used with "
                            f"signature {ctor.signature}, but registered "
                            f"with {known.signature}",
                            position,
                        )
                    stack.extend(node.args)
                else:
                    raise InvalidSystemError(
                        "not-an-expression",
                        f"constraint contains non-expression {node!r}",
                        position,
                    )
