"""Exceptions and diagnostics for the set-constraint system.

Resolution of inclusion constraints can discover *inconsistencies*
(e.g. ``c(...) <= d(...)`` for distinct constructors ``c`` and ``d``).
A batch analysis such as points-to analysis over possibly ill-typed C
should not abort on the first such clash, so the solver records
:class:`ConstraintDiagnostic` values and keeps going.  Callers that want
hard failures can use :meth:`repro.solver.Solution.raise_on_errors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ReproError


class ConstraintError(ReproError):
    """Base class for all errors raised by the constraint machinery."""


class SignatureError(ConstraintError):
    """A constructor was applied with the wrong number of arguments."""


class MalformedExpressionError(ConstraintError):
    """A set expression was built from unsupported pieces."""


class InvalidSystemError(ConstraintError):
    """A constraint system failed solve-time validation.

    Raised by :meth:`repro.constraints.ConstraintSystem.validate` (which
    the solver engine runs before closure) instead of letting malformed
    input surface as a raw ``IndexError``/``KeyError`` from deep inside
    the graph code.

    Attributes:
        reason: machine-readable tag, e.g. ``"var-out-of-range"``,
            ``"arity-mismatch"``, ``"signature-conflict"``,
            ``"not-an-expression"``.
        constraint_index: position of the offending constraint in
            :attr:`ConstraintSystem.constraints` (``-1`` when the fault
            is not tied to one constraint).
    """

    def __init__(self, reason: str, message: str,
                 constraint_index: int = -1) -> None:
        super().__init__(
            f"{message} (constraint #{constraint_index}, {reason})"
            if constraint_index >= 0 else f"{message} ({reason})"
        )
        self.reason = reason
        self.constraint_index = constraint_index


class DepthLimitError(ConstraintError):
    """A set expression nests constructors deeper than the solver allows.

    Raised with a clear message by
    :func:`repro.constraints.resolution.decompose` (and by the iterative
    expression walkers) instead of letting a pathologically deep term
    exhaust the Python recursion limit mid-closure.
    """

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"constructor term nests {depth} levels deep, exceeding the "
            f"limit of {limit}; raise repro.constraints.resolution."
            f"MAX_TERM_DEPTH (or pass max_depth) if this is intentional"
        )
        self.depth = depth
        self.limit = limit


class InconsistentConstraintError(ConstraintError):
    """Raised by :meth:`Solution.raise_on_errors
    <repro.solver.Solution.raise_on_errors>` when a solve found clashes."""

    def __init__(self, diagnostic: "ConstraintDiagnostic") -> None:
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class ConstraintDiagnostic:
    """A non-fatal inconsistency found during resolution.

    Attributes:
        kind: machine-readable tag, e.g. ``"constructor-clash"`` or
            ``"nonempty-in-zero"``.
        left: the left-hand set expression of the offending constraint.
        right: the right-hand set expression.
    """

    kind: str
    left: Any
    right: Any

    def __str__(self) -> str:
        return f"{self.kind}: {self.left} <= {self.right}"
