"""The resolution rules ``R`` (paper Figure 1).

These rules rewrite an arbitrary inclusion ``L <= R`` into *atomic*
constraints of the three forms the graph representations store:

====================  =========================================
``X <= Y``            variable-variable constraint  (``VAR_VAR``)
``c(...) <= X``       source-variable constraint    (``SOURCE_VAR``)
``X <= c(...)``       variable-sink constraint      (``VAR_SINK``)
====================  =========================================

The structural rule decomposes ``c(l_1..l_n) <= c(r_1..r_n)`` into
argument constraints oriented by variance.  Trivial constraints
(``0 <= se`` and ``se <= 1``) are dropped.  Clashes between distinct
constructors — including ``c(...) <= 0`` and ``1 <= c(...)`` — are
reported as :class:`~repro.constraints.errors.ConstraintDiagnostic`
values rather than raised, so resolution of an ill-typed input can
continue.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .constructors import ONE_CONSTRUCTOR, ZERO_CONSTRUCTOR
from .errors import (
    ConstraintDiagnostic,
    DepthLimitError,
    MalformedExpressionError,
)
from .expressions import SetExpression, Term, Var
from .variance import Variance

#: Default bound on constructor nesting during decomposition.  Deeper
#: terms raise :class:`~repro.constraints.errors.DepthLimitError` with a
#: clear message instead of (via the recursive helpers that surround the
#: solver: hashing, printing, validation) flirting with Python's
#: recursion limit mid-closure.  Far above anything the workloads
#: produce; raise it (or pass ``max_depth``) for intentionally deep
#: systems.
MAX_TERM_DEPTH = 100_000

#: Tag for an atomic ``X <= Y`` constraint: ``(VAR_VAR, X, Y)``.
VAR_VAR = "vv"
#: Tag for an atomic ``c(...) <= X`` constraint: ``(SOURCE_VAR, term, X)``.
SOURCE_VAR = "sv"
#: Tag for an atomic ``X <= c(...)`` constraint: ``(VAR_SINK, X, term)``.
VAR_SINK = "vs"

#: An atomic constraint as produced by :func:`decompose`.
Atomic = Tuple[str, object, object]


def decompose(
    left: SetExpression,
    right: SetExpression,
    atoms: List[Atomic],
    diagnostics: List[ConstraintDiagnostic],
    max_depth: Optional[int] = None,
) -> None:
    """Rewrite ``left <= right`` into atomic constraints.

    Appends atomic constraints to ``atoms`` and inconsistency reports to
    ``diagnostics``.  Uses an explicit work stack so deeply nested terms
    cannot overflow the Python recursion limit; nesting beyond
    ``max_depth`` (default :data:`MAX_TERM_DEPTH`) raises
    :class:`~repro.constraints.errors.DepthLimitError`.

    This function sits on the solver's hot path (one call per ``rr``
    worklist operation), so the type dispatch is written with local
    bindings and identity checks instead of the ``is_zero``/``is_one``
    convenience properties.
    """
    append = atoms.append
    covariant = Variance.COVARIANT
    limit = MAX_TERM_DEPTH if max_depth is None else max_depth
    stack = [(left, right, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        l, r, depth = pop()
        if depth > limit:
            raise DepthLimitError(depth, limit)
        l_is_term = isinstance(l, Term)
        if l_is_term and l.constructor is ZERO_CONSTRUCTOR:
            continue  # 0 <= se : trivially true
        r_is_term = isinstance(r, Term)
        if r_is_term and r.constructor is ONE_CONSTRUCTOR:
            continue  # se <= 1 : trivially true
        if isinstance(l, Var):
            if isinstance(r, Var):
                append((VAR_VAR, l, r))
            elif r_is_term:
                append((VAR_SINK, l, r))
            else:
                raise MalformedExpressionError(f"bad sink expression {r!r}")
        elif isinstance(r, Var):
            if l_is_term:
                append((SOURCE_VAR, l, r))
            else:
                raise MalformedExpressionError(f"bad source expression {l!r}")
        elif l_is_term and r_is_term:
            l_ctor = l.constructor
            r_ctor = r.constructor
            if l_ctor is r_ctor or l_ctor == r_ctor:
                child_depth = depth + 1
                for variance, l_arg, r_arg in zip(
                    l_ctor.signature, l.args, r.args
                ):
                    if variance is covariant:
                        push((l_arg, r_arg, child_depth))
                    else:
                        push((r_arg, l_arg, child_depth))
            else:
                diagnostics.append(_clash(l, r))
        else:
            raise MalformedExpressionError(
                f"cannot decompose {l!r} <= {r!r}"
            )


#: A flat plan: per argument, in reverse order, whether the position
#: is covariant and the argument (a variable index or a nullary term).
FlatPlan = Tuple[Tuple[bool, ...], Tuple[Union[int, Term], ...]]


def flat_plan(term: Term) -> Union[FlatPlan, bool]:
    """The direct resolution plan of ``term``, or ``False`` if it has none.

    A term has a plan when every argument is a variable or a nullary
    term (the Andersen ``ref``/``lam`` terms always do).  The plan lists
    the arguments in reverse order, the order :func:`decompose` pops
    them, with their variances and with variables reduced to their
    index.  Two same-constructor terms with plans resolve by pairing
    their arguments position by position, as ``decompose`` would, at
    depth 1, which every depth limit admits.  The solver caches the
    plan on the term.
    """
    covariant = Variance.COVARIANT
    flags = []
    values = []
    for variance, arg in zip(term.constructor.signature, term.args):
        if type(arg) is Var:
            values.append(arg.index)
        elif type(arg) is Term and not arg.args:
            values.append(arg)
        else:
            return False
        flags.append(variance is covariant)
    flags.reverse()
    values.reverse()
    return tuple(flags), tuple(values)


def _clash(left: Term, right: Term) -> ConstraintDiagnostic:
    """Classify a constructor clash into a diagnostic kind."""
    if right.is_zero:
        kind = "nonempty-in-zero"
    elif left.is_one:
        kind = "one-in-constructed"
    else:
        kind = "constructor-clash"
    return ConstraintDiagnostic(kind, left, right)


def decompose_pair(
    left: SetExpression, right: SetExpression
) -> Tuple[List[Atomic], List[ConstraintDiagnostic]]:
    """Convenience wrapper returning fresh lists (used by tests)."""
    atoms: List[Atomic] = []
    diagnostics: List[ConstraintDiagnostic] = []
    decompose(left, right, atoms, diagnostics)
    return atoms, diagnostics
