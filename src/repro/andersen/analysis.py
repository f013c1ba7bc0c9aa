"""Constraint generation for Andersen's points-to analysis (Section 3).

The formulation follows the paper: a location ``l`` is modelled as an
object ``ref(l, X_l, X̄_l)`` whose covariant second argument is the
points-to set (the ``get`` method's range) and whose contravariant third
argument is the same set in update position (the ``set`` method's
domain).  Updating through an unknown location set ``t`` is the sink
constraint ``t <= ref(1, 1, T̄)``; dereferencing is ``t <= ref(1, T, 0̄)``.

Functions are modelled with a family of ``lam_k`` constructors — one
per arity — with contravariant parameter positions and a covariant
return position, which gives field-sensitive treatment of indirect
calls through function pointers.

The rules infer L-value sets for every expression (paper Figure 6):
``lvalue(e)`` denotes the set of locations ``e`` designates, and
``rvalue(e)`` converts to the value's points-to set by dereferencing.
Arrays and structs are collapsed (field-insensitive), the standard
choice for this analysis generation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cfront import ast
from ..cfront.types import Array, CType, Function, Pointer
from ..constraints import (
    ConstraintSystem,
    ONE,
    SetExpression,
    Term,
    Var,
    Variance,
    ZERO,
)
from .locations import AbstractLocation, LocationKind, LocationTable
from .walker import FunctionDecl, ProgramWalker


class FunctionInfo(FunctionDecl):
    """Constraint-level view of a function (defined or prototyped)."""

    __slots__ = ("return_var", "lam_term")

    def __init__(
        self,
        name: str,
        location: AbstractLocation,
        param_locations: List[AbstractLocation],
        return_var: Var,
        lam_term: Term,
        ctype: Function,
    ) -> None:
        super().__init__(name, location, param_locations, ctype)
        self.return_var = return_var
        self.lam_term = lam_term


class AndersenProgram:
    """Output of constraint generation, ready for the solver."""

    def __init__(
        self,
        system: ConstraintSystem,
        locations: LocationTable,
        points_to_var: Dict[AbstractLocation, Var],
        functions: Dict[str, FunctionInfo],
        ast_nodes: int,
        source_lines: int,
    ) -> None:
        self.system = system
        self.locations = locations
        self.points_to_var = points_to_var
        self.functions = functions
        self.ast_nodes = ast_nodes
        self.source_lines = source_lines

    @property
    def num_locations(self) -> int:
        return len(self.locations)

    def var_of(self, location: AbstractLocation) -> Var:
        """The points-to set variable ``X_l`` of a location."""
        return self.points_to_var[location]

    def location_named(self, name: str) -> AbstractLocation:
        return self.locations.by_name(name)


class ConstraintGenerator(ProgramWalker):
    """Walks a translation unit and emits set constraints."""

    functions: Dict[str, FunctionInfo]
    _current_function: Optional[FunctionInfo]

    def __init__(self) -> None:
        super().__init__()
        self.system = ConstraintSystem("andersen")
        cov, con = Variance.COVARIANT, Variance.CONTRAVARIANT
        self.ref = self.system.constructor("ref", (cov, cov, con))
        self.loc_ctor = self.system.constructor("loc", ())
        self._lam_ctors: Dict[int, object] = {}
        self.points_to_var: Dict[AbstractLocation, Var] = {}
        self._ref_terms: Dict[AbstractLocation, Term] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def analyze(self, unit: ast.TranslationUnit, source_lines: int = 0
                ) -> AndersenProgram:
        self.walk(unit)
        return AndersenProgram(
            self.system,
            self.locations,
            self.points_to_var,
            self.functions,
            unit.count_nodes(),
            source_lines,
        )

    # ------------------------------------------------------------------
    # Locations, terms and the walker's flow hooks
    # ------------------------------------------------------------------
    def _lam(self, arity: int):
        ctor = self._lam_ctors.get(arity)
        if ctor is None:
            cov, con = Variance.COVARIANT, Variance.CONTRAVARIANT
            ctor = self.system.constructor(
                f"lam{arity}", (cov,) + (con,) * arity + (cov,)
            )
            self._lam_ctors[arity] = ctor
        return ctor

    def _make_location(self, name: str,
                       kind: LocationKind) -> AbstractLocation:
        location = self.locations.make(name, kind)
        self.points_to_var[location] = self.system.fresh_var(f"X[{name}]")
        return location

    def ref_term(self, location: AbstractLocation) -> Term:
        """The cached object term ``ref(l, X_l, X̄_l)`` of a location."""
        term = self._ref_terms.get(location)
        if term is None:
            contents = self.points_to_var[location]
            name_term = Term(self.loc_ctor, (), label=location)
            term = Term(
                self.ref, (name_term, contents, contents), label=location
            )
            self._ref_terms[location] = term
        return term

    def _function(self, name: str, location: AbstractLocation,
                  param_locations: List[AbstractLocation],
                  ctype: Function) -> FunctionInfo:
        return_var = self.system.fresh_var(f"ret[{name}]")
        lam_args: Tuple[SetExpression, ...] = (
            Term(self.loc_ctor, (), label=location),
            *(self.points_to_var[p] for p in param_locations),
            return_var,
        )
        lam_term = Term(
            self._lam(len(param_locations)), lam_args, label=location
        )
        # The contents of a function's location is its lambda term.
        self.system.add(lam_term, self.points_to_var[location])
        return FunctionInfo(
            name, location, param_locations, return_var, lam_term, ctype
        )

    def _init_flow(self, location: AbstractLocation,
                   value: SetExpression) -> None:
        if not (isinstance(value, Term) and value.is_zero):
            self.system.add(value, self.points_to_var[location])

    def _return_flow(self, value: SetExpression) -> None:
        if self._current_function is not None and not (
            isinstance(value, Term) and value.is_zero
        ):
            self.system.add(value, self._current_function.return_var)

    # ------------------------------------------------------------------
    # Core set operations with the standard engineered short-circuits:
    # dereferencing or storing through a *known* ref term resolves the
    # structural rule immediately instead of minting fresh variables and
    # sink terms.  This keeps the variables-per-AST-node ratio in the
    # regime the paper reports (Table 1) while generating exactly the
    # constraints the generic rules would after one resolution step.
    # ------------------------------------------------------------------
    def _deref(self, designated: SetExpression) -> SetExpression:
        """Contents of the locations in ``designated`` (the get method)."""
        if isinstance(designated, Term):
            if designated.is_zero:
                return ZERO
            if designated.constructor is self.ref:
                # ref(l, X, X̄) <= ref(1, T, 0̄) resolves to X <= T; skip
                # the detour and use X directly.
                return designated.args[1]
        value = self.system.fresh_var("deref")
        sink = Term(self.ref, (ONE, value, ZERO), label=None)
        self.system.add(designated, sink)
        return value

    def _store(self, target: SetExpression, value: SetExpression) -> None:
        """Flow ``value`` into the contents of every location in ``target``."""
        if isinstance(value, Term) and value.is_zero:
            return
        if isinstance(target, Term):
            if target.is_zero:
                return
            if target.constructor is self.ref:
                # ref(l, X, X̄) <= ref(1, 1, V̄) resolves to V <= X.
                self.system.add(value, target.args[2])
                return
        sink = Term(self.ref, (ONE, ONE, value), label=None)
        self.system.add(target, sink)

    def _merge(self, *values: SetExpression) -> SetExpression:
        """Union of value sets, avoiding a fresh variable when possible."""
        nonzero = [
            v for v in values if not (isinstance(v, Term) and v.is_zero)
        ]
        if not nonzero:
            return ZERO
        if len(nonzero) == 1:
            return nonzero[0]
        merged = self.system.fresh_var("merge")
        for value in nonzero:
            self.system.add(value, merged)
        return merged

    def _wrapper(self, value: SetExpression) -> Term:
        """A transient location holding ``value`` as its contents.

        Gives non-designator expressions an L-value set for the rare
        cases where one is needed (e.g. ``*(p = q) = r``).
        """
        if isinstance(value, Term) and value.is_zero:
            return ZERO
        if isinstance(value, Var):
            return Term(self.ref, (ZERO, value, value), label=None)
        cell = self.system.fresh_var("cell")
        self.system.add(value, cell)
        return Term(self.ref, (ZERO, cell, cell), label=None)

    @staticmethod
    def _is_function_valued(ctype: Optional[CType]) -> bool:
        return isinstance(ctype, Function) or (
            isinstance(ctype, Pointer) and isinstance(ctype.target, Function)
        )

    # ------------------------------------------------------------------
    # L-value sets (the paper's tau): locations an expression designates.
    # ------------------------------------------------------------------
    def lvalue(self, expr: ast.Expr) -> SetExpression:
        """The set of locations ``expr`` designates."""
        if isinstance(expr, ast.Ident):
            return self._ident_lvalue(expr.name)
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.CharLit)):
            return ZERO
        if isinstance(expr, ast.StringLit):
            return self.ref_term(self._string_loc())
        if isinstance(expr, ast.Unary):
            if expr.op == "*":
                if self._is_function_valued(self.type_of(expr.operand)):
                    # *fp is fp for function pointers (the designator
                    # immediately decays back to the pointer value).
                    return self.lvalue(expr.operand)
                return self.rvalue(expr.operand)
            if expr.op in ("++", "--"):
                return self.lvalue(expr.operand)
            return self._wrapper(self.rvalue(expr))
        if isinstance(expr, ast.Postfix):
            return self.lvalue(expr.operand)
        if isinstance(expr, ast.Index):
            # e1[e2] is *(e1 + e2); offsets are ignored, so the
            # designated locations are the base value's targets.
            self.rvalue(expr.index)
            return self.rvalue(expr.base)
        if isinstance(expr, ast.Member):
            # Collapsed aggregates: x.f designates x; p->f designates *p.
            if expr.arrow:
                return self.rvalue(expr.base)
            return self.lvalue(expr.base)
        if isinstance(expr, ast.Cast):
            return self.lvalue(expr.operand)
        if isinstance(expr, ast.Comma):
            self.rvalue(expr.left)
            return self.lvalue(expr.right)
        if isinstance(expr, ast.SizeOf):
            if expr.operand is not None:
                self.rvalue(expr.operand)
            return ZERO
        # Assignments, calls, arithmetic, conditionals: not designators;
        # wrap the R-value in a transient location.
        return self._wrapper(self.rvalue(expr))

    def _ident_lvalue(self, name: str) -> SetExpression:
        symbol = self._resolve(name)
        if symbol is None:
            return ZERO  # enumerators are integer constants
        return self.ref_term(symbol.location)

    # ------------------------------------------------------------------
    # R-values: the points-to set of an expression's value.
    # ------------------------------------------------------------------
    def rvalue(self, expr: ast.Expr) -> SetExpression:
        """The points-to set of the expression's *value*."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.CharLit,
                             ast.SizeOf)):
            if isinstance(expr, ast.SizeOf) and expr.operand is not None:
                self.rvalue(expr.operand)
            return ZERO
        if isinstance(expr, ast.Assign):
            return self._assign(expr)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                if isinstance(self.type_of(expr.operand), Function):
                    return self.rvalue(expr.operand)  # &f is f
                return self.lvalue(expr.operand)
            if expr.op in ("*", "++", "--"):
                return self._designator_rvalue(expr)
            self.rvalue(expr.operand)
            return ZERO
        if isinstance(expr, ast.Binary):
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            if expr.op in ("+", "-"):
                # Pointer arithmetic: the result may point wherever
                # either side points (field-insensitive).
                return self._merge(left, right)
            return ZERO
        if isinstance(expr, ast.Conditional):
            self.rvalue(expr.condition)
            return self._merge(
                self.rvalue(expr.then_value), self.rvalue(expr.else_value)
            )
        if isinstance(expr, ast.Comma):
            self.rvalue(expr.left)
            return self.rvalue(expr.right)
        if isinstance(expr, ast.Cast):
            return self.rvalue(expr.operand)
        # Designators: identifiers, derefs, indexing, member access,
        # string literals, postfix inc/dec.
        return self._designator_rvalue(expr)

    def _designator_rvalue(self, expr: ast.Expr) -> SetExpression:
        designated = self.lvalue(expr)
        if isinstance(designated, Term) and designated.is_zero:
            return ZERO
        if isinstance(self.type_of(expr), Array):
            # Array-to-pointer decay: the value points at the designated
            # locations themselves.
            return designated
        return self._deref(designated)

    # ------------------------------------------------------------------
    # Assignment — the (Asst) rule.
    # ------------------------------------------------------------------
    def _assign(self, expr: ast.Assign) -> SetExpression:
        value = self.rvalue(expr.value)
        target = self.lvalue(expr.target)
        self._store(target, value)
        return value

    # ------------------------------------------------------------------
    # Calls.
    # ------------------------------------------------------------------
    def _call(self, expr: ast.Call) -> SetExpression:
        heap = self._allocation(expr)
        if heap is not None:
            return self.ref_term(heap)
        direct = self._direct_callee(expr)
        arg_values = [self.rvalue(arg) for arg in expr.args]
        arity = direct.arity if direct is not None else len(arg_values)
        sink_args: List[SetExpression] = [
            arg_values[position] if position < len(arg_values) else ZERO
            for position in range(arity)
        ]
        result = self.system.fresh_var("retsite")
        lam_sink = Term(
            self._lam(arity), (ONE, *sink_args, result), label=None
        )
        # The callee values flow into the lam sink; the resolution rules
        # wire actuals to formals (contravariant) and returns to the
        # call site (covariant).
        callee_values = self.rvalue(expr.function)
        if not (isinstance(callee_values, Term) and callee_values.is_zero):
            self.system.add(callee_values, lam_sink)
        return result


# ----------------------------------------------------------------------
# Public helpers
# ----------------------------------------------------------------------
def analyze_unit(unit: ast.TranslationUnit, source_lines: int = 0
                 ) -> AndersenProgram:
    """Generate Andersen constraints for a parsed translation unit."""
    return ConstraintGenerator().analyze(unit, source_lines)


def analyze_source(source: str, filename: str = "<input>") -> AndersenProgram:
    """Parse C source text and generate Andersen constraints."""
    from ..cfront.parser import parse

    unit = parse(source, filename)
    return analyze_unit(unit, source_lines=source.count("\n") + 1)


def analyze_file(path: str) -> AndersenProgram:
    """Parse a C file and generate Andersen constraints."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return analyze_source(source, filename=path)
