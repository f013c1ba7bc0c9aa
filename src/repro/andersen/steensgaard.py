"""Steensgaard's unification-based points-to analysis.

The almost-linear-time baseline that Shapiro & Horwitz compared
Andersen's analysis against (paper Sections 1, 4 and 6).  Precision is
traded for speed: every assignment *unifies* the two sides' pointee
classes instead of adding an inclusion, so points-to sets are coarse
equivalence classes.

The program model is shared, the flow semantics are not.  Both
analyses subclass :class:`~repro.andersen.walker.ProgramWalker`, so
they see the same scopes, declarations, enumerators, heap sites,
static types and statement walk; the comparison then measures only
inclusion against unification.  The flow semantics here (ECR nodes,
``lvalue``/``rvalue``, calls joining signatures) are independent of
the set-constraint machinery on purpose — this is a semantically
different baseline for the experiment harness's precision/speed
comparison.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..cfront import ast
from ..cfront.types import Array, Function
from .locations import AbstractLocation, LocationKind, LocationTable
from .walker import FunctionDecl, ProgramWalker


class _Node:
    """An equivalence-class record (ECR) in the unification structure."""

    __slots__ = ("parent", "pointee", "signature", "locations")

    def __init__(self) -> None:
        self.parent: "_Node" = self
        self.pointee: Optional["_Node"] = None
        self.signature: Optional["_Signature"] = None
        self.locations: List[AbstractLocation] = []


class _Signature:
    """Function signature attached to a class holding function locations."""

    __slots__ = ("params", "returns")

    def __init__(self, params: List[_Node], returns: _Node) -> None:
        self.params = params
        self.returns = returns


class SteensgaardAnalysis(ProgramWalker):
    """Run Steensgaard's analysis over a translation unit."""

    def __init__(self) -> None:
        super().__init__()
        self._ref_class: Dict[AbstractLocation, _Node] = {}

    # ------------------------------------------------------------------
    # Union-find with attribute merging
    # ------------------------------------------------------------------
    def _find(self, node: _Node) -> _Node:
        root = node
        while root.parent is not root:
            root = root.parent
        while node.parent is not root:
            node.parent, node = root, node.parent
        return root

    def _join(self, a: _Node, b: _Node) -> _Node:
        """Unify two classes, merging pointees and signatures."""
        worklist = [(a, b)]
        result = self._find(a)
        while worklist:
            left, right = worklist.pop()
            left, right = self._find(left), self._find(right)
            if left is right:
                continue
            right.parent = left
            left.locations.extend(right.locations)
            right.locations = []
            if right.pointee is not None:
                if left.pointee is None:
                    left.pointee = right.pointee
                else:
                    worklist.append((left.pointee, right.pointee))
            if right.signature is not None:
                if left.signature is None:
                    left.signature = right.signature
                else:
                    longer, shorter = left.signature, right.signature
                    if len(shorter.params) > len(longer.params):
                        longer, shorter = shorter, longer
                    for l_param, r_param in zip(longer.params, shorter.params):
                        worklist.append((l_param, r_param))
                    worklist.append((longer.returns, shorter.returns))
                    left.signature = longer
        return result

    def _pointee(self, node: _Node) -> _Node:
        root = self._find(node)
        if root.pointee is None:
            root.pointee = _Node()
        return self._find(root.pointee)

    def _class_of(self, location: AbstractLocation) -> _Node:
        node = self._ref_class.get(location)
        if node is None:
            node = _Node()
            node.locations.append(location)
            self._ref_class[location] = node
        return self._find(node)

    # ------------------------------------------------------------------
    # Entry point and the walker's flow hooks
    # ------------------------------------------------------------------
    def analyze(self, unit: ast.TranslationUnit) -> "SteensgaardResult":
        self.walk(unit)
        return SteensgaardResult(self)

    def _make_location(self, name: str, kind: LocationKind
                       ) -> AbstractLocation:
        location = self.locations.make(name, kind)
        self._class_of(location)
        return location

    def _function(self, name: str, location: AbstractLocation,
                  param_locations: List[AbstractLocation],
                  ctype: Function) -> FunctionDecl:
        params = [
            self._pointee(self._class_of(p)) for p in param_locations
        ]
        self._class_of(location).signature = _Signature(params, _Node())
        return FunctionDecl(name, location, param_locations, ctype)

    def _init_flow(self, location: AbstractLocation,
                   value: Optional[_Node]) -> None:
        if value is not None:
            self._join(self._pointee(self._class_of(location)), value)

    def _return_flow(self, value: Optional[_Node]) -> None:
        if value is not None and self._current_function is not None:
            # Joins keep a class's signature, merging the return classes.
            function = self._class_of(self._current_function.location)
            self._join(function.signature.returns, value)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def lvalue(self, expr: ast.Expr) -> Optional[_Node]:
        """Class of the locations the expression designates."""
        if isinstance(expr, ast.Ident):
            symbol = self._resolve(expr.name)
            if symbol is None:
                return None  # enumerators are integer constants
            return self._class_of(symbol.location)
        if isinstance(expr, ast.StringLit):
            return self._class_of(self._string_loc())
        if isinstance(expr, ast.Unary):
            if expr.op == "*":
                return self.rvalue(expr.operand)
            if expr.op in ("++", "--"):
                return self.lvalue(expr.operand)
            return None
        if isinstance(expr, ast.Postfix):
            return self.lvalue(expr.operand)
        if isinstance(expr, ast.Index):
            self.rvalue(expr.index)
            return self.rvalue(expr.base)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                return self.rvalue(expr.base)
            return self.lvalue(expr.base)
        if isinstance(expr, ast.Cast):
            return self.lvalue(expr.operand)
        if isinstance(expr, ast.Comma):
            self.rvalue(expr.left)
            return self.lvalue(expr.right)
        return None

    def rvalue(self, expr: ast.Expr) -> Optional[_Node]:
        """Class of locations the expression's *value* points to."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.CharLit,
                             ast.SizeOf)):
            return None
        if isinstance(expr, ast.Cast):
            return self.rvalue(expr.operand)
        if isinstance(expr, ast.Assign):
            value = self.rvalue(expr.value)
            target = self.lvalue(expr.target)
            if target is not None and value is not None:
                self._join(self._pointee(target), value)
            return value
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                return self.lvalue(expr.operand)
            if expr.op not in ("*", "++", "--"):
                self.rvalue(expr.operand)  # e.g. !(p = malloc(n))
                return None
        if isinstance(expr, ast.Binary):
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            if expr.op in ("+", "-"):
                if left is not None and right is not None:
                    return self._join(left, right)
                return left if left is not None else right
            return None
        if isinstance(expr, ast.Conditional):
            self.rvalue(expr.condition)
            then_value = self.rvalue(expr.then_value)
            else_value = self.rvalue(expr.else_value)
            if then_value is not None and else_value is not None:
                return self._join(then_value, else_value)
            return then_value if then_value is not None else else_value
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Comma):
            self.rvalue(expr.left)
            return self.rvalue(expr.right)
        lvalue = self.lvalue(expr)
        if lvalue is None:
            return None
        expr_type = self.type_of(expr)
        if isinstance(expr_type, (Array, Function)):
            # Decay: the value points at the designated locations.
            return lvalue
        return self._pointee(lvalue)

    def _call(self, expr: ast.Call) -> Optional[_Node]:
        heap = self._allocation(expr)
        if heap is not None:
            return self._class_of(heap)
        self._direct_callee(expr)  # declares an unknown callee
        callee = self.rvalue(expr.function)
        arg_values = [self.rvalue(a) for a in expr.args]
        if callee is None:
            return None
        root = self._find(callee)
        if root.signature is None:
            root.signature = _Signature(
                [_Node() for _ in arg_values], _Node()
            )
        signature = root.signature
        for param, value in zip(signature.params, arg_values):
            if value is not None:
                self._join(param, value)
        return self._find(signature.returns)


class SteensgaardResult:
    """Points-to queries over the unification structure."""

    def __init__(self, analysis: SteensgaardAnalysis) -> None:
        self._analysis = analysis

    def points_to(self, location: AbstractLocation
                  ) -> FrozenSet[AbstractLocation]:
        analysis = self._analysis
        node = analysis._ref_class.get(location)
        if node is None:
            return frozenset()
        root = analysis._find(node)
        if root.pointee is None:
            return frozenset()
        return frozenset(analysis._find(root.pointee).locations)

    def points_to_named(self, name: str) -> FrozenSet[str]:
        location = self._analysis.locations.by_name(name)
        return frozenset(t.name for t in self.points_to(location))

    @property
    def locations(self) -> LocationTable:
        return self._analysis.locations

    def total_edges(self) -> int:
        return sum(
            len(self.points_to(location))
            for location in self._analysis.locations
        )

    def average_set_size(self) -> float:
        sizes = [
            len(self.points_to(location))
            for location in self._analysis.locations
        ]
        nonempty = [s for s in sizes if s]
        if not nonempty:
            return 0.0
        return sum(nonempty) / len(nonempty)


def analyze_unit_steensgaard(unit: ast.TranslationUnit) -> SteensgaardResult:
    """Run Steensgaard's analysis over a parsed translation unit."""
    return SteensgaardAnalysis().analyze(unit)
