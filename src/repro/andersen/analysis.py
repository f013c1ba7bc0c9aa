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
from ..cfront.types import (
    Array,
    CType,
    Function,
    INT,
    Pointer,
    Record,
    Scalar,
)
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

#: Allocation functions that return a fresh heap location per call site.
HEAP_FUNCTIONS = frozenset(
    "malloc calloc realloc valloc memalign strdup xmalloc xcalloc "
    "xrealloc xstrdup".split()
)


class Symbol:
    """A named program entity bound in some scope."""

    __slots__ = ("name", "ctype", "location", "function")

    def __init__(
        self,
        name: str,
        ctype: CType,
        location: AbstractLocation,
        function: Optional["FunctionInfo"] = None,
    ) -> None:
        self.name = name
        self.ctype = ctype
        self.location = location
        self.function = function


class FunctionInfo:
    """Constraint-level view of a function (defined or prototyped)."""

    __slots__ = (
        "name", "location", "param_locations", "return_var", "lam_term",
        "ctype", "defined",
    )

    def __init__(
        self,
        name: str,
        location: AbstractLocation,
        param_locations: List[AbstractLocation],
        return_var: Var,
        lam_term: Term,
        ctype: Function,
    ) -> None:
        self.name = name
        self.location = location
        self.param_locations = param_locations
        self.return_var = return_var
        self.lam_term = lam_term
        self.ctype = ctype
        self.defined = False

    @property
    def arity(self) -> int:
        return len(self.param_locations)


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


class ConstraintGenerator:
    """Walks a translation unit and emits set constraints."""

    def __init__(self) -> None:
        self.system = ConstraintSystem("andersen")
        cov, con = Variance.COVARIANT, Variance.CONTRAVARIANT
        self.ref = self.system.constructor("ref", (cov, cov, con))
        self.loc_ctor = self.system.constructor("loc", ())
        self._lam_ctors: Dict[int, object] = {}
        self.locations = LocationTable()
        self.points_to_var: Dict[AbstractLocation, Var] = {}
        self._ref_terms: Dict[AbstractLocation, Term] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.records: Dict[str, Dict[str, CType]] = {}
        self._scopes: List[Dict[str, Symbol]] = [{}]
        self._current_function: Optional[FunctionInfo] = None
        self._string_location: Optional[AbstractLocation] = None
        self._heap_counter = 0
        self._enum_constants: set = set()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def analyze(self, unit: ast.TranslationUnit, source_lines: int = 0
                ) -> AndersenProgram:
        self._collect_records(unit)
        # Pass 1: bind all file-scope names so forward references work.
        for item in unit.items:
            if isinstance(item, ast.FunctionDef):
                self._declare_function(item.name, item.type, item.params)
            elif isinstance(item, ast.Decl):
                self._declare_global(item)
        # Pass 2: process initializers and function bodies.
        for item in unit.items:
            if isinstance(item, ast.FunctionDef):
                self._function_body(item)
            elif isinstance(item, ast.Decl) and item.init is not None:
                symbol = self._lookup(item.name)
                if symbol is not None:
                    self._initialize(symbol, item.init)
        return AndersenProgram(
            self.system,
            self.locations,
            self.points_to_var,
            self.functions,
            unit.count_nodes(),
            source_lines,
        )

    # ------------------------------------------------------------------
    # Records (structs/unions) — field-insensitive, but we keep field
    # types so `type_of` can see through member accesses.
    # ------------------------------------------------------------------
    def _collect_records(self, root: ast.Node) -> None:
        stack: List[ast.Node] = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.RecordDef):
                self.records[node.tag] = {
                    member.name: member.type for member in node.members
                }
            elif isinstance(node, ast.EnumDef):
                self._enum_constants.update(node.enumerators)
            stack.extend(node.children())

    def _field_type(self, record: Record, name: str) -> Optional[CType]:
        direct = record.field_type(name)
        if direct is not None:
            return direct
        fields = self.records.get(record.tag)
        if fields is not None:
            return fields.get(name)
        return None

    # ------------------------------------------------------------------
    # Locations, terms and scopes
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

    def _push_scope(self) -> None:
        self._scopes.append({})

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _bind(self, symbol: Symbol) -> None:
        self._scopes[-1][symbol.name] = symbol

    def _lookup(self, name: str) -> Optional[Symbol]:
        for scope in reversed(self._scopes):
            symbol = scope.get(name)
            if symbol is not None:
                return symbol
        return None

    def _qualified(self, name: str) -> str:
        if self._current_function is not None:
            return f"{self._current_function.name}::{name}"
        return name

    def _string_loc(self) -> AbstractLocation:
        if self._string_location is None:
            self._string_location = self._make_location(
                "<strings>", LocationKind.STRING
            )
        return self._string_location

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _declare_function(
        self,
        name: str,
        ctype: Function,
        params: Optional[List[ast.ParamDecl]] = None,
    ) -> FunctionInfo:
        info = self.functions.get(name)
        if info is not None:
            return info
        location = self._make_location(name, LocationKind.FUNCTION)
        param_types = list(ctype.params)
        param_names = [
            p.name or f"arg{i}" for i, p in enumerate(params or [])
        ]
        while len(param_names) < len(param_types):
            param_names.append(f"arg{len(param_names)}")
        param_locations = [
            self._make_location(f"{name}::{param_names[i]}",
                                LocationKind.PARAMETER)
            for i in range(len(param_types))
        ]
        return_var = self.system.fresh_var(f"ret[{name}]")
        lam_args: Tuple[SetExpression, ...] = (
            Term(self.loc_ctor, (), label=location),
            *(self.points_to_var[p] for p in param_locations),
            return_var,
        )
        lam_term = Term(
            self._lam(len(param_locations)), lam_args, label=location
        )
        info = FunctionInfo(
            name, location, param_locations, return_var, lam_term, ctype
        )
        self.functions[name] = info
        # The contents of a function's location is its lambda term.
        self.system.add(lam_term, self.points_to_var[location])
        self._bind(Symbol(name, ctype, location, info))
        return info

    def _declare_global(self, decl: ast.Decl) -> None:
        if decl.storage == "typedef" or not decl.name:
            return
        if isinstance(decl.type, Function):
            self._declare_function(decl.name, decl.type)
            return
        if self._lookup(decl.name) is not None:
            return  # redeclaration (e.g. extern + definition)
        location = self._make_location(decl.name, LocationKind.VARIABLE)
        self._bind(Symbol(decl.name, decl.type, location))

    def _declare_local(self, decl: ast.Decl) -> None:
        if decl.storage == "typedef" or not decl.name:
            return
        if isinstance(decl.type, Function):
            self._declare_function(decl.name, decl.type)
            return
        location = self._make_location(
            self._qualified(decl.name), LocationKind.VARIABLE
        )
        symbol = Symbol(decl.name, decl.type, location)
        self._bind(symbol)
        if decl.init is not None:
            self._initialize(symbol, decl.init)

    def _initialize(self, symbol: Symbol, init: ast.Node) -> None:
        """Process ``T x = init`` — values flow into the contents of x."""
        contents = self.points_to_var[symbol.location]
        for leaf in self._init_leaves(init):
            value = self.rvalue(leaf)
            if not (isinstance(value, Term) and value.is_zero):
                self.system.add(value, contents)

    def _init_leaves(self, init: ast.Node) -> List[ast.Expr]:
        if isinstance(init, ast.InitList):
            leaves: List[ast.Expr] = []
            for item in init.items:
                leaves.extend(self._init_leaves(item))
            return leaves
        return [init]

    # ------------------------------------------------------------------
    # Function bodies and statements
    # ------------------------------------------------------------------
    def _function_body(self, function: ast.FunctionDef) -> None:
        info = self.functions[function.name]
        info.defined = True
        previous = self._current_function
        self._current_function = info
        self._push_scope()
        for param, location in zip(function.params, info.param_locations):
            if param.name:
                self._bind(Symbol(param.name, param.type, location))
        self._statement(function.body)
        self._pop_scope()
        self._current_function = previous

    def _statement(self, stmt: ast.Node) -> None:
        if isinstance(stmt, ast.Compound):
            self._push_scope()
            for item in stmt.items:
                self._statement(item)
            self._pop_scope()
        elif isinstance(stmt, ast.Decl):
            self._declare_local(stmt)
        elif isinstance(stmt, (ast.RecordDef, ast.EnumDef)):
            pass  # types carry no points-to content
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self.rvalue(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.rvalue(stmt.condition)
            self._statement(stmt.then_branch)
            if stmt.else_branch is not None:
                self._statement(stmt.else_branch)
        elif isinstance(stmt, ast.While):
            self.rvalue(stmt.condition)
            self._statement(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._statement(stmt.body)
            self.rvalue(stmt.condition)
        elif isinstance(stmt, ast.For):
            self._push_scope()
            if isinstance(stmt.init, ast.Compound):
                for item in stmt.init.items:
                    self._statement(item)
            elif stmt.init is not None:
                self.rvalue(stmt.init)
            if stmt.condition is not None:
                self.rvalue(stmt.condition)
            if stmt.step is not None:
                self.rvalue(stmt.step)
            self._statement(stmt.body)
            self._pop_scope()
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.rvalue(stmt.value)
                if self._current_function is not None and not (
                    isinstance(value, Term) and value.is_zero
                ):
                    self.system.add(value, self._current_function.return_var)
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.Goto)):
            pass
        elif isinstance(stmt, ast.Label):
            self._statement(stmt.body)
        elif isinstance(stmt, ast.Switch):
            self.rvalue(stmt.condition)
            self._statement(stmt.body)
        elif isinstance(stmt, ast.Case):
            if stmt.value is not None:
                self.rvalue(stmt.value)
            self._statement(stmt.body)
        else:
            raise TypeError(f"unexpected statement node {stmt!r}")

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
        symbol = self._lookup(name)
        if symbol is None and name in self._enum_constants:
            return ZERO  # enumerators are integer constants
        if symbol is None:
            # Implicit declaration: create a file-scope int variable.
            location = self._make_location(name, LocationKind.VARIABLE)
            symbol = Symbol(name, INT, location)
            self._scopes[0][name] = symbol
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
        callee_name = (
            expr.function.name
            if isinstance(expr.function, ast.Ident)
            else None
        )
        if callee_name in HEAP_FUNCTIONS:
            for arg in expr.args:
                self.rvalue(arg)
            self._heap_counter += 1
            heap = self._make_location(
                f"heap@{self._heap_counter}", LocationKind.HEAP
            )
            return self.ref_term(heap)

        direct: Optional[FunctionInfo] = None
        if callee_name is not None:
            symbol = self._lookup(callee_name)
            if symbol is None:
                # Implicitly declared extern function.
                ctype = Function(INT, tuple(INT for _ in expr.args))
                direct = self._declare_function(callee_name, ctype)
            elif symbol.function is not None:
                direct = symbol.function

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

    # ------------------------------------------------------------------
    # Approximate static types (enough for decay decisions).
    # ------------------------------------------------------------------
    def type_of(self, expr: ast.Expr) -> Optional[CType]:
        if isinstance(expr, ast.Ident):
            symbol = self._lookup(expr.name)
            return symbol.ctype if symbol is not None else None
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return Scalar("double")
        if isinstance(expr, ast.CharLit):
            return Scalar("char")
        if isinstance(expr, ast.StringLit):
            return Array(Scalar("char"))
        if isinstance(expr, ast.Unary):
            if expr.op == "*":
                inner = self.type_of(expr.operand)
                if isinstance(inner, Pointer):
                    return inner.target
                if isinstance(inner, Array):
                    return inner.element
                if isinstance(inner, Function):
                    return inner  # *f is f for function designators
                return None
            if expr.op == "&":
                inner = self.type_of(expr.operand)
                return Pointer(inner) if inner is not None else None
            if expr.op in ("++", "--"):
                return self.type_of(expr.operand)
            return INT
        if isinstance(expr, ast.Postfix):
            return self.type_of(expr.operand)
        if isinstance(expr, ast.Binary):
            left = self.type_of(expr.left)
            if isinstance(left, (Pointer, Array)):
                return left.decayed() if isinstance(left, Array) else left
            right = self.type_of(expr.right)
            if isinstance(right, (Pointer, Array)):
                return right.decayed() if isinstance(right, Array) else right
            return INT
        if isinstance(expr, ast.Assign):
            return self.type_of(expr.target)
        if isinstance(expr, ast.Conditional):
            then_type = self.type_of(expr.then_value)
            return then_type if then_type is not None else self.type_of(
                expr.else_value
            )
        if isinstance(expr, ast.Call):
            function_type = self.type_of(expr.function)
            if isinstance(function_type, Function):
                return function_type.returns
            if isinstance(function_type, Pointer) and isinstance(
                function_type.target, Function
            ):
                return function_type.target.returns
            return None
        if isinstance(expr, ast.Index):
            base = self.type_of(expr.base)
            if isinstance(base, Array):
                return base.element
            if isinstance(base, Pointer):
                return base.target
            return None
        if isinstance(expr, ast.Member):
            base = self.type_of(expr.base)
            if expr.arrow and isinstance(base, Pointer):
                base = base.target
            if isinstance(base, Array):
                base = base.element
            if isinstance(base, Record):
                return self._field_type(base, expr.name)
            return None
        if isinstance(expr, ast.Cast):
            return expr.target_type
        if isinstance(expr, ast.SizeOf):
            return INT
        if isinstance(expr, ast.Comma):
            return self.type_of(expr.right)
        return None


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
