"""The C program walker both points-to analyses share.

Andersen's constraint generator and Steensgaard's unification baseline
must see the same program model for their comparison (paper Sections 1
and 6) to mean anything, so everything about the C program itself lives
here, once: scopes and implicit declarations, enumerators, record field
types and light static typing, function and variable declarations,
initializer leaves, heap-allocation sites and the statement walk.

A subclass supplies only its flow semantics through the hooks below:
how a location is represented, what a function carries, and how values
flow through ``lvalue``/``rvalue``, calls, initializers and returns.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

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
from .locations import AbstractLocation, LocationKind, LocationTable

#: Allocation functions that return a fresh heap location per call site.
HEAP_FUNCTIONS = frozenset(
    "malloc calloc realloc valloc memalign strdup xmalloc xcalloc "
    "xrealloc xstrdup".split()
)


class FunctionDecl:
    """A declared (defined or prototyped) function and its parameters."""

    __slots__ = ("name", "location", "param_locations", "ctype", "defined")

    def __init__(
        self,
        name: str,
        location: AbstractLocation,
        param_locations: List[AbstractLocation],
        ctype: Function,
    ) -> None:
        self.name = name
        self.location = location
        self.param_locations = param_locations
        self.ctype = ctype
        self.defined = False

    @property
    def arity(self) -> int:
        return len(self.param_locations)


class Symbol:
    """A named program entity bound in some scope."""

    __slots__ = ("name", "ctype", "location", "function")

    def __init__(
        self,
        name: str,
        ctype: CType,
        location: AbstractLocation,
        function: Optional[FunctionDecl] = None,
    ) -> None:
        self.name = name
        self.ctype = ctype
        self.location = location
        self.function = function


class ProgramWalker:
    """Walks a translation unit; subclasses give values their meaning."""

    def __init__(self) -> None:
        self.locations = LocationTable()
        self.functions: Dict[str, FunctionDecl] = {}
        self.records: Dict[str, Dict[str, CType]] = {}
        self._scopes: List[Dict[str, Symbol]] = [{}]
        self._current_function: Optional[FunctionDecl] = None
        self._string_location: Optional[AbstractLocation] = None
        self._heap_counter = 0
        self._enum_constants: set = set()

    # ------------------------------------------------------------------
    # Hooks: the flow semantics of one analysis.
    # ------------------------------------------------------------------
    def _make_location(self, name: str,
                       kind: LocationKind) -> AbstractLocation:
        """Create a location and its analysis-side representation."""
        raise NotImplementedError

    def _function(self, name: str, location: AbstractLocation,
                  param_locations: List[AbstractLocation],
                  ctype: Function) -> FunctionDecl:
        """The analysis' record of a newly declared function."""
        raise NotImplementedError

    def _init_flow(self, location: AbstractLocation, value: Any) -> None:
        """Flow one initializer leaf's value into ``location``."""
        raise NotImplementedError

    def _return_flow(self, value: Any) -> None:
        """Flow a returned value out of the current function."""
        raise NotImplementedError

    def rvalue(self, expr: ast.Expr) -> Any:
        """The locations the value of ``expr`` points to."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def walk(self, unit: ast.TranslationUnit) -> None:
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
    # Scopes and well-known locations
    # ------------------------------------------------------------------
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

    def _resolve(self, name: str) -> Optional[Symbol]:
        """The symbol an identifier denotes; ``None`` for an enumerator.

        An unknown name is implicitly declared as a file-scope int.
        """
        symbol = self._lookup(name)
        if symbol is None and name not in self._enum_constants:
            location = self._make_location(name, LocationKind.VARIABLE)
            symbol = Symbol(name, INT, location)
            self._scopes[0][name] = symbol
        return symbol

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
    ) -> FunctionDecl:
        info = self.functions.get(name)
        if info is not None:
            return info
        location = self._make_location(name, LocationKind.FUNCTION)
        param_names = [
            p.name or f"arg{i}" for i, p in enumerate(params or [])
        ]
        while len(param_names) < len(ctype.params):
            param_names.append(f"arg{len(param_names)}")
        param_locations = [
            self._make_location(f"{name}::{param_names[i]}",
                                LocationKind.PARAMETER)
            for i in range(len(ctype.params))
        ]
        info = self._function(name, location, param_locations, ctype)
        self.functions[name] = info
        symbol = Symbol(name, ctype, location, info)
        # Functions have external linkage: one location per name, seen
        # file-wide even when first declared inside a block.
        self._scopes[0][name] = symbol
        self._bind(symbol)
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
        for leaf in self._init_leaves(init):
            self._init_flow(symbol.location, self.rvalue(leaf))

    def _init_leaves(self, init: ast.Node) -> List[ast.Expr]:
        if isinstance(init, ast.InitList):
            leaves: List[ast.Expr] = []
            for item in init.items:
                leaves.extend(self._init_leaves(item))
            return leaves
        return [init]

    # ------------------------------------------------------------------
    # Calls: heap sites and direct callees
    # ------------------------------------------------------------------
    def _allocation(self, expr: ast.Call) -> Optional[AbstractLocation]:
        """A fresh heap location if ``expr`` calls an allocator."""
        function = expr.function
        if not (isinstance(function, ast.Ident)
                and function.name in HEAP_FUNCTIONS):
            return None
        for arg in expr.args:
            self.rvalue(arg)
        self._heap_counter += 1
        return self._make_location(
            f"heap@{self._heap_counter}", LocationKind.HEAP
        )

    def _direct_callee(self, expr: ast.Call) -> Optional[FunctionDecl]:
        """The function a call names, declaring an unknown name extern."""
        if not isinstance(expr.function, ast.Ident):
            return None
        name = expr.function.name
        symbol = self._lookup(name)
        if symbol is None:
            ctype = Function(INT, tuple(INT for _ in expr.args))
            return self._declare_function(name, ctype)
        return symbol.function

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
        elif isinstance(stmt, (ast.While, ast.Switch)):
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
                self._return_flow(self.rvalue(stmt.value))
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.Goto)):
            pass
        elif isinstance(stmt, ast.Label):
            self._statement(stmt.body)
        elif isinstance(stmt, ast.Case):
            if stmt.value is not None:
                self.rvalue(stmt.value)
            self._statement(stmt.body)
        else:
            raise TypeError(f"unexpected statement node {stmt!r}")

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
