"""Tests for declaration parsing (declarators, structs, typedefs)."""

import pytest

from repro.cfront import ParseError, Parser, ast, parse
from repro.cfront.tokens import EOF
from repro.cfront.types import (
    Array,
    Function,
    Pointer,
    Record,
    Scalar,
    Void,
)


def decl(source, index=0):
    unit = parse(source)
    decls = [item for item in unit.items if isinstance(item, ast.Decl)]
    return decls[index]


class TestDeclarators:
    def test_simple_int(self):
        d = decl("int x;")
        assert d.name == "x"
        assert d.type == Scalar("int")

    def test_pointer(self):
        d = decl("int *p;")
        assert d.type == Pointer(Scalar("int"))

    def test_double_pointer(self):
        d = decl("char **pp;")
        assert d.type == Pointer(Pointer(Scalar("char")))

    def test_array(self):
        d = decl("int a[10];")
        assert d.type == Array(Scalar("int"), 10)

    def test_unsized_array(self):
        d = decl("int a[];")
        assert d.type == Array(Scalar("int"), None)

    def test_array_of_pointers(self):
        d = decl("int *a[4];")
        assert d.type == Array(Pointer(Scalar("int")), 4)

    def test_pointer_to_array(self):
        d = decl("int (*pa)[4];")
        assert d.type == Pointer(Array(Scalar("int"), 4))

    def test_two_dimensional_array(self):
        d = decl("int m[2][3];")
        assert d.type == Array(Array(Scalar("int"), 3), 2)

    def test_function_pointer(self):
        d = decl("int (*fp)(int, char *);")
        assert d.type == Pointer(
            Function(Scalar("int"), (Scalar("int"), Pointer(Scalar("char"))))
        )

    def test_array_of_function_pointers(self):
        d = decl("void (*table[3])(int);")
        assert d.type == Array(
            Pointer(Function(Void(), (Scalar("int"),))), 3
        )

    def test_function_returning_pointer(self):
        d = decl("int *f(void);")
        assert d.type == Function(Pointer(Scalar("int")), ())

    def test_function_pointer_returning_function_pointer(self):
        d = decl("int (*(*f)(int))(char);")
        inner = Pointer(Function(Scalar("int"), (Scalar("char"),)))
        assert d.type == Pointer(Function(inner, (Scalar("int"),)))

    def test_multi_declarator_line(self):
        unit = parse("int x, *p, a[2];")
        decls = [i for i in unit.items if isinstance(i, ast.Decl)]
        assert [d.name for d in decls] == ["x", "p", "a"]
        assert decls[1].type == Pointer(Scalar("int"))

    def test_variadic_function(self):
        d = decl("int printf(char *fmt, ...);")
        assert isinstance(d.type, Function)
        assert d.type.variadic

    def test_qualifiers_ignored(self):
        d = decl("const volatile int * const p;")
        assert d.type == Pointer(Scalar("int"))

    def test_unsigned_long(self):
        d = decl("unsigned long x;")
        assert d.type == Scalar("unsigned long")

    def test_array_param_decays(self):
        unit = parse("void f(int a[10]) { }")
        fn = unit.functions()[0]
        assert fn.params[0].type == Pointer(Scalar("int"))

    def test_function_param_decays(self):
        unit = parse("void f(int g(int)) { }")
        fn = unit.functions()[0]
        assert fn.params[0].type == Pointer(
            Function(Scalar("int"), (Scalar("int"),))
        )


class TestStructsUnionsEnums:
    def test_struct_definition(self):
        unit = parse("struct point { int x; int y; };")
        record = unit.items[0]
        assert isinstance(record, ast.RecordDef)
        assert record.tag == "point"
        assert [m.name for m in record.members] == ["x", "y"]

    def test_struct_variable(self):
        d = decl("struct point { int x; } origin;")
        assert isinstance(d.type, Record)
        assert d.type.tag == "point"
        assert d.type.field_type("x") == Scalar("int")

    def test_self_referential_struct(self):
        d = decl("struct node { struct node *next; } n;")
        next_type = d.type.field_type("next")
        assert isinstance(next_type, Pointer)
        assert next_type.target.tag == "node"

    def test_opaque_reference_resolved_later(self):
        source = "struct s { int v; };\nstruct s instance;"
        d = decl(source)
        assert d.type.fields is not None

    def test_union(self):
        d = decl("union u { int i; char c; } x;")
        assert d.type.kind == "union"

    def test_anonymous_struct(self):
        d = decl("struct { int a; } x;")
        assert d.type.tag.startswith("__anon")

    def test_bitfields_parsed(self):
        unit = parse("struct flags { int a : 1; int b : 2; };")
        record = unit.items[0]
        assert [m.name for m in record.members] == ["a", "b"]

    def test_enum_definition(self):
        unit = parse("enum color { RED, GREEN = 5, BLUE };")
        enum = unit.items[0]
        assert isinstance(enum, ast.EnumDef)
        assert enum.enumerators == ["RED", "GREEN", "BLUE"]

    def test_enum_variable(self):
        d = decl("enum color { RED } c;")
        assert d.type.tag == "color"


class TestTypedefs:
    def test_typedef_registered_and_used(self):
        unit = parse("typedef int myint;\nmyint x;")
        decls = [i for i in unit.items if isinstance(i, ast.Decl)]
        assert decls[0].storage == "typedef"
        assert decls[1].type == Scalar("int")

    def test_typedef_pointer(self):
        d = decl("typedef char *string;\nstring s;", index=1)
        assert d.type == Pointer(Scalar("char"))

    def test_typedef_struct(self):
        source = "typedef struct node { int v; } Node;\nNode n;"
        d = decl(source, index=1)
        assert isinstance(d.type, Record)

    def test_typedef_in_cast_position(self):
        source = "typedef int myint;\nint y = (myint)3;"
        d = decl(source, index=1)
        assert isinstance(d.init, ast.Cast)


class TestInitializers:
    def test_scalar_init(self):
        d = decl("int x = 5;")
        assert isinstance(d.init, ast.IntLit)

    def test_address_init(self):
        d = decl("int y;\nint *p = &y;", index=1)
        assert isinstance(d.init, ast.Unary)
        assert d.init.op == "&"

    def test_init_list(self):
        d = decl("int a[3] = { 1, 2, 3 };")
        assert isinstance(d.init, ast.InitList)
        assert len(d.init.items) == 3

    def test_nested_init_list(self):
        d = decl("int m[2][2] = { { 1, 2 }, { 3, 4 } };")
        assert isinstance(d.init.items[0], ast.InitList)

    def test_trailing_comma_in_init_list(self):
        d = decl("int a[2] = { 1, 2, };")
        assert len(d.init.items) == 2


class TestFunctions:
    def test_definition_with_params(self):
        unit = parse("int add(int a, int b) { return a + b; }")
        fn = unit.functions()[0]
        assert fn.name == "add"
        assert [p.name for p in fn.params] == ["a", "b"]

    def test_void_param_list(self):
        unit = parse("int f(void) { return 0; }")
        assert unit.functions()[0].params == []

    def test_prototype_then_definition(self):
        unit = parse("int f(int x);\nint f(int x) { return x; }")
        assert len(unit.functions()) == 1
        decls = [i for i in unit.items if isinstance(i, ast.Decl)]
        assert isinstance(decls[0].type, Function)

    def test_static_function(self):
        unit = parse("static int helper(void) { return 1; }")
        assert unit.functions()[0].name == "helper"


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return 0;")

    def test_missing_type(self):
        with pytest.raises(ParseError):
            parse("; x;")


class TestLookahead:
    def test_lookahead_past_the_end_sees_eof(self):
        parser = Parser("int x")
        assert parser._peek(1).text == "x"
        for offset in (2, 3, 100):
            assert parser._peek(offset).kind == EOF
        parser.pos = 2
        assert parser._peek().kind == EOF
        assert parser._next().kind == EOF
        assert parser.pos == 2

    def test_truncated_declarator_reports_eof_position(self):
        with pytest.raises(ParseError) as info:
            parse("int f(")
        assert (info.value.line, info.value.column) == (1, 7)
