"""Recursive-descent parser for the C subset.

Covers the constructs the points-to benchmarks exercise: full declarator
syntax (pointers, arrays, function declarators, parenthesized
declarators for function pointers), structs/unions/enums, typedefs,
all C89 statements, and the full expression grammar with casts,
``sizeof``, and assignment operators.

The parser maintains a typedef table because C's grammar needs it to
tell declarations from expressions (the classic ``T * x;`` ambiguity).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import (
    CHAR_CONST,
    EOF,
    FLOAT_CONST,
    IDENT,
    INT_CONST,
    KEYWORD,
    PUNCT,
    STRING_CONST,
    Token,
)
from .types import (
    Array,
    CType,
    EnumType,
    Function,
    INT,
    Pointer,
    Record,
    Scalar,
    TypeEnvironment,
    VOID,
)

_TYPE_KEYWORDS = frozenset(
    "void char short int long float double signed unsigned "
    "struct union enum const volatile".split()
)
_STORAGE_KEYWORDS = frozenset(
    "typedef static extern auto register inline".split()
)

_ASSIGN_OPS = frozenset(
    ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")
)

#: binary operator precedence (higher binds tighter)
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    """One-file C parser producing a
    :class:`repro.cfront.ast.TranslationUnit`."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.tokens = tokenize(source, filename)
        self.pos = 0
        self.filename = filename
        self.env = TypeEnvironment()
        self._anon_counter = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        try:
            return self.tokens[self.pos + offset]
        except IndexError:  # lookahead past the end sees EOF
            return self.tokens[-1]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != EOF:
            self.pos += 1
        return token

    def _accept(self, text: str) -> Optional[Token]:
        token = self._peek()
        if token.kind in (PUNCT, KEYWORD) and token.text == text:
            return self._next()
        return None

    def _expect(self, text: str) -> Token:
        token = self._accept(text)
        if token is None:
            actual = self._peek()
            raise ParseError(
                f"expected {text!r}, found {actual.text!r}",
                actual.line,
                actual.column,
            )
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse(self) -> ast.TranslationUnit:
        """Parse the whole input as a translation unit."""
        items: List[ast.Node] = []
        while self._peek().kind != EOF:
            items.extend(self._external_declaration())
        return ast.TranslationUnit(items, self.filename)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _starts_type(self, token: Token) -> bool:
        if token.kind == KEYWORD and (
            token.text in _TYPE_KEYWORDS or token.text in _STORAGE_KEYWORDS
        ):
            return True
        return token.kind == IDENT and self.env.is_typedef_name(token.text)

    def _external_declaration(self) -> List[ast.Node]:
        storage, base_type, tag_defs = self._declaration_specifiers()
        items: List[ast.Node] = list(tag_defs)
        if self._accept(";"):
            # Pure tag declaration: "struct s { ... };"
            return items
        name, full_type = self._declarator(base_type)
        if isinstance(full_type, Function) and self._peek().is_punct("{"):
            items.append(self._function_definition(name, full_type))
            return items
        items.extend(
            self._init_declarators(name, full_type, base_type, storage)
        )
        self._expect(";")
        return items

    def _init_declarators(
        self,
        first_name: str,
        first_type: CType,
        base_type: CType,
        storage: Optional[str],
    ) -> List[ast.Node]:
        """Finish a declaration after the first declarator was parsed."""
        decls: List[ast.Node] = []
        name, full_type = first_name, first_type
        while True:
            init = None
            if self._accept("="):
                init = self._initializer()
            if storage == "typedef":
                self.env.typedefs[name] = full_type
            decls.append(ast.Decl(name, full_type, init, storage))
            if not self._accept(","):
                break
            name, full_type = self._declarator(base_type)
        return decls

    def _declaration(self) -> List[ast.Node]:
        """A block-scope declaration (ends with ';')."""
        storage, base_type, tag_defs = self._declaration_specifiers()
        items: List[ast.Node] = list(tag_defs)
        if self._accept(";"):
            return items
        name, full_type = self._declarator(base_type)
        items.extend(
            self._init_declarators(name, full_type, base_type, storage)
        )
        self._expect(";")
        return items

    def _declaration_specifiers(
        self,
    ) -> Tuple[Optional[str], CType, List[ast.Node]]:
        """Parse storage class + type specifiers.

        Returns (storage, base type, tag definitions encountered) where
        tag definitions are RecordDef/EnumDef nodes for struct bodies
        defined inline.
        """
        storage: Optional[str] = None
        scalar_words: List[str] = []
        base: Optional[CType] = None
        tag_defs: List[ast.Node] = []
        while True:
            token = self._peek()
            if token.kind == KEYWORD and token.text in _STORAGE_KEYWORDS:
                self._next()
                if token.text in ("typedef", "static", "extern"):
                    storage = token.text
                continue
            if token.kind == KEYWORD and token.text in ("const", "volatile"):
                self._next()
                continue
            if token.kind == KEYWORD and token.text in ("struct", "union"):
                record, definition = self._record_specifier(token.text)
                base = record
                if definition is not None:
                    tag_defs.append(definition)
                continue
            if token.is_keyword("enum"):
                enum_type, definition = self._enum_specifier()
                base = enum_type
                if definition is not None:
                    tag_defs.append(definition)
                continue
            if token.kind == KEYWORD and token.text in (
                "void", "char", "short", "int", "long",
                "float", "double", "signed", "unsigned",
            ):
                self._next()
                scalar_words.append(token.text)
                continue
            if (
                token.kind == IDENT
                and base is None
                and not scalar_words
                and self.env.is_typedef_name(token.text)
            ):
                self._next()
                base = self.env.typedefs[token.text]
                continue
            break
        if base is None:
            if not scalar_words:
                raise self._error("expected type specifier")
            base = self._scalar_from_words(scalar_words)
        elif scalar_words:
            raise self._error("conflicting type specifiers")
        return storage, base, tag_defs

    @staticmethod
    def _scalar_from_words(words: List[str]) -> CType:
        if words == ["void"]:
            return VOID
        normalized = " ".join(words)
        return Scalar(normalized)

    def _record_specifier(
        self, kind: str
    ) -> Tuple[Record, Optional[ast.RecordDef]]:
        self._next()  # struct / union
        tag_token = self._peek()
        if tag_token.kind == IDENT:
            self._next()
            tag = tag_token.text
        else:
            self._anon_counter += 1
            tag = f"__anon{self._anon_counter}"
        if not self._accept("{"):
            # Opaque reference; resolve via the tag table when possible.
            known = self.env.records.get(f"{kind} {tag}")
            return (known if known is not None else Record(kind, tag)), None
        members: List[ast.Decl] = []
        while not self._accept("}"):
            members.extend(self._member_declaration())
        record = Record(
            kind,
            tag,
            tuple((decl.name, decl.type) for decl in members),
        )
        self.env.records[f"{kind} {tag}"] = record
        return record, ast.RecordDef(kind, tag, members)

    def _member_declaration(self) -> List[ast.Decl]:
        _, base_type, _ = self._declaration_specifiers()
        decls: List[ast.Decl] = []
        if self._accept(";"):
            return decls
        while True:
            name, full_type = self._declarator(base_type)
            if self._accept(":"):
                self._conditional_expression()  # bit-field width, ignored
            decls.append(ast.Decl(name, full_type))
            if not self._accept(","):
                break
        self._expect(";")
        return decls

    def _enum_specifier(self) -> Tuple[EnumType, Optional[ast.EnumDef]]:
        self._next()  # enum
        tag_token = self._peek()
        if tag_token.kind == IDENT:
            self._next()
            tag = tag_token.text
        else:
            self._anon_counter += 1
            tag = f"__anon{self._anon_counter}"
        if not self._accept("{"):
            return EnumType(tag), None
        enumerators: List[str] = []
        while not self._accept("}"):
            name_token = self._next()
            if name_token.kind != IDENT:
                raise self._error("expected enumerator name")
            enumerators.append(name_token.text)
            if self._accept("="):
                self._conditional_expression()
            if not self._accept(","):
                self._expect("}")
                break
        return EnumType(tag), ast.EnumDef(tag, enumerators)

    # ------------------------------------------------------------------
    # Declarators
    # ------------------------------------------------------------------
    def _declarator(self, base: CType) -> Tuple[str, CType]:
        name, builder = self._declarator_builder()
        return name, builder(base)

    def _declarator_builder(self) -> Tuple[str, Callable[[CType], CType]]:
        pointers = 0
        while self._accept("*"):
            while self._peek().kind == KEYWORD and self._peek().text in (
                "const",
                "volatile",
            ):
                self._next()
            pointers += 1
        name, direct = self._direct_declarator_builder()

        def build(base: CType) -> CType:
            for _ in range(pointers):
                base = Pointer(base)
            return direct(base)

        return name, build

    def _direct_declarator_builder(
        self,
    ) -> Tuple[str, Callable[[CType], CType]]:
        token = self._peek()
        inner: Callable[[CType], CType]
        name = ""
        if token.is_punct("(") and self._paren_is_declarator():
            self._next()
            name, inner = self._declarator_builder()
            self._expect(")")
        elif token.kind == IDENT:
            self._next()
            name = token.text
            inner = lambda base: base  # noqa: E731 - tiny identity
        else:
            inner = lambda base: base  # noqa: E731 - abstract declarator

        suffixes: List[Callable[[CType], CType]] = []
        while True:
            if self._accept("["):
                size: Optional[int] = None
                if not self._peek().is_punct("]"):
                    size_expr = self._conditional_expression()
                    if isinstance(size_expr, ast.IntLit):
                        try:
                            size = int(size_expr.text, 0)
                        except ValueError:
                            size = None
                self._expect("]")
                suffixes.append(
                    lambda base, size=size: Array(base, size)
                )
                continue
            if self._peek().is_punct("("):
                self._next()
                params, variadic = self._parameter_list()
                suffixes.append(
                    lambda base, params=params, variadic=variadic: Function(
                        base, tuple(p.type for p in params), variadic
                    )
                )
                self._last_params = params
                continue
            break

        def build(base: CType) -> CType:
            for suffix in reversed(suffixes):
                base = suffix(base)
            return inner(base)

        return name, build

    def _paren_is_declarator(self) -> bool:
        """After seeing '(', decide declarator-paren vs parameter list."""
        after = self._peek(1)
        if after.is_punct("*") or after.is_punct("("):
            return True
        return after.kind == IDENT and not self.env.is_typedef_name(after.text)

    def _parameter_list(self) -> Tuple[List[ast.ParamDecl], bool]:
        params: List[ast.ParamDecl] = []
        variadic = False
        if self._accept(")"):
            return params, variadic
        # Special case: (void)
        if (
            self._peek().is_keyword("void")
            and self._peek(1).is_punct(")")
        ):
            self._next()
            self._expect(")")
            return params, variadic
        while True:
            if self._accept("..."):
                variadic = True
                break
            if self._starts_type(self._peek()):
                _, base_type, _ = self._declaration_specifiers()
                name, full_type = self._declarator(base_type)
            else:
                # K&R-style unnamed/untyped parameter; default to int.
                token = self._next()
                if token.kind != IDENT:
                    raise ParseError(
                        f"expected parameter, found {token.text!r}",
                        token.line,
                        token.column,
                    )
                name, full_type = token.text, INT
            params.append(ast.ParamDecl(name, full_type.decayed()))
            if not self._accept(","):
                break
        self._expect(")")
        return params, variadic

    def _type_name(self) -> CType:
        """A type-name: specifiers plus an abstract declarator."""
        _, base_type, _ = self._declaration_specifiers()
        _, full_type = self._declarator(base_type)
        return full_type

    # ------------------------------------------------------------------
    # Function definitions
    # ------------------------------------------------------------------
    def _function_definition(
        self, name: str, function_type: Function
    ) -> ast.FunctionDef:
        params = [
            ast.ParamDecl(p.name, p.type)
            for p in getattr(self, "_last_params", [])
        ]
        body = self._compound_statement()
        return ast.FunctionDef(name, function_type, params, body)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _statement(self) -> ast.Stmt:
        token = self._peek()
        if token.is_punct("{"):
            return self._compound_statement()
        if token.is_keyword("if"):
            return self._if_statement()
        if token.is_keyword("while"):
            return self._while_statement()
        if token.is_keyword("do"):
            return self._do_statement()
        if token.is_keyword("for"):
            return self._for_statement()
        if token.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._expression()
            self._expect(";")
            return ast.Return(value)
        if token.is_keyword("break"):
            self._next()
            self._expect(";")
            return ast.Break()
        if token.is_keyword("continue"):
            self._next()
            self._expect(";")
            return ast.Continue()
        if token.is_keyword("switch"):
            self._next()
            self._expect("(")
            condition = self._expression()
            self._expect(")")
            return ast.Switch(condition, self._statement())
        if token.is_keyword("case"):
            self._next()
            value = self._conditional_expression()
            self._expect(":")
            return ast.Case(value, self._statement())
        if token.is_keyword("default"):
            self._next()
            self._expect(":")
            return ast.Case(None, self._statement())
        if token.is_keyword("goto"):
            self._next()
            target = self._next()
            if target.kind != IDENT:
                raise ParseError(
                    "goto needs a label", target.line, target.column
                )
            self._expect(";")
            return ast.Goto(target.text)
        if token.is_punct(";"):
            self._next()
            return ast.ExprStmt(None)
        if (
            token.kind == IDENT
            and self._peek(1).is_punct(":")
            and not self.env.is_typedef_name(token.text)
        ):
            self._next()
            self._next()
            return ast.Label(token.text, self._statement())
        expr = self._expression()
        self._expect(";")
        return ast.ExprStmt(expr)

    def _compound_statement(self) -> ast.Compound:
        self._expect("{")
        items: List[ast.Node] = []
        while not self._accept("}"):
            if self._peek().kind == EOF:
                raise self._error("unterminated block")
            if self._starts_type(self._peek()):
                items.extend(self._declaration())
            else:
                items.append(self._statement())
        return ast.Compound(items)

    def _if_statement(self) -> ast.If:
        self._next()
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        then_branch = self._statement()
        else_branch = None
        if self._accept("else"):
            else_branch = self._statement()
        return ast.If(condition, then_branch, else_branch)

    def _while_statement(self) -> ast.While:
        self._next()
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        return ast.While(condition, self._statement())

    def _do_statement(self) -> ast.DoWhile:
        self._next()
        body = self._statement()
        self._expect("while")
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        self._expect(";")
        return ast.DoWhile(body, condition)

    def _for_statement(self) -> ast.For:
        self._next()
        self._expect("(")
        init: Optional[ast.Node] = None
        if not self._peek().is_punct(";"):
            if self._starts_type(self._peek()):
                decls = self._declaration()  # consumes ';'
                init = ast.Compound(decls)
            else:
                init = self._expression()
                self._expect(";")
        else:
            self._expect(";")
        condition = None
        if not self._peek().is_punct(";"):
            condition = self._expression()
        self._expect(";")
        step = None
        if not self._peek().is_punct(")"):
            step = self._expression()
        self._expect(")")
        return ast.For(init, condition, step, self._statement())

    # ------------------------------------------------------------------
    # Initializers
    # ------------------------------------------------------------------
    def _initializer(self) -> ast.Node:
        if self._accept("{"):
            items: List[ast.Node] = []
            while not self._accept("}"):
                items.append(self._initializer())
                if not self._accept(","):
                    self._expect("}")
                    break
            return ast.InitList(items)
        return self._assignment_expression()

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expression(self) -> ast.Expr:
        expr = self._assignment_expression()
        while self._accept(","):
            expr = ast.Comma(expr, self._assignment_expression())
        return expr

    def _assignment_expression(self) -> ast.Expr:
        left = self._conditional_expression()
        token = self._peek()
        if token.kind == PUNCT and token.text in _ASSIGN_OPS:
            self._next()
            right = self._assignment_expression()
            return ast.Assign(token.text, left, right)
        return left

    def _conditional_expression(self) -> ast.Expr:
        condition = self._binary_expression(0)
        if self._accept("?"):
            then_value = self._expression()
            self._expect(":")
            else_value = self._conditional_expression()
            return ast.Conditional(condition, then_value, else_value)
        return condition

    def _binary_expression(self, min_precedence: int) -> ast.Expr:
        left = self._cast_expression()
        while True:
            token = self._peek()
            precedence = (
                _BINARY_PRECEDENCE.get(token.text)
                if token.kind == PUNCT
                else None
            )
            if precedence is None or precedence < min_precedence:
                return left
            self._next()
            right = self._binary_expression(precedence + 1)
            left = ast.Binary(token.text, left, right)

    def _cast_expression(self) -> ast.Expr:
        token = self._peek()
        if token.is_punct("(") and self._starts_type(self._peek(1)):
            self._next()
            target_type = self._type_name()
            self._expect(")")
            # "(T){...}" compound literals are out of scope; a cast
            # always applies to a cast-expression.
            return ast.Cast(target_type, self._cast_expression())
        return self._unary_expression()

    def _unary_expression(self) -> ast.Expr:
        token = self._peek()
        if token.kind == PUNCT and token.text in (
            "*", "&", "-", "+", "!", "~",
        ):
            self._next()
            return ast.Unary(token.text, self._cast_expression())
        if token.kind == PUNCT and token.text in ("++", "--"):
            self._next()
            return ast.Unary(token.text, self._unary_expression())
        if token.is_keyword("sizeof"):
            self._next()
            if self._peek().is_punct("(") and self._starts_type(self._peek(1)):
                self._next()
                target_type = self._type_name()
                self._expect(")")
                return ast.SizeOf(None, target_type)
            return ast.SizeOf(self._unary_expression(), None)
        return self._postfix_expression()

    def _postfix_expression(self) -> ast.Expr:
        expr = self._primary_expression()
        while True:
            token = self._peek()
            if token.is_punct("("):
                self._next()
                args: List[ast.Expr] = []
                if not self._peek().is_punct(")"):
                    args.append(self._assignment_expression())
                    while self._accept(","):
                        args.append(self._assignment_expression())
                self._expect(")")
                expr = ast.Call(expr, args)
            elif token.is_punct("["):
                self._next()
                index = self._expression()
                self._expect("]")
                expr = ast.Index(expr, index)
            elif token.is_punct("."):
                self._next()
                name = self._next()
                expr = ast.Member(expr, name.text, arrow=False)
            elif token.is_punct("->"):
                self._next()
                name = self._next()
                expr = ast.Member(expr, name.text, arrow=True)
            elif token.kind == PUNCT and token.text in ("++", "--"):
                self._next()
                expr = ast.Postfix(token.text, expr)
            else:
                return expr

    def _primary_expression(self) -> ast.Expr:
        token = self._next()
        if token.kind == IDENT:
            return ast.Ident(token.text)
        if token.kind == INT_CONST:
            return ast.IntLit(token.text)
        if token.kind == FLOAT_CONST:
            return ast.FloatLit(token.text)
        if token.kind == CHAR_CONST:
            return ast.CharLit(token.text)
        if token.kind == STRING_CONST:
            text = token.text
            # Adjacent string literals concatenate.
            while self._peek().kind == STRING_CONST:
                text += self._next().text
            return ast.StringLit(text)
        if token.is_punct("("):
            expr = self._expression()
            self._expect(")")
            return expr
        raise ParseError(
            f"unexpected token {token.text!r}", token.line, token.column
        )


def parse(source: str, filename: str = "<input>") -> ast.TranslationUnit:
    """Parse C source text into an AST."""
    return Parser(source, filename).parse()
