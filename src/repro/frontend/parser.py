"""Recursive-descent parser for Impala-lite.

Grammar sketch (Rust-flavoured)::

    module   := fn_decl*
    fn_decl  := 'extern'? 'fn' IDENT '(' params ')' ('->' type)? block
    params   := (IDENT ':' type) % ','
    type     := 'i8'..'u64' | 'f32' | 'f64' | 'bool' | '()'
              | 'fn' '(' type % ',' ')' ('->' type)?
              | '(' type % ',' ')' | '[' type ';' INT ']' | '&' '[' type ']'
    block    := '{' stmt* expr? '}'
    stmt     := 'let' 'mut'? IDENT (':' type)? '=' expr ';'
              | expr ('=' | '+=' | ...) expr ';'
              | 'while' expr block | 'for' IDENT 'in' expr '..' expr block
              | 'break' ';' | 'continue' ';' | 'return' expr? ';'
              | expr ';' | expr  (trailing block result)
    expr     := lambda | if | binary
    lambda   := '|' params '|' ('->' type)? (block | expr)
    binary   := unary (BINOP unary)*         (nine levels, below)
    unary    := ('-' | '!') unary | postfix
    postfix  := ('@' | '$')? primary suffix*  (a marker marks a call)
    suffix   := '(' expr % ',' ')' | '[' expr ']' | '.' INT | 'as' type

Binary operators are left-associative on nine levels, loosest first:
``||``; ``&&``; ``== != < <= > >=``; ``|``; ``^``; ``&``; ``<< >>``;
``+ -``; ``* / %``.  Unary operators and the postfix forms bind
tighter than any of them, and ``as`` is a postfix form.  The parser
climbs the levels with one ``{op: level}`` table (``BINARY_PREC``): an
operand is parsed once, and a recursive call is made only when the next
operator binds tighter than the current one.

Tokens are tested by their text alone: punctuation and keyword texts
never collide with identifier or literal texts.

Blocks follow the Rust rule: the last expression without a trailing
semicolon is the block's value.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import INT_SUFFIXES, FLOAT_SUFFIXES, TokKind, Token, tokenize

PRIM_TYPE_NAMES = frozenset(
    {"bool", "i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64", "f32", "f64"}
)

ASSIGN_OPS = {
    "=": None, "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}

# Binary precedence, loosest first.
BINARY_LEVELS = [
    ("||",),
    ("&&",),
    ("==", "!=", "<", "<=", ">", ">="),
    ("|",),
    ("^",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]

BINARY_PREC = {op: level for level, ops in enumerate(BINARY_LEVELS)
               for op in ops}

# Maximum nesting of expressions/types/blocks.  The parser recurses on
# nested constructs; without an explicit bound, adversarial input like
# ten thousand `(`s would ride the process recursion limit (bumped high
# in ``repro/__init__`` for graph traversals) straight into a CPython
# stack overflow.  Real programs nest a few dozen levels at most.
MAX_NESTING_DEPTH = 500


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self._depth = 0

    def _enter(self, what: str) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise ParseError(
                f"{what} nested deeper than {MAX_NESTING_DEPTH} levels",
                self.peek().loc,
            )

    def _leave(self) -> None:
        self._depth -= 1

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.text == text:
            self.pos += 1
            return tok
        return None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            actual = self.peek()
            raise ParseError(f"expected {text!r}, found {actual.text!r}", actual.loc)
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind is not TokKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.loc)
        return self.next()

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def parse_module(self) -> ast.Module:
        loc = self.peek().loc
        functions = []
        while self.peek().kind is not TokKind.EOF:
            functions.append(self.parse_fn_decl())
        return ast.Module(loc, functions)

    def parse_fn_decl(self) -> ast.FnDecl:
        is_extern = self.accept("extern") is not None
        loc = self.expect("fn").loc
        name = self.expect_ident().text
        self.expect("(")
        params = self._parse_param_list(")")
        self.expect(")")
        ret_type = self.parse_type() if self.accept("->") else None
        body = self.parse_block()
        decl = ast.FnDecl(loc, name, params, ret_type, body)
        decl.is_extern = is_extern or name == "main"
        return decl

    def _parse_param_list(self, closer: str) -> list[ast.ParamDecl]:
        params: list[ast.ParamDecl] = []
        while not self.at(closer):
            if params:
                self.expect(",")
                if self.at(closer):  # trailing comma
                    break
            name_tok = self.expect_ident()
            self.expect(":")
            params.append(ast.ParamDecl(name_tok.loc, name_tok.text, self.parse_type()))
        return params

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------

    def parse_type(self) -> ast.TypeExpr:
        self._enter("type")
        try:
            return self._parse_type_inner()
        finally:
            self._leave()

    def _parse_type_inner(self) -> ast.TypeExpr:
        tok = self.peek()
        if tok.kind is TokKind.IDENT and tok.text in PRIM_TYPE_NAMES:
            self.next()
            return ast.PrimTypeExpr(tok.loc, tok.text)
        text = tok.text
        if text == "fn":
            self.next()
            self.expect("(")
            param_types = self._parse_type_list(")")
            self.expect(")")
            ret = self.parse_type() if self.accept("->") else None
            return ast.FnTypeExpr(tok.loc, param_types, ret)
        if text == "(":
            self.next()
            elems = self._parse_type_list(")")
            self.expect(")")
            if not elems:
                return ast.UnitTypeExpr(tok.loc)
            if len(elems) == 1:
                return elems[0]
            return ast.TupleTypeExpr(tok.loc, elems)
        if text == "[":
            self.next()
            elem = self.parse_type()
            self.expect(";")
            count_tok = self.next()
            if count_tok.kind is not TokKind.INT:
                raise ParseError("array length must be an integer literal",
                                 count_tok.loc)
            self.expect("]")
            return ast.ArrayTypeExpr(tok.loc, elem, count_tok.value[0])
        if text == "&":
            self.next()
            self.expect("[")
            elem = self.parse_type()
            self.expect("]")
            return ast.BufTypeExpr(tok.loc, elem)
        raise ParseError(f"expected a type, found {tok.text!r}", tok.loc)

    def _parse_type_list(self, closer: str) -> list[ast.TypeExpr]:
        types: list[ast.TypeExpr] = []
        while not self.at(closer):
            if types:
                self.expect(",")
                if self.at(closer):
                    break
            types.append(self.parse_type())
        return types

    # ------------------------------------------------------------------
    # statements & blocks
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        self._enter("block")
        try:
            return self._parse_block_inner()
        finally:
            self._leave()

    def _parse_block_inner(self) -> ast.Block:
        loc = self.expect("{").loc
        stmts: list[ast.Stmt] = []
        result: ast.Expr | None = None
        while not self.at("}"):
            item = self._parse_block_item()
            if isinstance(item, ast.Stmt):
                stmts.append(item)
            else:
                # An expression: result if the block ends here, else it
                # must have been a block-like expression used as a stmt.
                if self.at("}"):
                    result = item
                elif isinstance(item, (ast.IfExpr, ast.Block)):
                    stmts.append(ast.ExprStmt(item.loc, item))
                else:
                    tok = self.peek()
                    raise ParseError(
                        f"expected ';' or '}}', found {tok.text!r}", tok.loc
                    )
        self.expect("}")
        return ast.Block(loc, stmts, result)

    def _parse_block_item(self):
        tok = self.peek()
        text = tok.text
        if text == "let":
            return self._parse_let()
        if text == "while":
            self.next()
            cond = self.parse_expr(struct_ok=False)
            body = self.parse_block()
            return ast.WhileStmt(tok.loc, cond, body)
        if text == "for":
            self.next()
            name = self.expect_ident().text
            self.expect("in")
            start = self.parse_expr(struct_ok=False)
            self.expect("..")
            end = self.parse_expr(struct_ok=False)
            body = self.parse_block()
            return ast.ForStmt(tok.loc, name, start, end, body)
        if text == "break":
            self.next()
            self.expect(";")
            return ast.BreakStmt(tok.loc)
        if text == "continue":
            self.next()
            self.expect(";")
            return ast.ContinueStmt(tok.loc)
        if text == "return":
            self.next()
            value = None
            if not self.at(";"):
                value = self.parse_expr()
            self.expect(";")
            return ast.ReturnStmt(tok.loc, value)
        # Expression or assignment.
        expr = self.parse_expr()
        text = self.peek().text
        if text in ASSIGN_OPS:
            self.next()
            value = self.parse_expr()
            self.expect(";")
            return ast.AssignStmt(expr.loc, expr, ASSIGN_OPS[text], value)
        if self.accept(";"):
            return ast.ExprStmt(expr.loc, expr)
        return expr

    def _parse_let(self) -> ast.LetStmt:
        loc = self.expect("let").loc
        mutable = self.accept("mut") is not None
        name = self.expect_ident().text
        type_expr = self.parse_type() if self.accept(":") else None
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        return ast.LetStmt(loc, name, mutable, type_expr, init)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def parse_expr(self, struct_ok: bool = True) -> ast.Expr:
        self._enter("expression")
        try:
            return self._parse_expr_inner(struct_ok)
        finally:
            self._leave()

    def _parse_expr_inner(self, struct_ok: bool) -> ast.Expr:
        text = self.tokens[self.pos].text
        if text == "|":
            return self._parse_lambda()
        if text == "||":
            # Zero-parameter lambda: `||` lexes as one token.
            return self._parse_lambda(zero_params=True)
        if text == "if":
            return self._parse_if()
        return self._parse_binary(self._parse_unary(struct_ok), 0, struct_ok)

    def _parse_lambda(self, zero_params: bool = False) -> ast.Lambda:
        tok = self.next()
        if zero_params:
            params: list[ast.ParamDecl] = []
        else:
            params = self._parse_param_list("|")
            self.expect("|")
        ret_type = self.parse_type() if self.accept("->") else None
        if self.at("{"):
            body = self.parse_block()
        else:
            expr = self.parse_expr()
            body = ast.Block(expr.loc, [], expr)
        return ast.Lambda(tok.loc, params, ret_type, body)

    def _parse_if(self) -> ast.IfExpr:
        loc = self.expect("if").loc
        cond = self.parse_expr(struct_ok=False)
        then_block = self.parse_block()
        else_block = None
        if self.accept("else"):
            if self.at("if"):
                else_block = self._parse_if()
            else:
                else_block = self.parse_block()
        return ast.IfExpr(loc, cond, then_block, else_block)

    def _parse_binary(self, lhs: ast.Expr, min_level: int,
                      struct_ok: bool) -> ast.Expr:
        """Fold the operators of level >= *min_level* that follow *lhs*."""
        tokens = self.tokens
        prec = BINARY_PREC
        tok = tokens[self.pos]
        level = prec.get(tok.text)
        while level is not None and level >= min_level:
            self.pos += 1
            rhs = self._parse_unary(struct_ok)
            tighter = prec.get(tokens[self.pos].text)
            while tighter is not None and tighter > level:
                rhs = self._parse_binary(rhs, level + 1, struct_ok)
                tighter = prec.get(tokens[self.pos].text)
            lhs = ast.Binary(tok.loc, tok.text, lhs, rhs)
            tok = tokens[self.pos]
            level = tighter
        return lhs

    def _parse_unary(self, struct_ok: bool) -> ast.Expr:
        self._enter("expression")
        try:
            return self._parse_unary_inner(struct_ok)
        finally:
            self._leave()

    def _parse_unary_inner(self, struct_ok: bool) -> ast.Expr:
        tok = self.tokens[self.pos]
        text = tok.text
        if text == "-" or text == "!":
            self.pos += 1
            operand = self._parse_unary(struct_ok)
            return ast.Unary(tok.loc, text, operand)
        if text == "@" or text == "$":
            self.pos += 1
            mode = "run" if text == "@" else "hlt"
            callee = self._parse_postfix(self._parse_primary(struct_ok),
                                         stop_before_call=True)
            call = self._parse_call(callee, mode)
            return self._parse_postfix(call)
        return self._parse_postfix(self._parse_primary(struct_ok))

    def _parse_call(self, callee: ast.Expr, pe_mode: str | None) -> ast.Call:
        open_tok = self.expect("(")
        args: list[ast.Expr] = []
        while not self.at(")"):
            if args:
                self.expect(",")
                if self.at(")"):
                    break
            args.append(self.parse_expr())
        self.expect(")")
        return ast.Call(open_tok.loc, callee, args, pe_mode)

    def _parse_postfix(self, expr: ast.Expr,
                       stop_before_call: bool = False) -> ast.Expr:
        while True:
            tok = self.tokens[self.pos]
            text = tok.text
            if text == "(" and not stop_before_call:
                expr = self._parse_call(expr, None)
            elif text == "[":
                self.next()
                index = self.parse_expr()
                self.expect("]")
                expr = ast.Index(tok.loc, expr, index)
            elif text == ".":
                self.next()
                field_tok = self.next()
                if field_tok.kind is not TokKind.INT or field_tok.value[1]:
                    raise ParseError("expected tuple field index after '.'",
                                     field_tok.loc)
                expr = ast.TupleField(tok.loc, expr, field_tok.value[0])
            elif text == "as":
                self.next()
                expr = ast.CastExpr(tok.loc, expr, self.parse_type())
            else:
                return expr

    def _parse_primary(self, struct_ok: bool) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is TokKind.IDENT:
            self.pos += 1
            return ast.Name(tok.loc, tok.text)
        if kind is TokKind.INT:
            self.pos += 1
            value, suffix = tok.value
            return ast.IntLit(tok.loc, value, suffix)
        if kind is TokKind.FLOAT:
            self.pos += 1
            value, suffix = tok.value
            return ast.FloatLit(tok.loc, value, suffix)
        text = tok.text
        if text == "true":
            self.pos += 1
            return ast.BoolLit(tok.loc, True)
        if text == "false":
            self.pos += 1
            return ast.BoolLit(tok.loc, False)
        if text == "(":
            self.pos += 1
            if self.accept(")"):
                return ast.UnitLit(tok.loc)
            first = self.parse_expr()
            if self.accept(","):
                elems = [first]
                while not self.at(")"):
                    elems.append(self.parse_expr())
                    if not self.at(")"):
                        self.expect(",")
                self.expect(")")
                return ast.TupleLit(tok.loc, elems)
            self.expect(")")
            return first
        if text == "[":
            self.pos += 1
            if self.at("]"):
                raise ParseError("empty array literal has no type", tok.loc)
            first = self.parse_expr()
            if self.accept(";"):
                count_tok = self.next()
                if count_tok.kind is not TokKind.INT:
                    raise ParseError("array repeat count must be an integer "
                                     "literal", count_tok.loc)
                self.expect("]")
                return ast.ArrayLit(tok.loc, None, first, count_tok.value[0])
            elems = [first]
            while self.accept(","):
                if self.at("]"):
                    break
                elems.append(self.parse_expr())
            self.expect("]")
            return ast.ArrayLit(tok.loc, elems, None, None)
        if text == "{":
            return self.parse_block()
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.loc)


def parse(source: str) -> ast.Module:
    return Parser(source).parse_module()
