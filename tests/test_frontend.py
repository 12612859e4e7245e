"""Frontend tests: lexer, parser, sema diagnostics, SSA construction."""

import pytest

from repro import run_function
from repro.core import types as ct
from repro.core.defs import Continuation
from repro.core.scope import Scope
from repro.frontend import compile_to_ast, compile_source
from repro.frontend.errors import LexError, ParseError, TypeError_
from repro.frontend.lexer import TokKind, tokenize
from repro.frontend.parser import parse
from repro.frontend import ast


class TestLexer:
    def test_keywords_vs_idents(self):
        toks = tokenize("fn foo let letx mut")
        kinds = [(t.kind, t.text) for t in toks[:-1]]
        assert kinds == [
            (TokKind.KEYWORD, "fn"), (TokKind.IDENT, "foo"),
            (TokKind.KEYWORD, "let"), (TokKind.IDENT, "letx"),
            (TokKind.KEYWORD, "mut"),
        ]

    def test_numbers(self):
        toks = tokenize("42 1_000 0xff 3.14 1e3 2.5f32 7i32 255u8")
        values = [t.value for t in toks[:-1]]
        assert values == [(42, None), (1000, None), (255, None),
                          (3.14, None), (1000.0, None), (2.5, "f32"),
                          (7, "i32"), (255, "u8")]

    def test_range_vs_float(self):
        toks = tokenize("0..10")
        assert [t.text for t in toks[:-1]] == ["0", "..", "10"]

    def test_comments_skipped(self):
        toks = tokenize("a // comment\n /* block\n comment */ b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_multichar_operators(self):
        toks = tokenize("<<= >>= == != <= >= && || -> .. += <<")
        assert [t.text for t in toks[:-1]] == [
            "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "->",
            "..", "+=", "<<",
        ]

    def test_errors(self):
        with pytest.raises(LexError):
            tokenize("let x = `")
        with pytest.raises(LexError):
            tokenize("1.5q")
        with pytest.raises(LexError):
            tokenize("/* unterminated")

    @staticmethod
    def _locs(source):
        return [(t.text, t.loc.line, t.loc.col) for t in tokenize(source)]

    def test_locations_after_multiline_block_comment(self):
        assert self._locs("a /* x\n y\n */ b\n  c") == [
            ("a", 1, 1), ("b", 3, 5), ("c", 4, 3), ("", 4, 4)]

    def test_locations_with_crlf_and_tabs(self):
        # '\r' is trivia that takes a column; a tab takes one column.
        assert self._locs("a\r\n\tb\t c\r\n") == [
            ("a", 1, 1), ("b", 2, 2), ("c", 2, 5), ("", 3, 1)]
        assert self._locs("a \r b") == [("a", 1, 1), ("b", 1, 5),
                                         ("", 1, 6)]

    def test_eof_location(self):
        assert self._locs("") == [("", 1, 1)]
        assert self._locs("x  // trailing") == [("x", 1, 1), ("", 1, 15)]
        assert self._locs("x\n\n  ") == [("x", 1, 1), ("", 3, 3)]

    def test_stray_character_after_a_comment(self):
        with pytest.raises(LexError) as err:
            tokenize("a // c\n  `")
        assert (err.value.loc.line, err.value.loc.col) == (2, 3)
        assert err.value.message == "stray character '`'"
        with pytest.raises(LexError) as err:
            tokenize("a /* c\n */ #")
        assert (err.value.loc.line, err.value.loc.col) == (2, 5)


class TestParser:
    def test_precedence(self):
        m = parse("fn f() -> i64 { 1 + 2 * 3 }")
        expr = m.functions[0].body.result
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.rhs, ast.Binary) and expr.rhs.op == "*"

    def test_comparison_binds_looser_than_arith(self):
        m = parse("fn f(a: i64) -> bool { a + 1 < a * 2 }")
        expr = m.functions[0].body.result
        assert expr.op == "<"

    def test_block_result_vs_stmt(self):
        m = parse("fn f() -> i64 { let x = 1; x }")
        body = m.functions[0].body
        assert len(body.stmts) == 1 and body.result is not None

    def test_else_if_chain(self):
        m = parse("fn f(a: i64) -> i64 { if a < 0 { 0 } else if a > 9 { 9 } else { a } }")
        expr = m.functions[0].body.result
        assert isinstance(expr.else_block, ast.IfExpr)

    def test_lambda_forms(self):
        m = parse("fn f() -> i64 { let g = |x: i64| x + 1; let h = || 9; g(1) + h() }")
        lets = [s for s in m.functions[0].body.stmts]
        assert isinstance(lets[0].init, ast.Lambda)
        assert isinstance(lets[1].init, ast.Lambda)
        assert lets[1].init.params == []

    def test_pe_markers(self):
        m = parse("fn f(x: i64) -> i64 { @g(x) + $h(x) }")
        expr = m.functions[0].body.result
        assert expr.lhs.pe_mode == "run"
        assert expr.rhs.pe_mode == "hlt"

    def test_types(self):
        m = parse("fn f(a: [i64; 4], b: &[f64], c: (i64, bool), "
                  "d: fn(i64) -> i64) -> () { }")
        params = m.functions[0].params
        assert isinstance(params[0].type_expr, ast.ArrayTypeExpr)
        assert isinstance(params[1].type_expr, ast.BufTypeExpr)
        assert isinstance(params[2].type_expr, ast.TupleTypeExpr)
        assert isinstance(params[3].type_expr, ast.FnTypeExpr)

    def test_parse_errors(self):
        for bad in ["fn", "fn f( { }", "fn f() -> { }", "fn f() { let = 3; }",
                    "fn f() { 1 + ; }", "fn f() { a[1; }"]:
            with pytest.raises(ParseError):
                parse(bad)


class TestSema:
    def test_literal_adaptation(self):
        m = compile_to_ast("fn f() -> i32 { let x: i32 = 5; x + 1 }")
        assert m.functions[0].body.result.type is ct.I32

    def test_type_errors(self):
        cases = [
            "fn f() -> i64 { 1.5 }",                      # float vs int
            "fn f() -> i64 { true + 1 }",                 # bool arith
            "fn f(x: i64) -> i64 { x + 1.0 }",            # mixed types
            "fn f(x: i64) -> i64 { y }",                  # unknown name
            "fn f(x: i64) -> i64 { x = 3; x }",           # param not mut
            "fn f() -> i64 { break; 0 }",                 # break outside loop
            "fn f() -> i64 { if true { 1 } }",            # if without else value
            "fn f() -> i64 { f(1, 2) }",                  # arity
            "fn f() -> i64 { 1 % 2.0 }",                  # int-only op
            "fn f() -> bool { 1 < true }",                # cmp mismatch
            "fn f() { return 1; }",                       # unit fn returns value
            "fn f() -> i64 { let t = (1, 2); t.5 }",      # tuple index range
            "fn f() -> i64 { print_i64 }",                # builtin as value
            "fn f() -> i64 { 0 } fn f() -> i64 { 1 }",    # duplicate
        ]
        for source in cases:
            with pytest.raises(TypeError_):
                compile_to_ast(source)

    def test_capture_rules(self):
        with pytest.raises(TypeError_):
            compile_to_ast("""
fn f() -> i64 {
    let mut a = 1;
    let g = |x: i64| x + a;
    g(1)
}
""")
        # immutable capture is fine
        compile_to_ast("""
fn f() -> i64 {
    let a = 1;
    let g = |x: i64| x + a;
    g(1)
}
""")

    def test_shadowing_allowed(self):
        m = compile_to_ast("""
fn f() -> i64 {
    let x = 1;
    let x = x + 1;
    x
}
""")
        assert m is not None

    def test_unit_return_spellings(self):
        compile_to_ast("fn a() { } fn b() -> () { } fn c() { a(); b(); }")


class TestSSAConstruction:
    def _main(self, source):
        world = compile_source(source, optimize=False)
        return world.find_external("main"), world

    def test_loop_gets_minimal_phis(self):
        main, world = self._main("""
fn main(n: i64) -> i64 {
    let mut i = 0;
    let unchanged = 5;
    while i < n { i += unchanged; }
    i
}
""")
        from repro.core.scope import Scope

        heads = [c for c in Scope(main).continuations()
                 if c.name.startswith("while_head")]
        assert len(heads) == 1
        # phis: i and mem only — `unchanged` must not become a param
        assert heads[0].num_params == 2

    def test_single_pred_blocks_have_no_phis(self):
        main, world = self._main("""
fn main(a: i64) -> i64 {
    if a > 0 { a * 2 } else { a * 3 }
}
""")
        from repro.core.scope import Scope

        for cont in Scope(main).continuations():
            if cont.name.startswith("if_then") or cont.name.startswith("if_else"):
                assert cont.num_params == 1  # just mem

    def test_join_carries_value_phi(self):
        main, world = self._main("""
fn main(a: i64) -> i64 {
    let v = if a > 0 { a } else { 0 - a };
    v + 1
}
""")
        from repro.core.scope import Scope

        joins = [c for c in Scope(main).continuations()
                 if c.name.startswith("if_join")]
        # the selected value plus mem (branch targets re-thread memory)
        assert joins and joins[0].num_params == 2
        param_types = {str(p.type) for p in joins[0].params}
        assert param_types == {"i64", "mem"}

    def test_direct_join_without_mem(self):
        # A value join reached by *direct* jumps (shortcut evaluation)
        # has no branch targets in between: mem is not re-threaded and
        # only the value phi remains.
        main, world = self._main("""
fn main(a: i64, b: i64) -> i64 {
    if a > 0 && b > 0 { 1 } else { 2 }
}
""")
        from repro.core.scope import Scope

        joins = [c for c in Scope(main).continuations()
                 if c.name.startswith("shortcut_join")]
        assert joins
        # bool value + mem: the shortcut arms pass through branch
        # targets as well, so mem is re-threaded here too — but the
        # *if* join that consumes the bool gets a single value phi.
        assert joins[0].num_params == 2


class TestNoTemporaryPhis:
    """SSA construction appends only the phis the program needs."""

    def _compile(self, monkeypatch, source):
        made = []
        append_param = Continuation.append_param

        def counting(cont, param_type, name=""):
            made.append((cont.name, name))
            return append_param(cont, param_type, name)

        monkeypatch.setattr(Continuation, "append_param", counting)
        world = compile_source(source, optimize=False)
        monkeypatch.undo()
        return world, made

    def test_if_join_gets_no_phi_for_an_unchanged_variable(self, monkeypatch):
        world, made = self._compile(monkeypatch, """
fn main(a: i64) -> i64 {
    let mut x = a * 2;
    let mut y = 0;
    if a > 0 { y = 1; } else { y = 2; }
    x + y
}
""")
        assert sorted(made) == [("if_join", "mem"), ("if_join", "y")]
        assert run_function(world, "main", 5, backend="interp") == 11
        assert run_function(world, "main", -5, backend="interp") == -8

    def test_loop_header_gets_no_phi_for_an_unassigned_variable(
            self, monkeypatch):
        world, made = self._compile(monkeypatch, """
fn main(n: i64) -> i64 {
    let k = n * 3;
    let mut i = 0;
    let mut s = 0;
    while i < n { s += k; i += 1; }
    s + k
}
""")
        assert sorted(made) == [("while_head", "i"), ("while_head", "mem"),
                                ("while_head", "s")]
        assert run_function(world, "main", 4, backend="interp") == 60

    @pytest.mark.parametrize("source, head, var, args, expect", [
        ("""
fn main(n: i64) -> i64 {
    let mut i = 0;
    let mut odd = 0;
    while i < n {
        if i % 2 == 1 { odd += 1; }
        i += 1;
    }
    odd
}
""", "while_head", "odd", (7,), 3),
        ("""
fn main(n: i64) -> i64 {
    let mut total = 0;
    for i in 0..n {
        let mut j = 0;
        while j < i { total += j; j += 1; }
    }
    total
}
""", "for_head", "total", (5,), 10),
        ("""
fn main(n: i64) -> i64 {
    let mut i = 0;
    let mut steps = 0;
    while { steps += 1; i < n } { i += 1; }
    steps
}
""", "while_head", "steps", (6,), 7),
    ], ids=["nested-if", "inner-loop", "while-condition"])
    def test_assigned_variable_keeps_its_header_phi(
            self, monkeypatch, source, head, var, args, expect):
        world, made = self._compile(monkeypatch, source)
        assert (head, var) in made
        assert (head, "mem") in made
        assert (head, "n") not in made
        main = world.find_external("main")
        heads = [c for c in Scope(main).continuations() if c.name == head]
        assert {p.name for p in heads[0].params} >= {var, "mem"}
        assert run_function(world, "main", *args, backend="interp") == expect

