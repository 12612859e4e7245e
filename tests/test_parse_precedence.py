"""Operator precedence, checked against the grammar rather than the parser.

The differential fuzzer renders every binary expression fully
parenthesized, so every engine would run the same wrong AST if the
parser got a level wrong.  Here hypothesis draws random expression
trees over all nine binary levels, unary ``-``/``!``, calls, indexing
and ``as``, renders each twice, fully parenthesized and with only the
parentheses the grammar needs, and both renderings must parse to the
same AST (locations aside).  The level table below is written out from
the grammar in the parser's docstring, not imported from the parser.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.frontend import ast
from repro.frontend.parser import parse

# Loosest first; every binary operator is left-associative.
LEVELS = (
    ("||",),
    ("&&",),
    ("==", "!=", "<", "<=", ">", ">="),
    ("|",),
    ("^",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)
LEVEL = {op: level for level, ops in enumerate(LEVELS) for op in ops}
UNARY = len(LEVELS)        # prefix '-' and '!' bind tighter than any binary
POSTFIX = len(LEVELS) + 1  # calls, indexing and 'as' tighter still

LEAVES = ("a", "b", "c", "f", "true", "false", "0", "7", "42")
KINDS = ("bin", "bin", "bin", "un", "call", "index", "cast")


def _tree(draw, ops, depth):
    # Compound three times in four until the depth runs out; shrinking
    # draws toward a leaf.
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return ("leaf", draw(st.sampled_from(LEAVES)))
    kind = draw(st.sampled_from(KINDS))

    def sub():
        return _tree(draw, ops, depth - 1)

    if kind == "bin":
        return ("bin", draw(st.sampled_from(ops)), sub(), sub())
    if kind == "un":
        return ("un", draw(st.sampled_from(["-", "!"])), sub())
    if kind == "call":
        count = draw(st.integers(0, 2))
        return ("call", draw(st.sampled_from(["f", "g"])),
                [sub() for _ in range(count)])
    if kind == "index":
        return ("index", sub(), sub())
    return ("cast", sub(), draw(st.sampled_from(["i64", "u8", "f64", "bool"])))


@st.composite
def exprs(draw):
    # The operators of two levels per tree, so that each pair of levels
    # meets often.
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=2,
                           max_size=2, unique=True))
    ops = [op for level in levels for op in level]
    return ("bin", draw(st.sampled_from(ops)), _tree(draw, ops, 5),
            _tree(draw, ops, 5))


def full(e) -> str:
    """Every compound subexpression in its own parentheses."""
    kind = e[0]
    if kind == "leaf":
        return e[1]
    if kind == "bin":
        return f"({full(e[2])} {e[1]} {full(e[3])})"
    if kind == "un":
        return f"({e[1]}{full(e[2])})"
    if kind == "call":
        return f"{e[1]}({', '.join(full(arg) for arg in e[2])})"
    if kind == "index":
        return f"(({full(e[1])})[{full(e[2])}])"
    return f"({full(e[1])} as {e[2]})"


def binding(e) -> int:
    if e[0] == "bin":
        return LEVEL[e[1]]
    if e[0] == "un":
        return UNARY
    return POSTFIX


def minimal(e) -> str:
    """Only the parentheses the level table requires."""
    kind = e[0]
    if kind == "leaf":
        return e[1]
    if kind == "bin":
        level = LEVEL[e[1]]
        lhs, rhs = minimal(e[2]), minimal(e[3])
        if binding(e[2]) < level:
            lhs = f"({lhs})"
        if binding(e[3]) <= level:
            rhs = f"({rhs})"
        return f"{lhs} {e[1]} {rhs}"
    if kind == "un":
        operand = minimal(e[2])
        if binding(e[2]) < UNARY:
            operand = f"({operand})"
        return f"{e[1]}{operand}"
    if kind == "call":
        return f"{e[1]}({', '.join(minimal(arg) for arg in e[2])})"
    base = minimal(e[1])
    if binding(e[1]) < POSTFIX:
        base = f"({base})"
    if kind == "index":
        return f"{base}[{minimal(e[2])}]"
    return f"{base} as {e[2]}"


def shape(node):
    """The parsed tree without source locations."""
    if isinstance(node, list):
        return [shape(item) for item in node]
    if not isinstance(node, ast.Node):
        return node
    fields = [type(node).__name__]
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot != "loc":
                fields.append((slot, shape(getattr(node, slot))))
    return tuple(fields)


def parsed(expr_text: str):
    module = parse(f"fn main() -> i64 {{ {expr_text} }}")
    return shape(module.functions[0].body.result)


@settings(max_examples=300, deadline=None)
@given(exprs())
def test_minimal_parentheses_parse_like_full_ones(e):
    assert parsed(minimal(e)) == parsed(full(e))


def test_the_table_orders_every_adjacent_level_pair():
    # A fixed witness per adjacent pair, so a swapped pair of levels
    # fails here even if hypothesis never draws it.
    for loose, tight in zip(LEVELS, LEVELS[1:]):
        outer, inner = loose[0], tight[0]
        left = ("bin", outer, ("leaf", "a"), ("bin", inner, ("leaf", "b"),
                                              ("leaf", "c")))
        right = ("bin", outer, ("bin", inner, ("leaf", "a"), ("leaf", "b")),
                 ("leaf", "c"))
        for tree in (left, right):
            assert "(" not in minimal(tree)
            assert parsed(minimal(tree)) == parsed(full(tree))


def test_postfix_binds_tighter_than_prefix():
    cast_of_neg = ("cast", ("un", "-", ("leaf", "a")), "i64")
    neg_of_cast = ("un", "-", ("cast", ("leaf", "a"), "i64"))
    assert minimal(neg_of_cast) == "-a as i64"
    assert parsed("-a as i64") == parsed(full(neg_of_cast))
    assert parsed("-a as i64") != parsed(full(cast_of_neg))
    assert parsed("-a[b]") == parsed(full(("un", "-", ("index", ("leaf", "a"),
                                                       ("leaf", "b")))))
