"""Textual and GraphViz dumps of the IR.

Two text modes:

* :func:`print_scope` / :func:`print_world` — structural dump: one
  paragraph per continuation, primops listed in dependency order before
  the jump that (transitively) uses them.  This is what tests golden-match
  against.  ``print_world`` takes the top-level set and the scopes from
  the world's analysis manager, which the backends then reuse.
* :func:`to_dot` — GraphViz export of the dependence graph, handy for
  eyeballing scopes and mangling results.
"""

from __future__ import annotations

import io

from .defs import Continuation, Def, Param
from .primops import Bottom, Literal, PrimOp
from .scope import Scope


def def_ref(d: Def) -> str:
    """A short reference to *d* for use inside operand lists."""
    if isinstance(d, Literal):
        return f"{d.prim_type}:{d.public_value()}"
    if isinstance(d, Bottom):
        return f"bot[{d.type}]"
    return d.unique_name()


def _primop_line(op: PrimOp) -> str:
    operands = ", ".join(def_ref(o) for o in op.ops)
    extra = ""
    attrs = op.attrs()
    if attrs and not isinstance(op, Literal):
        extra = " {" + ", ".join(str(getattr(a, "value", a)) for a in attrs) + "}"
    return f"    {op.unique_name()}: {op.type} = {op.op_name()}({operands}){extra}"


def _scope_primops_in_order(scope: Scope) -> list[PrimOp]:
    """All primops of the scope, topologically sorted (operands first)."""
    order: list[PrimOp] = []
    visited: set[Def] = set()

    def visit(d: Def) -> None:
        if d in visited or not isinstance(d, PrimOp) or d not in scope:
            return
        visited.add(d)
        for op in d.ops:
            visit(op)
        order.append(d)

    for cont in scope.continuations():
        if cont.has_body():
            for op in cont.ops:
                visit(op)
    # Scope may contain primops only referenced by *other* primops that
    # are dead; include them for completeness, after the live ones.
    for d in scope.defs():
        visit(d)
    return order


def print_continuation_header(cont: Continuation) -> str:
    params = ", ".join(f"{p.unique_name()}: {p.type}" for p in cont.params)
    flags = []
    if cont.is_external:
        flags.append("extern")
    if cont.is_intrinsic():
        flags.append("intrinsic")
    prefix = (" ".join(flags) + " ") if flags else ""
    return f"{prefix}fn {cont.unique_name()}({params})"


def print_scope(scope: Scope, *, include_primops: bool = True) -> str:
    out = io.StringIO()
    primops = _scope_primops_in_order(scope) if include_primops else []
    for cont in scope.continuations():
        out.write(print_continuation_header(cont))
        if not cont.has_body():
            out.write(" = <no body>\n")
            continue
        out.write(":\n")
        if include_primops and cont is scope.entry:
            for op in primops:
                out.write(_primop_line(op) + "\n")
        args = ", ".join(def_ref(a) for a in cont.args)
        out.write(f"    jump {def_ref(cont.callee)}({args})\n")
    return out.getvalue()


def print_world(world) -> str:
    """Every top-level continuation's scope, in the world's order.

    The top-level set and the scopes come from the world's analysis
    manager (created here if the world has none yet), so the backends
    that run next (``emit_c``, ``compile_world``) reuse them.
    """
    analyses = world.analyses
    out = io.StringIO()
    out.write(f"// world '{world.name}': {world.num_primops()} primops\n")
    for cont in analyses.top_level():
        out.write("\n")
        out.write(print_scope(analyses.scope(cont)))
    return out.getvalue()


def to_dot(scope: Scope) -> str:
    """GraphViz dot of the scope's dependence graph."""
    out = io.StringIO()
    out.write(f'digraph "{scope.entry.unique_name()}" {{\n')
    out.write("  rankdir=TB;\n")

    def node_id(d: Def) -> str:
        return f"n{d.gid}"

    emitted: set[Def] = set()

    def emit_node(d: Def) -> None:
        if d in emitted:
            return
        emitted.add(d)
        if isinstance(d, Continuation):
            shape, label = "box", f"fn {d.unique_name()}"
        elif isinstance(d, Param):
            shape, label = "ellipse", d.unique_name()
        elif isinstance(d, Literal):
            shape, label = "plaintext", def_ref(d)
        else:
            shape, label = "oval", f"{d.op_name() if isinstance(d, PrimOp) else '?'} {d.unique_name()}"
        style = ' style=filled fillcolor=lightgrey' if d not in scope else ""
        out.write(f'  {node_id(d)} [shape={shape} label="{label}"{style}];\n')

    for d in scope.defs():
        emit_node(d)
        for index, op in enumerate(d.ops):
            emit_node(op)
            out.write(f"  {node_id(d)} -> {node_id(op)} [label={index}];\n")
        if isinstance(d, Param):
            emit_node(d.continuation)
            out.write(
                f"  {node_id(d)} -> {node_id(d.continuation)} [style=dotted];\n"
            )
    out.write("}\n")
    return out.getvalue()


__all__ = [
    "def_ref",
    "print_scope",
    "print_world",
    "print_continuation_header",
    "to_dot",
]
