"""Impala-lite: the surface language of this reproduction.

``compile_source`` is the one-stop entry: source text → type-checked
AST → Thorin world (optionally optimized by the standard pipeline).
"""

from __future__ import annotations

from ..core.world import World
from ..transform import pipeline
from ..transform.cleanup import cleanup
from .emit import emit_module
from .parser import parse
from .sema import analyze


def compile_to_ast(source: str):
    """Parse and type-check, returning the annotated AST module."""
    return analyze(parse(source))


def compile_source(source: str, *, optimize: bool = True,
                   world_name: str = "module", folding: bool = True,
                   options=None) -> World:
    """Compile Impala-lite source text into a Thorin world.

    ``folding=False`` disables construction-time folding/simplification
    (ablation A1); value numbering itself stays on.  ``options`` is an
    :class:`~repro.transform.pipeline.OptimizeOptions` threaded through
    to the pipeline (e.g. ``verify_each_pass=True`` for checked builds).
    """
    module = compile_to_ast(source)
    world = World(world_name, folding=folding)
    emit_module(module, world)
    if optimize:
        # Looked up on the module at call time: tests patch it there.
        pipeline.optimize(world, options=options)
    else:
        cleanup(world)
    return world


__all__ = ["compile_source", "compile_to_ast"]
