"""repro — a reproduction of "A Graph-Based Higher-Order Intermediate
Representation" (Leißa, Köster & Hack, CGO 2015).

The package implements the Thorin IR — a graph-based, higher-order,
CPS intermediate representation — together with everything needed to
evaluate it end to end:

* :mod:`repro.core` — the IR itself: hash-consed primops, continuations,
  implicit scopes, CFG/dominance/loop recovery, scheduling.
* :mod:`repro.transform` — lambda mangling (the paper's central
  transformation) and the passes built on it: inlining, partial
  evaluation, closure elimination to control-flow form, lambda
  dropping, cleanup.
* :mod:`repro.frontend` — "Impala-lite", a small imperative+functional
  language compiled to Thorin with on-the-fly SSA construction.
* :mod:`repro.backend` — a reference graph interpreter, a register
  bytecode + VM (the shared "machine" of all run-time experiments), and
  a C-like emitter.
* :mod:`repro.baselines` — a classical CFG+SSA IR and a nested-CPS IR,
  the comparison points of the evaluation.
* :mod:`repro.eval` — statistics collectors and the benchmark harness
  support used by ``benchmarks/``.

Quickstart: see ``examples/quickstart.py`` or::

    from repro import compile_source, run_function
    world = compile_source("fn main() -> i64 { 40 + 2 }")
    assert run_function(world, "main") == 42
"""

import sys as _sys

# Graph traversals (mangling, rewriting, emission) recurse along primop
# chains, which grow with program size; the CPython default of 1000
# frames is far too small for a compiler.  Untrusted *input* no longer
# leans on this: the parser enforces its own nesting bound
# (frontend.parser.MAX_NESTING_DEPTH) and fails with a ParseError long
# before the interpreter stack is at risk.
_sys.setrecursionlimit(max(_sys.getrecursionlimit(), 100_000))

# The package root imports nothing else: the compile service's router
# imports ``repro`` (for ``__version__``) and must not load the compiler
# it never runs.  The two entry points below import theirs on call.
__version__ = "0.1.0"

__all__ = ["compile_source", "run_function", "__version__"]


def compile_source(source: str, *, optimize: bool = True,
                   world_name: str = "module", folding: bool = True,
                   options=None):
    """Compile Impala-lite *source* into a (by default optimized) world.

    ``options`` (an :class:`~repro.transform.pipeline.OptimizeOptions`)
    is threaded through to the optimization pipeline.
    """
    from .frontend import compile_source as _compile

    return _compile(source, optimize=optimize, world_name=world_name,
                    folding=folding, options=options)


def run_function(world, name: str, *args, backend: str = "vm"):
    """Run external function *name* with *args*; returns its result.

    ``backend`` is ``"vm"`` (compile to bytecode, CFF required) or
    ``"interp"`` (reference graph interpreter, any well-formed program).
    """
    if backend == "vm":
        from .backend.codegen import compile_world

        return compile_world(world).call(name, *args)
    if backend == "interp":
        from .backend.interp import Interpreter

        return Interpreter(world).call(name, *args)
    raise ValueError(f"unknown backend {backend!r}")
