"""T3 — transformation bookkeeping: what the graph IR never does.

The same logical transformation — inline a recursive function's call
sites / thread jumps — is performed in three IRs:

* **Thorin (graph)**: lambda mangling.  Copies scope nodes through the
  hash-consing world.  Structural repair counters (phi repair, binder
  rearrangement, alpha renames) are *definitionally zero*.
* **Classical SSA**: the baseline pipeline's SimplifyCFG + inliner,
  which must repair phis and remap values.
* **Nested CPS**: substitution-based inlining with capture-avoiding
  alpha-renaming.

Reported: repair-operation counts per workload; the timed quantity is
each IR's transformation.
"""

from __future__ import annotations

import pytest

from repro import compile_source
from repro.baselines.nested_cps import (
    cps_convert_expr,
    evaluate,
    inline_function,
)
from repro.baselines.ssa import compile_source_ssa
from repro.core import fold
from repro.core.scope import Scope
from repro.transform.mangle import MangleStats, inline_call
from repro.transform.cleanup import cleanup

# Shared workloads, expressible in all three settings.
IMPALA_SOURCES = {
    "fib": """
fn fib(n: i64) -> i64 { if n < 2 { n } else { fib(n-1) + fib(n-2) } }
fn helper(x: i64) -> i64 { x * 2 + 1 }
fn main(n: i64) -> i64 { helper(fib(n)) }
""",
    "pow": """
fn pow(x: i64, n: i64) -> i64 { if n == 0 { 1 } else { x * pow(x, n-1) } }
fn square(x: i64) -> i64 { pow(x, 2) }
fn main(x: i64) -> i64 { square(x) + pow(x, 3) }
""",
    "chain": """
fn f1(x: i64) -> i64 { x + 1 }
fn f2(x: i64) -> i64 { f1(x) * 2 }
fn f3(x: i64) -> i64 { f2(x) - 3 }
fn main(x: i64) -> i64 { f3(f3(x)) }
""",
}

MICRO_EXPRS = {
    "fib": ("letfun", "fib", ["n"],
            ("if", ("<", "n", 2), "n",
             ("+", ("call", "fib", ("-", "n", 1)),
                   ("call", "fib", ("-", "n", 2)))),
            ("call", "fib", 10)),
    "pow": ("letfun", "pow", ["x", "n"],
            ("if", ("==", "n", 0), 1,
             ("*", "x", ("call", "pow", "x", ("-", "n", 1)))),
            ("call", "pow", 3, 5)),
    "chain": ("letfun", "f1", ["x"], ("+", "x", 1),
              ("letfun", "f2", ["x"], ("*", ("call", "f1", "x"), 2),
               ("letfun", "f3", ["x"], ("-", ("call", "f2", "x"), 3),
                ("call", "f3", ("call", "f3", 5))))),
}

_initialized = False


def _init(table):
    global _initialized
    if not _initialized:
        table.columns("workload", "ir", "inlines/mangles",
                      "phi_repairs", "alpha_renames", "total_bookkeeping")
        table.note(
            "total_bookkeeping = structural repair ops (phi edits + "
            "placed phis + value remaps for SSA; alpha renames + spine "
            "rebuilds + substitutions for nested CPS; definitionally 0 "
            "for graph mangling)."
        )
        _initialized = True


@pytest.mark.parametrize("workload", sorted(IMPALA_SOURCES))
def test_t3_thorin_mangling(workload, report, benchmark):
    table = report("T3_bookkeeping")
    _init(table)

    def run():
        world = compile_source(IMPALA_SOURCES[workload], optimize=False)
        stats: list[MangleStats] = []
        inlines = 0
        for cont in world.continuations():
            # An unused internal continuation is garbage (e.g. the entry
            # a move left as ``jump f.m()``): inlining there does no work.
            if not (cont.has_body() and (cont.num_uses or cont.is_external)):
                continue
            if inline_call(cont, stats):
                inlines += 1
        cleanup(world)
        return inlines, stats

    inlines, stats = benchmark.pedantic(run, rounds=3, iterations=1)
    phi_repairs = sum(s.phis_repaired for s in stats)
    renames = sum(s.alpha_renames for s in stats)
    rearranged = sum(s.binders_rearranged for s in stats)
    table.row(workload, "thorin", inlines, phi_repairs, renames,
              phi_repairs + renames + rearranged)
    assert phi_repairs == 0 and renames == 0 and rearranged == 0


@pytest.mark.parametrize("workload", sorted(IMPALA_SOURCES))
def test_t3_ssa_baseline(workload, report, benchmark):
    table = report("T3_bookkeeping")
    _init(table)

    def run():
        stats_out = []
        compile_source_ssa(IMPALA_SOURCES[workload], stats_out=stats_out)
        return stats_out[0]

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    table.row(workload, "ssa", stats.inlined_calls, stats.phi_repairs, 0,
              stats.total_bookkeeping())
    assert stats.total_bookkeeping() > 0, (
        "the classical pipeline should have had to repair something"
    )


@pytest.mark.parametrize("workload", sorted(MICRO_EXPRS))
def test_t3_nested_cps(workload, report, benchmark):
    table = report("T3_bookkeeping")
    _init(table)
    term = cps_convert_expr(MICRO_EXPRS[workload])
    before = fold.to_signed(evaluate(term), 64)

    def run():
        if workload == "chain":
            t, stats = inline_function(term, "f2")
            t, stats2 = inline_function(t, "f1", stats)
            return t, stats
        return inline_function(term, workload)

    result_term, stats = benchmark.pedantic(run, rounds=3, iterations=1)
    after = fold.to_signed(evaluate(result_term), 64)
    assert before == after, "inlining changed the program's meaning"
    table.row(workload, "nested-cps", 1, 0, stats.alpha_renames,
              stats.total_bookkeeping())
    assert stats.alpha_renames > 0
