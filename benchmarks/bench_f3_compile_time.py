"""F3 — compile-time scaling and the analysis cache.

Three workloads, one table:

* the generated *chain* family (N arithmetic-heavy functions in a call
  chain, each with loops) pushed through the full pipeline at
  increasing N, in ``SWEEPS`` interleaved sweeps over the sizes —
  shape check: close-to-linear growth (every sweep's per-function cost
  spread across sizes stays below 8x);
* the full evaluation suite, one optimization-pipeline time per
  program;
* F3b, the long-lived-worker scenario: one warm analysis manager
  patched across small edits against a fresh manager per edit.

What is timed is the optimization pipeline on a freshly emitted world;
``frontend_s`` (parse + emit) is reported per row for context.  Every
optimized program must still behave like its unoptimized self.
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.backend.interp import Interpreter
from repro.core.world import World
from repro.eval import collect_world_stats
from repro.frontend import compile_to_ast, emit_module
from repro.programs.suite import ALL_PROGRAMS
from repro.transform.pipeline import optimize

SIZES = [4, 8, 16, 32]
ROUNDS = 5
# Each sweep times every size once (best of ROUNDS), sizes interleaved,
# so a host slowdown lands on one sweep's spread rather than on one
# size of a single sweep; the notes give every sweep's spread.
SWEEPS = 5

_chain_sweeps: list[dict[int, float]] = []
_initialized = False


def generate_program(n_functions: int) -> str:
    parts = []
    for i in range(n_functions):
        callee = f"f{i - 1}(acc, {i})" if i > 0 else "acc + seed"
        parts.append(f"""
fn f{i}(seed: i64, salt: i64) -> i64 {{
    let mut acc = seed * {i + 3} + salt;
    for k in 0..8 {{
        acc = (acc * 31 + k) % 1000003;
        if acc % 2 == 0 {{ acc += {i}; }} else {{ acc -= 1; }}
    }}
    {callee}
}}
""")
    parts.append(f"fn main(x: i64) -> i64 {{ f{n_functions - 1}(x, 1) }}")
    return "\n".join(parts)


def _emit(source: str) -> World:
    module = compile_to_ast(source)
    world = World("bench")
    emit_module(module, world)
    return world


def _timed(source: str):
    """Best-of-``ROUNDS`` pipeline wall-clock on freshly emitted worlds.

    Returns ``(world, optimize_s, frontend_s)``.
    """
    best = frontend = float("inf")
    world = None
    for _ in range(ROUNDS):
        # Reclaim the previous round's (cyclic) dead world outside the
        # timed region so collector pauses don't smear into the run
        # that happens to cross a GC threshold.
        world = None
        gc.collect()
        begin = time.perf_counter()
        world = _emit(source)
        mid = time.perf_counter()
        optimize(world)
        best = min(best, time.perf_counter() - mid)
        frontend = min(frontend, mid - begin)
    return world, best, frontend


def _table(report):
    table = report("F3_compile_time")
    global _initialized
    if not _initialized:
        table.columns("case", "loc", "continuations", "primops",
                      "frontend_s", "optimize_s", "fresh_mgr_s",
                      "warm_mgr_s", "warm_speedup")
        table.note("chain-N rows: generated N-function call chain "
                   "(scaling family); suite rows: evaluation programs. "
                   f"optimize_s = best-of-{ROUNDS} optimization-pipeline "
                   "runs on freshly emitted worlds (chain rows: median "
                   f"over {SWEEPS} interleaved sweeps); frontend_s = "
                   "parse+emit.")
        _initialized = True
    return table


def _check_behaviour(world, source, entry, args) -> None:
    ref = Interpreter(_emit(source))
    got = Interpreter(world)
    assert ref.call(entry, *args) == got.call(entry, *args), \
        "optimization changed program results"
    assert "".join(ref.output) == "".join(got.output), \
        "optimization changed program output"


def test_f3_chain_compile_time(report):
    """``SWEEPS`` interleaved sweeps; a row per size with the median
    over sweeps of its best-of-``ROUNDS`` times."""
    table = _table(report)
    sources = {size: generate_program(size) for size in SIZES}
    frontends: dict[int, list[float]] = {size: [] for size in SIZES}
    worlds = {}
    for _ in range(SWEEPS):
        sweep = {}
        for size in SIZES:
            worlds[size], sweep[size], frontend = _timed(sources[size])
            frontends[size].append(frontend)
        _chain_sweeps.append(sweep)
    for size in SIZES:
        source = sources[size]
        _check_behaviour(worlds[size], source, "main", (7,))
        stats = collect_world_stats(worlds[size])
        table.row(f"chain-{size}", len(source.splitlines()),
                  stats.continuations, stats.primops,
                  statistics.median(frontends[size]),
                  statistics.median(s[size] for s in _chain_sweeps),
                  "", "", "")


def test_f3_shape(report):
    table = _table(report)
    if not _chain_sweeps:
        pytest.skip("chain sweeps did not run")
    spreads = []
    for sweep in _chain_sweeps:
        per_fn = [sweep[size] / size for size in SIZES]
        spreads.append(max(per_fn) / max(min(per_fn), 1e-9))
    table.note(
        f"per-function cost spread across sizes, {len(spreads)} "
        f"interleaved sweeps: "
        f"{', '.join(f'{ratio:.2f}x' for ratio in spreads)}; median "
        f"{statistics.median(spreads):.2f}x, range "
        f"{min(spreads):.2f}-{max(spreads):.2f}x")
    for ratio in spreads:
        assert ratio < 8, "compile time grows far superlinearly"


@pytest.mark.parametrize("program", ALL_PROGRAMS,
                         ids=lambda p: p.name)
def test_f3_suite_compile_time(program, report):
    table = _table(report)
    world, elapsed, frontend = _timed(program.source)
    _check_behaviour(world, program.source, program.entry,
                     program.test_args)
    stats = collect_world_stats(world)
    table.row(program.name, len(program.source.splitlines()),
              stats.continuations, stats.primops, frontend, elapsed,
              "", "", "")


F3B_SIZES = [8, 32]
F3B_EDITS = 24
_f3b_totals: dict[int, tuple[float, float]] = {}


def _schedule_fingerprint(schedule):
    return {block.gid: [op.gid for op in schedule.ops_in(block)]
            for block in schedule.blocks()}


@pytest.mark.parametrize("size", F3B_SIZES)
def test_f3b_long_lived_worker(size, report):
    """F3b — the serve-daemon scenario: one warm world, repeated small
    edits, full re-analysis demanded after each.

    The warm arm keeps the world's analysis manager alive across edits,
    so each edit re-floods only the touched entry and every other
    scope/CFG/schedule is served from cache.  The cold arm builds a
    fresh manager per edit — the recompute-per-entry behaviour this PR
    replaces.  Both must agree on every schedule after every edit.
    """
    from repro.core.analyses import AnalysisManager
    from repro.core.primops import Literal
    from repro.core.types import I64

    source = generate_program(size)
    # The freshly emitted module keeps its N functions as separate
    # top-level entries (full optimization specializes the whole chain
    # into one nest, which would collapse the per-entry granularity the
    # scenario is about).
    world = _emit(source)
    manager = world.analyses
    entries = [c for c in manager.top_level() if c.has_body()]
    assert len(entries) > size / 2, "chain functions did not stay top-level"

    edit_sites = [
        member
        for entry in entries
        for member in manager.scope(entry).continuations()
        if member.has_body()
        and any(isinstance(arg, Literal) and arg.type is I64
                for arg in member.args)
    ]
    if not edit_sites:
        pytest.skip("no literal jump argument to edit")

    def apply_edit(step: int):
        """Toggle the low bit of some member's literal jump argument."""
        member = edit_sites[step % len(edit_sites)]
        for index, arg in enumerate(member.args):
            if isinstance(arg, Literal) and arg.type is I64:
                member.update_arg(
                    index, world.literal(I64, int(arg.value) ^ 1))
                return

    for entry in entries:  # prime the warm caches
        manager.schedule(entry)

    warm_total = cold_total = 0.0
    for step in range(F3B_EDITS):
        apply_edit(step)
        begin = time.perf_counter()
        warm = [manager.schedule(entry) for entry in entries]
        warm_total += time.perf_counter() - begin

        begin = time.perf_counter()
        fresh = AnalysisManager(world)
        cold = [fresh.schedule(entry) for entry in entries]
        cold_total += time.perf_counter() - begin

        for w, c in zip(warm, cold):
            assert (_schedule_fingerprint(w)
                    == _schedule_fingerprint(c)), \
                "warm (patched) schedule diverged from recompute"

    _f3b_totals[size] = (warm_total, cold_total)
    table = _table(report)
    table.row(f"f3b-warm-{size}", len(source.splitlines()),
              len(entries), F3B_EDITS,
              "", "", cold_total, warm_total, cold_total / warm_total)
    assert warm_total * 2 < cold_total, (
        f"warm re-analysis ({warm_total:.4f}s over {F3B_EDITS} edits) "
        f"is not clearly cheaper than per-edit recompute "
        f"({cold_total:.4f}s)")


def test_f3b_sublinear(report):
    """Warm per-edit cost must scale sub-linearly in world size: the
    repair is proportional to the touched entry, while the cold baseline
    re-walks every scope."""
    table = _table(report)
    if len(_f3b_totals) < 2:
        pytest.skip("f3b rows incomplete")
    small, large = sorted(_f3b_totals)
    warm_ratio = _f3b_totals[large][0] / _f3b_totals[small][0]
    cold_ratio = _f3b_totals[large][1] / _f3b_totals[small][1]
    table.note(f"f3b-warm rows: {F3B_EDITS} small edits against one "
               f"long-lived world (continuations = entries, primops = "
               f"edits); fresh_mgr_s = fresh AnalysisManager per edit, "
               f"warm_mgr_s = warm manager patched in place. "
               f"warm growth {small}->{large}: {warm_ratio:.2f}x vs "
               f"cold {cold_ratio:.2f}x")
    assert warm_ratio < cold_ratio, (
        f"warm re-analysis grows as fast as recompute "
        f"({warm_ratio:.2f}x vs {cold_ratio:.2f}x "
        f"from chain-{small} to chain-{large})")
