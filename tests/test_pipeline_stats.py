"""Pipeline behaviour: fixed point, stats bookkeeping, options threading."""

from __future__ import annotations

import pytest

from repro import compile_source
from repro.core.printer import print_world
from repro.core.world import World
from repro.frontend.emit import emit_module
from repro.frontend.parser import parse
from repro.frontend.sema import analyze
from repro.programs.suite import ALL_PROGRAMS
from repro.transform.pipeline import OptimizeOptions, optimize

STATIC_PHASES = {"partial_eval", "closure_elim", "inline", "lambda_drop",
                 "mem_opt", "cleanup"}


def _fresh_world(source: str) -> World:
    world = World("module")
    emit_module(analyze(parse(source)), world)
    return world


@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_pipeline_reaches_fixed_point_early(program):
    """The suite converges well before the round bound."""
    world = _fresh_world(program.source)
    stats = optimize(world, options=OptimizeOptions(max_rounds=12))
    assert stats.rounds < 12


@pytest.mark.parametrize("program", ALL_PROGRAMS[:4], ids=lambda p: p.name)
def test_stats_details_record_every_phase(program):
    world = _fresh_world(program.source)
    stats = optimize(world)
    phases = stats.phases()
    # Every static phase shows up, interleaved with cleanups.
    assert STATIC_PHASES <= set(phases)
    # One leading cleanup + 10 records per round (5 passes + 5 cleanups).
    assert len(phases) == 1 + 10 * stats.rounds
    # Each record carries that pass's counters, as a plain dict.
    for phase, detail in stats.details:
        assert isinstance(detail, dict)
        if phase == "inline":
            assert "inlined" in detail


@pytest.mark.parametrize("program", ALL_PROGRAMS[:4], ids=lambda p: p.name)
def test_frontend_cleanup_makes_the_leading_cleanup_a_noop(program):
    """``compile_source(optimize=False)`` leaves the world clean, so the
    pipeline skips its leading cleanup, and the output does not notice."""
    cleaned = compile_source(program.source, optimize=False)
    stats = optimize(cleaned)
    assert stats.details[0] == ("cleanup", {"noop": 1})
    fresh = _fresh_world(program.source)
    assert optimize(fresh).details[0][1].get("noop") is None
    assert print_world(cleaned) == print_world(fresh)


def test_max_rounds_keyword_overrides_options():
    world = _fresh_world(ALL_PROGRAMS[0].source)
    stats = optimize(world, options=OptimizeOptions(max_rounds=12),
                     max_rounds=1)
    assert stats.rounds == 1


def test_inline_threshold_is_threaded():
    """size_threshold=0 still inlines once-called functions, nothing else."""
    source = """
fn helper(x: i64) -> i64 { x + 1 }
fn twice(x: i64) -> i64 { helper(x) + helper(x + 1) }
fn main(a: i64) -> i64 { twice(a) }
"""
    permissive = _fresh_world(source)
    stats_permissive = optimize(permissive)

    strict = _fresh_world(source)
    stats_strict = optimize(
        strict, options=OptimizeOptions(inline_size_threshold=0))

    def inlined(stats):
        return sum(d.get("inlined", 0) for p, d in stats.details
                   if p == "inline")

    assert inlined(stats_permissive) >= inlined(stats_strict)


def test_inline_budget_is_threaded():
    world = _fresh_world(ALL_PROGRAMS[0].source)
    stats = optimize(world, options=OptimizeOptions(inline_budget=7))
    budgets = [d["budget_left"] for p, d in stats.details if p == "inline"]
    assert budgets and all(b <= 7 for b in budgets)


def test_pgo_phase_recorded_when_profile_supplied():
    from repro.profile import collect_profile

    program = ALL_PROGRAMS[0]
    world = _fresh_world(program.source)
    optimize(world)
    profile = collect_profile(
        world, lambda c: c.call(program.entry, *program.test_args))
    stats = optimize(world, profile=profile)
    phases = stats.phases()
    assert "pgo_loops" in phases and "pgo_inline" in phases
    # PGO phases come before any post-PGO static rounds.
    assert phases.index("pgo_loops") < phases.index("pgo_inline")


def test_pipeline_preserves_semantics_with_options():
    from repro.backend.codegen import compile_world

    program = ALL_PROGRAMS[0]
    world = _fresh_world(program.source)
    optimize(world, options=OptimizeOptions(inline_size_threshold=5,
                                            max_rounds=3))
    compiled = compile_world(world)
    assert compiled.call(program.entry, *program.test_args) \
        == program.test_expect
