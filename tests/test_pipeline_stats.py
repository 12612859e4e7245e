"""Pipeline behaviour: fixed point, stats bookkeeping, the PGO phase."""

from __future__ import annotations

import pytest

from repro import compile_source
from repro.core.printer import print_world
from repro.core.world import World
from repro.frontend.emit import emit_module
from repro.frontend.parser import parse
from repro.frontend.sema import analyze
from repro.programs.suite import ALL_PROGRAMS
from repro.transform.pipeline import MAX_ROUNDS, optimize

STATIC_PHASES = {"partial_eval", "closure_elim", "inline", "lambda_drop",
                 "mem_opt", "cleanup"}


def _fresh_world(source: str) -> World:
    world = World("module")
    emit_module(analyze(parse(source)), world)
    return world


@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_pipeline_reaches_fixed_point_early(program):
    """The suite converges before the round bound (in at most four)."""
    world = _fresh_world(program.source)
    stats = optimize(world)
    assert stats.rounds < MAX_ROUNDS


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
