"""The profile subsystem: collection, model, determinism, and the
two-phase PGO driver (experiment F4's machinery).

The load-bearing invariants:

* instrumentation is *observation only* — instrumented and plain runs
  produce identical results and retire identical instruction counts,
  and the fused stream counts exactly what the source stream counts;
* profiling the same program on the same inputs twice yields identical
  profiles (stable site IDs, deterministic ordering);
* profiles survive a JSON round trip and merge by summing counts;
* ``compile_profiled`` preserves program semantics and never increases
  the dynamic instruction count on the training workload's program.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import compile_source
from repro.backend.codegen import compile_world
from repro.profile import (
    Profile,
    ProfileCollector,
    collect_profile,
    compile_profiled,
    instrument,
)
from repro.programs.suite import ALL_PROGRAMS, MANDELBROT, NQUEENS

from .helpers import corpus_repros, unfused_stream, vm_observation

LOOPY = """
fn main(n: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n {
        let mut j = 0;
        while j < i {
            acc += j * i;
            j += 1;
        }
    }
    acc
}
"""

CALLS = """
fn helper(x: i64) -> i64 { x * x + 1 }
fn main(n: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n { acc += helper(i); }
    acc
}
"""


def _profile_of(source: str, *args, optimize: bool = True) -> Profile:
    world = compile_source(source, optimize=optimize)
    compiled, collector = instrument(world)
    compiled.call("main", *args)
    return Profile.from_collector(collector, compiled.program)


# ---------------------------------------------------------------------------
# pure observation, on the fused stream
# ---------------------------------------------------------------------------


def _assert_observation_only(world, entry, arg_sets):
    """A profiled run shows what a plain run shows, and the fused stream
    counts exactly what the source stream counts."""
    plain = vm_observation(world, entry, arg_sets, profile=False)
    profiled = vm_observation(world, entry, arg_sets)
    with unfused_stream():
        reference = vm_observation(world, entry, arg_sets)
    assert profiled == reference
    assert profiled[:2] == plain
    return profiled


@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_instrumented_run_is_pure_observation(program):
    """Same results, same retired instruction count, with and without."""
    world = compile_source(program.source)
    runs, executed, entries, _calls, _edges = _assert_observation_only(
        world, program.entry, [program.test_args])
    if program.test_expect is not None:
        assert runs[0][0] == program.test_expect
    assert executed > 0 and entries


@pytest.mark.parametrize("source,entry,arg_sets", corpus_repros())
def test_instrumented_trap_repros_match_unfused_run(source, entry, arg_sets):
    # Most repros trap on a division; the trap kind, the retired count
    # and the counts up to the trap must not depend on the stream.
    _assert_observation_only(compile_source(source), entry, arg_sets)


def test_site_metadata_is_inert():
    """Site labels ride on VMFunction, never in the instruction stream."""
    world = compile_source(CALLS)
    compiled = compile_world(world)
    for fn in compiled.program.functions:
        assert fn.sites["entry"] is not None
        assert all(isinstance(pc, int) for pc in fn.sites["blocks"])
        # No instruction mentions the sites dict.
        for instr in fn.code:
            assert fn.sites not in instr


# ---------------------------------------------------------------------------
# determinism & model
# ---------------------------------------------------------------------------


def test_profiling_twice_is_identical():
    p1 = _profile_of(LOOPY, 12)
    p2 = _profile_of(LOOPY, 12)
    assert p1.to_dict() == p2.to_dict()
    assert p1.to_json() == p2.to_json()


def test_profile_counts_make_sense():
    profile = _profile_of(LOOPY, 8)
    assert profile.total_loop_count() > 0
    # Two nested loops: at least two distinct headers were hot.
    assert len(profile.loops) >= 2
    # main was entered exactly once.
    assert sum(profile.entries.values()) >= 1


def test_call_sites_resolved_to_labels():
    # Unoptimized so helper survives as a real call target.
    profile = _profile_of(CALLS, 6, optimize=False)
    assert profile.call_sites, "expected at least one executed call site"
    for site in profile.call_sites:
        assert site.function and site.block and site.callee
        assert site.count > 0


def test_json_round_trip():
    profile = _profile_of(LOOPY, 10)
    restored = Profile.from_json(profile.to_json())
    assert restored.to_dict() == profile.to_dict()


def test_save_load(tmp_path):
    profile = _profile_of(LOOPY, 10)
    path = tmp_path / "p.json"
    profile.save(path)
    assert Profile.load(path).to_dict() == profile.to_dict()


def test_merge_sums_counts():
    p1 = _profile_of(LOOPY, 6)
    p2 = _profile_of(LOOPY, 6)
    merged = p1.merge(p2)
    assert merged.total_loop_count() == 2 * p1.total_loop_count()
    assert sum(merged.entries.values()) == 2 * sum(p1.entries.values())
    # Same sites, doubled counts.
    assert [s.key for s in merged.loops] == [s.key for s in p1.loops]


def test_collector_clear():
    collector = ProfileCollector()
    collector.entries[0] += 1
    collector.calls[(0, 3)] += 2
    collector.edges[(0, 5, 1)] += 3
    assert not collector.is_empty()
    collector.clear()
    assert collector.is_empty()


def test_version_mismatch_rejected():
    profile = _profile_of(LOOPY, 4)
    data = profile.to_dict()
    data["version"] = 999
    with pytest.raises(ValueError):
        Profile.from_dict(data)


# ---------------------------------------------------------------------------
# the two-phase driver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("program", [MANDELBROT, NQUEENS],
                         ids=lambda p: p.name)
def test_compile_profiled_preserves_semantics(program):
    world = compile_source(program.source, optimize=False)

    def workload(compiled):
        compiled.call(program.entry, *program.test_args)

    compiled, profile, stats = compile_profiled(world, workload)
    assert compiled.call(program.entry, *program.test_args) \
        == program.test_expect
    assert not profile.call_sites or profile.total_call_count() >= 0
    assert stats["static"].rounds >= 1


def test_compile_profiled_never_slower_on_suite_sample():
    """PGO output retires no more instructions than the static pipeline."""
    for program in (MANDELBROT, NQUEENS):
        static = compile_world(compile_source(program.source))
        static.call(program.entry, *program.test_args)
        static_exec = static.vm.executed

        world = compile_source(program.source, optimize=False)

        def workload(compiled, _p=program):
            compiled.call(_p.entry, *_p.test_args)

        pgo, _profile, _stats = compile_profiled(world, workload)
        pgo.call(program.entry, *program.test_args)
        assert pgo.vm.executed <= static_exec


def test_collect_profile_meta():
    world = compile_source(LOOPY)
    profile = collect_profile(
        world, lambda c: c.call("main", 5), meta={"workload": "unit"})
    assert profile.meta["workload"] == "unit"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

VARS = ("a", "b")


def _binop(children):
    ops = st.sampled_from(["+", "-", "*", "&", "|", "^"])
    return st.tuples(ops, children, children).map(
        lambda t: f"({t[1]} {t[0]} {t[2]})"
    )


exprs = st.recursive(
    st.sampled_from(VARS) | st.integers(-20, 20).map(str),
    _binop,
    max_leaves=8,
)


@st.composite
def loop_programs(draw):
    body = draw(exprs)
    return f"""
fn main(a: i64, b: i64) -> i64 {{
    let mut acc = 0;
    for i in 0..((a & 7) + 2) {{
        acc += {body};
        acc ^= i;
    }}
    acc
}}
"""


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=loop_programs(), a=st.integers(-50, 50),
       b=st.integers(-50, 50))
def test_instrumentation_is_invisible_random_programs(source, a, b):
    world = compile_source(source)
    _assert_observation_only(world, "main", [(a, b)])

    profiles = []
    for _ in range(2):
        compiled, collector = instrument(world)
        compiled.call("main", a, b)
        profiles.append(
            Profile.from_collector(collector, compiled.program).to_dict())
    assert profiles[0] == profiles[1]
