"""The two-phase PGO driver: instrument → run workload → recompile.

``compile_profiled(world, workload)`` is the whole feedback loop in one
call:

1. run the *static* pipeline (so the profile measures the program the
   static optimizer actually produces — site labels refer to residual
   continuations, not source-level ones);
2. compile with an instrumented VM, run the training ``workload``
   against it, and distil the counters into a :class:`Profile`;
3. re-run ``optimize(world, profile=...)`` — the PGO passes peel hot
   loops and inline hot call sites — and compile the final image.

The world is optimized *in place* (the IR graph persists across both
phases, which is what makes the profile's site labels resolvable in
phase two).  Train/test discipline is the caller's job: pass a training
workload here, measure on different inputs afterwards.
"""

from __future__ import annotations

from typing import Callable

from ..backend.codegen import CompiledWorld, compile_world
from ..core.world import World
from ..transform.pipeline import OptimizeOptions, optimize
from .collector import ProfileCollector
from .model import Profile


def instrument(world: World) -> tuple[CompiledWorld, ProfileCollector]:
    """Compile *world* with profiling on; returns (image, collector).

    The world is compiled as-is (run the pipeline first if you want to
    profile optimized code).  Every call through the returned image
    accumulates counts into the collector.
    """
    collector = ProfileCollector()
    compiled = compile_world(world, profile=collector)
    return compiled, collector


def collect_profile(world: World, workload: Callable[[CompiledWorld], None],
                    meta: dict | None = None, *,
                    swallow_errors: bool = False) -> Profile:
    """Run *workload* against an instrumented image of *world*.

    With ``swallow_errors`` a crashing workload still yields a profile
    from whatever counters accumulated before the crash — a partial
    profile only makes PGO less aggressive, whereas propagating would
    kill a fault-tolerant build over its *training* run.
    """
    compiled, collector = instrument(world)
    try:
        workload(compiled)
    except Exception:
        if not swallow_errors:
            raise
        meta = dict(meta or ())
        meta["workload_crashed"] = True
    return Profile.from_collector(collector, compiled.program, meta=meta)


def compile_profiled(world: World,
                     workload: Callable[[CompiledWorld], None], *,
                     options=None):
    """Instrument → run *workload* → recompile with the observed profile.

    Returns ``(compiled, profile, stats)`` where *compiled* is the final
    (uninstrumented) image, *profile* the collected :class:`Profile`,
    and *stats* a dict with the phase-1/phase-2
    :class:`~repro.transform.pipeline.PipelineStats`.
    """
    options = options if options is not None else OptimizeOptions()
    static_stats = optimize(world, options=options)
    profile = collect_profile(world, workload,
                              meta={"phase": "train",
                                    "pipeline_rounds": static_stats.rounds},
                              swallow_errors=not options.strict)
    pgo_stats = optimize(world, options=options, profile=profile)
    compiled = compile_world(world)
    return compiled, profile, {"static": static_stats, "pgo": pgo_stats}
