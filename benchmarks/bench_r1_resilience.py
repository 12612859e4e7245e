"""R1 — cost of fault isolation in the pipeline.

The fault-tolerant pipeline buys an undo-log checkpoint before every
pass; this benchmark prices it.  Each suite program is optimized two
ways — strict (no checkpoints, the pre-fault-tolerance behaviour) and
the default per-phase checkpoints — and the overhead of checkpointing
over strict is reported.  Shape check: per-phase checkpointing stays
within a small multiple of strict compile time.
"""

from __future__ import annotations

import pytest

from repro.frontend import compile_source
from repro.programs.suite import ALL_PROGRAMS
from repro.transform.pipeline import OptimizeOptions, optimize

PROGRAMS = [p.name for p in ALL_PROGRAMS[:6]]

MODES = {
    "strict": OptimizeOptions(strict=True),
    "phase": OptimizeOptions(),
}

_times: dict[tuple[str, str], float] = {}
_checkpoints: dict[tuple[str, str], int] = {}
_initialized = False


def _optimize_fresh(source: str, options: OptimizeOptions):
    world = compile_source(source, optimize=False)
    return optimize(world, options=options)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", PROGRAMS)
def test_r1_resilience(name, mode, report, benchmark):
    table = report("R1_resilience")
    global _initialized
    if not _initialized:
        table.columns("program", "mode", "checkpoints", "mean_s",
                      "overhead_vs_strict")
        table.note("checkpoint/rollback tax: optimize() wall-clock with "
                   "per-phase undo-log checkpoints, normalized to strict "
                   "(fail-fast, no checkpoints).")
        _initialized = True

    from repro.programs.suite import by_name

    source = by_name(name).source
    options = MODES[mode]
    stats_box = []
    benchmark.pedantic(
        lambda: stats_box.append(_optimize_fresh(source, options)),
        rounds=3, iterations=1)
    mean = benchmark.stats.stats.mean
    _times[(name, mode)] = mean
    _checkpoints[(name, mode)] = stats_box[-1].checkpoints
    strict_mean = _times.get((name, "strict"))
    overhead = (mean / strict_mean) if strict_mean else float("nan")
    table.row(name, mode, _checkpoints[(name, mode)], mean,
              f"{overhead:.2f}x" if strict_mean else "-")


def test_r1_shape(report, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = report("R1_resilience")
    ratios = []
    for name in PROGRAMS:
        strict = _times.get((name, "strict"))
        phase = _times.get((name, "phase"))
        if strict and phase:
            ratios.append(phase / strict)
    if ratios:
        worst = max(ratios)
        table.note(f"worst per-phase overhead: {worst:.2f}x strict")
        assert worst < 10, "per-phase checkpointing too expensive"
