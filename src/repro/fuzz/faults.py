"""Fault-injection campaign: prove the pipeline compiles *around* faults.

Two complementary drivers, both built on
:class:`~repro.fuzz.inject.FaultInjector`:

* :func:`run_fault_matrix` — the systematic sweep: every fault mode
  (raise / corrupt / growth) x every pipeline pass (the four
  static passes, cleanup, and the two PGO passes) over the evaluation
  suite.  Each case must (a) complete without an exception, (b) name
  the sabotaged pass in ``PipelineStats.quarantined``, and (c) produce
  a world whose graph-interpreter behaviour is identical to the
  *unoptimized* reference.
* :func:`run_random_faults` — the soak: generated fuzz programs with a
  randomly chosen pass/mode sabotaged, compared against the
  unoptimized interpreter over all argument sets (traps normalized,
  like the differential oracle).

Both return :class:`FaultCaseResult` lists; ``python -m repro.fuzz
--fault-campaign`` drives them and exits non-zero on any failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..backend.interp import Interpreter
from ..frontend import compile_source
from ..profile.driver import collect_profile
from ..programs.suite import ALL_PROGRAMS
from ..transform.pipeline import OptimizeOptions, optimize
from .gen import GenConfig, generate_program
from .inject import FAULT_MODES, FaultInjector, FaultPlan
from .oracle import TRAP, _compare, _run_interp

STATIC_PASSES = ("partial_eval", "closure_elim", "inline", "lambda_drop",
                 "cleanup")
PGO_PASSES = ("pgo_loops", "pgo_inline")
ALL_PASSES = STATIC_PASSES + PGO_PASSES

INTERP_MAX_STEPS = 20_000_000


@dataclass
class FaultCaseResult:
    """One sabotaged compilation: what was hit and whether we recovered."""

    program: str
    target: str
    mode: str
    ok: bool
    fired: bool
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        note = f" ({self.detail})" if self.detail else ""
        return (f"[{status}] {self.program}: {self.mode} in "
                f"{self.target}{note}")


def _fault_options(injector: FaultInjector) -> OptimizeOptions:
    # Tight growth budget so the blowup injector trips it quickly; the
    # verifier is on so corruption is *attributed*, not just detected.
    return OptimizeOptions(
        verify_each_pass=True,
        growth_cap_factor=4.0,
        growth_cap_floor=64,
        pass_hook=injector,
    )


def run_fault_case(program, target: str, mode: str) -> FaultCaseResult:
    """Sabotage *target* with *mode* while compiling a suite *program*."""
    reference = Interpreter(compile_source(program.source, optimize=False),
                            max_steps=INTERP_MAX_STEPS)
    expected = reference.call(program.entry, *program.test_args)
    expected_out = "".join(reference.output)

    world = compile_source(program.source, optimize=False)
    injector = FaultInjector(FaultPlan(mode, target=target))
    options = _fault_options(injector)

    profile = None
    if target in PGO_PASSES:
        # The PGO phases only run when a profile is supplied: train on
        # the statically optimized world first, like compile_profiled.
        optimize(world)
        profile = collect_profile(
            world,
            lambda compiled: compiled.call(program.entry,
                                           *program.test_args),
            swallow_errors=True)

    def fail(detail: str) -> FaultCaseResult:
        return FaultCaseResult(program.name, target, mode, False,
                               injector.fired, detail)

    try:
        stats = optimize(world, options=options, profile=profile)
    except Exception as exc:
        return fail(f"pipeline did not recover: {exc!r}")

    if not injector.fired:
        return FaultCaseResult(program.name, target, mode, True, False,
                               "pass never ran; fault vacuous")
    if target not in stats.quarantined:
        return fail(f"fault fired in {injector.struck!r} but "
                    f"{target!r} not quarantined "
                    f"(quarantined={stats.quarantined})")

    survivor = Interpreter(world, max_steps=INTERP_MAX_STEPS)
    try:
        got = survivor.call(program.entry, *program.test_args)
    except Exception as exc:
        return fail(f"recovered world traps: {exc!r}")
    if got != expected:
        return fail(f"recovered world diverges: expected {expected!r}, "
                    f"got {got!r}")
    if "".join(survivor.output) != expected_out:
        return fail("recovered world prints differently")
    return FaultCaseResult(program.name, target, mode, True, True)


def run_fault_matrix(programs=None, passes=ALL_PASSES, modes=FAULT_MODES,
                     *, progress=None) -> list[FaultCaseResult]:
    """Every pass x mode combination over *programs* (default: suite)."""
    if programs is None:
        programs = ALL_PROGRAMS
    results = []
    for program in programs:
        for target in passes:
            for mode in modes:
                result = run_fault_case(program, target, mode)
                results.append(result)
                if progress is not None:
                    progress(result)
    return results


def _interp_observations(world, prog) -> list:
    return _run_interp(world, prog.entry, prog.arg_sets,
                       max_steps=INTERP_MAX_STEPS)


def random_fault_plan(n: int, seed: int = 0,
                      expr_only_every: int = 4) -> list[tuple]:
    """The ``n`` sabotage cases ``run_random_faults`` would execute.

    Drawn from one sequential RNG so the plan (and therefore every
    case's target/mode/nth) is identical however the cases are later
    distributed — the parallel driver precomputes this in the parent
    and ships one tuple per worker.
    """
    rng = random.Random(seed)
    plan = []
    for index in range(n):
        prog_seed = seed + index
        expr_only = bool(expr_only_every
                         and index % expr_only_every == expr_only_every - 1)
        target = rng.choice(STATIC_PASSES)
        mode = rng.choice(FAULT_MODES)
        nth = rng.randint(1, 3)
        plan.append((prog_seed, expr_only, target, mode, nth))
    return plan


def run_random_fault_case(prog_seed: int, expr_only: bool, target: str,
                          mode: str, nth: int) -> FaultCaseResult:
    """One sabotaged fuzz program (a single entry of the random plan)."""
    prog = generate_program(prog_seed,
                            GenConfig(expr_only=True) if expr_only else None)

    world = compile_source(prog.render(), optimize=False)
    reference = _interp_observations(world, prog)

    injector = FaultInjector(FaultPlan(mode, target=target, nth=nth))
    label = f"fuzz-{prog_seed}"

    def fail(detail: str) -> FaultCaseResult:
        return FaultCaseResult(label, target, mode, False,
                               injector.fired, detail)

    try:
        stats = optimize(world, options=_fault_options(injector))
    except Exception as exc:
        return fail(f"pipeline did not recover: {exc!r}")
    if injector.fired and target not in stats.quarantined:
        return fail(f"fired but {target!r} not quarantined")
    failure = _compare(f"fault({mode})", prog, reference,
                       _interp_observations(world, prog))
    if failure is not None:
        return fail(failure.describe())
    detail = "" if injector.fired else "fault vacuous"
    return FaultCaseResult(label, target, mode, True, injector.fired, detail)


def run_random_faults(n: int, seed: int = 0, *, expr_only_every: int = 4,
                      progress=None) -> list[FaultCaseResult]:
    """Soak test: *n* fuzz programs, each with one random sabotage."""
    results = []
    for case in random_fault_plan(n, seed, expr_only_every):
        result = run_random_fault_case(*case)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def summarize(results: list[FaultCaseResult]) -> str:
    total = len(results)
    failed = [r for r in results if not r.ok]
    fired = sum(1 for r in results if r.fired)
    return (f"{total} fault cases, {fired} faults fired, "
            f"{len(failed)} failure(s)")
