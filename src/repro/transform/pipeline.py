"""The standard optimization pipeline.

Mirrors the order the paper's compiler uses:

1. construction-time folding already happened in the world;
2. **partial evaluation** of ``run``-marked calls (specialization by
   lambda mangling);
3. **closure elimination**: mangle higher-order call sites until the
   program is in control-flow form;
4. **inlining** of small/once-called functions (also mangling);
5. **lambda dropping** of scope-invariant parameters;
6. cleanup after every step: eta reduction (jump threading) of the
   continuations the step touched, then garbage collection.  Branches
   whose condition became a literal were already folded when the step
   rewrote them (``rewrite_uses``/``World.jump`` fold every body).

Each pass runs with its own keyword defaults (budgets, thresholds) and
the static rounds stop at a fixed point or after :data:`MAX_ROUNDS`.
:class:`OptimizeOptions` holds only what callers vary: ``mem_opt``,
checking and fault isolation.

Fault isolation (the default, ``strict=False``): every phase runs
inside a checkpoint/rollback guard built on :mod:`repro.core.undo`.
If a pass raises, breaks an IR invariant (under ``verify_each_pass``)
or blows the world-growth budget, the pipeline **rolls back** to the
last checkpoint, **quarantines** that pass for the rest of this
``optimize`` call, records a :class:`PassIncident` in
:class:`PipelineStats`, and keeps going — a buggy pass degrades one
compilation to "less optimized", it does not take the compiler down.
If recovery itself fails, :class:`PipelineCrash` is raised with the
pass trace in its message.  The pipeline writes no crash bundle: no
check reads the clock, and a world is a deterministic function of its
source (construction hash-conses and folds as it builds), so the input
that built it replays the crash; the compile service writes that
request as the crash bundle (:mod:`repro.serve.server`).  A pass that
never returns is bounded by the service's per-request deadline, which
kills the worker running it.

``OptimizeOptions(strict=True)`` runs the same guarded phases with
fail-fast behaviour: no checkpoints, no quarantine, the first failure
(an exception, a broken invariant or a blown growth budget) propagates
to the caller.  The differential fuzz oracle runs strict so that a
miscompiling or crashing pass is *reported*, not silently optimized
around.

Analyses are memoized in the world's
:class:`~repro.core.analyses.AnalysisManager` and patched in place as
passes mutate the graph; there is no uncached mode.

Pass-level checking (``OptimizeOptions(verify_each_pass=True)``): the
full IR verifier (analysis audit + structural + use-list + scope
invariants) runs after every phase, and after every cleanup a
from-scratch sweep (:func:`~repro.transform.cleanup.verify_cleanup`)
must find nothing left to eta-reduce, fold or collect.  The first
broken invariant — a stale cached analysis or a forwarder the
incremental cleanup missed included — is attributed via
:class:`PassVerifyError` to the pass that introduced it.  Answers a
pass takes without recovering a scope or marking the world (the
inliner's once-called sites, cleanup's local forwarder test, mem-opt's
clean-world memory ops) are checked against that recovery where they
are taken, and a mismatch fails the phase that took it.  Phases the
runner would skip as provable no-ops are run instead, and must leave
``World.generation`` unmoved.  In strict mode the error is raised; in
non-strict mode it triggers rollback and quarantine like any other
pass failure.  At pipeline exit the
control-flow-form criterion is asserted and any residual violations
(e.g. first-class callees closure elimination failed to remove) are
reported in ``PipelineStats.cff_residual`` (raised only under strict).

Profile-guided mode (experiment F4): ``optimize(world, profile=...)``
first runs the static rounds to a fixed point, then applies the PGO
passes (:mod:`repro.transform.pgo`) — hot-loop peeling *before* PGO
inlining, so peeled loops inside hot callees are carried along into
the caller — and finally re-runs the static rounds to clean up and
exploit what specialization exposed.  The PGO phases run under the same
fault isolation as the static ones.  The profile is normally collected
by :func:`repro.profile.driver.compile_profiled`, the two-phase
instrument → run → recompile driver.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable

from ..core.analyses import AnalysisManager
from ..core.canonical import canonical_json
from ..core.limits import ResourceLimitError
from ..core.undo import UndoLog
from ..core.verify import VerifyError, cff_violations, verify
from ..core.world import World
# Passes are called through their modules, so a test that patches a
# pass function (``inliner.inline_small_functions``) reaches the
# pipeline.
from . import (closure_elim, inliner, lambda_dropping, mem_opt,
               partial_eval, pgo)
from .cleanup import cleanup, verify_cleanup


# Upper bound on static rounds; the suite reaches its fixed point in at
# most four.
MAX_ROUNDS = 8


@dataclass
class OptimizeOptions:
    """The pipeline settings callers vary (shared with the PGO driver)."""

    # Effect-aware memory optimization (store-to-load forwarding,
    # redundant-load CSE, dead-store elimination over the alias
    # lattice).  The fuzz oracle's ``memopt(static)`` stage checks the
    # on/off behaviour differentially.
    mem_opt: bool = True
    # Pass-level checking: run the full IR verifier (structural checks,
    # use-list consistency, scope containment) after every phase, and
    # assert control-flow form at pipeline exit.  A failure raises
    # :class:`PassVerifyError` (strict) or quarantines the offending
    # pass (non-strict).
    verify_each_pass: bool = False
    # Fault isolation.  strict=True restores fail-fast: no checkpoints,
    # no rollback, the first pass failure propagates.
    strict: bool = False
    # World-growth budget: a pass that leaves more than
    # ``max(growth_cap_floor, growth_cap_factor * size-at-entry)``
    # continuations behind is treated as blown up (rolled back, or
    # raised under strict).
    growth_cap_factor: float = 64.0
    growth_cap_floor: int = 4096
    # Test/fault-injection hook, called as ``pass_hook(phase, world)``
    # inside the isolated region right after each phase body.
    pass_hook: Callable[[str, World], None] | None = None


class PassVerifyError(Exception):
    """A pipeline pass broke an IR invariant.

    Wraps the underlying :class:`~repro.core.verify.VerifyError` and
    attributes it: ``phase`` is the pass that ran immediately before the
    first failed check, ``round`` the static round it ran in (0 for the
    leading cleanup and the PGO phases).
    """

    def __init__(self, phase: str, round_: int, cause: Exception):
        super().__init__(
            f"IR invariant broken after pass {phase!r} (round {round_}): "
            f"{cause}"
        )
        self.phase = phase
        self.round = round_
        self.cause = cause


class PassGrowthError(ResourceLimitError):
    """A pass exceeded the pipeline's world-growth budget."""

    def __init__(self, phase: str, size: int, cap: int):
        self.phase = phase
        self.size = size
        super().__init__(
            "continuations", cap, "pipeline",
            f"pass {phase!r} grew the world to {size} continuations "
            f"(cap {cap})",
        )


class PipelineCrash(Exception):
    """Non-strict ``optimize`` failed unrecoverably.

    ``__cause__`` is the original error.  ``trace`` is the pass trace up
    to the failure (rounds, phases, incidents, quarantined and skipped
    passes, checkpoints, rollbacks); the message carries it as
    canonical JSON, so it crosses a worker pipe as plain text.
    """

    def __init__(self, error: Exception, stats: PipelineStats):
        self.trace = {
            "rounds": stats.rounds,
            "phases": stats.phases(),
            "incidents": [i.as_dict() for i in stats.incidents],
            "quarantined": list(stats.quarantined),
            "skipped": list(stats.skipped),
            "checkpoints": stats.checkpoints,
            "rollbacks": stats.rollbacks,
        }
        super().__init__(
            f"optimization pipeline failed unrecoverably: {error!r}; "
            f"pass trace: {canonical_json(self.trace)}")


@dataclass
class PassIncident:
    """One recovered pass failure: what failed, when, and why."""

    phase: str
    round: int
    kind: str   # "exception" | "verify" | "growth"
    error: str

    def as_dict(self) -> dict:
        return {"phase": self.phase, "round": self.round,
                "kind": self.kind, "error": self.error}


class PipelineStats:
    def __init__(self) -> None:
        self.rounds = 0
        self.details: list[tuple[str, dict]] = []
        # Residual control-flow-form violations at pipeline exit
        # (populated only under ``verify_each_pass``; empty = CFF).
        self.cff_residual: list[str] = []
        # Fault-isolation accounting (all empty/zero on a clean run).
        self.incidents: list[PassIncident] = []
        self.quarantined: list[str] = []
        self.skipped: list[str] = []
        self.checkpoints = 0
        # Checkpoints satisfied by the previous one because the world's
        # mutation generation had not moved.
        self.checkpoints_reused = 0
        self.rollbacks = 0
        # Aggregate analysis-cache counters for this optimize() call
        # (per-pass deltas live in the ``details`` records).
        self.analysis_cache: dict[str, int] = {}
        # Wall-clock seconds per pass *kind* (cleanup(inline) counts
        # toward "cleanup"), summed over every invocation.  Per-phase
        # elapsed times live in the ``details`` records as "elapsed_s".
        self.timings: dict[str, float] = {}

    def record(self, phase: str, stats: dict) -> None:
        self.details.append((phase, dict(stats)))

    def record_time(self, phase: str, elapsed: float) -> None:
        key = _quarantine_key(phase)
        self.timings[key] = self.timings.get(key, 0.0) + elapsed

    def phases(self) -> list[str]:
        return [phase for phase, _ in self.details]

    def as_dict(self) -> dict:
        """JSON-safe image of the whole run, for artifacts and servers.

        Everything in here is plain data; ``json.dumps`` accepts it
        directly.  The compile service ships this as the ``stats``
        artifact, so keep keys append-only.
        """
        return {
            "rounds": self.rounds,
            "details": [[phase, dict(stats)] for phase, stats in self.details],
            "cff_residual": list(self.cff_residual),
            "incidents": [i.as_dict() for i in self.incidents],
            "quarantined": list(self.quarantined),
            "skipped": list(self.skipped),
            "checkpoints": self.checkpoints,
            "checkpoints_reused": self.checkpoints_reused,
            "rollbacks": self.rollbacks,
            "analysis_cache": dict(self.analysis_cache),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }


def _quarantine_key(phase: str) -> str:
    """Quarantine is per *pass*: ``cleanup(inline)`` counts as ``cleanup``."""
    return phase.split("(", 1)[0]


class _PhaseRunner:
    """Runs one phase at a time, fault-isolated unless strict.

    Protocol per phase: skip if quarantined; otherwise checkpoint (an
    :class:`~repro.core.undo.UndoLog`; not under strict), run the body
    and the fault-injection hook, then enforce the growth cap and —
    under ``verify_each_pass`` — the full verifier.  Strict re-raises
    any failure; otherwise it rolls the world back to the checkpoint and
    quarantines the pass.  A failure *of the rollback itself*
    propagates; ``optimize`` turns it into a :class:`PipelineCrash`.
    """

    def __init__(self, world: World, options: OptimizeOptions,
                 stats: PipelineStats):
        self.world = world
        self.options = options
        self.stats = stats
        self.quarantine: set[str] = set()
        self.checkpoint: UndoLog | None = None
        self._checkpoint_generation: int | None = None
        # Per-pass generation at which the pass last completed without
        # mutating anything (generation unmoved across its run); while
        # it stands, rerunning that pass is provably a no-op.
        self._pass_noop: dict[str, int] = {}
        baseline = max(1, len(world._continuations))
        self.growth_cap = max(options.growth_cap_floor,
                              int(options.growth_cap_factor * baseline))
        # The manager is world-owned (PGO optimizes the same world
        # twice), so every counter this runner reports is a delta from
        # here.
        self.analyses: AnalysisManager = world.analyses
        # Passes that skip a scope recovery or a mark check each such
        # answer against it, and raise ``VerifyError`` on a mismatch.
        world._verify_shortcuts = options.verify_each_pass
        self._analysis_base = self._analysis_counters()

    # -- analysis-cache telemetry -------------------------------------------

    def _analysis_counters(self) -> dict[str, int]:
        return dict(vars(self.analyses.stats))

    def _with_analysis_delta(self, result: dict,
                             before: dict[str, int]) -> dict:
        now = self.analyses.stats
        result = dict(result)
        result["analysis_hits"] = now.hits - before["hits"]
        result["analysis_misses"] = now.misses - before["misses"]
        result["analysis_invalidations"] = (now.invalidations
                                            - before["invalidations"])
        return result

    def finish(self) -> None:
        base = self._analysis_base
        self.stats.analysis_cache = {
            name: value - base[name]
            for name, value in self._analysis_counters().items()}

    # -- checkpoints --------------------------------------------------------

    def _take_checkpoint(self) -> None:
        checkpoint = self.checkpoint
        if checkpoint is not None and checkpoint.armed:
            if self._checkpoint_generation == self.world.generation:
                # The generation covers every mutation the log could
                # have to undo, so an unchanged generation means the
                # armed checkpoint is still exact: reuse it for free.
                # Read-only churn (GVN hit counters) may have advanced;
                # a rollback rewinds it to the checkpoint's values,
                # which is the rollback contract anyway.
                self.stats.checkpoints += 1
                self.stats.checkpoints_reused += 1
                return
            checkpoint.arm()
        else:
            self.checkpoint = UndoLog(self.world)
        self._checkpoint_generation = self.world.generation
        self.stats.checkpoints += 1

    def run_cleanup(self, label: str) -> dict:
        """Run (or provably skip) one cleanup phase.

        Cleanup is deterministic and idempotent: on a world that has not
        mutated since the previous cleanup completed, it rewrites
        nothing.  The world's ``_clean_generation`` witnesses exactly
        that — every completed ``cleanup`` stamps it, the frontend's
        included, and the runner re-stamps after the whole phase — so
        the phase is skipped outright, bit-identical to running it.  A
        rollback cannot fake this: restoring a checkpoint always
        advances the generation.
        """
        world = self.world
        noop = world._clean_generation == world.generation
        result = self.run(label, lambda: cleanup(world), noop=noop)
        if "rolled_back" not in result and "quarantined" not in result:
            world._clean_generation = world.generation
        return result

    # -- the guarded region -------------------------------------------------

    def run(self, phase: str, body: Callable[[], dict], *,
            noop: bool = False) -> dict:
        """Run one phase; *noop* claims it provably changes nothing.

        A pass that last completed as a *pure* no-op — zero generation
        movement — on a world that has not mutated since is such a
        claim too (unless a ``pass_hook`` could act on it).  Passes are
        deterministic, so a claimed no-op is skipped outright,
        checkpoint included.  Under ``verify_each_pass`` it runs instead
        and must leave the generation unmoved.
        """
        options = self.options
        noop = noop or (options.pass_hook is None
                        and self._pass_noop.get(phase)
                        == self.world.generation)
        if noop and not options.verify_each_pass:
            return {"noop": 1}
        if _quarantine_key(phase) in self.quarantine:
            self.stats.skipped.append(phase)
            return {"quarantined": 1}
        generation_before = self.world.generation
        unmoved = generation_before if noop else None
        if not options.strict:
            self._take_checkpoint()
        before = self._analysis_counters()
        started = time.perf_counter()
        try:
            result = self._body(phase, body)
            if options.pass_hook is not None:
                options.pass_hook(phase, self.world)
            size = len(self.world._continuations)
            if size > self.growth_cap:
                raise PassGrowthError(phase, size, self.growth_cap)
            self._verify(phase, unmoved)
            return self._finish_phase(phase, result, before, started,
                                      generation_before, noop)
        except Exception as exc:
            if options.strict:
                raise
            self.stats.record_time(phase, time.perf_counter() - started)
            self._rollback(phase, exc)
            return {"rolled_back": 1}

    def _body(self, phase: str, body: Callable[[], dict]) -> dict:
        """Run a phase body; a shortcut audit's miss is the phase's."""
        if not self.options.verify_each_pass:
            return body()
        try:
            return body()
        except VerifyError as exc:
            raise PassVerifyError(phase, self.stats.rounds, exc) from exc

    def _finish_phase(self, phase: str, result: dict,
                      before: dict[str, int], started: float,
                      generation_before: int, noop: bool) -> dict:
        elapsed = time.perf_counter() - started
        self.stats.record_time(phase, elapsed)
        if noop:
            # A verified rerun of a claimed no-op reports like the skip.
            return {"noop": 1}
        generation = self.world.generation
        if generation == generation_before:
            self._pass_noop[phase] = generation
        else:
            self._pass_noop.pop(phase, None)
        result = self._with_analysis_delta(result, before)
        result["elapsed_s"] = round(elapsed, 6)
        return result

    def _verify(self, phase: str, unmoved: int | None) -> None:
        if not self.options.verify_each_pass:
            return
        try:
            if unmoved is not None and self.world.generation != unmoved:
                raise VerifyError(
                    "a phase the runner would skip as a no-op mutated "
                    "the world")
            verify(self.world, full=True)
            if _quarantine_key(phase) == "cleanup":
                verify_cleanup(self.world)
        except VerifyError as exc:
            raise PassVerifyError(phase, self.stats.rounds, exc) from exc

    def _rollback(self, phase: str, exc: Exception) -> None:
        if isinstance(exc, PassVerifyError):
            kind = "verify"
        elif isinstance(exc, PassGrowthError):
            kind = "growth"
        else:
            kind = "exception"
        self.checkpoint.restore()
        self.stats.rollbacks += 1
        key = _quarantine_key(phase)
        if key not in self.quarantine:
            self.quarantine.add(key)
            self.stats.quarantined.append(key)
        self.stats.incidents.append(
            PassIncident(phase, self.stats.rounds, kind, repr(exc)))


def _run_static_rounds(world: World, options: OptimizeOptions,
                       stats: PipelineStats, runner: _PhaseRunner) -> None:
    """The classic fixed-point loop (bounded by :data:`MAX_ROUNDS`)."""
    passes = (
        ("partial_eval", "specialized",
         lambda: partial_eval.partial_eval(world)),
        ("closure_elim", "mangled",
         lambda: closure_elim.eliminate_closures(world)),
        ("inline", "inlined", lambda: inliner.inline_small_functions(world)),
        ("lambda_drop", "dropped",
         lambda: lambda_dropping.drop_invariant_params(world)),
    )
    if options.mem_opt:
        # After the mangling passes: inlining/closure elimination merge
        # chain segments (a call boundary in round N is a straight-line
        # segment in round N+1), so memory optimization keeps finding
        # new forwardable loads as the rounds specialize.
        passes = passes + (
            ("mem_opt", "rewrites", lambda: mem_opt.optimize_memory(world)),
        )

    for _ in range(MAX_ROUNDS):
        stats.rounds += 1
        changed = 0
        for phase, changed_key, body in passes:
            result = runner.run(phase, body)
            stats.record(phase, result)
            changed += result.get(changed_key, 0)
            stats.record("cleanup", runner.run_cleanup(f"cleanup({phase})"))
        if not changed:
            break


def _optimize_guarded(world: World, options: OptimizeOptions,
                      profile, stats: PipelineStats,
                      runner: _PhaseRunner) -> PipelineStats:
    stats.record("cleanup", runner.run_cleanup("cleanup(initial)"))
    _run_static_rounds(world, options, stats, runner)

    if profile is not None:
        loop_stats = runner.run(
            "pgo_loops", lambda: pgo.specialize_hot_loops(world, profile))
        stats.record("pgo_loops", loop_stats)
        stats.record("cleanup", runner.run_cleanup("cleanup(pgo_loops)"))

        inline_stats = runner.run(
            "pgo_inline", lambda: pgo.pgo_inline(world, profile))
        stats.record("pgo_inline", inline_stats)
        stats.record("cleanup", runner.run_cleanup("cleanup(pgo_inline)"))

        if (loop_stats.get("loops_peeled", 0)
                or inline_stats.get("pgo_inlined", 0)):
            _run_static_rounds(world, options, stats, runner)

    if options.verify_each_pass:
        # Control-flow form is the pipeline's exit contract: closure
        # elimination promises that a CFG+SSA backend can lower the
        # residual program.  Record what is left over; fail loudly
        # (strict only) if anything — in particular a first-class
        # callee — survived.
        stats.cff_residual = cff_violations(world)
        if stats.cff_residual:
            summary = "; ".join(stats.cff_residual[:4])
            error = PassVerifyError(
                "pipeline-exit(cff)", stats.rounds,
                VerifyError(
                    f"{len(stats.cff_residual)} control-flow-form "
                    f"violation(s) at pipeline exit: {summary}"
                ),
            )
            if options.strict:
                raise error
            stats.incidents.append(
                PassIncident("pipeline-exit(cff)", stats.rounds, "verify",
                             repr(error)))
    runner.finish()
    return stats


def optimize(world: World, *, options: OptimizeOptions | None = None,
             profile=None) -> PipelineStats:
    """Run the full pipeline to a fixed point.

    Passing a :class:`repro.profile.model.Profile` as ``profile``
    appends the profile-guided phase (see module docstring).

    By default the pipeline is fault-isolated (see module docstring):
    a failing pass is rolled back and quarantined, and the incident
    recorded in the returned :class:`PipelineStats`.  Under
    ``OptimizeOptions(strict=True)`` the first failure propagates.
    """
    options = options if options is not None else OptimizeOptions()

    # The IR graph is cyclic by construction (use-lists point back at
    # users), and during optimization everything is reachable from the
    # world, so the cyclic collector can never free anything here — it
    # only re-traces an ever-growing heap on every threshold crossing.
    # Pause it for the duration; dead IR is reclaimed after we return.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _optimize_paused(world, options, profile)
    finally:
        # Disarm any checkpoint undo log: outside the pipeline nothing
        # can roll back, so first-touch logging would only accumulate.
        world._undo = None
        world._verify_shortcuts = False
        if gc_was_enabled:
            gc.enable()


def _optimize_paused(world: World, options: OptimizeOptions,
                     profile) -> PipelineStats:
    stats = PipelineStats()
    runner = _PhaseRunner(world, options, stats)
    try:
        return _optimize_guarded(world, options, profile, stats, runner)
    except Exception as exc:
        if options.strict:
            raise
        raise PipelineCrash(exc, stats) from exc
