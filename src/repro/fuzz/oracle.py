"""The differential oracle.

A generated program (:class:`~repro.fuzz.gen.FuzzProgram`) is executed
through every available path and the observations are compared:

==============  ========================================================
path            what runs
==============  ========================================================
``none``        graph interpreter on the unoptimized world (this is the
                *reference* — construction-time folding only)
``static``      interpreter **and** bytecode VM on a world optimized by
                the standard pipeline (``optimize()``)
``pgo``         interpreter and VM on a world optimized by the two-phase
                profile-guided driver (``compile_profiled``), trained on
                the program's own argument sets
``native``      the hardened native tier (:mod:`repro.native`): the C
                emitter's output for the statically optimized world,
                compiled to a ``.so`` and executed in-process via
                ctypes — result, trap *kind* and print stream all
                compared
``ssa``         the classical CFG+SSA baseline (first-order programs)
``cps``         the nested-CPS baseline (expression-only programs)
==============  ========================================================

Each observation is *(result, print output, trap kind)*; traps are
normalized to a sentinel so "both paths trap" still agrees, and when
both paths trap the *kind* (``div-by-zero`` vs ``step-limit``) must
also agree for the engines that report one.  Optimized
compiles run under ``OptimizeOptions(verify_each_pass=True)``, so an IR
invariant broken by a single pass — or a cached analysis it left stale
(:func:`~repro.core.verify.verify_analyses`) — surfaces as a
:class:`~repro.transform.pipeline.PassVerifyError` attributed to that
pass, reported as a divergence like any output mismatch.

``run_oracle`` returns ``None`` on agreement or a :class:`FuzzFailure`
describing the first divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend.codegen import CompiledWorld, compile_world
from ..backend.interp import Interpreter, InterpError
from ..backend import bytecode as bc
from ..core import fold
from ..core.limits import ResourceLimitError, trap_kind
from ..core.verify import VerifyError, cff_violations, verify
from ..frontend import compile_source
from ..transform.pipeline import OptimizeOptions, PassVerifyError
from .gen import FuzzProgram

TRAP = "<trap>"

# Fuel (block/function entries) for native runs: the in-process
# analogue of VM_MAX_STEPS — a miscompile-manufactured infinite loop
# traps as "step-limit" instead of hanging the fuzz worker.
NATIVE_FUEL = 100_000_000
# Step bound for the shared bytecode VM (static/PGO/SSA paths):
# generous enough that any honest program finishes, tight enough that a
# miscompile-manufactured infinite loop surfaces as a trap (and thus a
# divergence) instead of a hang.
VM_MAX_STEPS = 20_000_000


@dataclass(frozen=True)
class Observation:
    """What one execution of the entry point looked like.

    ``trap`` is the trap *kind* (``"div-by-zero"``, ``"step-limit"``,
    ...) when ``result`` is :data:`TRAP` and the engine can classify
    it; engines that cannot (SSA/CPS baselines) leave it ``None`` and
    are excluded from kind comparison.
    """

    result: object
    output: str = ""
    trap: str | None = None


@dataclass
class FuzzFailure:
    """One divergence found by the oracle.

    ``stage`` names the path/phase that disagreed (e.g. ``"vm(static)"``,
    ``"verify(pgo)"``, ``"native-build"``); the pair ``(stage, kind)`` is the
    *signature* the shrinker preserves while minimizing.
    """

    seed: object
    stage: str
    message: str
    args: tuple | None = None
    expected: object = None
    got: object = None
    source: str = ""

    @property
    def signature(self) -> tuple:
        return (self.stage,)

    def describe(self) -> str:
        lines = [f"[{self.stage}] {self.message}"]
        if self.args is not None:
            lines.append(f"  args     = {self.args}")
        if self.expected is not None or self.got is not None:
            lines.append(f"  expected = {self.expected}")
            lines.append(f"  got      = {self.got}")
        if self.seed is not None:
            lines.append(f"  seed     = {self.seed}")
        return "\n".join(lines)


@dataclass
class OracleConfig:
    """Which paths run and how (all on by default)."""

    run_vm: bool = True
    run_pgo: bool = True
    run_ssa: bool = True
    run_cps: bool = True
    verify_each_pass: bool = True
    # ``check_memopt`` (on by default) adds a ``memopt(static)`` stage:
    # compile a second time with ``mem_opt`` flipped off and require the
    # interpreter observations — results, traps, print streams — to be
    # byte-identical.  Any divergence is an unsound alias verdict or a
    # trap/effect dropped by forwarding/DSE.
    check_memopt: bool = True
    # The native tier: emit hardened C, build a .so with the system cc
    # (repro.native discovery: REPRO_CC, cc, gcc, clang), run it
    # in-process via ctypes and compare result + trap kind + prints.
    run_native: bool = True
    # Step bound for the graph interpreter: generated programs are
    # cost-bounded far below this, so hitting it means a transformation
    # manufactured divergence-by-nontermination — observed as a trap
    # rather than a hang.
    interp_max_steps: int = 2_000_000
    # ``record`` collects which paths actually ran (and which were
    # skipped and why) — campaign-level coverage reporting.
    record: dict = field(default_factory=dict)


def _options(config: OracleConfig, mem_opt: bool = True) -> OptimizeOptions:
    # strict: the oracle *wants* fail-fast.  The production default
    # quarantines a crashing/corrupting pass and compiles around it,
    # which would hide exactly the bugs differential fuzzing hunts.
    return OptimizeOptions(verify_each_pass=config.verify_each_pass,
                           strict=True, mem_opt=mem_opt)


def _run_interp(world, entry: str, arg_sets,
                max_steps: int = 2_000_000) -> list[Observation]:
    obs = []
    for args in arg_sets:
        interp = Interpreter(world, max_steps=max_steps)
        try:
            result = interp.call(entry, *args)
            obs.append(Observation(result, "".join(interp.output)))
        except (InterpError, fold.EvalError, ResourceLimitError) as exc:
            obs.append(Observation(TRAP, "".join(interp.output),
                                   trap=trap_kind(exc)))
    return obs


def _run_vm(compiled: CompiledWorld, entry: str, arg_sets) -> list[Observation]:
    obs = []
    for args in arg_sets:
        mark = len(compiled.vm.output)
        try:
            result = compiled.call(entry, *args)
            obs.append(Observation(result,
                                   "".join(compiled.vm.output[mark:])))
        except (bc.VMError, ResourceLimitError) as exc:
            obs.append(Observation(TRAP, "".join(compiled.vm.output[mark:]),
                                   trap=trap_kind(exc)))
    return obs


def _compare(stage: str, prog: FuzzProgram, reference: list[Observation],
             candidate: list[Observation], *,
             outputs: bool = True) -> FuzzFailure | None:
    for args, ref, got in zip(prog.arg_sets, reference, candidate):
        if ref.result != got.result:
            return FuzzFailure(prog.seed, stage, "result divergence",
                               args=args, expected=ref.result,
                               got=got.result, source=prog.render())
        if outputs and ref.output != got.output:
            return FuzzFailure(prog.seed, stage, "print-output divergence",
                               args=args, expected=ref.output,
                               got=got.output, source=prog.render())
        if (ref.result == TRAP and ref.trap is not None
                and got.trap is not None and ref.trap != got.trap):
            return FuzzFailure(prog.seed, stage, "trap-kind divergence",
                               args=args, expected=ref.trap, got=got.trap,
                               source=prog.render())
    return None


def _run_native(world, prog: FuzzProgram) -> list[Observation] | str | None:
    """Build+run the native tier; ``None`` = skipped, ``str`` = error."""
    from ..native import (NativeBuildError, NativeRunError,
                          compile_native_world, native_available)

    if not native_available():
        return None
    try:
        module = compile_native_world(world)
    except NativeBuildError as exc:
        return f"native build failed [{exc.stage}]: {exc}"
    obs = []
    for args in prog.arg_sets:
        try:
            run = module.run(prog.entry, args, fuel=NATIVE_FUEL)
        except NativeRunError as exc:
            return f"native run failed: {exc}"
        if run.trap is not None:
            obs.append(Observation(TRAP, run.output, trap=run.trap))
        else:
            obs.append(Observation(run.result, run.output))
    return obs


def run_oracle(prog: FuzzProgram,
               config: OracleConfig | None = None) -> FuzzFailure | None:
    """Differentially test *prog*; ``None`` means every path agreed."""
    config = config if config is not None else OracleConfig()
    record = config.record
    record.setdefault("paths", set())
    record.setdefault("skipped", {})
    source = prog.render()

    def ran(path):
        record["paths"].add(path)

    def skipped(path, why):
        record["skipped"][path] = why

    # --- reference: unoptimized world, graph interpreter ---------------
    try:
        world_ref = compile_source(source, optimize=False)
    except Exception as exc:
        return FuzzFailure(prog.seed, "compile(none)",
                           f"generated program failed to compile: {exc}",
                           source=source)
    try:
        verify(world_ref, full=True)
    except VerifyError as exc:
        return FuzzFailure(prog.seed, "verify(none)", str(exc), source=source)
    reference = _run_interp(world_ref, prog.entry, prog.arg_sets,
                           config.interp_max_steps)
    ran("interp(none)")

    # --- static optimization -------------------------------------------
    try:
        world_opt = compile_source(source, options=_options(config))
    except PassVerifyError as exc:
        return FuzzFailure(prog.seed, "verify(static)", str(exc),
                           source=source)
    except Exception as exc:
        return FuzzFailure(prog.seed, "compile(static)", str(exc),
                           source=source)
    failure = _compare("interp(static)", prog, reference,
                       _run_interp(world_opt, prog.entry, prog.arg_sets,
                                   config.interp_max_steps))
    if failure is not None:
        return failure
    ran("interp(static)")

    # --- memory optimization differential ------------------------------
    # ``world_opt`` above ran with mem_opt on (the default) and already
    # matched the unoptimized reference; compiling again with mem_opt
    # off and matching the same reference pins on-vs-off byte equality
    # of results, traps and print streams.
    if config.check_memopt:
        try:
            world_nomem = compile_source(
                source, options=_options(config, mem_opt=False))
        except Exception as exc:
            return FuzzFailure(prog.seed, "memopt(static)",
                               f"mem_opt-off compile failed: {exc}",
                               source=source)
        failure = _compare("memopt(static)", prog, reference,
                           _run_interp(world_nomem, prog.entry,
                                       prog.arg_sets,
                                       config.interp_max_steps))
        if failure is not None:
            return failure
        ran("memopt(static)")

    compiled_static = None
    if config.run_vm:
        residual = cff_violations(world_opt)
        if residual:
            return FuzzFailure(prog.seed, "cff(static)",
                               f"not in control-flow form: {residual[:3]}",
                               source=source)
        try:
            compiled_static = compile_world(world_opt,
                                            max_steps=VM_MAX_STEPS)
        except Exception as exc:
            return FuzzFailure(prog.seed, "codegen(static)", str(exc),
                               source=source)
        failure = _compare("vm(static)", prog, reference,
                           _run_vm(compiled_static, prog.entry,
                                   prog.arg_sets))
        if failure is not None:
            return failure
        ran("vm(static)")

    # --- native tier on the statically optimized world -----------------
    if config.run_native:
        # Only division traps are exactly reproducible in machine code:
        # the fuel budget counts block entries, not VM steps, so
        # step-limit (and other resource) traps are engine-local.
        odd = next((o.trap for o in reference
                    if o.result == TRAP and o.trap != "div-by-zero"), None)
        if odd is not None:
            skipped("native", f"reference trap kind {odd!r} is not "
                              f"reproducible natively")
        else:
            native_obs = _run_native(world_opt, prog)
            if native_obs is None:
                skipped("native", "no C compiler on PATH")
            elif isinstance(native_obs, str):
                return FuzzFailure(prog.seed, "native-build", native_obs,
                                   source=source)
            else:
                failure = _compare("native(static)", prog, reference,
                                   native_obs)
                if failure is not None:
                    return failure
                ran("native(static)")

    # --- profile-guided optimization -----------------------------------
    if config.run_pgo:
        from ..profile.driver import compile_profiled

        try:
            world_pgo = compile_source(source, optimize=False)

            def workload(compiled):
                for args in prog.arg_sets:
                    try:
                        compiled.call(prog.entry, *args)
                    except bc.VMError:
                        pass

            compiled_pgo, _profile, _stats = compile_profiled(
                world_pgo, workload, options=_options(config))
        except PassVerifyError as exc:
            return FuzzFailure(prog.seed, "verify(pgo)", str(exc),
                               source=source)
        except Exception as exc:
            return FuzzFailure(prog.seed, "compile(pgo)", str(exc),
                               source=source)
        failure = _compare("interp(pgo)", prog, reference,
                           _run_interp(world_pgo, prog.entry, prog.arg_sets,
                                       config.interp_max_steps))
        if failure is not None:
            return failure
        ran("interp(pgo)")
        failure = _compare("vm(pgo)", prog, reference,
                           _run_vm(compiled_pgo, prog.entry, prog.arg_sets))
        if failure is not None:
            return failure
        ran("vm(pgo)")

    # --- classical baselines -------------------------------------------
    if config.run_ssa and prog.first_order:
        from ..baselines.ssa import BaselineError, CompiledSSA, \
            compile_source_ssa

        try:
            module = compile_source_ssa(source)
            compiled_ssa = CompiledSSA(module, max_steps=VM_MAX_STEPS)
        except BaselineError as exc:
            skipped("ssa", f"baseline limitation: {exc}")
        except Exception as exc:
            return FuzzFailure(prog.seed, "compile(ssa)", str(exc),
                               source=source)
        else:
            obs = []
            for args in prog.arg_sets:
                try:
                    obs.append(Observation(compiled_ssa.call(prog.entry,
                                                             *args)))
                except (bc.VMError, ResourceLimitError):
                    obs.append(Observation(TRAP))
            # the SSA image shares the VM but not the print plumbing
            # used above, so compare results only
            failure = _compare("ssa", prog, reference, obs, outputs=False)
            if failure is not None:
                return failure
            ran("ssa")

    if config.run_cps and prog.expr_only:
        from ..baselines.nested_cps.convert import cps_convert_expr
        from ..baselines.nested_cps.interp import CPSRuntimeError, evaluate

        obs = []
        for args in prog.arg_sets:
            try:
                raw = evaluate(cps_convert_expr(prog.to_sexpr(args)))
                obs.append(Observation(fold.to_signed(raw, 64)))
            except (CPSRuntimeError, ResourceLimitError):
                obs.append(Observation(TRAP))
        failure = _compare("cps", prog, reference, obs, outputs=False)
        if failure is not None:
            return failure
        ran("cps")

    return None
