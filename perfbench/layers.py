"""In-process replays through each layer's public functions.

A compile is replayed as ``frontend.parser.parse`` ->
``frontend.sema.analyze`` -> ``frontend.emit.emit_module`` (plus the
cleanup ``compile_source`` runs after it) -> ``transform.pipeline.optimize``
-> ``core.printer.print_world`` -> ``backend.c_emitter.emit_c`` ->
``backend.codegen.compile_world`` -> ``disassemble``, each call one span.
This is the same sequence ``repro.serve.worker.compile_request`` runs,
so the artifacts must come out byte-identical to it; the replay checks
that.  Counts are read at the same boundaries: the ``PipelineStats``
that ``optimize`` returns and ``repro.eval.collect_world_stats``.
"""

from __future__ import annotations

import time

from repro.backend.c_emitter import emit_c
from repro.backend.codegen import compile_world
from repro.core.printer import print_world
from repro.core.world import World
from repro.eval import collect_world_stats
from repro.frontend.emit import emit_module
from repro.frontend.parser import parse
from repro.frontend.sema import analyze
from repro.transform.cleanup import cleanup
from repro.transform.pipeline import optimize

from measure import SpanRecorder, observe_json

# Pass-detail fields summed into the per-compile counts.
COUNT_FIELDS = {"specialized": "specialized", "mangled": "mangled",
                "inlined": "inlined", "dropped": "dropped",
                "rewrites": "mem_rewrites"}


def pipeline_counts(stats: dict) -> dict:
    """Deterministic counts from a ``PipelineStats.as_dict()``."""
    counts = {"rounds": stats["rounds"], "rollbacks": stats["rollbacks"],
              "analysis_hits": stats["analysis_cache"].get("hits", 0),
              "analysis_misses": stats["analysis_cache"].get("misses", 0)}
    for name in COUNT_FIELDS.values():
        counts[name] = 0
    for _phase, detail in stats["details"]:
        for field, name in COUNT_FIELDS.items():
            counts[name] += int(detail.get(field, 0))
    return counts


def rolled_back_s(stats: dict) -> float:
    """Time spent in phases that were later rolled back.

    ``timings`` sums every run of a pass kind; ``details`` carries the
    elapsed time of each phase that stuck.  The difference is the time
    of the rolled-back ones.
    """
    kept: dict[str, float] = {}
    for phase, detail in stats["details"]:
        kind = phase.split("(", 1)[0]
        kept[kind] = kept.get(kind, 0.0) + detail.get("elapsed_s", 0.0)
    wasted = 0.0
    for phase, detail in stats["details"]:
        if "rolled_back" in detail:
            kind = phase.split("(", 1)[0]
            wasted += stats["timings"].get(kind, 0.0) - kept.get(kind, 0.0)
            kept[kind] = stats["timings"].get(kind, 0.0)  # count once
    return max(0.0, wasted)


def compile_replay(source: str, recorder: SpanRecorder | None,
                   request: int) -> dict:
    """One static compile through the public functions, span per call.

    Returns the artifacts, the compiled VM image, the pipeline stats and
    the counts; the per-call spans go to *recorder*.
    """
    recorder = recorder or SpanRecorder()
    with recorder.span("serve.worker.compile", request):
        with recorder.span("frontend.parse", request):
            module = parse(source)
        with recorder.span("frontend.sema", request):
            module = analyze(module)
        with recorder.span("frontend.emit", request):
            world = World("module")
            emit_module(module, world)
        with recorder.span("frontend.cleanup", request):
            cleanup(world)
        with recorder.span("transform.optimize", request):
            stats = optimize(world).as_dict()
        with recorder.span("backend.print", request):
            ir = print_world(world)
        with recorder.span("backend.c_emit", request):
            c_source = emit_c(world)
        with recorder.span("backend.codegen", request):
            compiled = compile_world(world)
        with recorder.span("backend.disasm", request):
            bytecode = compiled.program.disassemble()
    world_stats = collect_world_stats(world)
    counts = pipeline_counts(stats)
    counts.update({
        "continuations": world_stats.continuations,
        "primops": world_stats.primops,
        "c_bytes": len(c_source.encode()),
        "bytecode_instructions": sum(len(fn.code)
                                     for fn in compiled.program.functions),
    })
    return {"artifacts": {"ir": ir, "c": c_source, "bytecode": bytecode},
            "compiled": compiled, "stats": stats, "counts": counts,
            "world": world}


def vm_run(compiled, entry: str, arg_sets) -> tuple[list[dict], int, float]:
    """Run an image at each argument list: observations, retired VM
    instructions and wall seconds."""
    vm = compiled.vm
    before = vm.executed
    observed = []
    started = time.perf_counter()
    for args in arg_sets:
        mark = len(vm.output)
        value = compiled.call(entry, *args)
        observed.append({"value": value, "trap": None,
                         "output": "".join(vm.output[mark:])})
    elapsed = time.perf_counter() - started
    return observed, vm.executed - before, elapsed


def vm_instructions(programs, recorder: SpanRecorder | None = None) -> dict:
    """``vm_instructions``: compile each suite program with the default
    static pipeline and run it on the VM at its test arguments.

    Also checks every result against the interpreter reference and
    returns the per-program counts the determinism guard compares.
    """
    total = 0
    per_program = {}
    stats = {}
    mismatches = []
    exec_s = 0.0
    for index, program in enumerate(programs):
        replay = compile_replay(program["source"], recorder, index)
        observed, executed, elapsed = vm_run(
            replay["compiled"], program["entry"], program["args"])
        exec_s += elapsed
        total += executed
        per_program[program["name"]] = {**replay["counts"],
                                        "vm_instructions": executed}
        stats[program["name"]] = replay["stats"]
        if observe_json(observed) != observe_json(program["reference"]):
            mismatches.append(program["name"])
    return {"total": total, "per_program": per_program, "stats": stats,
            "mismatches": mismatches, "exec_s": exec_s}
