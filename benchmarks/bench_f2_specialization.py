"""F2 — speedup from partial-evaluation-driven specialization.

Each PE workload is compiled twice: with its ``@`` markers (the online
partial evaluator specializes the marked calls) and with the markers
stripped from the source (the call stays dynamic; closure elimination
alone makes it compilable).  Both run on the shared VM; we report the
retired-instruction ratio.  Expected shape (paper): integer-factor
speedups on specialization-friendly kernels.
"""

from __future__ import annotations

import pytest

from repro import compile_source
from repro.backend import bytecode as bc
from repro.backend.codegen import compile_world
from repro.core import fold
from repro.core import types as ct
from repro.programs import by_tag

PE_PROGRAMS = [p for p in by_tag("pe")]

_initialized = False


def _strip_markers(source: str) -> str:
    return source.replace("@", "").replace("$", "")


def _instructions(compiled, entry, args) -> int:
    param_types, _ = compiled.fn_types[entry]
    vm_args = [fold.canonicalize(t.kind, a) if isinstance(t, ct.PrimType) else a
               for a, t in zip(args, param_types)]
    vm = bc.VM(compiled.program)
    vm.call(compiled.program, entry, *vm_args)
    return vm.executed


@pytest.mark.parametrize("program", PE_PROGRAMS, ids=lambda p: p.name)
def test_f2_specialization(program, report, benchmark):
    table = report("F2_specialization")
    global _initialized
    if not _initialized:
        table.columns("program", "instrs_dynamic", "instrs_specialized",
                      "speedup", "results_agree")
        table.note(
            "instrs = retired VM instructions on bench-sized inputs; "
            "speedup = dynamic/specialized.  Expected: > 1 everywhere, "
            "large on pow-style kernels."
        )
        _initialized = True

    specialized = compile_world(compile_source(program.source))
    dynamic = compile_world(compile_source(_strip_markers(program.source)))

    args = program.bench_args
    spec_instrs = _instructions(specialized, program.entry, args)
    dyn_instrs = _instructions(dynamic, program.entry, args)
    r_spec = specialized.call(program.entry, *args)
    r_dyn = dynamic.call(program.entry, *args)

    benchmark.pedantic(specialized.call, args=(program.entry, *args),
                       rounds=3, iterations=1)
    benchmark.extra_info["speedup"] = dyn_instrs / max(spec_instrs, 1)

    agree = r_spec == r_dyn
    table.row(program.name, dyn_instrs, spec_instrs,
              dyn_instrs / max(spec_instrs, 1), agree)
    assert agree, f"{program.name}: specialization changed the result"
    assert spec_instrs <= dyn_instrs, (
        f"{program.name}: specialization made the program slower"
    )
    if program.name == "pow":
        # The paper's own example: @pow(x, 13) unrolls to straight-line
        # multiplies, an order of magnitude fewer instructions.
        assert dyn_instrs >= 10 * spec_instrs, (
            f"pow: speedup {dyn_instrs / max(spec_instrs, 1):.2f}x < 10x"
        )
