"""Regenerate ``perfbench/catalogue.json``, the benchmark's frozen inputs.

    PYTHONPATH=src python3 perfbench/make_catalogue.py

The catalogue holds the source of every program the workloads draw
from, so a later change to the suite or to the fuzz generator cannot
silently change what the benchmark measures.  Three families:

* ``suite`` - the 14 evaluation programs at their test arguments, plus
  small ``warm_args`` that drive each one up the run tiers cheaply;
* ``chain`` - the F3 compile-time family (N functions in a call chain,
  each with a loop); its compile time grows superlinearly with N;
* ``fuzz``  - ``repro.fuzz.gen`` programs for generator seeds
  ``0..FUZZ_PROGRAMS-1`` (default config, total by construction).

Each entry carries its reference observations: the graph interpreter
on the unoptimised program, at every argument list.  The reference is
the interpreter, never an engine under test, and it is computed here,
once, because at test arguments it takes seconds per program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from bench_f3_compile_time import generate_program as chain_source  # noqa: E402

from repro import compile_source  # noqa: E402
from repro.backend.interp import Interpreter  # noqa: E402
from repro.fuzz.gen import generate_program  # noqa: E402
from repro.programs.suite import ALL_PROGRAMS  # noqa: E402

CHAIN_SIZES = (2, 4, 8, 16, 32)
CHAIN_ARG = 7
FUZZ_PROGRAMS = 60

# Arguments for the run tiers' warm-up requests: small enough that two
# interpreter-tier requests per program stay cheap.  The run key
# excludes arguments, so they warm the same key the test arguments use.
WARM_ARGS = {
    "fannkuch": (3,), "nbody": (1,), "spectral_norm": (2,),
    "mandelbrot": (2,), "nqueens": (4,), "ackermann": (1, 1),
    "sieve": (10,), "quicksort": (5,), "matmul": (2,), "pow": (2,),
    "dot_generic": (4,), "filter_image": (4,), "sort_hof": (5,),
    "compose": (5,),
}


def reference(source: str, entry: str, arg_sets) -> list[dict]:
    world = compile_source(source, optimize=False)
    out = []
    for args in arg_sets:
        interp = Interpreter(world)
        value = interp.call(entry, *args)
        out.append({"value": value, "trap": None,
                    "output": "".join(interp.output)})
    return out


def entry(name, family, source, entry_name, arg_sets, **extra) -> dict:
    arg_sets = [list(args) for args in arg_sets]
    return {"name": name, "family": family, "source": source,
            "entry": entry_name, "args": arg_sets, **extra,
            "reference": reference(source, entry_name, arg_sets)}


def build() -> dict:
    programs = []
    for program in ALL_PROGRAMS:
        programs.append(entry(
            program.name, "suite", program.source, program.entry,
            [program.test_args],
            warm_args=list(WARM_ARGS[program.name])))
    for size in CHAIN_SIZES:
        programs.append(entry(f"chain-{size}", "chain", chain_source(size),
                              "main", [(CHAIN_ARG,)]))
    for seed in range(FUZZ_PROGRAMS):
        fuzz = generate_program(seed)
        programs.append(entry(f"fuzz-{seed}", "fuzz", fuzz.render(),
                              fuzz.entry, fuzz.arg_sets))
    return {"format": 1, "programs": programs}


if __name__ == "__main__":
    target = Path(__file__).resolve().parent / "catalogue.json"
    target.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
