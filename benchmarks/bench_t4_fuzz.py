"""T4 — fuzzer throughput: differential-oracle programs per second.

The differential harness (``repro.fuzz``) is only useful if a campaign
covers enough seeds per CPU-minute, so its cost profile is tracked like
any other experiment: programs/second for the oracle with progressively
more paths enabled — interpreter-only, +VM, +pass-level verification,
and the full configuration (+PGO, +native when a C compiler is
present).
"""

from __future__ import annotations

import time

import pytest

from repro.fuzz import GenConfig, OracleConfig, generate_program, run_oracle
from repro.native import native_available

SEEDS = 20
HAVE_CC = native_available()

CONFIGS = [
    ("interp", dict(run_vm=False, run_pgo=False,
                    run_ssa=False, run_cps=False, verify_each_pass=False)),
    ("interp+vm", dict(run_pgo=False, run_ssa=False,
                       run_cps=False, verify_each_pass=False)),
    ("interp+vm+verify", dict(run_pgo=False, run_ssa=False,
                              run_cps=False)),
    ("all-paths", dict()),
]

_initialized = False


@pytest.mark.parametrize("label,overrides", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_t4_fuzz_throughput(label, overrides, report):
    table = report("T4_fuzz")
    global _initialized
    if not _initialized:
        table.columns("paths", "programs", "divergences", "seconds",
                      "programs_per_sec")
        table.note(f"{SEEDS} seeded programs per row; every 5th seed is "
                   "expression-only so the CPS/SSA baselines are "
                   "exercised in the full configuration.")
        if not HAVE_CC:
            table.note("no C compiler: the native path was skipped in "
                       "'all-paths'.")
        _initialized = True

    divergences = 0
    start = time.perf_counter()
    for seed in range(SEEDS):
        config = GenConfig(expr_only=True) if seed % 5 == 4 else GenConfig()
        prog = generate_program(seed, config)
        if run_oracle(prog, OracleConfig(**overrides)) is not None:
            divergences += 1
    elapsed = time.perf_counter() - start

    assert divergences == 0, f"{label}: the oracle found real divergences"
    table.row(label, SEEDS, divergences, elapsed, SEEDS / elapsed)
