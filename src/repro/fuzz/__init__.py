"""Differential fuzzing for the Thorin reproduction.

Three cooperating pieces (ISSUE 2's generative testing layer):

* :mod:`repro.fuzz.gen` — a seeded, deterministic generator of
  well-typed Impala-lite programs (scalars, tuples, buffers,
  higher-order helpers, loops, recursion, branching), with size and
  feature knobs on :class:`~repro.fuzz.gen.GenConfig`.
* :mod:`repro.fuzz.oracle` — the differential oracle: every generated
  program runs through the graph interpreter, the bytecode VM, the
  C-emitter path and the classical baselines, at every optimization
  level (none, static ``optimize()``, PGO via ``compile_profiled``),
  under pass-level IR verification; any output or ``VerifyError``
  divergence is a failure.
* :mod:`repro.fuzz.shrink` — an AST-level minimizing shrinker: a
  failing program is reduced while the failure signature is preserved,
  and the repro is written to ``tests/corpus/``.
* :mod:`repro.fuzz.inject` / :mod:`repro.fuzz.faults` — the
  fault-injection harness (ISSUE 3): :class:`FaultInjector` sabotages a
  chosen pipeline pass (raise / corrupt IR / blow up the world), and
  the fault campaign proves non-strict ``optimize()``
  recovers with output identical to the unoptimized interpreter.

``python -m repro.fuzz --seed 0 --n 500`` runs a differential
campaign, ``python -m repro.fuzz --fault-campaign`` the
fault-injection one (see :mod:`repro.fuzz.cli`).
"""

from .gen import FuzzProgram, GenConfig, generate_program
from .inject import FaultInjector, FaultPlan, InjectedFault
from .oracle import FuzzFailure, OracleConfig, run_oracle
from .shrink import shrink, shrink_failure, write_repro

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FuzzFailure",
    "FuzzProgram",
    "GenConfig",
    "InjectedFault",
    "OracleConfig",
    "generate_program",
    "run_oracle",
    "shrink",
    "shrink_failure",
    "write_repro",
]
