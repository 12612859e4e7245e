"""Campaign driver: ``python -m repro.fuzz --seed 0 --n 500``.

Generates ``n`` programs from consecutive seeds, runs each through the
differential oracle (every execution path at every opt level), and
reports throughput plus any divergence.  A failing program is shrunk to
a minimal repro and persisted under ``tests/corpus/`` before the
campaign continues; the exit code is the number of divergent seeds
(0 = clean campaign).

Every ``--expr-only-every``-th seed uses the restricted expression-only
generator so the nested-CPS baseline is exercised too.

``--jobs N`` fans the campaign out over N worker processes (fork-based,
one seed per task).  Seeds are independent, so the set of divergences is
identical to a sequential run; results are consumed in seed order, so
the report is deterministic too.  Shrinking and repro-writing happen in
the worker that found the divergence.

Optimized compiles run with ``verify_each_pass`` (``--no-verify`` turns
it off), which also audits every cached analysis against a from-scratch
recomputation after each phase (``verify_analyses``).

``--mem-heavy`` switches generation to the memory-heavy profile
(buffers always present, stores and loads weighted up, aliasing index
pairs, stores on branch arms, loads in loops).  The ``memopt(static)``
stage — recompile with ``mem_opt`` off, require byte-identical
observations — runs by default; ``--no-memopt`` is the escape hatch.

``--case-timeout S`` bounds the wall-clock a single seed may take
(generation + all oracle paths); a timed-out seed is recorded and
reported in the summary but does not count as a divergence.

``--fault-campaign`` switches to the fault-injection campaign
(:mod:`repro.fuzz.faults`): the systematic fault-mode x pass matrix
over the evaluation suite, plus ``--fault-seeds`` randomly sabotaged
fuzz programs.  ``--jobs`` applies here as well — the random sabotage
plan is drawn sequentially in the parent, so the cases are the same
however they are distributed.  Exit code is the number of cases where
the pipeline failed to recover or the recovered program diverged.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..core.limits import DeadlineExceeded, deadline
from ..core.pool import map_cases as _map_cases
from .gen import GenConfig, generate_program
from .oracle import OracleConfig, run_oracle
from .shrink import shrink_failure, write_repro


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzing campaign over every backend "
                    "and optimization level")
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--n", type=int, default=100,
                        help="number of programs (default 100)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1: in-process)")
    parser.add_argument("--expr-only-every", type=int, default=5,
                        metavar="K",
                        help="every K-th seed uses the expression-only "
                             "generator (0 disables; default 5)")
    parser.add_argument("--no-native", action="store_true",
                        help="skip the native execution tier "
                             "(emit C, build a .so, run via ctypes)")
    parser.add_argument("--no-pgo", action="store_true",
                        help="skip the profile-guided path")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip pass-level IR verification (and the "
                             "analysis audit it runs)")
    parser.add_argument("--no-memopt", action="store_true",
                        help="skip the memopt(static) differential "
                             "stage (recompile with mem_opt off and "
                             "require identical observations)")
    parser.add_argument("--mem-heavy", action="store_true",
                        help="use the memory-heavy generator profile "
                             "(more buffers, stores, aliasing index "
                             "pairs, loads in loops)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    parser.add_argument("--corpus", default="tests/corpus",
                        help="where to write shrunk repros")
    parser.add_argument("--stop-after", type=int, default=5,
                        metavar="N",
                        help="abort the campaign after N divergent "
                             "seeds (default 5)")
    parser.add_argument("--case-timeout", type=float, default=None,
                        metavar="S",
                        help="wall-clock budget per seed in seconds "
                             "(default: none); timed-out seeds are "
                             "reported, not counted as divergences")
    parser.add_argument("--fault-campaign", action="store_true",
                        help="run the fault-injection campaign instead "
                             "of the differential one")
    parser.add_argument("--fault-seeds", type=int, default=50,
                        metavar="N",
                        help="random sabotaged fuzz programs in the "
                             "fault campaign (default 50)")
    parser.add_argument("--fault-programs", type=int, default=None,
                        metavar="N",
                        help="limit the fault matrix to the first N "
                             "suite programs (default: all)")
    return parser.parse_args(argv)


# --- fault campaign ---------------------------------------------------------

def _matrix_case(case):
    from ..programs.suite import by_name
    from .faults import run_fault_case

    name, target, mode = case
    return run_fault_case(by_name(name), target, mode)


def _random_case(case):
    from .faults import run_random_fault_case

    return run_random_fault_case(*case)


def _fault_campaign(args) -> int:
    from ..programs.suite import ALL_PROGRAMS
    from .faults import ALL_PASSES, random_fault_plan, summarize
    from .inject import FAULT_MODES

    programs = ALL_PROGRAMS
    if args.fault_programs is not None:
        programs = programs[:args.fault_programs]

    matrix_cases = [(program.name, target, mode)
                    for program in programs
                    for target in ALL_PASSES
                    for mode in FAULT_MODES]

    started = time.perf_counter()
    results = []
    for result in _map_cases(_matrix_case, matrix_cases, args.jobs):
        results.append(result)
        if not result.ok:
            print(result.describe(), file=sys.stderr)
    matrix_elapsed = time.perf_counter() - started
    print(f"matrix: {summarize(results)} over {len(programs)} programs "
          f"in {matrix_elapsed:.1f}s")

    if args.fault_seeds:
        started = time.perf_counter()
        plan = random_fault_plan(args.fault_seeds, args.seed)
        random_results = []
        for result in _map_cases(_random_case, plan, args.jobs):
            random_results.append(result)
            if not result.ok:
                print(result.describe(), file=sys.stderr)
        print(f"random: {summarize(random_results)} "
              f"in {time.perf_counter() - started:.1f}s")
        results += random_results

    failures = [r for r in results if not r.ok]
    return len(failures)


# --- differential campaign --------------------------------------------------

def _campaign_case(item):
    """One seed of the differential campaign; runs in a worker process.

    Returns a small picklable summary dict — the parent merges records
    and does all the printing so output is ordered even under ``--jobs``.
    """
    seed, expr_only, args = item
    config = OracleConfig(run_native=not args.no_native,
                          run_pgo=not args.no_pgo,
                          verify_each_pass=not args.no_verify,
                          check_memopt=not args.no_memopt,
                          record={})
    result = {"seed": seed, "status": "ok", "record": config.record}
    mem_heavy = getattr(args, "mem_heavy", False)
    try:
        with deadline(args.case_timeout, what=f"seed {seed}"):
            prog = generate_program(
                seed,
                GenConfig(expr_only=True) if expr_only
                else GenConfig(mem_heavy=True) if mem_heavy
                else None)
            failure = run_oracle(prog, config)
    except DeadlineExceeded:
        result["status"] = "timeout"
        return result
    if failure is not None:
        result["status"] = "divergence"
        result["description"] = failure.describe()
        if not args.no_shrink:
            try:
                with deadline(args.case_timeout and
                              args.case_timeout * 10,
                              what=f"shrinking seed {seed}"):
                    small = shrink_failure(prog, failure, config)
            except DeadlineExceeded:
                small = prog
            path = write_repro(small, failure, args.corpus)
            result["shrunk_lines"] = len(small.render().splitlines())
            result["repro"] = str(path)
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.fault_campaign:
        return _fault_campaign(args)

    record: dict = {"paths": set(), "skipped": {}}
    failures = 0
    timed_out: list[int] = []
    checked = 0
    started = time.perf_counter()

    def cases():
        for index in range(args.n):
            expr_only = bool(args.expr_only_every
                             and index % args.expr_only_every
                             == args.expr_only_every - 1)
            yield (args.seed + index, expr_only, args)

    results = _map_cases(_campaign_case, cases(), args.jobs)
    for result in results:
        checked += 1
        case_record = result.get("record") or {}
        record["paths"] |= case_record.get("paths", set())
        record["skipped"].update(case_record.get("skipped", {}))
        if result["status"] == "timeout":
            timed_out.append(result["seed"])
            print(f"seed {result['seed']}: timed out after "
                  f"{args.case_timeout}s", file=sys.stderr)
        elif result["status"] == "divergence":
            failures += 1
            print(f"seed {result['seed']}: DIVERGENCE", file=sys.stderr)
            print(result["description"], file=sys.stderr)
            if "repro" in result:
                print(f"  shrunk to {result['shrunk_lines']} "
                      f"lines -> {result['repro']}", file=sys.stderr)
            if failures >= args.stop_after:
                print(f"stopping after {failures} divergent seeds",
                      file=sys.stderr)
                break
        if checked % 50 == 0:
            elapsed = time.perf_counter() - started
            print(f"  ... {checked}/{args.n} programs, "
                  f"{checked / elapsed:.1f} programs/sec")
    if hasattr(results, "close"):
        results.close()

    elapsed = time.perf_counter() - started
    paths = ", ".join(sorted(record["paths"]))
    print(f"{checked} programs in {elapsed:.1f}s "
          f"({checked / elapsed:.1f} programs/sec), "
          f"{failures} divergence(s), {len(timed_out)} timeout(s)")
    print(f"paths exercised: {paths}")
    if timed_out:
        print(f"timed-out seeds: {', '.join(map(str, timed_out))}")
    for path, why in sorted(record["skipped"].items()):
        print(f"  skipped {path}: {why}")
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
