"""N1 — native execution tier: machine code vs. VM vs. interpreter.

Two measurements:

1. **Engine comparison** — every suite program compiled three ways from
   the same statically optimized world: graph interpreter, bytecode VM
   and the native ``.so`` (``repro.native``), timed on the program's
   bench arguments.  The interpreter is timed on the (smaller) *test*
   arguments — it is orders of magnitude slower and the point is scale,
   not precision — and normalized per-program only where the workloads
   coincide.  The summary row asserts the acceptance criterion: native
   over VM geomean speedup >= 5x.

2. **Serve promotion latency** — a real daemon with tight hotness
   thresholds; measures the wall-clock from first request until the
   reply reports ``tier == "native"`` with a cold object store versus a
   second daemon sharing the same store (the ``.so`` is a content hit:
   no cc run, only dlopen), plus the steady-state native request
   latency.

Everything skips when the host has no C compiler.
"""

from __future__ import annotations

import math
import time

import pytest

from repro import compile_source
from repro.backend.codegen import compile_world
from repro.backend.interp import Interpreter
from repro.native import compile_native_world, find_cc
from repro.programs.suite import ALL_PROGRAMS
from repro.serve.smoke import boot

pytestmark = pytest.mark.skipif(find_cc() is None,
                                reason="no C compiler on PATH")

_rows: dict[str, dict] = {}
_initialized = False

SERVE_SRC = ("fn fib(n: i64) -> i64 { if n < 2 { n } "
             "else { fib(n - 1) + fib(n - 2) } }\n"
             "fn main(n: i64) -> i64 { fib(n) }")


def _time(thunk, repeat: int = 3) -> float:
    best = math.inf
    for _ in range(repeat):
        started = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_n1_engines(program, report):
    table = report("N1_native")
    global _initialized
    if not _initialized:
        table.columns("program", "interp_ms (test args)", "vm_ms",
                      "native_ms", "native/vm speedup")
        table.note("vm and native timed on bench args (best of 3); the "
                   "interpreter on the smaller test args — it is the "
                   "reference semantics, not a contender")
        _initialized = True

    world = compile_source(program.source)
    compiled = compile_world(world)
    module = compile_native_world(world)

    interp_s = _time(lambda: Interpreter(world).call(program.entry,
                                                     *program.test_args),
                     repeat=1)
    vm_s = _time(lambda: compiled.call(program.entry, *program.bench_args))
    native_s = _time(lambda: module.run(program.entry,
                                        list(program.bench_args)))

    # the .so must agree with the VM on the bench workload too
    want = compiled.call(program.entry, *program.bench_args)
    got = module.run(program.entry, list(program.bench_args))
    assert got.trap is None
    if isinstance(want, float) and isinstance(got.result, float):
        assert (want == got.result
                or (math.isnan(want) and math.isnan(got.result)))
    else:
        assert got.result == want

    speedup = vm_s / native_s if native_s else math.inf
    table.row(program.name, interp_s * 1e3, vm_s * 1e3, native_s * 1e3,
              speedup)
    _rows[program.name] = {"vm": vm_s, "native": native_s}


def test_n1_summary(report):
    assert _rows, "engine rows must run first"
    table = report("N1_native")
    speedups = [row["vm"] / row["native"] for row in _rows.values()]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    table.row("geomean", "", "", "", geomean)
    table.note(f"acceptance: native/vm geomean >= 5x (measured "
               f"{geomean:.1f}x over {len(speedups)} programs)")
    assert geomean >= 5.0, f"native tier too slow: geomean {geomean:.2f}x"


# ---------------------------------------------------------------------------
# serve promotion: cold compile vs. warm .so store
# ---------------------------------------------------------------------------


def _promote(client) -> tuple[float, float]:
    """(seconds the background native compile took, native request ms).

    The timer runs from the request that trips the hotness threshold
    (promotion launches before that request executes) until ``stats``
    reports the key ready — i.e. the background pipeline + cc run on a
    cold store, or pipeline + content hit on a warm one.
    """
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        started = time.perf_counter()  # promotion triggers pre-execution
        # tiny argument: hotness is per *program* (args excluded from
        # the key), so cheap requests promote without polluting the
        # window with their own execution time
        reply = client.run(SERVE_SRC, [[5]])
        assert reply["ok"], reply
        if reply["native_state"] in ("pending", "ready"):
            break
    else:
        raise AssertionError("daemon never started the promotion")
    while time.monotonic() < deadline:
        states = client.stats()["tiering"]["native_states"]
        assert not states["quarantined"], "native compile failed"
        if states["ready"]:
            compile_s = time.perf_counter() - started
            reply = client.run(SERVE_SRC, [[22]])
            assert reply["tier"] == "native", reply
            native_ms = _time(lambda: client.run(SERVE_SRC, [[22]])) * 1e3
            return compile_s, native_ms
        time.sleep(0.005)
    raise AssertionError("daemon never promoted the program to native")


def test_n1_serve_promotion(tmp_path_factory, report):
    table = report("N1_native")
    tmp = tmp_path_factory.mktemp("bench-native-serve")

    args = ["--native-dir", str(tmp / "native"),  # shared by both daemons
            "--hot-requests", "2"]
    with boot(tmp / "cold", extra_args=args) as service, \
            service.client(timeout=180.0) as client:
        cold_s, native_ms = _promote(client)
        stats = client.stats()["tiering"]
        assert stats["native_compiles"] == 1
        assert stats["native_cache_hits"] == 0

    # Second daemon, same object store: promotion is a content hit.
    with boot(tmp / "warm", extra_args=args) as service, \
            service.client(timeout=180.0) as client:
        warm_s, _ = _promote(client)
        stats = client.stats()["tiering"]
        assert stats["native_cache_hits"] == 1

    table.row("serve cold promote", "", "", cold_s * 1e3, "cc run")
    table.row("serve warm promote", "", "", warm_s * 1e3, ".so store hit")
    table.note(f"background promotion latency: cold (cc run) "
               f"{cold_s * 1e3:.0f}ms vs warm (.so store hit) "
               f"{warm_s * 1e3:.0f}ms; steady-state native request "
               f"{native_ms:.2f}ms")
