"""Native tier tests: hardened C emission, the cc driver, the loader,
and the serve daemon's interp -> vm -> native promotion.

Everything here needs a system C compiler; the whole module skips when
none is on PATH (CI runs it in the ``native-smoke`` job).  The central
claim under test is *byte-identity*: for every suite program and every
committed trap repro, the ``.so`` must produce the same result, the
same trap kind and the same print stream as the bytecode VM.
"""

from __future__ import annotations

import asyncio
import math
import os
import threading
from pathlib import Path

import pytest

from repro import compile_source
from repro.backend import bytecode as bc
from repro.backend.codegen import compile_world
from repro.core.limits import ResourceLimitError, trap_kind
from repro.native import (NativeBuildError, NativeStore, compile_native_world,
                          emit_native_c, find_cc)
from repro.native.tiering import (HOT_STEPS, INTERP_RUNS, TieringManager,
                                  TieringPolicy)
from repro.programs.suite import ALL_PROGRAMS
from repro.serve.client import ServeClient
from repro.serve.server import CompileServer, ServerConfig

from .helpers import corpus_repros

pytestmark = pytest.mark.skipif(find_cc() is None,
                                reason="no C compiler on PATH")


def _vm_observe(compiled, entry, args):
    """One VM execution as the ``(value, trap, output)`` triple."""
    mark = len(compiled.vm.output)
    try:
        value = compiled.call(entry, *args)
        return value, None, "".join(compiled.vm.output[mark:])
    except (bc.VMError, ResourceLimitError) as exc:
        return None, trap_kind(exc), "".join(compiled.vm.output[mark:])


def _values_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


# ---------------------------------------------------------------------------
# byte-identity with the VM: the suite and the committed trap repros
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_suite_native_matches_vm(program):
    world = compile_source(program.source)
    compiled = compile_world(world)
    module = compile_native_world(world)
    want = _vm_observe(compiled, program.entry, program.test_args)
    run = module.run(program.entry, list(program.test_args))
    assert _values_equal(run.result, want[0]), (run.result, want[0])
    assert run.trap == want[1]
    assert run.output == want[2]
    if want[1] is None and program.test_expect is not None:
        assert _values_equal(run.result, program.test_expect)


@pytest.mark.parametrize("source,entry,arg_sets", corpus_repros())
def test_corpus_native_matches_vm(source, entry, arg_sets):
    # Every committed trap repro was a divergence about *where* a
    # division trap fires; the native tier must agree with the VM on
    # all of them, byte for byte.
    world = compile_source(source)
    compiled = compile_world(world)
    module = compile_native_world(world)
    for args in arg_sets:
        want = _vm_observe(compiled, entry, args)
        run = module.run(entry, args)
        assert _values_equal(run.result, want[0]), (args, run, want)
        assert run.trap == want[1], (args, run, want)
        assert run.output == want[2], (args, run, want)


# ---------------------------------------------------------------------------
# trap channel, fuel, print capture
# ---------------------------------------------------------------------------


def test_native_div_trap_with_partial_output():
    src = ("fn main(a: i64) -> i64 { "
           "print_i64(a); print_char(10); 100 / (a - a) }")
    module = compile_native_world(compile_source(src))
    run = module.run("main", [5])
    assert run.result is None
    assert run.trap == "div-by-zero"
    assert run.output == "5\n"  # prints before the trap are kept


def test_native_fuel_trap():
    src = ("fn spin(i: i64) -> i64 { spin(i + 1) }\n"
           "fn main(a: i64) -> i64 { spin(a) }")
    module = compile_native_world(compile_source(src, optimize=False))
    run = module.run("main", [0], fuel=10_000)
    assert run.result is None
    assert run.trap == "step-limit"
    # an explicit fuel of 0 traps on the first entry — it must never be
    # mistaken for "use the default budget"
    zero = module.run("main", [0], fuel=0)
    assert zero.result is None and zero.trap == "step-limit"
    # fuel resets per call: the same module answers honest fuel next.
    src2 = "fn main(a: i64) -> i64 { a + 1 }"
    module2 = compile_native_world(compile_source(src2))
    assert module2.run("main", [1], fuel=10_000).result == 2


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc")
def test_native_run_heap_is_released_by_the_next_run():
    """A module called many times holds one run's heap, not all of
    them: every run allocates and fills 256 KB, half of them trap after
    allocating, and the process grows by far less than the 100 MB the
    runs allocate in all.  A count no allocation can satisfy traps
    ``oom`` instead of running on with a null buffer."""
    src = ("fn main(n: i64, d: i64) -> i64 {\n"
           "    let buf = new_buf_i64(n);\n"
           "    for i in 0..n { buf[i] = i; }\n"
           "    buf[n - 1] / d - n + 8\n"
           "}")
    module = compile_native_world(compile_source(src))
    assert module.run("main", [4, 1]).result == 7
    before = _rss_mb()
    for index in range(400):
        run = module.run("main", [32768, index % 2])
        assert (run.result, run.trap) == ((None, "div-by-zero") if
                                          index % 2 == 0 else (7, None))
    grown = _rss_mb() - before
    assert grown < 16, f"RSS grew {grown:.1f} MB over 400 runs"
    assert module.run("main", [1 << 61, 1]).trap == "oom"


def test_native_float_prints_match_python_repr():
    # CPython's repr(float) (shortest round-trip) is the print format
    # the interpreter and VM use; the C runtime reproduces it exactly.
    src = ("fn main(a: f64) -> f64 {\n"
           "    print_f64(0.1 + 0.2);   print_char(10);\n"
           "    print_f64(1.0 / 100000.0); print_char(10);\n"
           "    print_f64(7.0 / 3.0);   print_char(10);\n"
           "    print_f64(a / a);       print_char(10);\n"
           "    a\n"
           "}")
    module = compile_native_world(compile_source(src))
    run = module.run("main", [0.0])
    want = "\n".join([repr(0.1 + 0.2), repr(1.0 / 100000.0),
                      repr(7.0 / 3.0), repr(float("nan"))]) + "\n"
    assert run.output == want
    assert run.result == 0.0


def test_native_negative_float_to_int_casts_match_vm():
    # Regression: repro_cast_f2i used to wrap negative values by adding
    # 2^64 in *double* arithmetic, which rounds to a multiple of 4096
    # (the ulp at 2^64): -1.0 became INT64_MIN, -3000.5 became -2048.
    # The wrap must happen in integer arithmetic, where it is exact.
    cases = [-1.0, -3000.5, -0.75, -4095.0, -4097.25, -2.0 ** 52 - 1.0,
             -9.1e18, -1.9e19, 3000.5, 9.3e18, float("nan")]
    for ty in ("i64", "u64", "i32", "u32", "i8"):
        src = f"fn main(a: f64) -> {ty} {{ a as {ty} }}"
        world = compile_source(src)
        compiled = compile_world(world)
        module = compile_native_world(world)
        for x in cases:
            want = _vm_observe(compiled, "main", [x])
            run = module.run("main", [x])
            assert _values_equal(run.result, want[0]), (ty, x, run, want)
            assert run.trap == want[1], (ty, x, run, want)
    # pin the exact fold.cast semantics for the worst offenders
    mod64 = compile_native_world(
        compile_source("fn main(a: f64) -> i64 { a as i64 }"))
    assert mod64.run("main", [-1.0]).result == -1
    assert mod64.run("main", [-3000.5]).result == -3000


def test_native_aggregate_constant_hardened_literals():
    # Words of a constant aggregate image go through the same hardened
    # literal hooks as scalar constants: an INT64_MIN word must not be
    # rendered as -9223372036854775808 (which C parses as negating a
    # too-big constant) and a non-finite float word must not be
    # rendered as 'inf' — both used to make the native build fail.
    src = ("fn pick(t: (i64, i64), i: i64) -> i64 "
           "{ if i == 0 { t.0 } else { t.1 } }\n"
           "fn main(i: i64) -> i64 "
           "{ pick((-9223372036854775807 - 1, 7), i) }")
    world = compile_source(src, optimize=False)
    c_source, _meta = emit_native_c(world)
    assert "(-9223372036854775807ll - 1)" in c_source
    module = compile_native_world(world)
    compiled = compile_world(compile_source(src, optimize=False))
    for i in (0, 1):
        assert module.run("main", [i]).result == compiled.call("main", i)
    # inf in a float word: must emit compilable C (the flat int64-word
    # model is numerically lossy for floats, so only compilation and a
    # clean run are asserted here)
    finf = ("fn pick(t: (f64, f64), i: i64) -> f64 "
            "{ if i == 0 { t.0 } else { t.1 } }\n"
            "fn main(i: i64) -> f64 { pick((1.0 / 0.0, 7.5), i) }")
    winf = compile_source(finf, optimize=False)
    c_inf, _ = emit_native_c(winf)
    assert "(1.0/0.0)" in c_inf
    assert compile_native_world(winf).run("main", [0]).trap is None


def test_native_float_and_bool_results():
    # unoptimized: the called helper survives as its own entry point
    src = ("fn half(a: f64) -> f64 { a / 2.0 }\n"
           "fn main(a: f64) -> f64 { half(a) + half(a) }")
    module = compile_native_world(compile_source(src, optimize=False))
    assert module.run("half", [7.0]).result == 3.5
    assert module.run("main", [7.0]).result == 7.0
    boolmod = compile_native_world(
        compile_source("fn main(a: i64) -> bool { a > 10 }"))
    assert boolmod.run("main", [11]).result is True
    assert boolmod.run("main", [3]).result is False


# ---------------------------------------------------------------------------
# driver + store
# ---------------------------------------------------------------------------


def test_store_content_addressing(tmp_path):
    world = compile_source("fn main(a: i64) -> i64 { a * 3 }")
    c_source, _meta = emit_native_c(world)
    store = NativeStore(tmp_path / "native")
    path1, key1, cached1 = store.get_or_build(c_source)
    path2, key2, cached2 = store.get_or_build(c_source)
    assert not cached1 and cached2      # second build is a store hit
    assert path1 == path2 and key1 == key2
    assert path1.exists()
    assert path1.parent.name == key1[:2]  # git-style fan-out
    # a different translation unit gets a different address
    other, _ = emit_native_c(compile_source("fn main(a: i64) -> i64 { a }"))
    _, key3, _ = store.get_or_build(other)
    assert key3 != key1


def test_build_error_diagnostics(tmp_path, monkeypatch):
    from repro.native.driver import compile_shared

    with pytest.raises(NativeBuildError) as info:
        compile_shared("this is not C\n", tmp_path / "bad.so")
    err = info.value
    assert err.stage == "compile"
    assert err.returncode != 0
    assert err.stderr  # the compiler's message is preserved
    payload = err.as_dict()
    assert payload["stage"] == "compile" and payload["command"]
    # no compiler at all -> structured "no-cc", not a stack trace
    monkeypatch.setenv("REPRO_CC", str(tmp_path / "missing-cc"))
    assert find_cc() is None
    with pytest.raises(NativeBuildError) as info:
        compile_shared("int x;\n", tmp_path / "none.so")
    assert info.value.stage == "no-cc"


def test_entry_meta_survives_name_collisions():
    # A program named like a libm symbol must not collide with the
    # runtime preamble's #includes: emitted symbols carry the rp_
    # prefix and entry_meta maps public names to wrapper symbols.
    src = ("fn pow(a: i64, b: i64) -> i64 { a * b }\n"
           "fn main(a: i64) -> i64 { pow(a, 3) }")
    # unoptimized keeps pow as a function; its declaration must not
    # clash with math.h's pow
    world = compile_source(src, optimize=False)
    c_source, meta = emit_native_c(world)
    assert "repro_run_pow" in c_source
    module = compile_native_world(world)
    assert module.run("pow", [6, 7]).result == 42
    assert module.run("main", [5]).result == 15


# ---------------------------------------------------------------------------
# tiering policy (pure state machine, no server)
# ---------------------------------------------------------------------------


def test_tiering_state_machine():
    manager = TieringManager(TieringPolicy(hot_requests=INTERP_RUNS + 1))
    for _ in range(INTERP_RUNS):
        assert manager.decide("k").tier == "interp"
    first_vm = manager.decide("k")
    assert first_vm.tier == "vm" and first_vm.promote  # hot: compile launched
    assert not manager.decide("k").promote       # only one in flight
    manager.native_ready("k", "/tmp/x.so", {"main": {}}, cached=False)
    ready = manager.decide("k")
    assert ready.tier == "native" and ready.so_path == "/tmp/x.so"
    manager.fallback("k", "segfault in .so")
    assert manager.decide("k").tier == "vm"      # quarantined, stays vm
    assert not manager.decide("k").promote       # never retried
    snap = manager.snapshot()
    assert snap["native_fallbacks"] == 1
    assert snap["native_states"]["quarantined"] == 1


def test_tiering_step_hotness():
    manager = TieringManager(TieringPolicy(hot_requests=999))
    assert not manager.decide("k").promote
    manager.note_steps("k", HOT_STEPS)           # one expensive VM run
    assert manager.decide("k").promote


def test_tiering_profile_accumulation():
    manager = TieringManager(TieringPolicy())
    assert manager.profile_of("k") is None
    snapshot = {"version": 1, "entries": {"fact": 3}, "call_sites": [],
                "loops": [], "edges": [], "meta": {}}
    manager.note_profile("k", snapshot)
    manager.note_profile("k", snapshot)          # merged, counts summed
    manager.note_profile("k", None)              # no profile: a no-op
    manager.note_profile("k", {})
    assert manager.profile_of("k")["entries"]["fact"] == 6
    assert manager.profile_of("other") is None
    assert manager.snapshot()["profiles_noted"] == 2


def test_vm_tier_profile_feeds_pgo_native_compile(tmp_path):
    """The worker-level PGO loop: a VM-tier run ships its profile, and
    a native compile handed that profile runs a profile-guided round —
    with byte-identical observable behaviour to the static build."""
    from repro.native import DEFAULT_FUEL, NativeModule
    from repro.serve.worker import _run_vm_tier, native_compile_request

    request = {"key": "pgo-flow-test", "source": SRC_HOT, "entry": "main",
               "args": [[6], [10]], "options": None}
    result = _run_vm_tier(request)
    assert result["steps"] > 0
    profile = result["profile"]
    assert profile["entries"], "VM tier returned an empty profile"

    pgo = native_compile_request(
        {"source": SRC_HOT, "options": None,
         "native_dir": str(tmp_path / "store"), "profile": profile})
    static = native_compile_request(
        {"source": SRC_HOT, "options": None,
         "native_dir": str(tmp_path / "store")})
    assert pgo["pgo"] and not static["pgo"]
    for built in (pgo, static):
        assert Path(built["so"]).exists()
        module = NativeModule(built["so"], built["entry_meta"])
        run = module.run("main", [6], fuel=DEFAULT_FUEL)
        assert (run.result, run.trap, run.output) == (722, None, "720")


# ---------------------------------------------------------------------------
# the serve daemon: watch a program climb the tiers
# ---------------------------------------------------------------------------

SRC_HOT = ("fn fact(n: i64) -> i64 { if n <= 1 { 1 } "
           "else { n * fact(n - 1) } }\n"
           "fn main(n: i64) -> i64 { print_i64(fact(n)); fact(n) + 2 }")


class _ServerThread:
    def __init__(self, config: ServerConfig):
        self.loop = asyncio.new_event_loop()
        self.server = CompileServer(config)
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(timeout=30.0), "server failed to start"
        self.port = self.server.port

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(timeout=30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)


def _serve_config(tmp_path, **kw) -> ServerConfig:
    # The first VM request is the one that marks the program hot.
    return ServerConfig(port=0, workers=2,
                        cache_dir=str(tmp_path / "cache"),
                        crash_dir=str(tmp_path / "crashes"),
                        tier_hot_requests=INTERP_RUNS + 1, **kw)


def test_serve_promotes_hot_program_to_native(tmp_path):
    st = _ServerThread(_serve_config(tmp_path))
    try:
        with ServeClient(port=st.port, timeout=60.0) as client:
            replies = []
            deadline = 30.0
            import time as _time
            start = _time.monotonic()
            while _time.monotonic() - start < deadline:
                reply = client.run(SRC_HOT, [[5], [10]])
                assert reply["ok"], reply
                replies.append(reply)
                if reply["tier"] == "native":
                    break
                _time.sleep(0.1)
            tiers = [r["tier"] for r in replies]
            assert tiers[0] == "interp"
            assert "vm" in tiers
            assert tiers[-1] == "native", f"never promoted: {tiers}"
            # byte-identical observations at every tier
            baseline = replies[0]["results"]
            for reply in replies[1:]:
                assert reply["results"] == baseline
            stats = client.stats()["tiering"]
            assert stats["native_compiles"] == 1
            assert stats["served_native"] >= 1
            assert stats["native_states"]["ready"] == 1
            # the .so landed in the content-addressed store
            objects = list((tmp_path / "cache" / "native").rglob("*.so"))
            assert len(objects) == 1
    finally:
        st.stop()


def test_serve_rebuilds_a_store_object_that_does_not_load(tmp_path):
    """A truncated ``.so`` in the native store is a miss, not a hit:
    the promotion rebuilds it in place, and the runs reach the native
    tier with the interpreter's results instead of failing to load."""
    import time as _time

    from repro.serve.worker import native_compile_request

    built = native_compile_request(
        {"source": SRC_HOT, "options": {},
         "native_dir": str(tmp_path / "cache" / "native")})
    so_path = Path(built["so"])
    size = so_path.stat().st_size
    with open(so_path, "r+b") as handle:
        handle.truncate(100)
    st = _ServerThread(_serve_config(tmp_path))
    try:
        with ServeClient(port=st.port, timeout=60.0) as client:
            replies = []
            start = _time.monotonic()
            while _time.monotonic() - start < 30.0:
                reply = client.run(SRC_HOT, [[5], [10]])
                assert reply["ok"], reply
                replies.append(reply)
                if reply["tier"] == "native":
                    break
                _time.sleep(0.1)
            assert replies[0]["tier"] == "interp"
            assert replies[-1]["tier"] == "native"
            for reply in replies[1:]:
                assert reply["results"] == replies[0]["results"]
            for _ in range(3):
                reply = client.run(SRC_HOT, [[5], [10]])
                assert reply["tier"] == "native"
                assert reply["results"] == replies[0]["results"]
            stats = client.stats()["tiering"]
            assert stats["native_compiles"] == 1
            assert stats["native_cache_hits"] == 0
            assert stats["native_states"]["ready"] == 1
        # The promotion rebuilt the damaged object, not another one.
        assert so_path.stat().st_size == size
    finally:
        st.stop()


def test_serve_native_promotion_is_profile_guided(tmp_path):
    # The default threshold trips on the second VM request, after the
    # first has shipped its profile, so the background native compile
    # is PGO.
    st = _ServerThread(ServerConfig(
        port=0, workers=2, cache_dir=str(tmp_path / "cache"),
        crash_dir=str(tmp_path / "crashes")))
    try:
        with ServeClient(port=st.port, timeout=60.0) as client:
            import time as _time
            baseline = None
            start = _time.monotonic()
            while _time.monotonic() - start < 30.0:
                reply = client.run(SRC_HOT, [[7]])
                assert reply["ok"], reply
                if baseline is None:
                    baseline = reply["results"]
                assert reply["results"] == baseline
                if reply["tier"] == "native":
                    break
                _time.sleep(0.1)
            assert reply["tier"] == "native"
            stats = client.stats()["tiering"]
            assert stats["profiles_noted"] >= 1
            assert stats["native_pgo_compiles"] == 1
    finally:
        st.stop()


def test_serve_quarantines_on_native_compile_failure(tmp_path, monkeypatch):
    # /bin/false "is" a compiler that always fails: the promotion must
    # quarantine the key back to the VM and keep serving answers.
    monkeypatch.setenv("REPRO_CC", "/bin/false")
    st = _ServerThread(_serve_config(tmp_path))
    try:
        assert st.server.tiering.policy.enabled
        with ServeClient(port=st.port, timeout=60.0) as client:
            import time as _time
            tiers = []
            start = _time.monotonic()
            while _time.monotonic() - start < 30.0:
                reply = client.run(SRC_HOT, [[4]])
                assert reply["ok"], reply
                tiers.append(reply["tier"])
                if reply["native_state"] == "quarantined":
                    break
                _time.sleep(0.1)
            assert reply["native_state"] == "quarantined"
            assert reply["tier"] == "vm"          # still serving
            assert reply["results"][0]["value"] == 26
            stats = client.stats()["tiering"]
            assert stats["native_quarantined"] == 1
            assert stats["native_compiles"] == 0
            assert "native" not in tiers
    finally:
        st.stop()


def test_serve_shed_requests_do_not_advance_hotness(tmp_path):
    # A shed (overloaded) request is never served: it must not bump the
    # per-tier counters, advance per-key hotness, or launch a compile.
    st = _ServerThread(_serve_config(tmp_path, max_pending=0))
    try:
        with ServeClient(port=st.port, timeout=60.0) as client:
            for _ in range(5):
                reply = client.request({"op": "run", "source": SRC_HOT,
                                        "entry": "main", "args": [[3]]})
                assert not reply["ok"]
                assert reply["error"]["code"] == "overloaded"
            stats = client.stats()["tiering"]
            assert stats["run_requests"] == 0
            assert stats["keys"] == 0
            assert stats["native_states"]["pending"] == 0
    finally:
        st.stop()


def test_serve_run_validation(tmp_path):
    st = _ServerThread(_serve_config(tmp_path))
    try:
        with ServeClient(port=st.port, timeout=60.0) as client:
            reply = client.request({"op": "run", "source": SRC_HOT})
            assert not reply["ok"]
            assert reply["error"]["code"] == "bad-request"
            assert "args" in reply["error"]["message"]
            reply = client.request({"op": "run", "source": SRC_HOT,
                                    "args": [["nope"]]})
            assert not reply["ok"] and reply["error"]["code"] == "bad-request"
    finally:
        st.stop()
