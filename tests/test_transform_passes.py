"""Unit tests for the optimization passes (cleanup, PE, closure elim,
inliner, lambda dropping) and the generic rewriter."""

import pytest

from repro import compile_source
from repro.backend.interp import Interpreter
from repro.core import types as ct
from repro.core.rewrite import replace_def, rewrite_uses
from repro.core.scope import Scope
from repro.core.undo import UndoLog
from repro.core.verify import VerifyError, cff_violations
from repro.core.world import World
from repro.transform.cleanup import (cleanup, collect_garbage, eta_reduce,
                                     reachable_defs, verify_cleanup)
from repro.transform.closure_elim import eliminate_closures
from repro.transform.inliner import inline_small_functions
from repro.transform.lambda_dropping import drop_invariant_params
from repro.transform.partial_eval import is_static, partial_eval

from .helpers import FN_I64, RET_I64, make_add_const, make_fib


@pytest.fixture()
def world():
    return World("test")


class TestRewrite:
    def test_replace_rebuilds_users(self, world):
        f = world.continuation(FN_I64, "f")
        mem, x, ret = f.params
        doubled = world.add(x, x)
        world.jump(f, ret, (mem, doubled))
        five = world.literal(ct.I64, 5)
        rewrite_uses(world, {x: five})
        # the body was rebuilt and folded: add(5, 5) -> 10
        assert f.arg(1).value == 10

    def test_type_mismatch_rejected(self, world):
        f = world.continuation(FN_I64, "f")
        with pytest.raises(AssertionError):
            replace_def(f.params[1], world.literal(ct.F64, 1.0))

    def test_transitive_rebuild(self, world):
        f = world.continuation(FN_I64, "f")
        mem, x, ret = f.params
        a = world.add(x, world.one(ct.I64))
        b = world.mul(a, a)
        world.jump(f, ret, (mem, b))
        rewrite_uses(world, {x: world.literal(ct.I64, 3)})
        assert f.arg(1).value == 16

    def test_literal_condition_folds_branch(self, world):
        """A rewrite that makes a branch condition a literal leaves a
        direct jump behind, with no cleanup in between."""
        f = world.continuation(FN_I64, "f")
        mem, x, ret = f.params
        small = world.basic_block((ct.MEM,), "small")
        large = world.basic_block((ct.MEM,), "large")
        world.jump(small, ret, (small.params[0], world.one(ct.I64)))
        world.jump(large, ret, (large.params[0], x))
        world.jump(f, world.branch(),
                   (mem, world.lt(x, world.literal(ct.I64, 2)), small, large))
        rewrite_uses(world, {x: world.literal(ct.I64, 5)})
        assert f.callee is large
        assert f.args == (mem,)


def _forwarding_world(world):
    """``caller -> fwd -> target`` with ``caller`` external."""
    target = make_add_const(world, 3, "target")
    fwd = world.continuation(FN_I64, "fwd")
    world.jump(fwd, target, tuple(fwd.params))
    caller = world.continuation(FN_I64, "caller")
    world.make_external(caller)
    world.jump(caller, fwd, tuple(caller.params))
    return caller, fwd, target


class TestCleanup:
    def test_garbage_collected(self, world):
        live = make_add_const(world, 1, "live")
        world.make_external(live)
        dead = make_add_const(world, 2, "dead")
        removed = collect_garbage(world)
        assert removed >= 1
        assert dead not in world.continuations()
        assert live in world.continuations()

    def test_eta_reduction(self, world):
        target = make_add_const(world, 3, "target")
        forwarder = world.continuation(FN_I64, "fwd")
        world.jump(forwarder, target, tuple(forwarder.params))
        caller = world.continuation(FN_I64, "caller")
        world.make_external(caller)
        world.jump(caller, forwarder, tuple(caller.params))
        assert eta_reduce(world) >= 1
        assert caller.callee is target

    def test_eta_skips_externals(self, world):
        target = make_add_const(world, 3, "target")
        forwarder = world.continuation(FN_I64, "fwd")
        world.make_external(forwarder)
        world.jump(forwarder, target, tuple(forwarder.params))
        eta_reduce(world)
        assert forwarder.callee is target  # body intact, not replaced

    def test_cleanup_preserves_semantics(self):
        world = compile_source("""
fn helper(x: i64) -> i64 { x * 3 }
fn main(a: i64) -> i64 { helper(a) + helper(a + 1) }
""", optimize=False)
        before = Interpreter(world).call("main", 5)
        cleanup(world)
        assert Interpreter(world).call("main", 5) == before == 33

    def test_held_back_forwarder_is_reconsidered(self, world):
        """A forwarder whose target lies in its own scope is held back;
        once the target stops using its params, the next cleanup reduces
        it although its own body was never touched."""
        fwd = world.continuation(FN_I64, "fwd")
        mem, x, ret = fwd.params
        target = world.continuation(FN_I64, "target")
        tmem, y, tret = target.params
        world.jump(target, tret, (tmem, world.add(x, y)))
        world.jump(fwd, target, (mem, x, ret))
        caller = world.continuation(FN_I64, "caller")
        world.make_external(caller)
        world.jump(caller, fwd, tuple(caller.params))
        cleanup(world)
        assert caller.callee is fwd
        body = fwd.ops
        world.jump(target, tret, (tmem, y))
        assert fwd.ops is body
        cleanup(world)
        assert caller.callee is target
        verify_cleanup(world)

    def test_restore_reconsiders_every_continuation(self, world):
        """After an undo-log rollback the next cleanup scans everything,
        not just what was touched since the previous one."""
        caller, fwd, target = _forwarding_world(world)
        world.make_external(fwd)
        cleanup(world)
        # Drop the external flag behind the world's back: no note, so
        # the forwarder is in no touched set and stays unreduced.
        fwd.is_external = False
        del world._externals[fwd.name]
        cleanup(world)
        assert caller.callee is fwd
        log = UndoLog(world)
        world.literal(ct.I64, 99)
        log.restore()
        cleanup(world)
        assert caller.callee.name == "target"


class TestCleanupAudit:
    """``verify_cleanup`` accepts what cleanup leaves and rejects a
    miss of the incremental eta-reduction."""

    def test_clean_world_passes(self):
        from repro.programs.suite import by_name

        source = by_name("quicksort").source
        verify_cleanup(compile_source(source, optimize=False))
        verify_cleanup(compile_source(source))

    def test_dropped_touched_forwarder_is_rejected(self, world):
        caller, fwd, target = _forwarding_world(world)
        cleanup(world)
        assert caller.callee is target
        late = world.continuation(FN_I64, "late")
        world.jump(late, target, tuple(late.params))
        world.jump(caller, late, tuple(caller.params))
        world._touched_conts.discard(late)   # the planted miss
        cleanup(world)
        assert caller.callee is late
        with pytest.raises(VerifyError, match="forwarder late_"):
            verify_cleanup(world)

    def test_miss_fails_the_cleanup_that_left_it(self, monkeypatch):
        from repro.programs.suite import by_name
        from repro.transform import pipeline
        from repro.transform.cleanup import _forwarders
        from repro.transform.pipeline import OptimizeOptions, PassVerifyError

        real_cleanup = pipeline.cleanup
        planted = []

        def lossy_cleanup(world):
            touched = world._touched_conts
            if touched is not None and not planted:
                live = reachable_defs(world)
                mapping, _ = _forwarders(sorted(touched, key=lambda c: c.gid))
                victim = next((c for c in mapping if c in live), None)
                if victim is not None:
                    touched.discard(victim)
                    planted.append(victim.unique_name())
            return real_cleanup(world)

        monkeypatch.setattr(pipeline, "cleanup", lossy_cleanup)
        with pytest.raises(PassVerifyError) as info:
            compile_source(by_name("sort_hof").source, options=OptimizeOptions(
                strict=True, verify_each_pass=True))
        assert planted
        assert info.value.phase.startswith("cleanup(")
        assert f"forwarder {planted[0]} " in str(info.value)


class TestPartialEval:
    def test_pow_unrolls(self):
        world = compile_source("""
fn pow(x: i64, n: i64) -> i64 { if n == 0 { 1 } else { x * pow(x, n-1) } }
fn main(x: i64) -> i64 { @pow(x, 4) }
""", optimize=False)
        stats = partial_eval(world)
        # pow(x, 4) .. pow(x, 0): the dead recursive arm of the base
        # case must not be specialized any further.
        assert stats["specialized"] == 5
        cleanup(world)
        assert Interpreter(world).call("main", 3) == 81

    def test_hlt_blocks_specialization(self):
        world = compile_source("""
fn pow(x: i64, n: i64) -> i64 { if n == 0 { 1 } else { x * pow(x, n-1) } }
fn main(x: i64) -> i64 { $pow(x, 4) }
""", optimize=False)
        stats = partial_eval(world)
        assert stats["specialized"] == 0
        assert Interpreter(world).call("main", 3) == 81

    def test_budget_terminates_dynamic_recursion(self):
        # a loop whose bound is dynamic cannot be fully unfolded; the
        # budget must stop the evaluator and leave a correct residual.
        world = compile_source("""
fn count(n: i64) -> i64 { if n == 0 { 0 } else { 1 + count(n - 1) } }
fn main(n: i64) -> i64 { @count(n + 1) }
""", optimize=False)
        stats = partial_eval(world, budget=16)
        assert stats["budget_left"] >= 0
        cleanup(world)
        assert Interpreter(world).call("main", 5) == 6

    def test_cache_shares_specializations(self):
        world = compile_source("""
fn pow(x: i64, n: i64) -> i64 { if n == 0 { 1 } else { x * pow(x, n-1) } }
fn main(x: i64) -> i64 { @pow(x, 3) + @pow(x + 1, 3) }
""", optimize=False)
        stats = partial_eval(world)
        assert stats["cache_hits"] >= 1  # pow_3..pow_0 shared across sites

    def test_is_static(self, world):
        assert is_static(world.literal(ct.I64, 1))
        assert is_static(world.bottom(ct.I64))
        assert is_static(world.tuple_((world.literal(ct.I64, 1),)))
        f = world.continuation(FN_I64, "f")
        assert not is_static(f.params[1])
        closed = make_add_const(world, 1)
        assert is_static(closed)
        assert not is_static(world.hlt(closed))


class TestClosureElim:
    def test_hof_reaches_cff(self):
        world = compile_source("""
fn apply(f: fn(i64) -> i64, x: i64) -> i64 { f(x) }
fn main(a: i64) -> i64 { apply(|v: i64| v * 2, a) }
""")
        assert cff_violations(world) == []
        assert Interpreter(world).call("main", 21) == 42

    def test_recursive_closure_lifted(self):
        # a recursive inner function capturing its environment
        world = compile_source("""
fn main(n: i64) -> i64 {
    let step = n + 1;
    let mut total = 0;
    let mut i = 0;
    while i < 10 {
        total += step;
        i += 1;
    }
    total
}
""")
        assert cff_violations(world) == []
        assert Interpreter(world).call("main", 2) == 30

    def test_escaping_closure_eliminated(self):
        world = compile_source("""
fn make(n: i64) -> fn(i64) -> i64 { |x: i64| x + n }
fn main() -> i64 { make(5)(6) }
""")
        assert cff_violations(world) == []
        assert Interpreter(world).call("main") == 11

    def test_stale_scope_cache_regression(self):
        # Found by the differential fuzzer (seed 291, minimized by the
        # shrinker).  Specializing ``hof`` burns ``h``'s return
        # parameter into the copy, which makes the copy a member of
        # ``h``'s scope; a later specialization of ``h`` in the same
        # round then must *copy* it, not share it.  With a stale scope
        # cache the copy was shared and returned through the original
        # ``h``'s parameter — an unbound parameter at run time.
        from repro.transform.pipeline import OptimizeOptions

        source = """
fn hof(f: fn(i64) -> i64, x: i64, y: i64) -> i64 { 0 }
fn h(p: i64, q: i64) -> i64 {
    let mut v = (if false { 0 } else { 0 });
    hof(|l: i64| 0, 0, 0)
}
extern fn main(a: i64, b: i64) -> i64 {
    let t = (h(0, 0), 0);
    h(0, 0)
}
"""
        world = compile_source(
            source, options=OptimizeOptions(verify_each_pass=True))
        assert cff_violations(world) == []
        assert Interpreter(world).call("main", -5, -3) == 0


class TestInliner:
    def test_once_called_inlined(self):
        world = compile_source("""
fn helper(a: i64) -> i64 { a * 7 }
fn main(x: i64) -> i64 { helper(x) }
""", optimize=False)
        stats = inline_small_functions(world)
        assert stats["inlined"] >= 1
        cleanup(world)
        assert Interpreter(world).call("main", 3) == 21
        # helper is garbage after inlining
        names = {c.name for c in world.continuations()}
        assert "helper" not in names

    def test_recursive_not_inlined(self, world):
        fib = make_fib(world)
        world.make_external(fib)
        stats = inline_small_functions(world)
        # fib's internal call sites are recursive: left alone
        assert Interpreter(world).call("fib", 10) == 55


class TestLambdaDropping:
    def test_invariant_param_dropped(self):
        world = compile_source("""
fn scaled(x: i64, factor: i64) -> i64 { x * factor }
fn main(a: i64) -> i64 { scaled(a, 3) + scaled(a + 1, 3) }
""", optimize=False)
        stats = drop_invariant_params(world)
        assert stats["params_removed"] >= 1
        cleanup(world)
        assert Interpreter(world).call("main", 5) == 33

    def test_divergent_args_kept(self):
        world = compile_source("""
fn scaled(x: i64, factor: i64) -> i64 { x * factor }
fn main(a: i64) -> i64 { scaled(a, 3) + scaled(a, 4) }
""", optimize=False)
        stats = drop_invariant_params(world)
        cleanup(world)
        assert Interpreter(world).call("main", 2) == 14
