"""Unit tests for lambda mangling — the paper's central transformation."""

import pytest

from repro.core import types as ct
from repro.core.scope import Scope
from repro.core.primops import Literal
from repro.core.verify import verify
from repro.core.world import World
from repro.backend.interp import Interpreter
from repro.transform.mangle import (
    MangleStats,
    Mangler,
    clone,
    drop,
    inline_call,
    lift,
    mangle,
)

from .helpers import FN_I64, RET_I64, make_add_const, make_fib, make_loop_sum


@pytest.fixture()
def world():
    return World("test")


def run(world, cont, *args):
    name = cont.name
    if not cont.is_external:
        world.make_external(cont)
        world._externals[name] = cont
    return Interpreter(world).call(name, *args)


class TestDrop:
    def test_drop_constant_arg(self, world):
        fib = make_fib(world)
        world.make_external(fib)
        fib9 = drop(Scope(fib), {fib.params[1]: world.literal(ct.I64, 9)})
        fib9.name = "fib9"
        assert fib9.num_params == 2  # mem + ret
        assert run(world, fib9) == 34

    def test_drop_list_form(self, world):
        fib = make_fib(world)
        world.make_external(fib)
        fib8 = drop(Scope(fib), [None, world.literal(ct.I64, 8), None])
        fib8.name = "fib8"
        assert run(world, fib8) == 21

    def test_drop_folds_with_substituted_values(self, world):
        addc = make_add_const(world, 10)
        spec = drop(Scope(addc), {addc.params[1]: world.literal(ct.I64, 5)})
        # body becomes ret(mem, 15): folding re-fired during the copy
        assert isinstance(spec.arg(1), Literal)
        assert spec.arg(1).value == 15

    def test_original_untouched(self, world):
        fib = make_fib(world)
        world.make_external(fib)
        before = (fib.callee, fib.args)
        drop(Scope(fib), {fib.params[1]: world.literal(ct.I64, 3)})
        assert (fib.callee, fib.args) == before
        assert run(world, fib, 10) == 55

    def test_tail_recursive_knot_tied(self, world):
        # sum_to jumps to itself through blocks; cloning its scope with a
        # dropped n must redirect the self-call to the copy.
        loop = make_loop_sum(world)
        world.make_external(loop)
        spec = drop(Scope(loop), {loop.params[1]: world.literal(ct.I64, 5)})
        spec.name = "sum5"
        assert run(world, spec) == 10

    def test_recursive_call_with_changed_args_stays_generic(self, world):
        fib = make_fib(world)
        world.make_external(fib)
        spec = drop(Scope(fib), {fib.params[1]: world.literal(ct.I64, 6)})
        # the recursive calls inside the copy go to the *generic* fib
        scope = Scope(spec)
        callees = {c.callee for c in scope.continuations() if c.has_body()}
        assert fib in callees


class TestCloneAndLift:
    def test_clone_behaves_identically(self, world):
        fib = make_fib(world)
        world.make_external(fib)
        copy = clone(Scope(fib))
        copy.name = "fib_copy"
        assert run(world, copy, 11) == 89

    def test_clone_is_fresh(self, world):
        fib = make_fib(world)
        copy = clone(Scope(fib))
        assert copy is not fib
        assert not (set(Scope(copy).continuations()) - {fib}) \
            & set(Scope(fib).continuations())

    def test_lift_abstracts_free_def(self, world):
        outer = world.continuation(FN_I64, "outer")
        mem, x, ret = outer.params
        inner = world.continuation(RET_I64, "inner")
        world.jump(inner, ret, (inner.params[0],
                                world.add(inner.params[1], x)))
        # lift inner over x: the new entry takes x explicitly
        lifted = lift(Scope(inner), (x,))
        assert lifted.num_params == inner.num_params + 1
        assert lifted.params[-1].type is ct.I64
        # and the lifted body no longer references outer's x
        assert x not in Scope(lifted).free_defs()


class TestInlineCall:
    def test_inline_simple(self, world):
        addc = make_add_const(world, 7)
        caller = world.continuation(FN_I64, "caller")
        world.make_external(caller)
        world.jump(caller, addc, tuple(caller.params))
        assert inline_call(caller)
        # caller now jumps to a parameterless block holding addc's body
        assert caller.callee is not addc
        assert run(world, caller, 5) == 12

    def test_inline_unknown_callee_refused(self, world):
        caller = world.continuation(FN_I64, "caller")
        mem, x, ret = caller.params
        world.jump(caller, ret, (mem, x))
        assert not inline_call(caller)  # callee is a param

    def test_inline_preserves_semantics(self, world):
        fib = make_fib(world)
        world.make_external(fib)
        caller = world.continuation(FN_I64, "main")
        world.make_external(caller)
        world.jump(caller, fib,
                   (caller.params[0], world.literal(ct.I64, 10),
                    caller.params[2]))
        assert inline_call(caller)
        assert run(world, caller, 0) == 55


def make_clamp(world, name="clamp"):
    """fn clamp(mem, x, ret) = ret(mem, if x < 10 { x + 1 } else { x * 2 })"""
    f = world.continuation(FN_I64, name)
    mem, x, ret = f.params
    then_bb = world.basic_block((ct.MEM,), "then")
    else_bb = world.basic_block((ct.MEM,), "else")
    world.jump(f, world.branch(),
               (mem, world.lt(x, world.literal(ct.I64, 10)), then_bb, else_bb))
    world.jump(then_bb, ret,
               (then_bb.params[0], world.add(x, world.one(ct.I64))))
    world.jump(else_bb, ret,
               (else_bb.params[0], world.mul(x, world.literal(ct.I64, 2))))
    return f


def make_caller(world, callee, name, offset=3):
    """An external ``name(mem, x, ret) = callee(mem, x + offset, ret)``."""
    caller = world.continuation(FN_I64, name)
    mem, x, ret = caller.params
    world.jump(caller, callee,
               (mem, world.add(x, world.literal(ct.I64, offset)), ret))
    world.make_external(caller)
    return caller


class TestInlineMove:
    """At the callee's last use, inlining moves the body instead of
    copying it: the original would be garbage the moment a copy existed."""

    def test_once_called_callee_moves_its_blocks(self, world):
        clamp = make_clamp(world)
        caller = make_caller(world, clamp, "main")
        inner = set(Scope(clamp).continuations()) - {clamp}
        before = [run(world, caller, x) for x in (-4, 6, 7, 30)]
        stats: list[MangleStats] = []
        assert inline_call(caller, stats)
        assert stats == []  # nothing was copied
        moved = caller.callee
        assert moved.name == "clamp.m" and moved.num_params == 0
        assert set(moved.args[2:]) == inner  # the same block objects
        assert inner <= set(Scope(caller).continuations())
        assert clamp.callee is moved and not clamp.args  # left for GC
        verify(world, full=True)  # before any cleanup
        assert [run(world, caller, x) for x in (-4, 6, 7, 30)] == before

    def test_first_site_copies_last_site_moves(self, world):
        addc = make_add_const(world, 7)
        first = make_caller(world, addc, "first", offset=1)
        last = make_caller(world, addc, "last", offset=2)
        body = addc.ops
        stats: list[MangleStats] = []
        assert inline_call(first, stats)
        assert len(stats) == 1 and addc.ops == body  # a copy
        assert inline_call(last, stats)
        assert len(stats) == 1  # a move
        assert addc.callee is last.callee and last.callee.name == "addc.m"
        assert run(world, first, 5) == 13
        assert run(world, last, 5) == 14

    @pytest.mark.parametrize("kind", ["external", "run"])
    def test_external_and_run_callees_still_copy(self, world, kind):
        addc = make_add_const(world, 7)
        if kind == "external":
            world.make_external(addc)
            caller = make_caller(world, addc, "main")
        else:
            caller = make_caller(world, world.run(addc), "main")
        assert addc.num_uses == 1
        body = addc.ops
        stats: list[MangleStats] = []
        assert inline_call(caller, stats)
        assert len(stats) == 1
        assert addc.ops == body
        assert run(world, caller, 5) == 15
        if kind == "external":
            assert run(world, addc, 5) == 12


class TestStats:
    def test_no_structural_repair_ever(self, world):
        fib = make_fib(world)
        stats: list[MangleStats] = []
        mangle(Scope(fib), {fib.params[1]: world.literal(ct.I64, 5)},
               stats_out=stats)
        s = stats[0]
        assert s.phis_repaired == 0
        assert s.binders_rearranged == 0
        assert s.alpha_renames == 0
        assert s.continuations_copied >= 1

    def test_sharing_counted(self, world):
        addc = make_add_const(world, 2)
        stats: list[MangleStats] = []
        drop(Scope(addc), {addc.params[1]: world.literal(ct.I64, 1)},
             stats_out=stats)
        assert stats[0].defs_shared >= 1


class TestManglerValidation:
    def test_spec_must_target_entry_params(self, world):
        fib = make_fib(world)
        other = world.continuation(FN_I64, "other")
        with pytest.raises(AssertionError):
            Mangler(Scope(fib), {other.params[1]: world.literal(ct.I64, 1)})

    def test_marker_preserved_on_redirected_recursion(self, world):
        # jump run(f)(..., same-args...) keeps its marker on the new target
        loop = make_loop_sum(world)
        entry_jumpers = [c for c in Scope(loop).continuations()
                         if c.has_body() and c.callee is loop]
        # no self jumps directly to entry here; just sanity-run mangle
        spec = drop(Scope(loop), {loop.params[1]: world.literal(ct.I64, 3)})
        assert spec.num_params == 2
