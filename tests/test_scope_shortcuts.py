"""Answers the compile path takes without recovering a scope or marking
the world: the inliner's once-called decision, cleanup's local forwarder
test, mem-opt's clean-world memory-op list, and the printer's shared
analyses.  Each must agree with the recovery it skips, and the work it
saves is pinned as counts (scope members flooded, sweeps run)."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import compile_source
from repro.backend.c_emitter import emit_c
from repro.backend.codegen import compile_world
from repro.core import analyses as analyses_mod
from repro.core import types as ct
from repro.core.alias import _marked_memory_ops, world_memory_ops
from repro.core.printer import print_world
from repro.core.scope import Scope, scope_of
from repro.core.verify import VerifyError
from repro.core.world import World
from repro.programs.suite import ALL_PROGRAMS, by_name
from repro.transform import inliner, mem_opt
from repro.transform.cleanup import _forwarders, cleanup
from repro.transform.inliner import inline_small_functions
from repro.transform.mem_opt import optimize_memory
from repro.transform.pipeline import OptimizeOptions, PassVerifyError, optimize

from .helpers import FN_I64, make_add_const

# ``repro.transform`` re-exports the ``cleanup`` function under the
# module's name.
cleanup_mod = importlib.import_module("repro.transform.cleanup")
ROOT = Path(__file__).resolve().parents[1]


def _chain_source(n: int) -> str:
    """F3's generated chain program (``benchmarks/bench_f3_compile_time``)."""
    path = ROOT / "benchmarks" / "bench_f3_compile_time.py"
    spec = importlib.util.spec_from_file_location("bench_f3", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate_program(n)


def _catalogue_sources() -> list[str]:
    catalogue = json.loads((ROOT / "perfbench" / "catalogue.json").read_text())
    return [p["source"] for p in catalogue["programs"]]


def _flooded(thunk) -> int:
    before = Scope.members_flooded
    thunk()
    return Scope.members_flooded - before


# ---------------------------------------------------------------------------
# the work, not the time
# ---------------------------------------------------------------------------


class TestFloodWork:
    def test_chain_floods_grow_less_than_the_chain_squared(self):
        """F3's chain: each inline moves a body into its caller, so a
        scope recovered per callee grows with the chain (2,128 -> 22,307
        members from 8 to 32 functions, 10.5x, before once-called
        callees were decided without a scope)."""
        def flood(n):
            world = compile_source(_chain_source(n), optimize=False)
            return _flooded(lambda: optimize(world))

        small, large = flood(8), flood(32)
        assert small > 0
        assert large <= 5 * small, (small, large)

    @pytest.mark.parametrize("optimized", [False, True])
    def test_backends_reuse_the_printers_analyses(self, monkeypatch,
                                                  optimized):
        """``print_world``, ``emit_c`` and ``compile_world`` run one
        top-level sweep and flood each top-level scope at most once."""
        world = compile_source(by_name("fannkuch").source,
                               optimize=optimized)
        sweeps = []
        real_sweep = analyses_mod.top_level_continuations

        def counted_sweep(w):
            sweeps.append(w)
            return real_sweep(w)

        floods: dict = {}
        real_run = Scope._run

        def counted_run(scope):
            floods[scope.entry] = floods.get(scope.entry, 0) + 1
            real_run(scope)

        monkeypatch.setattr(analyses_mod, "top_level_continuations",
                            counted_sweep)
        monkeypatch.setattr(Scope, "_run", counted_run)
        text = print_world(world)
        emit_c(world)
        compile_world(world).program.disassemble()
        assert len(sweeps) <= 1
        tops = world.analyses.top_level()
        assert "fn main" in text and tops
        assert all(floods.get(top, 0) <= 1 for top in tops), floods
        assert set(floods) <= set(tops)


# ---------------------------------------------------------------------------
# (a) the inliner's once-called decision
# ---------------------------------------------------------------------------


def _recursive_helper(world: World):
    """``helper`` calls itself from its else block and nobody else calls
    it: the outside call was folded away.  Its only site lies inside its
    own scope.  ``main`` is the external."""
    main = make_add_const(world, 1, "main")
    world.make_external(main)
    helper = world.continuation(FN_I64, "helper")
    mem, n, ret = helper.params
    then_bb = world.basic_block((ct.MEM,), "then")
    else_bb = world.basic_block((ct.MEM,), "else")
    world.jump(helper, world.branch(),
               (mem, world.lt(n, world.one(ct.I64)), then_bb, else_bb))
    world.jump(then_bb, ret, (then_bb.params[0], n))
    world.jump(else_bb, helper,
               (else_bb.params[0], world.sub(n, world.one(ct.I64)), ret))
    return helper, else_bb


class TestInlinerShortcut:
    def test_site_inside_its_callees_scope_falls_back(self, monkeypatch):
        world = World("self-site")
        helper, site = _recursive_helper(world)
        assert site in scope_of(helper)
        asked = []
        real_scope_of = inliner.scope_of

        def counted_scope_of(cont):
            asked.append(cont)
            return real_scope_of(cont)

        monkeypatch.setattr(inliner, "scope_of", counted_scope_of)
        body = helper.ops
        stats = inline_small_functions(world)
        assert stats["inlined"] == 0
        assert helper in asked  # the scope_of fallback decided it
        assert helper.ops is body and site.callee is helper

    def test_audit_rejects_a_wrong_shortcut(self, monkeypatch):
        world = World("self-site")
        _recursive_helper(world)
        monkeypatch.setattr(inliner._Reachability, "reachable",
                            lambda self, start: True)
        world._verify_shortcuts = True
        with pytest.raises(VerifyError, match="inside the scope"):
            inline_small_functions(world)

    def test_live_once_called_site_needs_no_scope(self, monkeypatch):
        world = compile_source("""
fn helper(a: i64) -> i64 { a * 7 }
fn main(x: i64) -> i64 { helper(x) + 1 }
""", optimize=False)
        helper = next(c for c in world.continuations()
                      if c.name == "helper")
        asked = []
        monkeypatch.setattr(inliner, "scope_of",
                            lambda cont: asked.append(cont) or Scope(cont))
        stats = inline_small_functions(world)
        assert stats["once_called"] >= 1
        assert helper not in asked
        assert helper.callee.name == "helper.m"  # moved, not copied


# ---------------------------------------------------------------------------
# (b) cleanup's local forwarder test
# ---------------------------------------------------------------------------


class TestForwarderShortcut:
    def _forwarder(self, world, *, params_used_elsewhere: bool):
        """``fwd(mem, x, ret) = target(mem, x, ret)``; with
        *params_used_elsewhere* the target reads ``x`` too, so it lies in
        the forwarder's scope."""
        fwd = world.continuation(FN_I64, "fwd")
        mem, x, ret = fwd.params
        target = world.continuation(FN_I64, "target")
        tmem, y, tret = target.params
        value = world.add(x, y) if params_used_elsewhere else y
        world.jump(target, tret, (tmem, value))
        world.jump(fwd, target, (mem, x, ret))
        caller = world.continuation(FN_I64, "caller")
        world.make_external(caller)
        world.jump(caller, fwd, tuple(caller.params))
        return fwd, target

    def test_params_with_other_users_are_held_via_scope_of(self,
                                                           monkeypatch):
        world = World("held")
        fwd, target = self._forwarder(world, params_used_elsewhere=True)
        asked = []
        real_scope_of = cleanup_mod.scope_of
        monkeypatch.setattr(cleanup_mod, "scope_of",
                            lambda c: asked.append(c) or real_scope_of(c))
        mapping, held = _forwarders([fwd])
        assert not mapping and held == [fwd]
        assert asked == [fwd]

    def test_params_feeding_only_the_jump_decide_locally(self, monkeypatch):
        world = World("local")
        fwd, target = self._forwarder(world, params_used_elsewhere=False)
        asked = []
        monkeypatch.setattr(cleanup_mod, "scope_of",
                            lambda c: asked.append(c) or Scope(c))
        mapping, held = _forwarders([fwd])
        assert mapping == {fwd: target} and not held
        assert not asked
        world._verify_shortcuts = True  # the audit agrees
        assert _forwarders([fwd]) == (mapping, held)
        assert asked == [fwd]

    def test_a_forwarder_cannot_jump_through_its_own_param(self):
        """The case the local test never meets.  Passing every param in
        order would pass the param callee to itself, so its type would
        have to contain itself; the nearest shape that can be built, a
        param callee given the other params, is no forwarder and is
        rejected before the scope question."""
        world = World("param-callee")
        k_type = ct.fn_type((ct.MEM, ct.I64))
        cont = world.continuation(ct.fn_type((ct.MEM, ct.I64, k_type)), "f")
        mem, x, k = cont.params
        world.jump(cont, k, (mem, x))
        assert _forwarders([cont]) == ({}, [])


# ---------------------------------------------------------------------------
# (c) the clean-world memory-op list
# ---------------------------------------------------------------------------


class TestCleanWorldMemoryOps:
    def test_table_equals_mark_at_every_mem_opt(self, monkeypatch):
        checked = []

        def compared(world):
            ops = world_memory_ops(world)
            if world._clean_generation == world.generation:
                assert ops == _marked_memory_ops(world)
                checked.append(len(ops))
            return ops

        monkeypatch.setattr(mem_opt, "world_memory_ops", compared)
        sources = {p.source for p in ALL_PROGRAMS}
        sources.update(_catalogue_sources())
        for source in sorted(sources):
            compile_source(source)
        assert len(checked) >= len(sources)
        assert sum(checked) > 0

    def _planted_lie(self, world):
        """Build an unreachable store on a clean world and re-stamp the
        world clean: the table now lists a store no mark reaches."""
        cell = world.global_(world.literal(ct.I64, 0), name="cell")
        world.store(world.bottom(ct.MEM), cell, world.literal(ct.I64, 3))
        world._clean_generation = world.generation

    def test_audit_rejects_a_stale_table(self):
        world = compile_source(by_name("sieve").source, optimize=False)
        cleanup(world)
        self._planted_lie(world)
        world._verify_shortcuts = True
        with pytest.raises(VerifyError, match="primop table"):
            optimize_memory(world)

    def test_the_miss_fails_mem_opt_with_pass_verify_error(self,
                                                           monkeypatch):
        """A mark that disagrees with the table (here: one that finds
        nothing) fails the mem_opt phase itself."""
        from repro.core import alias

        monkeypatch.setattr(alias, "_marked_memory_ops", lambda world: [])
        world = compile_source(by_name("sieve").source, optimize=False)
        with pytest.raises(PassVerifyError) as info:
            optimize(world, options=OptimizeOptions(
                strict=True, verify_each_pass=True))
        assert info.value.phase == "mem_opt"
        assert "primop table" in str(info.value)
        assert not world._verify_shortcuts  # reset on the way out
