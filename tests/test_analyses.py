"""The incremental analysis manager: generations, patching, identity.

Three layers of guarantees, mirroring ``core/analyses.py``:

* every world-mutating API strictly increases ``World.generation`` (the
  cache key) and nothing ever rewinds it;
* cached analyses are *patched*, not dropped: new references to an entry
  are no-ops, new edges into a scope grow it in place, member rewires
  re-flood and keep the object when membership is unchanged, and entry
  body rewires refresh only the CFG — while anything that cannot report
  what it touched still loses everything;
* ``verify_analyses`` audits every cached artifact against a
  from-scratch recomputation: it rejects a planted stale entry, turns
  one into a ``PassVerifyError`` for the pass that left it under
  ``verify_each_pass``, and a hypothesis-driven edit-script property
  runs it after every single edit.  Compiling with the audit on yields
  byte-identical printed IR to the default compile.
"""

from __future__ import annotations

import pytest

from repro.core import types as ct
from repro.core.cfg import CFG
from repro.core.schedule import Placement, Schedule
from repro.core.scope import Scope, top_level_of
from repro.core.undo import UndoLog
from repro.core.verify import VerifyError, verify_analyses
from repro.core.world import World

from .helpers import (FN_I64, RET_I64, assert_dominance_matches_paths,
                      make_add_const, make_fib, make_identity,
                      make_loop_sum)


@pytest.fixture
def world():
    return World("t")


def constructed_during(fn):
    before = Scope.constructed
    result = fn()
    return result, Scope.constructed - before


class TestGenerationMonotone:
    """Every mutation strictly increases the generation; nothing rewinds it."""

    def test_continuation_creation(self, world):
        g = world.generation
        world.continuation(FN_I64, "f")
        assert world.generation > g

    def test_primop_creation(self, world):
        f = make_identity(world)
        g = world.generation
        world.add(f.param(1), world.literal(ct.I64, 41))
        assert world.generation > g

    def test_gvn_hit_never_rewinds(self, world):
        f = make_identity(world)
        world.add(f.param(1), world.literal(ct.I64, 41))
        g = world.generation
        world.add(f.param(1), world.literal(ct.I64, 41))  # same node
        assert world.generation >= g

    def test_jump_retarget(self, world):
        f = make_identity(world)
        mem, x, ret = f.params
        g = world.generation
        world.jump(f, ret, (mem, world.add(x, world.one(ct.I64))))
        assert world.generation > g

    def test_append_and_remove_param(self, world):
        f = world.continuation(FN_I64, "f")
        g = world.generation
        f.append_param(ct.I64, "extra")
        assert world.generation > g
        g = world.generation
        f.remove_param(f.num_params - 1)
        assert world.generation > g

    def test_make_and_remove_external(self, world):
        f = make_identity(world)
        g = world.generation
        world.make_external(f)
        assert world.generation > g
        g = world.generation
        world.remove_external(f)
        assert world.generation > g

    def test_undo_restore_advances(self, world):
        make_fib(world)
        log = UndoLog(world)
        g = world.generation
        log.restore()
        assert world.generation > g, \
            "a restored world must never look unmutated to caches"

    def test_structural_generation_ignores_primops(self, world):
        """Primop creation bumps the full generation but not the
        structural one — a fresh primop has no users, so it cannot
        change which continuations are nested."""
        f = make_identity(world)
        sg = world.structural_generation
        g = world.generation
        world.add(f.param(1), world.literal(ct.I64, 5))
        assert world.generation > g
        assert world.structural_generation == sg
        world.continuation(RET_I64, "k")
        assert world.structural_generation > sg

    def test_mutation_trace_is_strictly_increasing(self, world):
        """Property-style sweep: a mixed mutation sequence never repeats
        or decreases the generation at any step."""
        f = make_identity(world)
        mem, x, ret = f.params
        mutations = [
            lambda: world.continuation(RET_I64, "k"),
            lambda: world.add(x, world.literal(ct.I64, 7)),
            lambda: world.jump(f, ret, (mem, world.mul(x, x))),
            lambda: f.append_param(ct.I64, "p"),
            lambda: f.remove_param(f.num_params - 1),
            lambda: world.make_external(f),
            lambda: world.remove_external(f),
            lambda: UndoLog(world).restore(),
        ]
        seen = [world.generation]
        for mutate in mutations:
            mutate()
            assert world.generation > seen[-1]
            seen.append(world.generation)


class TestManagerInvalidation:
    def test_scope_hit_is_identical_object(self, world):
        f = make_fib(world)
        manager = world.analyses
        first = manager.scope(f)
        second, built = constructed_during(lambda: manager.scope(f))
        assert second is first
        assert built == 0
        assert manager.stats.hits >= 1

    def test_entry_reference_is_noop(self, world):
        """A new call *to* a cached entry must not touch its artifacts:
        the flood never follows uses of the entry, so a mere reference
        cannot change membership.  This is the most common mutation in a
        specializing pipeline, and patching turns it into a cache hit."""
        f = make_fib(world)
        manager = world.analyses
        scope = manager.scope(f)
        cfg = manager.cfg(f)
        sched = manager.schedule(f)
        caller = world.continuation(FN_I64, "caller")
        cm, cx, cret = caller.params
        world.jump(caller, f, (cm, cx, cret))
        second, built = constructed_during(lambda: manager.scope(f))
        assert second is scope
        assert built == 0
        assert manager.cfg(f) is cfg
        assert manager.schedule(f) is sched

    def test_new_edge_grows_scope_in_place(self, world):
        """A new primop using a member splices into the cached scope
        without a re-flood, and the patched membership is bit-identical
        to a from-scratch recomputation."""
        f = make_fib(world)
        manager = world.analyses
        scope = manager.scope(f)
        patches = manager.stats.scope_patches
        op = world.mul(f.param(1), world.literal(ct.I64, 3))
        second, built = constructed_during(lambda: manager.scope(f))
        assert second is scope, "growth must keep the scope object"
        assert built == 0, "growth must not re-flood"
        assert op in scope
        assert manager.stats.scope_patches == patches + 1
        assert list(scope._defs) == list(Scope(f)._defs)

    def test_entry_body_rewire_keeps_scope_refreshes_cfg(self, world):
        """Rewiring the entry's own body never changes its membership
        (the flood inserts users of members, not operands of the entry),
        so the scope survives; only the CFG is refreshed — in place, on
        the same object."""
        f = make_fib(world)
        mem, n, ret = f.params
        manager = world.analyses
        scope = manager.scope(f)
        cfg = manager.cfg(f)
        sched = manager.schedule(f)
        world.jump(f, ret, (mem, n))
        assert manager.scope(f) is scope
        assert list(scope._defs) == list(Scope(f)._defs)
        refreshed = manager.cfg(f)
        assert refreshed is cfg, "the CFG object survives, refreshed"
        assert len(cfg.nodes()) == 2, "only entry and exit stay reachable"
        assert manager.schedule(f) is not sched

    def test_member_rewire_refloods_and_survives(self, world):
        """Rewiring an inner member re-floods at the next query; when
        membership comes back identical the old scope object (and a CFG
        whose dirty successors match) survive."""
        f = make_fib(world)
        mem, n, ret = f.params
        manager = world.analyses
        scope = manager.scope(f)
        cfg = manager.cfg(f)
        k2 = next(c for c in scope.continuations() if c.name == "k2")
        k1 = next(c for c in scope.continuations() if c.name == "k1")
        # Same control shape (jump to ret), different value operands.
        world.jump(k2, ret, (k2.params[0], k1.params[1]))
        survivals = manager.stats.scope_survivals
        assert manager.scope(f) is scope
        assert manager.stats.scope_survivals == survivals + 1
        assert list(scope._defs) == list(Scope(f)._defs)
        assert manager.cfg(f) is cfg

    def test_member_unset_body_shrinks_scope(self, world):
        """A member losing the use-chain that kept defs inside forces a
        replacement: the re-flood diff detects the shrink."""
        f = make_fib(world)
        manager = world.analyses
        scope = manager.scope(f)
        k2 = next(c for c in scope.continuations() if c.name == "k2")
        invalidations = manager.stats.invalidations
        k2.unset_body()
        second = manager.scope(f)
        assert second is not scope
        assert k2 not in second
        assert manager.stats.invalidations == invalidations + 1
        assert list(second._defs) == list(Scope(f)._defs)

    def test_untouched_scope_survives(self, world):
        f = make_identity(world, "f")
        g = make_add_const(world, 3, "g")
        manager = world.analyses
        scope_f = manager.scope(f)
        manager.scope(g)
        gm, gx, gret = g.params
        world.jump(g, gret, (gm, world.mul(gx, gx)))
        assert manager.scope(f) is scope_f, \
            "mutating g must not evict f's cached scope"

    def test_restore_drops_everything(self, world):
        f = make_fib(world)
        manager = world.analyses
        cached = manager.scope(f)
        UndoLog(world).restore()
        drop_alls = manager.stats.drop_alls
        assert manager.scope(f) is not cached
        assert manager.stats.drop_alls == drop_alls + 1

    def test_artifacts_survive_unrelated_storm(self, world):
        """Thousands of mutations that never touch a cached scope's
        members leave its artifacts live — the old manager escalated to
        drop-all once its pending set overflowed a fixed cap."""
        f = make_fib(world)
        manager = world.analyses
        scope = manager.scope(f)
        cfg = manager.cfg(f)
        flood = [world.literal(ct.I64, i) for i in range(5000)]
        manager.invalidate(flood)
        drop_alls = manager.stats.drop_alls
        second, built = constructed_during(lambda: manager.scope(f))
        assert second is scope
        assert built == 0
        assert manager.cfg(f) is cfg
        assert manager.stats.drop_alls == drop_alls

    def test_invalidate_none_is_drop_all(self, world):
        f = make_fib(world)
        manager = world.analyses
        cached = manager.scope(f)
        manager.invalidate(None)
        assert manager.scope(f) is not cached

    def test_derived_analyses_follow_scope(self, world):
        f = make_fib(world)
        manager = world.analyses
        cfg = manager.cfg(f)
        loops = manager.looptree(f)
        sched = manager.schedule(f)
        assert manager.cfg(f) is cfg
        assert manager.looptree(f) is loops
        assert manager.schedule(f) is sched
        mem, n, ret = f.params
        world.jump(f, ret, (mem, n))
        # The entry rewire refreshes the CFG in place and rebuilds what
        # hangs off its (changed) edges.
        assert manager.cfg(f) is cfg
        assert manager.looptree(f) is not loops
        assert manager.schedule(f) is not sched


class TestTopLevelSweep:
    def test_cached_call_builds_no_scopes(self, world):
        make_fib(world)
        make_identity(world)
        manager = world.analyses
        first = manager.top_level()
        second, built = constructed_during(manager.top_level)
        assert second == first
        assert built == 0, \
            "an unmutated world must answer top_level from cache"

    def test_fresh_sweep_is_single_pass(self, world):
        """The shared sweep builds at most one scope per continuation
        (the old implementation recomputed inner scopes per candidate)."""
        make_fib(world)
        make_identity(world)
        make_add_const(world, 9)
        _, built = constructed_during(lambda: top_level_of(world))
        assert built <= len(world.continuations())

    def test_new_continuation_invalidates(self, world):
        f = make_identity(world)
        manager = world.analyses
        manager.top_level()
        g = make_add_const(world, 1, "late")
        tops = manager.top_level()
        assert f in tops and g in tops

    def test_primop_churn_keeps_top_level_cached(self, world):
        """Minting primops must not re-run the whole-world sweep: the
        result is stamped with the structural generation."""
        f = make_fib(world)
        manager = world.analyses
        manager.top_level()
        for i in range(10):
            world.add(f.param(1), world.literal(ct.I64, i))
        _, built = constructed_during(manager.top_level)
        hits = manager.stats.hits
        manager.top_level()
        assert manager.stats.hits == hits + 1
        assert built == 0


class TestDominanceFree:
    """The scheduler answers dominance from CFG availability bitmasks,
    the only dominance in the system; they must match the path
    definition."""

    def test_masks_match_path_definition(self, world):
        for maker in (make_identity, make_fib, make_loop_sum):
            f = maker(World("t"))
            assert_dominance_matches_paths(CFG(Scope(f)))


def _cfg_fingerprint(cfg):
    def key(n):
        return getattr(n, "gid", -1)

    return [
        (key(n), sorted(key(s) for s in cfg.succs(n)), key(cfg.idom(n)))
        for n in cfg.nodes()
    ]


def _schedule_fingerprint(sched):
    return {
        block.gid: [op.gid for op in sched.ops_in(block)]
        for block in sched.blocks()
    }


class TestEditScriptProperty:
    """Hypothesis-driven random edit scripts: after *every* edit, the
    patched Scope/CFG/Schedule must equal from-scratch recomputations.

    The pipeline runs the same audit (``verify_analyses``) after every
    pass under ``verify_each_pass``; this property localizes a patching
    bug to the exact edit that broke an artifact.
    """

    ENTRIES = ("fib", "sum_to", "id")

    def _build(self):
        world = World("t")
        fib = make_fib(world)
        loop = make_loop_sum(world)
        ident = make_identity(world)
        manager = world.analyses
        return world, {"fib": fib, "sum_to": loop, "id": ident}, manager

    def _apply_edit(self, world, fns, code, arg):
        fib = fns["fib"]
        mem, n, ret = fib.params
        if code == 0:      # new primop using a member (growth)
            world.add(n, world.literal(ct.I64, arg))
        elif code == 1:    # new call to a cached entry (entry-ref no-op)
            caller = world.continuation(FN_I64, f"caller{arg}")
            cm, cx, cret = caller.params
            world.jump(caller, fib, (cm, cx, cret))
        elif code == 2:    # entry body rewire (CFG-only)
            world.jump(fib, ret, (mem, world.literal(ct.I64, arg)))
        elif code == 3:    # inner member rewire (re-flood + diff)
            scope = Scope(fib)
            inner = [c for c in scope.continuations()
                     if c is not fib and c.has_body()]
            if inner:
                k = inner[arg % len(inner)]
                world.jump(k, ret, (k.params[0] if k.num_params else mem,
                                    world.literal(ct.I64, arg)))
        elif code == 4:    # member loses its body (shrink)
            scope = Scope(fib)
            inner = [c for c in scope.continuations()
                     if c is not fib and c.has_body()]
            if inner:
                inner[arg % len(inner)].unset_body()
        elif code == 5:    # structural surgery on an unrelated cont
            k = world.continuation(RET_I64, f"s{arg}")
            k.append_param(ct.I64, "extra")
            k.remove_param(k.num_params - 1)
        elif code == 6:    # external marking (structural note)
            world.make_external(fib)
            world.remove_external(fib)
        elif code == 7:    # wholesale drop
            world.analyses.invalidate(None)

    def _assert_consistent(self, fns, manager):
        for entry in fns.values():
            scope = manager.scope(entry)
            fresh = Scope(entry)
            assert list(scope._defs) == list(fresh._defs), \
                f"patched scope of {entry.name} diverged"
            cfg = manager.cfg(entry)
            fresh_cfg = CFG(fresh)
            assert _cfg_fingerprint(cfg) == _cfg_fingerprint(fresh_cfg), \
                f"patched CFG of {entry.name} diverged"
            sched = manager.schedule(entry)
            assert (_schedule_fingerprint(sched)
                    == _schedule_fingerprint(Schedule(fresh))), \
                f"patched schedule of {entry.name} diverged"
        manager.top_level()
        verify_analyses(manager.world)

    def test_edit_scripts(self):
        hypothesis = pytest.importorskip("hypothesis")
        given, settings, st = (hypothesis.given, hypothesis.settings,
                               hypothesis.strategies)

        @given(st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            max_size=12))
        @settings(max_examples=60, deadline=None)
        def run(script):
            world, fns, manager = self._build()
            # Warm every cache before the first edit.
            self._assert_consistent(fns, manager)
            for code, arg in script:
                self._apply_edit(world, fns, code, arg)
                self._assert_consistent(fns, manager)

        run()


class TestAnalysisAudit:
    """``verify_analyses`` accepts patched caches and rejects stale ones."""

    def _warm(self, world, *entries):
        manager = world.analyses
        for entry in entries:
            for placement in Placement:
                manager.schedule(entry, placement)
        manager.top_level()
        return manager

    def test_patched_caches_pass(self, world):
        f = make_fib(world)
        g = make_loop_sum(world)
        self._warm(world, f, g)
        mem, n, ret = f.params
        world.mul(n, world.literal(ct.I64, 3))   # growth
        world.jump(f, ret, (mem, n))             # entry rewire
        verify_analyses(world)

    def test_planted_stale_scope_is_rejected(self, world):
        f = make_fib(world)
        manager = self._warm(world, f)
        k2 = next(c for c in manager.scope(f).continuations()
                  if c.name == "k2")
        del manager.scope(f)._defs[k2]
        with pytest.raises(VerifyError, match="stale cached scope"):
            verify_analyses(world)

    def test_missed_mutation_is_rejected(self, world):
        """A body rewire the manager never hears about leaves the
        cached CFG (and what hangs off it) stale."""
        f = make_fib(world)
        manager = self._warm(world, f)
        mem, n, ret = f.params
        world._analyses = None   # the note goes nowhere
        world.jump(f, ret, (mem, n))
        world._analyses = manager
        with pytest.raises(VerifyError, match="stale cached CFG"):
            verify_analyses(world)

    def test_planted_stale_top_level_is_rejected(self, world):
        make_fib(world)
        manager = self._warm(world)
        generation, tops = manager._top_level
        manager._top_level = (generation, tops[1:])
        with pytest.raises(VerifyError, match="top_level"):
            verify_analyses(world)

    def test_stale_entry_fails_the_pass_that_left_it(self):
        from repro import compile_source
        from repro.programs.suite import by_name
        from repro.transform.pipeline import (OptimizeOptions,
                                              PassVerifyError)

        def plant(phase, world):
            if phase != "inline":
                return
            entry = world.find_external("main")
            scope = world.analyses.scope(entry)
            victim = next(d for d in scope.defs() if d is not entry)
            del scope._defs[victim]

        program = by_name("quicksort")
        with pytest.raises(PassVerifyError) as info:
            compile_source(program.source, options=OptimizeOptions(
                strict=True, verify_each_pass=True, pass_hook=plant))
        assert info.value.phase == "inline"
        assert "stale cached scope" in str(info.value)

    def test_noop_claim_is_checked_under_verify(self, monkeypatch):
        """A phase the runner would skip as a no-op runs under
        ``verify_each_pass`` and must leave the generation unmoved."""
        import itertools

        from repro import compile_source
        from repro.programs.suite import by_name
        from repro.transform import pipeline
        from repro.transform.pipeline import (OptimizeOptions,
                                              PassVerifyError)

        real_cleanup = pipeline.cleanup
        salt = itertools.count()

        def leaky_cleanup(world):
            result = real_cleanup(world)
            world.literal(ct.I64, 10**9 + next(salt))   # a fresh def
            return result

        monkeypatch.setattr(pipeline, "cleanup", leaky_cleanup)
        source = by_name("compose").source
        compile_source(source, options=OptimizeOptions(strict=True))
        with pytest.raises(PassVerifyError) as info:
            compile_source(source, options=OptimizeOptions(
                strict=True, verify_each_pass=True))
        assert info.value.phase.startswith("cleanup(")
        assert "no-op" in str(info.value)


class TestCachedPipelineIdentity:
    PROGRAMS = ("quicksort", "sort_hof", "compose", "sieve")

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_bit_identical_ir_and_behaviour(self, name):
        """The audit under ``verify_each_pass`` queries the cache at a
        different cadence than the default compile; the output must not
        notice."""
        from repro import compile_source
        from repro.backend.interp import Interpreter
        from repro.core.printer import print_world
        from repro.programs.suite import by_name
        from repro.transform.pipeline import OptimizeOptions

        program = by_name(name)
        world_default = compile_source(program.source)
        world_audited = compile_source(
            program.source, options=OptimizeOptions(verify_each_pass=True))
        assert print_world(world_default) == print_world(world_audited)
        ref = Interpreter(world_default)
        got = Interpreter(world_audited)
        assert (ref.call(program.entry, *program.test_args)
                == got.call(program.entry, *program.test_args))
        assert "".join(ref.output) == "".join(got.output)

    def _emitted(self, name):
        from repro.frontend import compile_to_ast, emit_module
        from repro.programs.suite import by_name

        world = World("t")
        emit_module(compile_to_ast(by_name(name).source), world)
        return world

    def test_cache_telemetry(self):
        from repro.transform.pipeline import optimize

        stats = optimize(self._emitted("quicksort"))
        assert stats.analysis_cache["hits"] > 0
        assert "enabled" not in stats.analysis_cache
        assert stats.checkpoints_reused > 0, \
            "quiescent phases should reuse the previous checkpoint"

    def test_counters_are_per_call(self):
        """Two ``optimize`` calls on one world (the PGO path) each
        report only their own analysis work."""
        from repro.transform.pipeline import optimize

        world = self._emitted("quicksort")
        first = optimize(world).analysis_cache
        second = optimize(world).analysis_cache
        lifetime = vars(world.analyses.stats)
        assert set(first) == set(second) == set(lifetime)
        for name, total in lifetime.items():
            assert first[name] + second[name] == total, name
        assert first["scope_refloods"] > 0
        assert second["misses"] == 0
        assert second["scope_refloods"] == 0
