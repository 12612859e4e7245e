"""UndoLog checkpoints: first-touch rollback must be byte-identical.

The pipeline's per-phase checkpoints are :class:`repro.core.undo.UndoLog`
instances, its only rollback mechanism.  These tests drive the full mutation surface — body rewires, new defs,
registry surgery, param surgery, external flags, GVN-hit renames —
and require ``restore()`` to reproduce the armed world exactly, as
printed and as executed.
"""

import pytest

import repro.core.types as ct
from repro.core.printer import print_world
from repro.core.undo import UndoLog
from repro.core.verify import verify
from repro.core.world import World
from repro.frontend import compile_source
from repro.backend.interp import Interpreter
from repro.transform.pipeline import OptimizeOptions, optimize

from .helpers import FN_I64, RET_I64, make_fib, make_loop_sum


def _fingerprint(world):
    return (print_world(world), world._gid, world._slot_id,
            world._alloc_id, world._global_id,
            [c.gid for c in world._continuations],
            sorted(world._externals),
            world.stats.gvn_hits, world.stats.gvn_misses,
            world.stats.folds,
            [(key, op.gid) for key, op in world._primops.items()],
            sorted((name, c.gid) for name, c in world._intrinsics.items()))


class TestRoundtrip:
    def test_body_rewire_roundtrip(self):
        world = World()
        fib = make_fib(world)
        undo = UndoLog(world)
        before = _fingerprint(world)

        ret = fib.params[2]
        fib.jump(ret, [fib.params[0], world.literal(ct.I64, 7)])
        assert _fingerprint(world) != before

        undo.restore()
        assert _fingerprint(world) == before
        verify(world, full=True)

    def test_new_defs_become_garbage(self):
        world = World()
        f = make_loop_sum(world)
        undo = UndoLog(world)
        before = _fingerprint(world)

        g = world.continuation(FN_I64, "extra")
        g.jump(f, [g.params[0], world.literal(ct.I64, 3), g.params[2]])
        world.make_external(g)
        # A new user of f's parameter would sit in f's scope.
        stray = world.mul(f.params[1], world.literal(ct.I64, 7))

        undo.restore()
        assert _fingerprint(world) == before
        assert g not in world._continuations
        assert not any(user in (g, stray)
                       for d in (f, f.params[1]) for user, _ in d.uses)
        verify(world, full=True)

    def test_param_surgery_roundtrip(self):
        world = World()
        f = world.continuation(FN_I64, "f")
        undo = UndoLog(world)
        before_type = f.type
        before_params = tuple(f.params)

        p = f.append_param(ct.I64, "late")
        assert f.num_params == 4 and p.index == 3
        f.remove_param(1)
        assert f.params[1].index == 1

        undo.restore()
        assert f.type is before_type
        assert tuple(f.params) == before_params
        assert [p.index for p in f.params] == [0, 1, 2]

    def test_external_flag_roundtrip(self):
        world = World()
        f = make_fib(world)
        world.make_external(f)
        undo = UndoLog(world)
        before = _fingerprint(world)

        world.remove_external(f)
        assert not f.is_external

        undo.restore()
        assert f.is_external
        assert _fingerprint(world) == before

    def test_global_rename_on_gvn_hit_roundtrip(self):
        world = World()
        make_fib(world)
        init = world.literal(ct.I64, 42)
        g1 = world.global_(init, is_mutable=False, name="first")
        undo = UndoLog(world)

        # Immutable globals share global_id 0: same init unifies to the
        # same op, and the new name lands on the pre-existing def.
        g2 = world.global_(init, is_mutable=False, name="second")
        assert g2 is g1 and g1.name == "second"

        undo.restore()
        assert g1.name == "first"

    def test_restore_rearms_at_checkpoint(self):
        world = World()
        fib = make_fib(world)
        undo = UndoLog(world)
        before = _fingerprint(world)

        ret = fib.params[2]
        fib.jump(ret, [fib.params[0], world.literal(ct.I64, 1)])
        undo.restore()
        assert undo.armed

        # A second round of damage against the re-armed log.
        fib.jump(ret, [fib.params[0], world.literal(ct.I64, 2)])
        undo.restore()
        assert _fingerprint(world) == before

    def test_generation_stays_monotone(self):
        world = World()
        fib = make_fib(world)
        undo = UndoLog(world)
        generation = world.generation
        fib.jump(fib.params[2], [fib.params[0], world.literal(ct.I64, 1)])
        undo.restore()
        assert world.generation > generation

    def test_wholesale_restore_disarms(self):
        world = World()
        make_fib(world)
        undo = UndoLog(world)
        world._note_all()
        assert not undo.armed
        assert world._undo is None


SOURCE = """
fn main(n: i64) -> i64 {
    let mut acc = 0;
    let mut i = 0;
    while i < n {
        acc += i * i;
        i += 1;
    }
    acc
}
"""


class TestPipelineRollback:
    def _run(self, world):
        return Interpreter(world).call("main", 9)

    def test_faulted_pass_rolls_back_through_undo_log(self):
        from repro.fuzz.inject import FaultInjector, FaultPlan

        expected_world = compile_source(SOURCE)
        expected = self._run(expected_world)

        world = compile_source(SOURCE, optimize=False)
        injector = FaultInjector(FaultPlan("raise", target="inline"))
        stats = optimize(world, options=OptimizeOptions(pass_hook=injector))
        assert stats.rollbacks >= 1
        assert any("inline" in key for key in stats.quarantined)
        verify(world, full=True)
        assert self._run(world) == expected

    def test_rollback_matches_phase_boundary(self, monkeypatch):
        """Rolling a faulted phase back through the undo log leaves
        exactly the world of the previous phase boundary — printed IR,
        counters, registries and value-numbering table — including no
        trace of the defs the faulted phase created on the use lists of
        surviving ones."""
        from repro.fuzz.inject import FaultInjector, FaultPlan
        from repro.programs.suite import by_name

        real_restore = UndoLog.restore
        for name, target in (("compose", "inline"),
                             ("filter_image", "lambda_drop"),
                             ("dot_generic", "closure_elim"),
                             ("nbody", "mem_opt")):
            injector = FaultInjector(FaultPlan("raise", target=target))
            boundaries = []
            rolled_back = []

            def hook(phase, world):
                injector(phase, world)   # raises on the target
                boundaries.append(_fingerprint(world))

            def restore(log):
                faulted = _fingerprint(log.world)
                real_restore(log)
                rolled_back.append(
                    (faulted, _fingerprint(log.world), boundaries[-1]))

            monkeypatch.setattr(UndoLog, "restore", restore)
            world = compile_source(by_name(name).source, optimize=False)
            stats = optimize(world, options=OptimizeOptions(pass_hook=hook))
            monkeypatch.undo()
            assert stats.rollbacks == 1, name
            ((faulted, undone, boundary),) = rolled_back
            assert faulted != undone, f"{name}: {target} changed nothing"
            assert undone == boundary, name
            verify(world, full=True)

    def test_pipeline_disarms_on_exit(self):
        world = compile_source(SOURCE)
        assert world._undo is None
