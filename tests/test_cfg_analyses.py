"""Tests for CFG recovery, dominance, loop forest, and scheduling."""

import pytest

from repro.core import types as ct
from repro.core.cfg import CFG, ExitNode
from repro.core.looptree import LoopTree
from repro.core.schedule import Placement, Schedule
from repro.core.scope import Scope
from repro.core.world import World

from .helpers import (FN_I64, assert_dominance_matches_paths, make_fib,
                      make_loop_sum)


@pytest.fixture()
def world():
    return World("test")


def names(nodes):
    return [getattr(n, "name", "EXIT") for n in nodes]


class TestCFG:
    def test_diamond(self, world):
        f = world.continuation(ct.fn_type((ct.MEM, ct.BOOL, RET_BOOL)), "f")
        mem, cond, ret = f.params
        t = world.basic_block((ct.MEM,), "t")
        e = world.basic_block((ct.MEM,), "e")
        join = world.basic_block((ct.MEM, ct.BOOL), "join")
        world.jump(f, world.branch(), (mem, cond, t, e))
        world.jump(t, join, (t.params[0], world.true_()))
        world.jump(e, join, (e.params[0], world.false_()))
        world.jump(join, ret, (join.params[0], join.params[1]))
        cfg = CFG(Scope(f))
        assert names(cfg.succs(f)) == ["t", "e"]
        assert names(cfg.succs(t)) == ["join"]
        assert names(cfg.preds(join)) == ["t", "e"]
        assert isinstance(cfg.succs(join)[0], ExitNode)

    def test_rpo_starts_at_entry(self, world):
        fib = make_fib(world)
        cfg = CFG(Scope(fib))
        assert cfg.nodes()[0] is fib

    def test_call_return_edges(self, world):
        fib = make_fib(world)
        cfg = CFG(Scope(fib))
        by_name = {c.name: c for c in cfg.continuations()}
        # else calls fib passing k1: edge else -> k1 (call-return)
        assert "k1" in names(cfg.succs(by_name["else"]))
        assert "k2" in names(cfg.succs(by_name["k1"]))

    def test_unreachable_block_not_in_cfg(self, world):
        f = world.continuation(FN_I64, "f")
        mem, x, ret = f.params
        dead = world.basic_block((ct.MEM,), "dead")
        world.jump(dead, ret, (dead.params[0], x))  # uses f's params
        world.jump(f, ret, (mem, x))
        cfg = CFG(Scope(f))
        assert dead in Scope(f)
        assert dead not in cfg


RET_BOOL = ct.fn_type((ct.MEM, ct.BOOL))


class TestDominance:
    """Dominance comes from the CFG's availability bitmasks; no
    dominator tree is ever built."""

    def test_dominance_basics(self, world):
        fib = make_fib(world)
        cfg = CFG(Scope(fib))
        by_name = {c.name: c for c in cfg.continuations()}
        assert cfg.idom(by_name["then"]) is fib
        assert cfg.dominates(fib, by_name["k2"])
        assert not cfg.dominates(by_name["then"], by_name["else"])
        assert cfg.dominates(by_name["else"], by_name["k1"])

    def test_dominates_is_reflexive(self, world):
        fib = make_fib(world)
        cfg = CFG(Scope(fib))
        for node in cfg.nodes():
            assert cfg.dominates(node, node)

    def test_dominance_matches_path_definition(self, world):
        """a dom b iff removing a disconnects b from the entry — and
        idom, LCA and depth follow from the same dominator sets."""
        loop = make_loop_sum(world)
        assert_dominance_matches_paths(CFG(Scope(loop)))

    def test_lca(self, world):
        fib = make_fib(world)
        cfg = CFG(Scope(fib))
        by_name = {c.name: c for c in cfg.continuations()}
        assert cfg.dom_lca(by_name["then"], by_name["else"]) is fib
        assert cfg.dom_lca(by_name["k1"], by_name["k2"]) is by_name["k1"]


class TestLoopTree:
    def test_simple_loop_depths(self, world):
        loop = make_loop_sum(world)
        cfg = CFG(Scope(loop))
        tree = LoopTree(cfg)
        by_name = {c.name: c for c in cfg.continuations()}
        assert tree.depth(loop) == 0
        assert tree.depth(by_name["head"]) == 1
        assert tree.depth(by_name["body"]) == 1
        assert tree.depth(by_name["exit"]) == 0

    def test_nested_loops(self, world):
        # for i { for j { } } built by the frontend
        from repro import compile_source

        w = compile_source("""
fn main(n: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n {
        for j in 0..n { acc += i * j; }
    }
    acc
}
""", optimize=False)
        main = w.find_external("main")
        cfg = CFG(Scope(main))
        tree = LoopTree(cfg)
        depths = {}
        for c in cfg.continuations():
            depths.setdefault(tree.depth(c), []).append(c.name)
        assert max(depths) == 2  # inner loop nests inside outer
        inner = " ".join(depths[2])
        assert "for_head" in inner or "for_body" in inner

    def test_no_loops_in_fib(self, world):
        # fib's recursion is via calls, but the conservative call-return
        # edges create a back edge to the entry; the entry loop is fine.
        fib = make_fib(world)
        tree = LoopTree(CFG(Scope(fib)))
        assert tree.depth(fib) <= 1


class TestSchedule:
    def test_schedule_is_legal(self, world):
        for make in (make_fib, make_loop_sum):
            w = World()
            f = make(w)
            for placement in Placement:
                Schedule(Scope(f), placement).verify()

    def test_all_live_ops_placed(self, world):
        loop = make_loop_sum(world)
        sched = Schedule(Scope(loop))
        placed = [op for b in sched.blocks() for op in sched.ops_in(b)]
        assert any(op.op_name() == "cmp.lt" for op in placed)
        assert sum(1 for op in placed if op.op_name() == "add") == 2

    def test_smart_hoists_loop_invariant(self):
        from repro import compile_source
        from repro.core.schedule import Schedule, Placement
        from repro.core.scope import Scope

        w = compile_source("""
fn main(n: i64, k: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n {
        acc += i * (k * 31 + 7);
    }
    acc
}
""", optimize=False)
        main = w.find_external("main")
        scope = Scope(main)
        smart = Schedule(scope, Placement.SMART)
        late = Schedule(scope, Placement.LATE)
        tree = smart.looptree

        def depth_of_invariant(sched):
            for block in sched.blocks():
                for op in sched.ops_in(block):
                    if op.op_name() == "mul" and any(
                        getattr(o, "value", None) == 31 for o in op.ops
                    ):
                        return sched.looptree.depth(block)
            raise AssertionError("k*31 not found")

        assert depth_of_invariant(smart) < depth_of_invariant(late)

    def test_division_never_hoisted_above_late(self):
        from repro import compile_source
        from repro.core.schedule import Schedule, Placement
        from repro.core.scope import Scope

        w = compile_source("""
fn main(a: i64, b: i64) -> i64 {
    if b != 0 { a / b } else { 0 }
}
""", optimize=False)
        main = w.find_external("main")
        sched = Schedule(Scope(main), Placement.EARLY)
        for block in sched.blocks():
            for op in sched.ops_in(block):
                if op.op_name() == "div":
                    # must not sit in the entry (before the b != 0 guard)
                    assert block is not main
