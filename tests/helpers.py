"""Shared helpers for the test suite: tiny IR builders used everywhere,
the committed fuzz repros, and one observation of a profiled VM run."""

from __future__ import annotations

import ast
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.backend import bytecode as bc
from repro.backend.codegen import compile_world
from repro.core import types as ct
from repro.core.defs import Continuation
from repro.core.limits import ResourceLimitError, trap_kind
from repro.core.world import World
from repro.profile import ProfileCollector

CORPUS = Path(__file__).parent / "corpus"

RET_I64 = ct.fn_type((ct.MEM, ct.I64))
FN_I64 = ct.fn_type((ct.MEM, ct.I64, RET_I64))


def make_identity(world: World, name: str = "id") -> Continuation:
    """fn id(mem, x, ret) = ret(mem, x)"""
    cont = world.continuation(FN_I64, name)
    mem, x, ret = cont.params
    world.jump(cont, ret, (mem, x))
    return cont


def make_add_const(world: World, constant: int, name: str = "addc") -> Continuation:
    """fn addc(mem, x, ret) = ret(mem, x + constant)"""
    cont = world.continuation(FN_I64, name)
    mem, x, ret = cont.params
    world.jump(cont, ret, (mem, world.add(x, world.literal(ct.I64, constant))))
    return cont


def make_fib(world: World, name: str = "fib") -> Continuation:
    """The classic doubly recursive fib, built directly as a graph."""
    fib = world.continuation(FN_I64, name)
    mem, n, ret = fib.params
    then_bb = world.basic_block((ct.MEM,), "then")
    else_bb = world.basic_block((ct.MEM,), "else")
    world.jump(fib, world.branch(),
               (mem, world.lt(n, world.literal(ct.I64, 2)), then_bb, else_bb))
    world.jump(then_bb, ret, (then_bb.params[0], n))
    k1 = world.continuation(RET_I64, "k1")
    k2 = world.continuation(RET_I64, "k2")
    world.jump(else_bb, fib,
               (else_bb.params[0], world.sub(n, world.one(ct.I64)), k1))
    world.jump(k1, fib,
               (k1.params[0], world.sub(n, world.literal(ct.I64, 2)), k2))
    world.jump(k2, ret, (k2.params[0], world.add(k1.params[1], k2.params[1])))
    return fib


def make_loop_sum(world: World, name: str = "sum_to") -> Continuation:
    """fn sum_to(mem, n, ret): sum of 0..n-1 via a loop of blocks."""
    f = world.continuation(FN_I64, name)
    mem, n, ret = f.params
    head = world.basic_block((ct.I64, ct.I64, ct.MEM), "head")
    i, acc, hmem = head.params
    body = world.basic_block((ct.MEM,), "body")
    exit_ = world.basic_block((ct.MEM,), "exit")
    world.jump(f, head, (world.zero(ct.I64), world.zero(ct.I64), mem))
    world.jump(head, world.branch(), (hmem, world.lt(i, n), body, exit_))
    world.jump(body, head,
               (world.add(i, world.one(ct.I64)), world.add(acc, i),
                body.params[0]))
    world.jump(exit_, ret, (exit_.params[0], acc))
    return f


def path_dominators(cfg) -> dict:
    """Dominator sets by the path definition, for checking ``CFG``.

    ``a`` dominates ``b`` iff ``a is b`` or removing ``a`` disconnects
    ``b`` from the entry.  Quadratic brute force over the reachable
    nodes: the reference the CFG's bitmask dominance is checked against.
    """
    def reaches_without(target, removed) -> bool:
        seen = set()
        stack = [cfg.entry]
        while stack:
            node = stack.pop()
            if node is removed or node in seen:
                continue
            seen.add(node)
            if node is target:
                return True
            stack.extend(cfg.succs(node))
        return False

    nodes = cfg.nodes()
    return {b: {a for a in nodes
                if a is b or not reaches_without(b, a)}
            for b in nodes}


def assert_dominance_matches_paths(cfg) -> None:
    """``CFG.dominates``/``idom``/``dom_lca``/``dom_depth`` against
    :func:`path_dominators`."""
    doms = path_dominators(cfg)

    def deepest(candidates):
        # Dominators of a node form a chain, so the deepest is unique.
        return max(candidates, key=lambda n: len(doms[n]))

    for b, dominators in doms.items():
        assert cfg.dom_depth(b) == len(dominators) - 1, b
        strict = dominators - {b}
        assert cfg.idom(b) is (deepest(strict) if strict else b), b
        for a in doms:
            assert cfg.dominates(a, b) == (a in dominators), (a, b)
            assert cfg.dom_lca(a, b) is deepest(doms[a] & dominators), \
                (a, b)


# ---------------------------------------------------------------------------
# the fuzz repro corpus and VM observations
# ---------------------------------------------------------------------------


def corpus_repros() -> list:
    """Every committed fuzz repro as ``pytest.param(source, entry,
    arg_sets)``, with the file's stem as the test id."""
    cases = []
    for path in sorted(CORPUS.glob("*.impala")):
        lines = path.read_text().splitlines()
        meta = dict(field.split(" ", 1)
                    for field in lines[1].removeprefix("// ").split("; "))
        source = "\n".join(l for l in lines if not l.startswith("//"))
        arg_sets = [list(args) for args in ast.literal_eval(meta["args"])]
        cases.append(pytest.param(source, meta["entry"], arg_sets,
                                  id=path.stem))
    return cases


def vm_observation(world: World, entry: str, arg_sets, *,
                   profile: bool = True, max_steps: int | None = None):
    """Everything one VM image shows over *arg_sets*.

    Per call the value, trap kind and print stream; then the retired
    instruction count and, when profiling, the raw collector maps.
    """
    collector = ProfileCollector() if profile else None
    compiled = compile_world(world, profile=collector, max_steps=max_steps)
    runs = []
    for args in arg_sets:
        mark = len(compiled.vm.output)
        try:
            value, trap = compiled.call(entry, *args), None
        except (bc.VMError, ResourceLimitError) as exc:
            value, trap = None, trap_kind(exc)
        runs.append((value, trap, "".join(compiled.vm.output[mark:])))
    if collector is None:
        return runs, compiled.vm.executed
    return (runs, compiled.vm.executed, dict(collector.entries),
            dict(collector.calls), dict(collector.edges))


@contextmanager
def unfused_stream():
    """Run the VM's dispatch loop over the source stream, the reference
    the fused superinstruction stream must match exactly."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bc.VMFunction, "fused", lambda self: self.code)
        yield
