"""Scheduling: placing floating primops into CFG blocks.

In Thorin, primops have no home — data dependencies (including the
``mem`` token for effects) are the only ordering.  Code generation and
human-readable printing need a *schedule*: an assignment of each primop
to a continuation (block) plus a block-local order.

Three placement policies, following the sea-of-nodes playbook:

* **early** — the shallowest legal block: the dominance-deepest block
  among the placements of the operands (params pin to their
  continuation).
* **late** — the deepest legal block: the dominator LCA of all users'
  placements.
* **smart** (default) — walk the idom chain from late up to early and
  pick the deepest block with minimal loop depth: loop-invariant code
  motion and rematerialization-avoidance fall out, no dedicated LICM
  pass required (experiment A2 measures exactly this).

All dominance questions are answered by the CFG's availability bitmasks
(:meth:`CFG.dom_depth` and friends) — no dominator tree is built, so
scheduling needs only a Scope, a CFG and a LoopTree, all of which the
analysis manager maintains incrementally.

Safety: operations that can trap (integer division) or touch memory are
never hoisted above their *late* placement, so a schedule cannot
introduce a fault or reorder effects — their relative order is fixed by
the mem token threading anyway.
"""

from __future__ import annotations

import enum

from .cfg import CFG
from .defs import Continuation, Def, Param
from .looptree import LoopTree
from .primops import (ArithKind, ArithOp, EvalOp, Extract, MemOp, PrimOp,
                      Slot)
from .scope import Scope


class Placement(enum.Enum):
    EARLY = "early"
    LATE = "late"
    SMART = "smart"


def _is_sinkable_only(op: PrimOp) -> bool:
    """Ops that must not be hoisted above their late placement."""
    if isinstance(op, (MemOp, Slot)):
        return True
    if isinstance(op, ArithOp) and op.kind.is_division:
        prim = op.type
        from .types import PrimType

        return isinstance(prim, PrimType) and prim.is_int
    return False


class Schedule:
    """A placement of every live primop of a scope into its CFG blocks."""

    def __init__(self, scope: Scope, placement: Placement = Placement.SMART,
                 cfg: CFG | None = None, looptree: LoopTree | None = None):
        self.scope = scope
        self.placement = placement
        self.cfg = cfg if cfg is not None else CFG(scope)
        self.looptree = looptree if looptree is not None else LoopTree(self.cfg)
        self._early: dict[Def, Continuation] = {}
        self._late: dict[PrimOp, Continuation] = {}
        self._block_of: dict[PrimOp, Continuation] = {}
        self._blocks: dict[Continuation, list[PrimOp]] = {
            c: [] for c in self.cfg.continuations()
        }
        self._run()

    # ------------------------------------------------------------------

    def block_of(self, op: PrimOp) -> Continuation:
        """The block the schedule placed *op* in."""
        return self._block_of[op]

    def ops_in(self, block: Continuation) -> list[PrimOp]:
        """Primops of *block*, in executable (dependence-respecting) order."""
        return self._blocks[block]

    def blocks(self) -> list[Continuation]:
        """Blocks in reverse postorder."""
        return self.cfg.continuations()

    def __contains__(self, op: PrimOp) -> bool:
        return op in self._block_of

    # ------------------------------------------------------------------

    def _live_primops(self) -> list[PrimOp]:
        """Scope primops transitively used by reachable bodies, topo order.

        Parameter-free primops normally float outside every scope and
        are materialized as constants by the backends — except ops that
        can trap or touch memory (a constant ``0/0`` must still trap at
        its original program point), which are scheduled like scoped ops.
        """
        order: list[PrimOp] = []
        visited: set[Def] = set()

        def visit(d: Def) -> None:
            if d in visited or not isinstance(d, PrimOp):
                return
            if d not in self.scope and not _is_sinkable_only(d):
                return
            visited.add(d)
            for op in d.ops:
                visit(op)
            order.append(d)

        for cont in self.cfg.continuations():
            if cont.has_body():
                for op in cont.ops:
                    visit(op)
        return order

    def _run(self) -> None:
        live = self._live_primops()  # operands precede users
        entry = self.cfg.entry
        depth = self.cfg.dom_depth
        lca_of = self.cfg.dom_lca

        # -- early pass (topological: operands already placed) ----------
        for op in live:
            block = entry
            for operand in op.ops:
                ob = self._early_of(operand)
                if ob is not None and depth(ob) > depth(block):
                    block = ob
            self._early[op] = block

        # -- late pass (reverse topological: users already placed) ------
        users_known: dict[PrimOp, Continuation] = self._late
        for op in reversed(live):
            lca: Continuation | None = None
            for user, _ in op.uses:
                if isinstance(user, Continuation):
                    if user in self._blocks:
                        lca = user if lca is None else lca_of(lca, user)
                elif isinstance(user, PrimOp):
                    ub = users_known.get(user)
                    if ub is not None:
                        lca = ub if lca is None else lca_of(lca, ub)
            if lca is None:
                # Only used by dead code; park at its early block.
                lca = self._early[op]
            users_known[op] = lca

        # -- choose (topological: operands' *final* placements are known,
        # so a pure op can never be hoisted above a late-pinned operand)
        for op in live:
            self._block_of[op] = self._choose(op)

        # -- block-local ordering ----------------------------------------
        # `live` is already topologically sorted, so appending in that
        # order keeps every op after the ops it depends on.
        for op in live:
            self._blocks[self._block_of[op]].append(op)

    def _early_of(self, d: Def) -> Continuation | None:
        if isinstance(d, Param):
            cont = d.continuation
            return cont if cont in self._blocks else None
        if isinstance(d, PrimOp):
            return self._early.get(d)
        return None  # continuations & out-of-scope defs don't constrain

    def _choose(self, op: PrimOp) -> Continuation:
        late = self._late[op]
        # The hoisting floor: the dominance-deepest *final* placement of
        # any operand (not its tentative early block — an operand pinned
        # late must keep its users below it).
        depth = self.cfg.dom_depth
        floor = self.cfg.entry
        for operand in op.ops:
            ob = self._operand_block(operand)
            if ob is not None and depth(ob) > depth(floor):
                floor = ob
        if not self.cfg.dominates(floor, late):
            # Dead-code parking or unreachable user; keep the floor.
            return floor
        if self.placement is Placement.LATE or _is_sinkable_only(op):
            return late
        if self.placement is Placement.EARLY:
            return floor
        # smart: deepest block on the idom path [late .. floor] with
        # minimal loop depth.
        best = late
        node = late
        while True:
            if self.looptree.depth(node) < self.looptree.depth(best):
                best = node
            if node is floor:
                break
            node = self.cfg.idom(node)
        return best

    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Assert schedule legality (used by tests).

        Every op must be placed in a block dominated by its operands'
        blocks, and every user must be placed in a block dominated by the
        op's block.
        """
        for op, block in self._block_of.items():
            for operand in op.ops:
                ob = self._operand_block(operand)
                if ob is not None:
                    assert self.cfg.dominates(ob, block), (
                        f"{op.unique_name()} in {block.name} not dominated by "
                        f"operand {operand.unique_name()} in {ob.name}"
                    )
            local = self._blocks[block]
            for operand in op.ops:
                if isinstance(operand, PrimOp) and self._block_of.get(operand) is block:
                    assert local.index(operand) < local.index(op), (
                        f"block-local order violation: {operand.unique_name()} "
                        f"after its user {op.unique_name()}"
                    )

    def verify_effect_order(self) -> None:
        """Every memory op is listed after its effect-thread predecessor.

        ``transform.mem_opt`` splits the single mem chain into per-region
        threads, each of which is ordinary data dependence — so any
        topological block-local order preserves them.  The backends call
        this at emission time to pin that invariant: a load/store must
        never run before the op producing its incoming token.  Cheap
        (one pass over the placed ops), unlike the full :meth:`verify`.
        """
        for block, ops in self._blocks.items():
            pos = {op: i for i, op in enumerate(ops)}
            for op in ops:
                if not isinstance(op, MemOp) or isinstance(op, Slot):
                    continue
                token = op.mem
                while isinstance(token, EvalOp):
                    token = token.value
                producers = [token]
                if isinstance(token, Extract):
                    producers.append(token.agg)
                for producer in producers:
                    if (isinstance(producer, PrimOp)
                            and pos.get(producer, -1) > pos[op]):
                        raise AssertionError(
                            f"effect-thread order violation in "
                            f"{block.unique_name()}: {op.unique_name()} "
                            f"before its token producer "
                            f"{producer.unique_name()}"
                        )

    def _operand_block(self, d: Def) -> Continuation | None:
        if isinstance(d, Param):
            cont = d.continuation
            return cont if cont in self._blocks else None
        if isinstance(d, PrimOp):
            return self._block_of.get(d)
        return None
