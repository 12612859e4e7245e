"""Control-flow graph of a scope.

Thorin stores no CFG; control flow *is* the jumps.  This module recovers
a conservative CFG for one scope, which dominance, loop analysis and the
scheduler consume.

Nodes are the scope's continuations reachable from the entry, plus a
virtual *exit*.  Successor rules for a body ``callee(args)``:

* ``branch``/``match`` intrinsics: the target arguments;
* other intrinsics (I/O): call-like — the in-scope return continuations
  among the arguments;
* an in-scope continuation: that continuation;
* an out-of-scope continuation (a call to another function): the
  in-scope fn-typed arguments (the return continuations we pass);
  if none, the exit;
* a parameter of the entry (e.g. the return continuation): the exit —
  its value is always bound by out-of-scope callers;
* anything else (parameter of an inner continuation, first-class value
  from a ``select``/``extract``): the *address-taken* set — every
  in-scope continuation that occurs somewhere in the scope in a
  non-callee position — plus the exit.  This is the CFA(0)-style
  over-approximation the paper relies on: precise enough for dominance
  and scheduling, sound in the presence of higher-order control flow.
"""

from __future__ import annotations

from typing import Iterable

from .defs import Continuation, Def, Intrinsic, Param
from .primops import Select, peel_markers
from .scope import Scope


class ExitNode:
    """The virtual exit of a scope's CFG."""

    def __init__(self, scope: Scope):
        self.name = f"<exit {scope.entry.unique_name()}>"
        self.gid = -1

    def unique_name(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


CFGNode = "Continuation | ExitNode"


class CFG:
    """Forward CFG of a scope (reachable part), with RPO numbering."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.entry = scope.entry
        self.exit = ExitNode(scope)
        self._succs: dict[object, list[object]] = {}
        self._preds: dict[object, list[object]] = {}
        self._address_taken: list[Continuation] | None = None
        self._build()
        self._rpo: list[object] = self._compute_rpo()
        self._rpo_index = {n: i for i, n in enumerate(self._rpo)}
        self._dom_masks: list[int] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _compute_address_taken(self) -> list[Continuation]:
        if self._address_taken is None:
            taken: dict[Continuation, None] = {}
            for d in self.scope.defs():
                ops = d.ops
                start = 1 if isinstance(d, Continuation) and ops else 0
                for op in ops[start:]:
                    op = peel_markers(op)
                    if isinstance(op, Continuation) and op in self.scope:
                        taken.setdefault(op, None)
            self._address_taken = list(taken)
        return self._address_taken

    def _successors_of(self, cont: Continuation) -> list[object]:
        if not cont.has_body():
            return [self.exit]
        callee = peel_markers(cont.callee)
        args = cont.args
        succs: dict[object, None] = {}

        def add_scoped_cont(d: Def) -> None:
            d = peel_markers(d)
            if isinstance(d, Continuation) and d in self.scope:
                succs.setdefault(d, None)

        if isinstance(callee, Continuation):
            if callee.intrinsic == Intrinsic.BRANCH:
                add_scoped_cont(args[2])
                add_scoped_cont(args[3])
            elif callee.intrinsic == Intrinsic.MATCH:
                add_scoped_cont(args[2])
                for arm in args[3:]:
                    # (literal, target) tuples
                    if arm.num_ops == 2:
                        add_scoped_cont(arm.op(1))
            else:
                # Direct jump (in scope), or a call to another function.
                # Either way, every in-scope continuation we pass along
                # may receive control later (return continuations, join
                # points handed to callees) — conservative call-return
                # edges.
                if callee in self.scope:
                    succs[callee] = None
                for arg in args:
                    add_scoped_cont(arg)
            if not succs:
                succs[self.exit] = None
        elif isinstance(callee, Param) and callee.continuation is self.entry:
            # Returning through an entry parameter: control leaves the
            # scope, except for in-scope continuations we hand out.
            for arg in args:
                add_scoped_cont(arg)
            succs[self.exit] = None
        elif isinstance(callee, Select):
            for arm in (callee.tval, callee.fval):
                arm = peel_markers(arm)
                if isinstance(arm, Continuation) and arm in self.scope:
                    succs[arm] = None
                else:
                    for t in self._compute_address_taken():
                        succs[t] = None
                    succs[self.exit] = None
            for arg in args:
                add_scoped_cont(arg)
        else:
            # Unknown first-class callee: anything whose address was
            # taken in this scope, or control leaves the scope.
            for t in self._compute_address_taken():
                succs[t] = None
            for arg in args:
                add_scoped_cont(arg)
            succs[self.exit] = None
        return list(succs)

    def _build(self) -> None:
        self._succs[self.exit] = []
        self._preds[self.exit] = []
        worklist = [self.entry]
        self._succs[self.entry] = []
        while worklist:
            cont = worklist.pop()
            succs = self._successors_of(cont)
            self._succs[cont] = succs
            for s in succs:
                if s not in self._succs and isinstance(s, Continuation):
                    self._succs[s] = []
                    worklist.append(s)
        for node, succs in list(self._succs.items()):
            self._preds.setdefault(node, [])
            for s in succs:
                self._preds.setdefault(s, []).append(node)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------

    def _still_valid(self, dirty: "Iterable[Continuation]") -> bool:
        """Check whether body rewires of *dirty* members left the CFG
        byte-identical.

        Sound under the caller's contract that scope membership did not
        change and only the listed continuations' bodies were rewired:
        a node's successor set depends only on its own body, the member
        set, and the scope-wide address-taken set — so it suffices to
        re-derive the address-taken set plus the dirty nodes' successor
        lists and compare.  On a match every downstream artifact (RPO,
        dominance masks, loop tree, placements) is provably unchanged.
        """
        old_taken = self._address_taken
        self._address_taken = None
        if old_taken is not None and self._compute_address_taken() != old_taken:
            return False
        for cont in dirty:
            old = self._succs.get(cont)
            if old is None:
                continue  # unreachable: its body is invisible to the CFG
            if self._successors_of(cont) != old:
                return False
        return True

    def _refresh(self) -> None:
        """Rebuild edges/RPO in place after member bodies changed.

        Runs the exact construction sequence of ``__init__`` on the
        (surviving) scope, so a refreshed CFG is bit-identical to a
        from-scratch one — only the expensive scope flood is skipped.
        """
        self._succs = {}
        self._preds = {}
        self._address_taken = None
        self._build()
        self._rpo = self._compute_rpo()
        self._rpo_index = {n: i for i, n in enumerate(self._rpo)}
        self._dom_masks = None

    def _compute_rpo(self) -> list[object]:
        post: list[object] = []
        visited: set[object] = set()

        def visit(node: object) -> None:
            stack = [(node, iter(self._succs.get(node, ())))]
            visited.add(node)
            while stack:
                top, it = stack[-1]
                advanced = False
                for s in it:
                    if s not in visited:
                        visited.add(s)
                        stack.append((s, iter(self._succs.get(s, ()))))
                        advanced = True
                        break
                if not advanced:
                    post.append(top)
                    stack.pop()

        visit(self.entry)
        post.reverse()
        return post

    # ------------------------------------------------------------------
    # dominance (availability bitmasks)
    # ------------------------------------------------------------------
    #
    # The scheduler needs dominance *queries* (depth, dominates, LCA,
    # idom walks), not a dominator tree datastructure.  We answer them
    # from availability sets: ``avail(n) = {n} ∪ ⋂ avail(p)`` over n's
    # predecessors — the textbook dataflow formulation of dominance —
    # computed to a fixpoint in reverse postorder with one Python int
    # per node as the bitset (bit i = the node with RPO index i).
    #
    # Every query then falls out of two facts: (a) a strict dominator
    # precedes its dominee in any RPO, and (b) the dominators of a node
    # form a chain ordered by dominance.  Hence within ``avail(n)`` the
    # set bits, read from high to low, walk the dominator chain from n
    # up to the entry:
    #
    # * depth(n)        = popcount(avail(n)) - 1
    # * dominates(a,b)  = bit rpo(a) set in avail(b)
    # * lca(a,b)        = node of the highest bit of avail(a) & avail(b)
    # * idom(n)         = node of the highest bit after clearing n's own
    #
    # No tree is ever built, so there is nothing to incrementally
    # maintain — the masks are a pure function of the CFG edges and are
    # recomputed lazily when a patched CFG invalidates them.

    def _compute_dom_masks(self) -> list[int]:
        rpo = self._rpo
        index = self._rpo_index
        n = len(rpo)
        full = (1 << n) - 1
        masks = [full] * n
        masks[0] = 1  # the entry is dominated only by itself
        preds = [[index[p] for p in self._preds[node]] for node in rpo]
        changed = True
        while changed:
            changed = False
            for i in range(1, n):
                acc = full
                for pi in preds[i]:
                    acc &= masks[pi]
                acc |= 1 << i
                if acc != masks[i]:
                    masks[i] = acc
                    changed = True
        return masks

    def _dom_mask(self, node: object) -> int:
        masks = self._dom_masks
        if masks is None:
            masks = self._dom_masks = self._compute_dom_masks()
        return masks[self._rpo_index[node]]

    def dom_depth(self, node: object) -> int:
        """Dominator-tree depth of *node* (entry = 0), without a tree."""
        return self._dom_mask(node).bit_count() - 1

    def dominates(self, a: object, b: object) -> bool:
        """Does *a* dominate *b* (reflexively)?"""
        return self._dom_mask(b) >> self._rpo_index[a] & 1 == 1

    def dom_lca(self, a: object, b: object) -> object:
        """Least common ancestor of *a* and *b* in the dominator tree."""
        common = self._dom_mask(a) & self._dom_mask(b)
        return self._rpo[common.bit_length() - 1]

    def idom(self, node: object) -> object:
        """Immediate dominator (the entry is its own idom)."""
        rest = self._dom_mask(node) ^ (1 << self._rpo_index[node])
        if rest == 0:
            return node  # the entry
        return self._rpo[rest.bit_length() - 1]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def nodes(self) -> list[object]:
        """All reachable nodes in reverse postorder (entry first)."""
        return list(self._rpo)

    def continuations(self) -> list[Continuation]:
        return [n for n in self._rpo if isinstance(n, Continuation)]

    def succs(self, node: object) -> list[object]:
        return self._succs.get(node, [])

    def preds(self, node: object) -> list[object]:
        return self._preds.get(node, [])

    def rpo_index(self, node: object) -> int:
        return self._rpo_index[node]

    def is_reachable(self, node: object) -> bool:
        return node in self._rpo_index

    def __contains__(self, node: object) -> bool:
        return node in self._rpo_index
