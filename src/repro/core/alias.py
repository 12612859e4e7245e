"""Flow-insensitive alias analysis over the memory primops.

The paper threads *one* ``mem`` token through every effect, which keeps
the IR honest but serializes memory: a load can never forward from a
store unless they touch the very same token.  This module recovers the
structure the single thread hides.  Every pointer in the graph is
reduced to an **alias class** — a *root* (the allocation site that
created the cell family) plus an *access path* (the ``lea`` components
walked from it):

==============  =========================================================
root            identity
==============  =========================================================
``slot``        ``Slot.slot_id`` — stack cells are unique per slot
``alloc``       ``Alloc.alloc_id`` — heap cells are unique per allocation
``global``      ``Global.global_id`` for mutable globals
``iglobal``     ``Global.gid`` for immutable globals (structurally
                numbered; loads through them fold at construction)
*unknown*       anything else a pointer can flow out of — parameters,
                selects, pointers loaded back out of memory
==============  =========================================================

Two pointers **Must**-alias when they share a root and every access-path
component matches (equal literals, or the identical index def — which,
under hash-consing, makes the pointers the same node).  They **Not**-
alias when their roots are distinct, or the paths diverge at a pair of
unequal literal indices (disjoint subtrees of the same cell).  Anything
else — a dynamic index against a literal, a prefix path against a longer
one (aggregate vs. its component) — is **May**.

Escape analysis makes the lattice honest in the presence of the parts
of the program the walk cannot see.  A pointer *escapes* when any
derived pointer is used as something other than the address operand of
a ``load``/``store``/``lea`` — passed to a continuation (call or jump),
stored *as a value*, packed into an aggregate, returned.  A frame
escapes when it is used as anything but the operand of a ``slot``, and
takes all its slots with it.  Escaped roots (and unknown-rooted
pointers) answer **May** against everything except themselves: after a
pointer leaks, any load anywhere may observe it.

The analysis is flow-insensitive and whole-world; it never looks at the
mem chain itself.  The chain walk (what executes *between* two accesses)
is the client's job — see :mod:`repro.transform.mem_opt`, which pairs
this lattice with a backwards walk over the effect thread.  Results are
valid for the world generation they were computed at;
:meth:`~repro.core.analyses.AnalysisManager.alias` memoizes one instance
per generation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

from .defs import Def
from .primops import (
    Alloc,
    Enter,
    Extract,
    Global,
    Lea,
    Literal,
    Load,
    Slot,
    Store,
    peel_markers,
)

if TYPE_CHECKING:  # pragma: no cover
    from .world import World

# The three-point verdict lattice: NOT < MAY, MUST < MAY.
NOT = "not"
MAY = "may"
MUST = "must"


class AliasAnalysis:
    """Not/May/Must queries over every pointer pair of one world.

    Root classification and escape verdicts are computed lazily and
    memoized; an instance is only valid while ``world.generation``
    stands still (callers go through ``world.analyses.alias()``).
    """

    def __init__(self, world: "World"):
        self.world = world
        self.generation = world.generation
        self._roots: dict[Def, tuple[tuple | None, tuple]] = {}
        self._escapes: dict[Def, bool] = {}
        self._frame_escapes: dict[Def, bool] = {}
        self._ptr_escapes: dict[Def, bool] = {}
        self._pairs: dict[tuple[Def, Def], str] = {}

    # ------------------------------------------------------------------
    # alias classes
    # ------------------------------------------------------------------

    def root(self, ptr: Def) -> tuple[tuple | None, tuple]:
        """``(root key, access path)``; root ``None`` = unknown base.

        The access path is a tuple of components, outermost first: a
        ``("lit", value)`` pair for literal indices, the index def
        itself for dynamic ones.
        """
        cached = self._roots.get(ptr)
        if cached is not None:
            return cached
        path: list = []
        base = peel_markers(ptr)
        while isinstance(base, Lea):
            index = base.index
            path.append(("lit", index.value) if isinstance(index, Literal)
                        else index)
            base = peel_markers(base.ptr)
        path.reverse()
        key: tuple | None
        if isinstance(base, Slot):
            key = ("slot", base.slot_id)
        elif isinstance(base, Global):
            key = (("global", base.global_id) if base.is_mutable
                   else ("iglobal", base.gid))
        elif (isinstance(base, Extract) and isinstance(base.agg, Alloc)
                and isinstance(base.index, Literal)
                and base.index.value == 1):
            key = ("alloc", base.agg.alloc_id)
        else:
            key = None  # parameter, select, re-loaded pointer, bottom, ...
        result = (key, tuple(path))
        self._roots[ptr] = result
        return result

    # ------------------------------------------------------------------
    # escape analysis
    # ------------------------------------------------------------------

    def escaped(self, ptr: Def) -> bool:
        """Has this pointer's *root* leaked beyond load/store/lea uses?"""
        cached = self._ptr_escapes.get(ptr)
        if cached is not None:
            return cached
        key, _path = self.root(ptr)
        if key is None:
            self._ptr_escapes[ptr] = True
            return True
        base = peel_markers(ptr)
        while isinstance(base, Lea):
            base = peel_markers(base.ptr)
        escaped = self._escapes.get(base)
        if escaped is None:
            escaped = self._base_escapes(base)
            self._escapes[base] = escaped
        self._ptr_escapes[ptr] = escaped
        return escaped

    def _base_escapes(self, base: Def) -> bool:
        if isinstance(base, Slot) and self._frame_escaped(base.frame):
            return True
        if isinstance(base, Extract):  # alloc pair: check the pair def too
            for user, _ in base.agg.uses:
                if not (isinstance(user, Extract)
                        and isinstance(user.index, Literal)):
                    return True
        return self._derived_escape(base)

    def _derived_escape(self, base: Def) -> bool:
        """Flood the lea-derived pointer set; True on any non-access use."""
        stack = [base]
        seen: set[Def] = set()
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            for user, index in p.uses:
                if isinstance(user, Lea) and index == 0:
                    stack.append(user)
                elif isinstance(user, (Load, Store)) and index == 1:
                    continue
                else:
                    # jump/call argument, stored value, aggregate element,
                    # select arm, eval wrapper, dynamic extract, ...
                    return True
        return False

    def _frame_escaped(self, frame: Def) -> bool:
        cached = self._frame_escapes.get(frame)
        if cached is not None:
            return cached
        escaped = any(not (isinstance(user, Slot) and index == 0)
                      for user, index in frame.uses)
        self._frame_escapes[frame] = escaped
        return escaped

    # ------------------------------------------------------------------
    # the query
    # ------------------------------------------------------------------

    def alias(self, p: Def, q: Def) -> str:
        """``MUST`` / ``NOT`` / ``MAY`` for two pointer-typed defs."""
        if p is q:
            return MUST
        cached = self._pairs.get((p, q))
        if cached is not None:
            return cached
        verdict = self._alias(p, q)
        self._pairs[(p, q)] = verdict
        self._pairs[(q, p)] = verdict  # the lattice is symmetric
        return verdict

    def _alias(self, p: Def, q: Def) -> str:
        kp, path_p = self.root(p)
        kq, path_q = self.root(q)
        if kp is None or kq is None:
            return MAY
        if self.escaped(p) or self.escaped(q):
            return MAY
        if kp != kq:
            return NOT
        # Same root: compare access paths component-wise.
        for cp, cq in zip(path_p, path_q):
            if cp is cq:
                continue  # identical index def
            lit_p = isinstance(cp, tuple)
            lit_q = isinstance(cq, tuple)
            if lit_p and lit_q:
                if cp[1] != cq[1]:
                    return NOT  # disjoint subtrees of the same cell
                continue
            return MAY  # dynamic index against anything non-identical
        if len(path_p) == len(path_q):
            return MUST
        return MAY  # one path prefixes the other: aggregate vs. component


def world_memory_ops(world: "World") -> list:
    """Every reachable ``Load``/``Store``, in deterministic gid order.

    On a clean world (``_clean_generation == generation``: the last
    cleanup pruned every unreachable primop and nothing has been built
    since) the primop table holds exactly the reachable primops, so the
    list comes from the table.  Otherwise the world is marked from the
    externals.  Under ``verify_each_pass`` a table answer is checked
    against the mark.
    """
    if world._clean_generation == world.generation:
        ops = [d for d in world._primops.values()
               if isinstance(d, (Load, Store))]
        ops.sort(key=attrgetter("gid"))
        if world._verify_shortcuts and ops != _marked_memory_ops(world):
            from .verify import VerifyError

            raise VerifyError(
                "mem_opt: the clean world's primop table lists other "
                "memory ops than a mark from the externals")
        return ops
    return _marked_memory_ops(world)


def _marked_memory_ops(world: "World") -> list:
    from ..transform.cleanup import reachable_defs

    ops = [d for d in reachable_defs(world) if isinstance(d, (Load, Store))]
    ops.sort(key=attrgetter("gid"))
    return ops
