"""First-touch undo log: the pipeline's one checkpoint.

The pipeline takes an optimistic checkpoint before every phase on the
off chance a pass misbehaves, and the rollback it enables almost never
fires, so a checkpoint must cost nothing near the world's size: a deep
image of the graph, walked into plain data and rebuilt on restore, ate
a third of a warm cached compile.

An :class:`UndoLog` exploits the fact that every mutation of a
**pre-existing** def funnels through a handful of choke points:

* ``Def._set_ops`` — the single place use-edges change.  It reports the
  user *before* swapping ``_ops``, so the hook can capture the old
  operand tuple on first touch.
* ``Continuation.append_param`` / ``remove_param`` — param-list surgery
  (also rewrites the fn type and later params' indices).
* ``World.make_external`` / ``remove_external`` — the ``is_external``
  flag (the registry dict itself is covered by the eager copy).
* ``World.global_`` — a GVN hit can re-``name`` a pre-existing global.

Everything else a pass does either creates *new* defs (which a rollback
abandons: the restored registries don't mention them, and each one is
detached from its operands' use lists) or is registry-only surgery
covered by the eager shallow copies taken when the log is armed.  Defs
minted after the checkpoint are filtered out of the lazy logs by a gid
floor, so the log's size is proportional to the defs a pass actually
touched, not to the world.

``restore()`` reinstates absolute state — new defs drop their operands
and old operand tuples are replayed through ``_set_ops`` (which
maintains use lists pairwise, so order is irrelevant), so no surviving
use list keeps a def minted after the checkpoint; params/types/flags/
names are reassigned, the registry copies and counters are swapped
back in — and notes ``world._note_all()`` so cached analyses drop: a
rollback is a wholesale change no mutation note attributes.  The
generation counter stays monotone throughout: a rollback *advances* it.

Any wholesale change disarms the active log (``_note_all`` clears
``world._undo``); ``restore()`` re-arms at the checkpoint afterwards.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .defs import Continuation, Def
    from .world import World


class UndoLog:
    """A cheap, armed-in-place checkpoint of one :class:`World`.

    Arm with :meth:`arm` (done by ``__init__``), mutate the world
    through its normal API, then either :meth:`restore` to roll every
    tracked mutation back or :meth:`arm` again to slide the checkpoint
    forward.  Only one log can be armed per world at a time.
    """

    def __init__(self, world: "World"):
        self.world = world
        self._ops: dict["Def", tuple] = {}
        self._params: dict["Continuation", tuple] = {}
        self._flags: dict["Continuation", bool] = {}
        self._names: dict["Def", str] = {}
        self.arm()

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """(Re)take the checkpoint here: empty lazy logs, O(1) registry
        marks, hook into the world's mutation notes.

        The big registries are append-only between prunes —
        ``_continuations`` only grows by registration, ``_primops`` only
        gains fresh GVN keys — so arming records their *lengths* and
        restoring trims back down; a prune inside the armed window
        first-touch-copies the whole registry instead.  Arming is O(1)
        in the world size, which matters because the pipeline re-arms
        before every mutating phase.
        """
        w = self.world
        self._cont_len = len(w._continuations)
        self._cont_copy: list | None = None
        self._primop_len = len(w._primops)
        self._primop_copy: dict | None = None
        self._externals = dict(w._externals)
        self._intrinsics = dict(w._intrinsics)
        self._counters = (w._gid, w._slot_id, w._alloc_id, w._global_id)
        self._stats = (w.stats.gvn_hits, w.stats.gvn_misses, w.stats.folds)
        self._gid_floor = w._gid
        self._ops.clear()
        self._params.clear()
        self._flags.clear()
        self._names.clear()
        w._undo = self

    @property
    def armed(self) -> bool:
        return self.world._undo is self

    # ------------------------------------------------------------------
    # first-touch hooks (called from World/defs mutation choke points,
    # always *before* the mutation lands)
    # ------------------------------------------------------------------

    def _on_touched(self, user: "Def") -> None:
        if user.gid > self._gid_floor or user in self._ops:
            return
        self._ops[user] = user._ops

    def _on_params(self, cont: "Continuation") -> None:
        if cont.gid > self._gid_floor or cont in self._params:
            return
        self._params[cont] = (tuple(cont.params), cont.type)

    def _on_external(self, cont: "Continuation") -> None:
        if cont.gid > self._gid_floor or cont in self._flags:
            return
        self._flags[cont] = cont.is_external

    def _on_rename(self, op: "Def") -> None:
        if op.gid > self._gid_floor or op in self._names:
            return
        self._names[op] = op.name

    def _on_prune_continuations(self) -> None:
        if self._cont_copy is None:
            # Up to the first prune the registry has only been appended
            # to, so the armed image is exactly the prefix.
            self._cont_copy = list(
                self.world._continuations[:self._cont_len])

    def _on_prune_primops(self) -> None:
        if self._primop_copy is None:
            # dict.copy() keeps the stored key hashes; rebuilding from
            # items would re-hash every GVN key (Python-level type
            # hashes).  Fresh keys sit at the end: peel them off.
            copy = self.world._primops.copy()
            for _ in range(len(copy) - self._primop_len):
                copy.popitem()
            self._primop_copy = copy

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def restore(self) -> None:
        """Roll the world back to the armed checkpoint and re-arm there.

        Counters and stats are reinstated, cached analyses are dropped
        via ``_note_all``, and the generation counter keeps moving
        forward.  Defs created since the checkpoint become garbage —
        absent from the restored registries and detached from every
        surviving use list.
        """
        w = self.world
        # Wholesale change: cached analyses drop and the log disarms, so
        # the rewiring below records nothing anywhere.
        w._note_all()
        # A new def left on an old def's use list would still sit in
        # every scope flooded through that def, so detach them all.
        # Every new def is registered: continuations on creation,
        # primops in the GVN table.  New defs a GC pruned inside the
        # window were detached by that GC.
        floor = self._gid_floor
        if self._cont_copy is None:
            fresh = w._continuations[self._cont_len:]
        else:
            fresh = [c for c in w._continuations if c.gid > floor]
        if self._primop_copy is None:
            fresh += islice(w._primops.values(), self._primop_len, None)
        else:
            fresh += [op for op in w._primops.values() if op.gid > floor]
        for d in fresh:
            d._set_ops(())
        # Params/types first so replayed bodies see the original arity.
        for cont, (params, type) in self._params.items():
            cont.params = list(params)
            for index, param in enumerate(cont.params):
                param.index = index
            cont.type = type
        # Absolute-state replay: _set_ops maintains use lists pairwise,
        # so the order of replay is irrelevant.
        for user, old_ops in self._ops.items():
            user._set_ops(old_ops)
        for cont, flag in self._flags.items():
            cont.is_external = flag
        for op, name in self._names.items():
            op.name = name
        if self._cont_copy is not None:
            w._continuations = list(self._cont_copy)
        else:
            del w._continuations[self._cont_len:]
        if self._primop_copy is not None:
            w._primops = self._primop_copy.copy()
        else:
            # Fresh GVN keys land at the end of the insertion-ordered
            # table; popitem() peels them off most-recent-first.
            for _ in range(len(w._primops) - self._primop_len):
                w._primops.popitem()
        w._externals = dict(self._externals)
        w._intrinsics = dict(self._intrinsics)
        (w._gid, w._slot_id, w._alloc_id, w._global_id) = self._counters
        (w.stats.gvn_hits, w.stats.gvn_misses,
         w.stats.folds) = self._stats
        self.arm()
