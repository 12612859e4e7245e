"""Truly incremental analysis caching: patch, don't recompute.

Scope recovery is the paper's answer to explicit nesting: structure is
*recomputed on demand* from the graph.  The pipeline demands it at ~14
call sites inside up to 8 fixed-point rounds, so without memoization the
compiler spends most of its time re-deriving scopes, CFGs and schedules
that did not change.

:class:`AnalysisManager` memoizes these analyses per entry continuation
and — instead of dropping a cached artifact whenever anything near it
moved — classifies every mutation and applies the cheapest sound patch.

The patch algebra
-----------------

Every use-edge rewiring funnels through ``Def._set_ops``, which reports
the **user** (the def whose operand edges changed) and its new
**operands** (defs that just gained a user).  Registry surgery (param
append/remove, GC pruning, external marking) reports the continuations
involved as **structural**; a wholesale change (an undo-log rollback)
reports nothing and forces a drop-all.  For a cached scope ``S`` with
entry ``e`` the per-mutation consequences are:

* **operand gained a user, operand is ``e``** — no-op.  The scope flood
  never follows uses of its own entry (a mere reference to ``e`` must
  not pull the referrer in), so new users of ``e`` cannot change
  ``S``'s membership.  This is the single most common event in a
  specializing pipeline (every ``run(f)`` marker, every new call site)
  and the old manager dropped ``scope(f)`` for each one.
* **operand gained a user, operand is a member ≠ e** — growth only.  A
  new edge *into* the scope can add members but never remove any, so
  the flood is resumed from the touched member's use-list
  (:meth:`Scope._grow`), splicing new members in place.  Canonical gid
  member order makes the patched scope bit-identical to a fresh flood.
* **user's operands changed, user is a member ≠ e** — possible shrink:
  the member may have lost the use-chain that kept it (or others)
  inside.  The scope is re-flooded at the next query and *diffed*: on
  identical membership the old object (and its derived artifacts,
  validated separately) survives; otherwise it is replaced.
* **user is ``e`` itself (body rewire)** — membership is untouched
  (the flood inserts users of members, never operands of ``e``), but
  ``e``'s successor edges changed: the scope survives as-is and only
  the CFG is revalidated/refreshed in place.
* **structural surgery on a member** — seeds or registry changed;
  the affected entries rebuild unconditionally.

Derived artifacts follow the same discipline.  A CFG whose scope
survived a body rewire re-derives just the dirty nodes' successor lists
plus the address-taken set; if both match, the CFG *and* its RPO,
dominance masks and loop tree are provably unchanged and survive.
Otherwise the CFG object is rebuilt in place on the surviving scope
(:meth:`CFG._refresh`) — the expensive flood is never repeated.
Schedules hang on exact use-lists, so any touch of a scope's members
drops them (they rebuild from the surviving scope/CFG/loop tree).

Whole-world analyses: ``top_level`` is stamped with
:attr:`World.structural_generation`, which primop creation does not
bump — a fresh primop has no users, so it cannot change which
continuations are nested (reaching sets propagate def → user only).
``alias`` escape verdicts hang on arbitrary use edges and keep the
full-generation stamp.

Soundness of the membership test: a mutation changes the scope of an
entry ``e`` only if it adds or removes a use-edge incident to a member
of ``Scope(e)``.  For an added edge the new operand is a member; for a
removed edge the *user* was already a member (any user of a member is
flood-reachable, hence itself a member of the old scope — unless the
member is ``e`` itself, whose uses the flood ignores).  Both sides are
in the reported note, so every affected entry is marked — and a scope
that survives unmarked is bit-identical to a fresh recomputation.
:func:`~repro.core.verify.verify_analyses` checks exactly that: it
recomputes every cached artifact from scratch and diffs it against the
cache, after every pass under ``verify_each_pass``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .alias import AliasAnalysis
from .cfg import CFG
from .defs import Continuation, Def
from .looptree import LoopTree
from .schedule import Placement, Schedule
from .scope import Scope, top_level_continuations

if TYPE_CHECKING:  # pragma: no cover
    from .world import World

_MISSING = object()


class AnalysisStats:
    """Counters describing cache effectiveness (see ``PipelineStats``)."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0   # cached scopes actually dropped/replaced
        self.drop_alls = 0
        self.scope_patches = 0   # scopes grown in place
        self.scope_refloods = 0  # stale scopes revalidated by re-flooding
        self.scope_survivals = 0  # re-floods that confirmed identical membership
        self.cfg_patches = 0     # CFGs rebuilt in place on a surviving scope
        self.cfg_survivals = 0   # CFGs proven unchanged after body rewires


class AnalysisManager:
    """Memoized ``Scope``/``CFG``/``LoopTree``/``Schedule``/alias/top-level.

    One manager per :class:`~repro.core.world.World` (created lazily via
    ``world.analyses``), patched in place as the world mutates.
    """

    def __init__(self, world: "World"):
        self.world = world
        self.stats = AnalysisStats()
        self._scopes: dict[Continuation, Scope] = {}
        self._cfgs: dict[Continuation, CFG] = {}
        self._looptrees: dict[Continuation, LoopTree] = {}
        self._schedules: dict[tuple[Continuation, Placement], Schedule] = {}
        self._top_level: tuple[int, tuple[Continuation, ...]] | None = None
        self._alias: AliasAnalysis | None = None
        # Reverse membership index: def -> entries whose cached scope
        # contains it.  Makes a sync O(|pending|) lookups instead of one
        # subset test per cached scope.  Rows are appended when a scope
        # is cached or grows and validated lazily against the scope's
        # member dict when read (dropping or shrinking a scope leaves
        # its rows stale but inert).  A row is a bare Continuation until
        # a second entry shares the def — most defs belong to exactly
        # one cached scope, and the bare form avoids a set per def.
        self._member_index: dict[Def, Continuation | set[Continuation]] = {}
        # Pending mutation notes, classified lazily at the next sync.
        self._pending_users: set[Def] = set()
        self._pending_refs: set[Def] = set()
        self._pending_structural: set[Def] = set()
        self._dropall = False
        # Per-entry repair marks, produced by ``_sync`` and consumed by
        # the ``_*_synced`` validators at the next query of that entry —
        # entries that are never queried again never pay for repair.
        #
        # _stale: re-flood + diff needed.  Value = the touched members
        #   (used to scope the CFG revalidation), or None for an
        #   unconditional rebuild (structural surgery).
        # _grow: members that gained users; resume the flood from them.
        # _dirty_cfg: member continuations whose bodies were rewired
        #   while the scope provably survived; None = refresh without
        #   checking.
        self._stale: dict[Continuation, set[Def] | None] = {}
        self._grow: dict[Continuation, set[Def]] = {}
        self._dirty_cfg: dict[Continuation, set[Continuation] | None] = {}

    # ------------------------------------------------------------------
    # mutation notes (called via World._note_*)
    # ------------------------------------------------------------------

    def _record_touched(self, user: Def, ops: Iterable[Def]) -> None:
        if self._dropall:
            return
        self._pending_users.add(user)
        self._pending_refs.update(ops)

    def _record_structural(self, touched: Iterable[Def]) -> None:
        if self._dropall:
            return
        self._pending_structural.update(touched)

    def _record_all(self) -> None:
        self._dropall = True

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def invalidate(self, touched: Iterable[Def] | None = None) -> None:
        """Public contract for passes: report the defs you touched, or
        report nothing and lose every cached analysis."""
        if touched is None:
            self._dropall = True
        else:
            self._record_structural(touched)

    def _drop_all(self) -> None:
        dropped = len(self._scopes)
        self._scopes.clear()
        self._cfgs.clear()
        self._looptrees.clear()
        self._schedules.clear()
        self._top_level = None
        self._alias = None
        self._member_index.clear()
        self._pending_users.clear()
        self._pending_refs.clear()
        self._pending_structural.clear()
        self._stale.clear()
        self._grow.clear()
        self._dirty_cfg.clear()
        self._dropall = False
        self.stats.invalidations += dropped
        self.stats.drop_alls += 1

    def _drop_derived(self, entry: Continuation) -> None:
        """Drop everything hanging off *entry*'s CFG (but not the scope)."""
        self._looptrees.pop(entry, None)
        self._drop_schedules(entry)

    def _drop_schedules(self, entry: Continuation) -> None:
        for placement in Placement:
            self._schedules.pop((entry, placement), None)

    # ------------------------------------------------------------------
    # sync: classify pending notes into per-entry repair marks
    # ------------------------------------------------------------------

    def _entries_of(self, d: Def):
        rows = self._member_index.get(d)
        if rows is None:
            return ()
        if rows.__class__ is set:
            return rows
        return (rows,)

    def _sync(self) -> None:
        if self._dropall:
            self._drop_all()
            return
        users = self._pending_users
        refs = self._pending_refs
        structural = self._pending_structural
        if not users and not refs and not structural:
            return
        scopes = self._scopes
        stale = self._stale
        dirty = self._dirty_cfg

        for d in structural:
            # Registry/param surgery on d: its own cached scope must
            # rebuild from scratch (the flood seeds changed), ...
            if d in scopes:
                stale[d] = None
            users.add(d)  # ... and containing scopes re-flood below.
        for d in users:
            for entry in self._entries_of(d):
                scope = scopes.get(entry)
                if scope is None or d not in scope._defs:
                    continue  # stale index row
                if d is entry and d not in structural:
                    # The entry's own body rewire: membership provably
                    # unaffected, only control edges (and placements).
                    if entry not in stale:
                        cur = dirty.get(entry, _MISSING)
                        if cur is _MISSING:
                            dirty[entry] = {entry}
                        elif cur is not None:
                            cur.add(entry)
                        self._drop_schedules(entry)
                    continue
                cur = stale.get(entry, _MISSING)
                if cur is _MISSING:
                    stale[entry] = {d}
                    self._drop_schedules(entry)
                elif cur is not None:
                    cur.add(d)
        grow = self._grow
        for d in refs:
            for entry in self._entries_of(d):
                if d is entry:
                    continue  # a new reference to the entry: no-op
                if entry in stale:
                    continue  # the re-flood will pick up any growth
                scope = scopes.get(entry)
                if scope is None or d not in scope._defs:
                    continue
                bucket = grow.get(entry)
                if bucket is None:
                    grow[entry] = {d}
                else:
                    bucket.add(d)
        users.clear()
        refs.clear()
        structural.clear()

    # ------------------------------------------------------------------
    # per-entry validation (consumes repair marks lazily)
    # ------------------------------------------------------------------

    def _index_members(self, entry: Continuation, members) -> None:
        index = self._member_index
        for d in members:
            rows = index.get(d)
            if rows is None:
                index[d] = entry
            elif rows.__class__ is set:
                rows.add(entry)
            elif rows is not entry:
                index[d] = {rows, entry}

    def _scope_synced(self, entry: Continuation) -> Scope:
        scope = self._scopes.get(entry)
        if scope is None:
            self.stats.misses += 1
            scope = Scope(entry)
            self._scopes[entry] = scope
            self._index_members(entry, scope._defs)
            return scope
        flags = self._stale.pop(entry, _MISSING)
        if flags is not _MISSING:
            self._grow.pop(entry, None)
            return self._revalidate(entry, scope, flags)
        sources = self._grow.pop(entry, None)
        if sources:
            added = scope._grow(sources)
            if added:
                self.stats.scope_patches += 1
                self._index_members(entry, added)
                # Membership grew: every node's in-scope checks may now
                # answer differently — refresh the CFG unconditionally
                # (on the surviving scope object) at its next query.
                self._dirty_cfg[entry] = None
                self._drop_schedules(entry)
        self.stats.hits += 1
        return scope

    def _revalidate(self, entry: Continuation, scope: Scope,
                    flags: set[Def] | None) -> Scope:
        self.stats.scope_refloods += 1
        fresh = Scope(entry)
        # Both member dicts are gid-canonicalized, so dict equality
        # (same key set) implies identical iteration order too.
        if flags is not None and fresh._defs == scope._defs:
            self.stats.scope_survivals += 1
            # Same members, but some bodies/edges among them changed:
            # keep the scope and re-validate the CFG against exactly the
            # touched continuations.  Schedules were dropped at marking.
            touched_conts = {d for d in flags if isinstance(d, Continuation)}
            cur = self._dirty_cfg.get(entry, _MISSING)
            if not touched_conts or cur is None:
                self._dirty_cfg[entry] = None
            elif cur is _MISSING:
                self._dirty_cfg[entry] = touched_conts
            else:
                cur |= touched_conts
            return scope
        self.stats.invalidations += 1
        self._scopes[entry] = fresh
        self._index_members(entry, fresh._defs)
        self._cfgs.pop(entry, None)
        self._drop_derived(entry)
        self._dirty_cfg.pop(entry, None)
        return fresh

    def _cfg_synced(self, entry: Continuation) -> CFG:
        scope = self._scope_synced(entry)
        cfg = self._cfgs.get(entry)
        if cfg is None:
            self._dirty_cfg.pop(entry, None)
            self.stats.misses += 1
            cfg = CFG(scope)
            self._cfgs[entry] = cfg
            return cfg
        dirty = self._dirty_cfg.pop(entry, _MISSING)
        if dirty is not _MISSING:
            if dirty is not None and cfg._still_valid(dirty):
                self.stats.cfg_survivals += 1
            else:
                cfg._refresh()
                self.stats.cfg_patches += 1
                self._looptrees.pop(entry, None)
        self.stats.hits += 1
        return cfg

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def scope(self, entry: Continuation) -> Scope:
        self._sync()
        return self._scope_synced(entry)

    def cfg(self, entry: Continuation) -> CFG:
        self._sync()
        return self._cfg_synced(entry)

    def looptree(self, entry: Continuation) -> LoopTree:
        self._sync()
        return self._looptree_synced(entry)

    def _looptree_synced(self, entry: Continuation) -> LoopTree:
        cfg = self._cfg_synced(entry)
        tree = self._looptrees.get(entry)
        if tree is None:
            self.stats.misses += 1
            tree = LoopTree(cfg)
            self._looptrees[entry] = tree
        else:
            self.stats.hits += 1
        return tree

    def schedule(self, entry: Continuation,
                 placement: Placement = Placement.SMART) -> Schedule:
        self._sync()
        looptree = self._looptree_synced(entry)  # validates scope + CFG
        schedule = self._schedules.get((entry, placement))
        if schedule is None:
            self.stats.misses += 1
            schedule = Schedule(
                self._scopes[entry], placement,
                cfg=self._cfgs[entry],
                looptree=looptree,
            )
            self._schedules[(entry, placement)] = schedule
        else:
            self.stats.hits += 1
        return schedule

    def alias(self) -> AliasAnalysis:
        """The world's alias analysis, memoized per mutation generation.

        Alias classes and escape verdicts depend on use edges anywhere
        in the graph, so the cache is stamped with the whole-world
        generation rather than tracked per scope.
        """
        generation = self.world.generation
        cached = self._alias
        if cached is not None and cached.generation == generation:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        result = AliasAnalysis(self.world)
        self._alias = result
        return result

    def top_level(self) -> list[Continuation]:
        generation = self.world.structural_generation
        cached = self._top_level
        if cached is not None and cached[0] == generation:
            self.stats.hits += 1
            return list(cached[1])
        self.stats.misses += 1
        result = top_level_continuations(self.world)
        self._top_level = (generation, tuple(result))
        return result
