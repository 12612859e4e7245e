"""Implicit scopes.

The paper's structural departure from nested IRs: Thorin has no binders
beyond continuation parameters and no explicit nesting.  "What belongs
to a function" is *recovered* from the dependence graph whenever a
transformation needs it:

    The scope of a continuation ``f`` is the smallest set containing
    ``f`` and the parameters of every continuation in the set, closed
    under *uses* (if ``d`` is in the set, every def with ``d`` as an
    operand is in the set).

Intuitively: everything that directly or transitively depends on ``f``'s
parameters is stuck inside ``f``; everything else floats freely and is
shared between scopes.  Lambda dropping/lifting change scope membership
by turning free defs into parameters and vice versa; the mangler copies
exactly the defs of a scope and shares the rest.
"""

from __future__ import annotations

from typing import Iterator

from .defs import Continuation, Def, Param
from .primops import Bottom, Literal


def _gid_of(d: Def) -> int:
    return d.gid


class Scope:
    """The scope of an *entry* continuation, recovered from the graph.

    A scope is a snapshot: it is computed eagerly at construction time
    and does not track later graph mutation.  Passes recompute scopes
    after rewriting (scope recovery is linear in the scope's size).
    """

    #: Total ``Scope`` constructions, ever.  A cheap observability hook:
    #: regression tests assert that cached paths build no new scopes.
    constructed = 0
    #: Total members inserted by floods, ever: a fresh flood counts its
    #: whole membership, a resumed one (:meth:`_grow`) what it added.
    #: The work measure behind tests that pin what scope recovery costs.
    members_flooded = 0

    def __init__(self, entry: Continuation):
        Scope.constructed += 1
        self.entry = entry
        self._defs: dict[Def, None] = {}  # insertion-ordered set
        self._free_params_memo: tuple[int, tuple[Param, ...]] | None = None
        self._run()

    def _run(self) -> None:
        # The entry is *in* the scope but is not a flood source: a mere
        # reference to the entry (a call from outside, a recursive call)
        # must not pull the referrer into the scope.  Its params are the
        # real seeds.  Continuations discovered later *are* flood
        # sources: anything referencing an entry-dependent continuation
        # must be copied when the entry is specialized.
        queue: list[Def] = []
        self._defs[self.entry] = None
        for param in self.entry.params:
            self._defs[param] = None
            queue.append(param)
        while queue:
            d = queue.pop()
            for user, _ in d.uses:
                self._insert(user, queue)
        Scope.members_flooded += len(self._defs)
        self._canonicalize()

    def _canonicalize(self) -> None:
        # Canonical member order: creation (gid) order.  Flood order
        # depends on the traversal and on use-list internals, which an
        # in-place patch cannot reproduce; gid order is a pure function
        # of the member *set*, so a patched scope and a from-scratch
        # recomputation are bit-identical — the property the incremental
        # analysis manager relies on and ``verify_analyses`` checks.
        self._defs = dict.fromkeys(sorted(self._defs, key=_gid_of))

    def _insert(self, d: Def, queue: list[Def]) -> None:
        if d in self._defs:
            return
        self._defs[d] = None
        queue.append(d)
        if isinstance(d, Continuation):
            for param in d.params:
                if param not in self._defs:
                    self._defs[param] = None
                    queue.append(param)

    def _grow(self, sources) -> list[Def]:
        """Patch the scope in place after members gained new users.

        ``sources`` are existing members; the flood resumes from their
        use-lists, adding anything not yet a member — exactly the defs a
        from-scratch flood would now reach that the original one could
        not (a new use-edge into the scope only ever *adds* members; it
        can never remove any, so growth is the complete patch).  Returns
        the added defs; the member order is re-canonicalized, so a grown
        scope is bit-identical to a fresh recomputation.
        """
        defs = self._defs
        added: list[Def] = []
        queue: list[Def] = []

        def insert(d: Def) -> None:
            if d in defs:
                return
            defs[d] = None
            added.append(d)
            queue.append(d)
            if isinstance(d, Continuation):
                for param in d.params:
                    if param not in defs:
                        defs[param] = None
                        added.append(param)
                        queue.append(param)

        for d in sources:
            for user, _ in d.uses:
                insert(user)
        while queue:
            d = queue.pop()
            for user, _ in d.uses:
                insert(user)
        if added:
            Scope.members_flooded += len(added)
            self._canonicalize()
        return added

    # ------------------------------------------------------------------

    def __contains__(self, d: Def) -> bool:
        return d in self._defs

    def __len__(self) -> int:
        return len(self._defs)

    def defs(self) -> Iterator[Def]:
        return iter(self._defs)

    def continuations(self) -> list[Continuation]:
        """Scope members that are continuations; the entry comes first."""
        conts = [d for d in self._defs if isinstance(d, Continuation)]
        conts.sort(key=lambda c: (c is not self.entry, c.gid))
        return conts

    def free_defs(self) -> list[Def]:
        """Out-of-scope defs referenced by the scope.

        Literals and bottoms are omitted: they are universally shareable
        and never interesting for closure analysis or lifting.  The
        result is deterministic (ordered by first occurrence).
        """
        free: dict[Def, None] = {}
        for d in self._defs:
            for op in d.ops:
                if op not in self._defs and not isinstance(op, (Literal, Bottom)):
                    free.setdefault(op, None)
        return list(free)

    def free_params(self) -> list[Param]:
        """Free defs that are parameters of *enclosing* continuations.

        A non-empty result means this scope captures its environment:
        turning the entry into a first-class value would require a
        closure.  Transitive: a free continuation's own free params count
        as well (the closure would have to capture them indirectly).

        The result depends on the graph *outside* this scope, so it is
        memoized against the world's mutation generation, not against
        the scope itself.
        """
        generation = self.entry.world.generation
        memo = self._free_params_memo
        if memo is not None and memo[0] == generation:
            return list(memo[1])
        result = self._compute_free_params()
        self._free_params_memo = (generation, tuple(result))
        return result

    def _compute_free_params(self) -> list[Param]:
        seen: set[Def] = set()
        result: dict[Param, None] = {}
        queue = self.free_defs()
        while queue:
            d = queue.pop()
            if d in seen:
                continue
            seen.add(d)
            if isinstance(d, Param):
                result.setdefault(d, None)
            elif isinstance(d, Continuation):
                if d.is_intrinsic():
                    continue
                inner = scope_of(d)
                for f in inner.free_defs():
                    if f not in seen:
                        queue.append(f)
            else:
                for op in d.ops:
                    if op not in seen and not isinstance(op, (Literal, Bottom)):
                        queue.append(op)
        return list(result)

    def has_free_params(self) -> bool:
        return bool(self.free_params())


def scope_of(entry: Continuation) -> Scope:
    """An entry's scope, via the world's analysis cache if it has one.

    Falls back to a fresh :class:`Scope` while the world has no
    :class:`~repro.core.analyses.AnalysisManager` yet, so building a
    world (the frontend) never creates one.
    """
    manager = entry.world._analyses
    if manager is not None:
        return manager.scope(entry)
    return Scope(entry)


def top_level_of(world) -> list[Continuation]:
    """``top_level_continuations`` via the analysis cache if any."""
    manager = world._analyses
    if manager is not None:
        return manager.top_level()
    return top_level_continuations(world)


def top_level_continuations(world) -> list[Continuation]:
    """Continuations that sit in no other continuation's scope.

    These are the units of code generation: returning functions and
    (after closure elimination) nothing else.

    One shared sweep instead of one ``Scope`` per continuation: for each
    def, propagate the set of entries whose params reach it along the
    edges the ``Scope`` flood follows (use-edges plus continuation ->
    param edges).  The flood never follows uses of the entry *itself*,
    so when the sweep flows through a continuation ``d`` it subtracts
    ``d`` from the set — a reference to an entry must not leak its scope
    into the referrer.  A continuation is nested iff any entry other
    than itself reaches it.  Set sizes are bounded by nesting depth, so
    this is near-linear in the graph instead of one full scope per
    continuation.
    """
    conts = world.continuations()
    reaching: dict[Def, set[Continuation]] = {}
    worklist: list[Def] = []

    def join(d: Def, incoming: set[Continuation]) -> None:
        have = reaching.get(d)
        if have is None:
            reaching[d] = set(incoming)
            worklist.append(d)
        elif not incoming <= have:
            have |= incoming
            worklist.append(d)

    for entry in conts:
        for param in entry.params:
            join(param, {entry})
    while worklist:
        d = worklist.pop()
        out = reaching[d]
        if d in out:
            out = out - {d}
            if not out:
                continue
        for user, _ in d.uses:
            join(user, out)
        if isinstance(d, Continuation):
            for param in d.params:
                join(param, out)

    def nested(c: Continuation) -> bool:
        have = reaching.get(c)
        return bool(have) and not have <= {c}

    return [c for c in conts if not nested(c) and not c.is_intrinsic()]
