"""The inliner: a thin heuristic layer over lambda mangling.

Inlining in Thorin is a degenerate mangle (drop *all* parameters, jump
to the copy) — see :func:`repro.transform.mangle.inline_call`, which
moves the body instead of copying it at a callee's last use.  This pass
only decides *where*:

* functions with exactly one call site and no other uses are always
  inlined (their body moves into the caller, the blocks keep their
  identity, and the emptied entry is left for cleanup);
* small functions (scope size below a threshold) are inlined at every
  call site, within a budget (copies, except at the last site, which
  moves);
* recursive targets and sites inside the target's own scope are left
  alone — specialization of recursion is the partial evaluator's job.

A once-called callee is decided without recovering its scope.  With one
direct site and no first-class use, "recursive" and "site inside the
scope" are the same question, and a site the externals can reach is
never inside.  If it were, a path from an external to the site that
does not pass the callee exists (the site is the callee's only
referrer), and every def on it would be a scope member, the external
included; but an external lies in no other continuation's scope (its
own is closed, see ``verify_scopes``).  :class:`_Reachability` proves
"the externals reach this site" by walking users backwards, and keeps
each proof as links that hold while the referrer's body does.  Only a
site it cannot prove reachable (garbage the pass itself made) falls
back to ``scope_of``.  Under ``verify_each_pass`` every shortcut answer
is checked against ``scope_of``.
"""

from __future__ import annotations

from ..core.defs import Continuation, Def
from ..core.primops import EvalOp, peel_markers
from ..core.scope import Scope, scope_of
from ..core.verify import VerifyError
from ..core.world import World
from .mangle import MangleStats, inline_call


def _call_sites(cont: Continuation) -> tuple[list[Continuation], int]:
    """(callers that jump directly to *cont*, #first-class uses)."""
    sites: list[Continuation] = []
    first_class = 0
    for user, index in cont.uses:
        if isinstance(user, Continuation) and index == 0:
            sites.append(user)
        elif isinstance(user, EvalOp):
            for wrapper_user, wrapped_index in user.uses:
                if isinstance(wrapper_user, Continuation) and wrapped_index == 0:
                    sites.append(wrapper_user)
                else:
                    first_class += 1
        else:
            first_class += 1
    return sites, first_class


def is_recursive(cont: Continuation, scope: Scope) -> bool:
    """Is *cont* used inside its own *scope* (a recursive target)?"""
    return any(user in scope for user, _ in cont.uses)


class _Reachability:
    """Proofs that continuations are reachable from the externals.

    ``reachable(cont)`` walks users backwards (breadth first) until it
    meets an external or a continuation whose proof still holds, then
    records for each continuation on the path a *link*: the continuation
    that refers to it and the operand of that referrer's body through
    which it does (itself, or an immutable primop that leads to it).  A
    link holds while the referrer's body still has that operand, so a
    chain of holding links that ends at an external is a live path now,
    however the pass changed the world since the links were recorded.
    The first proof in a function searches up its call chain; later
    ones search only up to the first linked continuation, then check
    that continuation's chain link by link.
    """

    def __init__(self) -> None:
        self.links: dict[Continuation, tuple[Continuation, Def]] = {}

    def _holds(self, cont: Continuation) -> bool:
        links = self.links
        for _ in range(len(links) + 1):  # a chain cannot be longer
            link = links.get(cont)
            if link is None:
                return cont.is_external  # externals are never linked
            cont, via = link
            if via not in cont._ops:
                return False
        return False

    def reachable(self, start: Continuation) -> bool:
        links = self.links
        came_from: dict[Def, Def | None] = {start: None}
        frontier: list[Def] = [start]
        for d in frontier:
            if (d in links or (d.__class__ is Continuation
                               and d.is_external)) and self._holds(d):
                self._record(d, came_from)
                return True
            for user, _ in d._uses:
                if user not in came_from:
                    came_from[user] = d
                    frontier.append(user)
        return False

    def _record(self, d: Def, came_from: dict[Def, Def | None]) -> None:
        """Link every continuation on the path from *d* back to the start."""
        referrer = d
        via = child = came_from[d]
        while child is not None:
            if child.__class__ is Continuation:
                self.links[child] = (referrer, via)
                referrer = child
                via = came_from[child]
            child = came_from[child]


def _check_outside(cont: Continuation, site: Continuation) -> None:
    """Audit one shortcut answer ("*site* is outside *cont*'s scope")."""
    if site in scope_of(cont):
        raise VerifyError(
            f"inliner: reachable site {site.unique_name()} lies inside "
            f"the scope of its callee {cont.unique_name()}")


def inline_small_functions(world: World, *, size_threshold: int = 40,
                           budget: int = 256) -> dict[str, int]:
    """Inline once-called and small functions; returns activity counters."""
    inlined = 0
    once_called = 0
    stats_sink: list[MangleStats] = []
    reach = _Reachability()
    for cont in world.continuations():
        if budget <= 0:
            break
        if cont.is_external or cont.is_intrinsic() or not cont.has_body():
            continue
        if not cont.params:
            # A parameterless target binds nothing: "inlining" it would
            # clone an isomorphic copy (and re-trigger every round — no
            # fixed point).  It is already just a block of its caller.
            continue
        sites, first_class = _call_sites(cont)
        if not sites or first_class:
            continue
        if len(sites) == 1 and reach.reachable(sites[0]):
            # A live site lies outside the scope (module docstring).
            site = sites[0]
            if world._verify_shortcuts:
                _check_outside(cont, site)
            if (peel_markers(site.callee) is cont
                    and inline_call(site, stats_sink, outside=True)):
                inlined += 1
                once_called += 1
                budget -= 1
            continue
        scope = scope_of(cont)
        if is_recursive(cont, scope):
            continue
        is_once = len(sites) == 1
        is_small = len(scope) <= size_threshold
        if not (is_once or is_small):
            continue
        for site in sites:
            if budget <= 0:
                break
            if site in scope or not site.has_body():
                continue
            if peel_markers(site.callee) is not cont:
                continue  # rewritten by an earlier inline this round
            if inline_call(site, stats_sink):
                inlined += 1
                once_called += 1 if is_once else 0
                budget -= 1
    return {
        "inlined": inlined,
        "once_called": once_called,
        "budget_left": budget,
        "primops_rebuilt": sum(s.primops_rebuilt for s in stats_sink),
    }
