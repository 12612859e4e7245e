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
"""

from __future__ import annotations

from ..core.defs import Continuation
from ..core.primops import EvalOp, peel_markers
from ..core.scope import Scope, scope_of
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


def inline_small_functions(world: World, *, size_threshold: int = 40,
                           budget: int = 256) -> dict[str, int]:
    """Inline once-called and small functions; returns activity counters."""
    inlined = 0
    once_called = 0
    stats_sink: list[MangleStats] = []
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
