"""Lambda dropping: remove parameters that are invariant across callers.

Danvy & Schultz's lambda dropping, phrased as a mangle (the paper lists
it among the transformations that collapse into scope-copying):

A parameter ``p`` of continuation ``f`` can be dropped when every
caller passes the *same* value ``v`` (recursive calls may pass ``p``
itself through — the analogue of a trivial phi), provided

* ``f`` is only ever used in callee position (its signature is about to
  change),
* ``f`` is not external (the ABI is fixed), and
* ``v`` is not defined inside ``f``'s own scope.

Dropping ``v`` into ``f`` narrows interfaces and *grows scopes*: if
``v`` is a parameter of an enclosing function ``g``, then ``f`` sinks
into ``g``'s scope.  For tail-recursive loops this is what turns a
loop-invariant argument into a plain free use — the paper's
tail-recursion story.  The inverse direction is lambda *lifting*
(:func:`repro.transform.mangle.lift`).
"""

from __future__ import annotations

from ..core.defs import Continuation, Def, Param
from ..core.primops import Bottom, Literal, PrimOp, peel_markers
from ..core.scope import Scope, scope_of
from ..core.world import World
from .mangle import Mangler


def _direct_call_sites(cont: Continuation) -> list[Continuation] | None:
    """Callers jumping straight to *cont*; None if it escapes."""
    sites: list[Continuation] = []
    for user, index in cont.uses:
        if isinstance(user, Continuation) and index == 0:
            sites.append(user)
        else:
            return None  # first-class use (incl. run/hlt wraps): leave it
    return sites


def _invariant_args(cont: Continuation,
                    sites: list[Continuation]) -> dict[Param, Def]:
    """Params where all sites agree on one value (self-passes allowed)."""
    invariant: dict[Param, Def] = {}
    for param in cont.params:
        value: Def | None = None
        ok = True
        for site in sites:
            arg = site.arg(param.index)
            if arg is param:
                continue  # recursive pass-through
            if value is None:
                value = arg
            elif arg is not value:
                ok = False
                break
        if ok and value is not None:
            invariant[param] = value
    return invariant


def _is_closed(v: Def, _cache: dict | None = None) -> bool:
    """Does *v* avoid any transitive parameter dependence?"""
    if isinstance(v, (Literal, Bottom)):
        return True
    if isinstance(v, Param):
        return False
    if isinstance(v, Continuation):
        return not v.is_intrinsic() and not scope_of(v).has_free_params()
    assert isinstance(v, PrimOp)
    return all(_is_closed(op) for op in v.ops)


def drop_invariant_params(world: World, *, budget: int = 256) -> dict[str, int]:
    """One round of lambda dropping across the world."""
    dropped = 0
    params_removed = 0
    for cont in world.continuations():
        if budget <= 0:
            break
        if cont.is_external or cont.is_intrinsic() or not cont.has_body():
            continue
        sites = _direct_call_sites(cont)
        if not sites:
            continue
        invariant = _invariant_args(cont, sites)
        if not invariant:
            continue
        scope = scope_of(cont)
        spec = {p: v for p, v in invariant.items() if v not in scope}
        if cont.is_returning():
            # Dropping a caller-dependent value into a *function* would
            # nest it inside the caller (it becomes a closure) — the
            # exact opposite of what closure elimination then has to
            # undo.  Functions only absorb closed values; basic blocks
            # (loop headers etc.) may absorb anything, they stay inside
            # their function either way.
            spec = {p: v for p, v in spec.items() if _is_closed(v)}
        if not spec:
            continue
        new_cont = Mangler(scope, spec).mangle()
        new_cont.name = cont.name
        for site in sites:
            if site in scope:
                continue  # handled by the mangler's self-redirect
            if not site.has_body() or peel_markers(site.callee) is not cont:
                continue
            remaining = [a for p, a in zip(cont.params, site.args)
                         if p not in spec]
            world.jump(site, new_cont, remaining)
        dropped += 1
        params_removed += len(spec)
        budget -= 1
    return {
        "dropped": dropped,
        "params_removed": params_removed,
        "budget_left": budget,
    }
