"""Cleanup: garbage collection and jump simplification.

In a graph IR, "dead code elimination" is mostly *non-work*: anything
not reachable from the external continuations is garbage by definition.
This pass:

* simplifies jumps: eta-reduces forwarder continuations (``f(x...) =
  g(x...)`` makes every use of ``f`` a use of ``g``), and so threads
  jumps through empty forwarders — the graph-IR counterpart of
  SimplifyCFG, with **no phi repair** anywhere;
* collects garbage (continuations and primops unreachable from the
  externals through operand edges).

Apart from the garbage mark, its cost follows the edit, not the world.
Branch folding needs no sweep: the paper's local simplifications hold
at all times, because ``World.jump`` and ``rewrite_uses`` fold every
body they set.  Eta-reduction visits only the continuations touched
since its last scan, and decides "target inside the forwarder's scope"
without a scope when the forwarder's params feed only its own jump;
:func:`verify_cleanup` checks the first two shortcuts against full
sweeps under ``verify_each_pass``, and the local scope answer is
checked against ``scope_of`` where it is taken.
"""

from __future__ import annotations

from operator import attrgetter

from ..core.defs import Continuation, Def
from ..core.primops import peel_markers
from ..core.rewrite import rewrite_uses
from ..core.scope import scope_of
from ..core.verify import VerifyError
from ..core.world import World


def reachable_defs(world: World) -> set[Def]:
    """All defs reachable from the external continuations."""
    live: set[Def] = set()
    queue: list[Def] = list(world.externals())
    while queue:
        d = queue.pop()
        if d in live:
            continue
        live.add(d)
        queue.extend(op for op in d.ops if op not in live)
        if isinstance(d, Continuation):
            queue.extend(p for p in d.params if p not in live)
    return live


def collect_garbage(world: World) -> int:
    """Drop unreachable continuations/primops; returns #removed conts."""
    live = reachable_defs(world)
    removed = 0
    for cont in world.continuations():
        if cont not in live and not cont.is_intrinsic():
            cont.unset_body()  # detach use edges out of the dead region
            removed += 1
    # Detach dead primops as well: a lingering use edge would keep a
    # dead node inside some live def's recovered scope (and in print
    # dumps) forever.
    for op in world.dead_primops(live):
        op._set_ops(())
    world._prune_continuations(
        {c for c in world.continuations() if c in live or c.is_intrinsic()}
    )
    world._prune_primops(live)
    return removed


def _target_in_scope(cont: Continuation, target: Def) -> bool:
    """Is *target* inside the scope of the forwarder *cont*?

    When each parameter's only use is the forwarder's own jump, the
    scope flood stops at once: the scope is *cont* and its parameters.
    The target is neither: it is not *cont* (the caller checks), and a
    parameter jumped through would have a second use, as the callee.
    Otherwise the scope is recovered.  Under ``verify_each_pass`` the
    local answer is checked against it.
    """
    if all(p.num_uses == 1 for p in cont.params):
        if cont.world._verify_shortcuts and target in scope_of(cont):
            raise VerifyError(
                f"cleanup: forwarder {cont.unique_name()} whose params "
                f"only feed its jump has its target in its scope")
        return False
    return target in scope_of(cont)


def _forwarders(candidates) -> tuple[dict[Def, Def], list[Continuation]]:
    """Which *candidates* are forwarders to substitute now.

    Returns the alias mapping (forwarder → callee, in candidate order)
    and the forwarders held back: those whose target lies inside their
    own scope, and forwarders of forwarders.  A held-back forwarder can
    become reducible without its own body changing (the target stops
    using its params; the inner alias is substituted), so the next scan
    must look at it again.
    """
    mapping: dict[Def, Def] = {}
    held: list[Continuation] = []
    for cont in candidates:
        if cont.is_external or cont.is_intrinsic() or not cont.has_body():
            continue
        callee = cont.callee
        target = peel_markers(callee)
        if target is cont:
            continue
        if len(cont.args) != cont.num_params:
            continue
        if not all(a is p for a, p in zip(cont.args, cont.params)):
            continue
        if callee.type is not cont.type:
            continue
        if isinstance(target, Continuation) and target.intrinsic is not None:
            continue
        # The forwarder's own scope must not contain the target
        # (otherwise the "alias" would leak scope-internal state).
        if _target_in_scope(cont, target):
            held.append(cont)
            continue
        mapping[cont] = callee
    # Defer forwarder-of-forwarder: its replacement value would go stale
    # the moment the inner alias is substituted.
    for cont in [c for c, callee in mapping.items()
                 if peel_markers(callee) in mapping]:
        del mapping[cont]
        held.append(cont)
    return mapping, held


def eta_reduce(world: World) -> int:
    """Replace forwarder continuations by their targets.

    ``f(p1, ..., pn) = g(p1, ..., pn)`` (exactly, in order) makes ``f``
    an alias of ``g`` — provided ``g`` is not ``f`` itself, is not a
    parameter bound inside ``f``, and ``f`` is not external.  Jump
    threading through empty blocks falls out.

    Only continuations touched since the previous scan are looked at
    (the world's ``_touched_conts``, every continuation on a fresh or
    restored world), plus the forwarders that scan held back.  Any
    other continuation has the body, signature and flags the previous
    scan rejected, so visiting the candidates in gid order finds exactly
    the forwarders a scan of the whole world would.

    All forwarders found in one scan are substituted in a *single*
    ``rewrite_uses`` call: per-forwarder rewriting floods the transitive
    user closure once per forwarder (quadratic on forwarder chains).
    Simultaneous substitution of alias equations is sound as long as no
    replacement value is itself being replaced, so a forwarder whose
    target is another forwarder from the same scan is deferred — the
    enclosing ``cleanup`` fixed point picks it up on the next iteration,
    by which time its body has been retargeted past the removed alias.
    """
    touched = world._touched_conts
    world._touched_conts = set()
    if touched is None:
        candidates = world.continuations()
    else:
        candidates = sorted(touched, key=attrgetter("gid"))
    mapping, held = _forwarders(candidates)
    if mapping:
        rewrite_uses(world, mapping)
        for cont in mapping:
            # Detach the forwarders so they cannot match again (they are
            # garbage now; collect_garbage prunes them).
            cont.unset_body()
    world._touched_conts.update(held)
    return len(mapping)


def cleanup(world: World) -> dict[str, int]:
    """Eta-reduce to a fixed point, then collect garbage."""
    stats = {"eta_reduced": 0, "continuations_removed": 0}
    while reduced := eta_reduce(world):
        stats["eta_reduced"] += reduced
    stats["continuations_removed"] = collect_garbage(world)
    world._clean_generation = world.generation
    return stats


def verify_cleanup(world: World) -> None:
    """Check that a full sweep finds nothing cleanup left behind.

    From scratch over the whole world: no forwarder left to
    eta-reduce, no jump left to fold, and no registered continuation
    the externals cannot reach.  Raises
    :class:`~repro.core.verify.VerifyError` on the first miss.
    """
    mapping, _ = _forwarders(world.continuations())
    if mapping:
        cont = next(iter(mapping))
        raise VerifyError(
            f"cleanup left forwarder {cont.unique_name()} to "
            f"{peel_markers(mapping[cont]).unique_name()} unreduced")
    live = reachable_defs(world)
    for cont in world.continuations():
        if cont.has_body() and (world.fold_jump(cont.callee, cont.args)
                                != (cont.callee, cont.args)):
            raise VerifyError(
                f"cleanup left the jump of {cont.unique_name()} unfolded")
        if cont not in live and not cont.is_intrinsic():
            raise VerifyError(
                f"cleanup left unreachable continuation "
                f"{cont.unique_name()} registered")
