"""Graph rewriting: replace defs by other defs, rebuilding users.

Primops are immutable and hash-consed, so "replacing" a def means
rebuilding every (transitive) primop user through the world's smart
factories and finally retargeting the mutable continuation bodies
through the world's jump folding.  Folding re-fires during the rebuild,
exactly as in mangling — a branch whose condition became a literal is a
direct jump when the rewrite returns.  Old nodes become garbage and are
collected by ``transform.cleanup``.
"""

from __future__ import annotations

from .defs import Continuation, Def
from .primops import PrimOp
from .world import World


def rewrite_uses(world: World, mapping: dict[Def, Def]) -> dict[Def, Def]:
    """Apply ``mapping`` to the graph.

    Every primop reachable (via use edges through primops) from a key is
    rebuilt with the mapping applied; the continuations using any of
    them are updated in place, their new bodies folded by
    ``World.fold_jump``.  A continuation keeps its identity when its
    body changes, so the flood stops there: its own users never change.
    Returns the full old→new memo (useful to chase what a def became).
    """
    if not mapping:
        return {}
    for old, new in mapping.items():
        assert old.type is new.type, (
            f"cannot replace {old.unique_name()}: {old.type} with "
            f"{new.unique_name()}: {new.type}"
        )
    memo: dict[Def, Def] = dict(mapping)

    # Collect transitive primop users; the continuations found along
    # the way will have their bodies rebuilt.
    seen: set[Def] = set(mapping)
    queue: list[Def] = list(mapping)
    affected_conts: list[Continuation] = []
    while queue:
        d = queue.pop()
        for user, _ in d.uses:
            if user in seen:
                continue
            seen.add(user)
            if isinstance(user, Continuation):
                affected_conts.append(user)
            else:
                queue.append(user)

    def rw(d: Def) -> Def:
        hit = memo.get(d)
        if hit is not None:
            # A replacement value may itself be a transitive user of
            # another key (common for chained mem-thread rewrites, where
            # a load's token is replaced by an upstream def that a later
            # key's user list reaches).  Hand out its *rebuilt* form,
            # not the soon-to-be-garbage original.  Requires replacement
            # values never to use their own key (upstream-only mappings).
            if hit is not d and hit in seen and isinstance(hit, PrimOp):
                hit = rw(hit)
                memo[d] = hit
            return hit
        # Only transitive users of the mapping keys (the flooded set)
        # can change; everything else rewrites to itself without
        # walking its operand tree.
        if d in seen and isinstance(d, PrimOp):
            new_ops = tuple(rw(op) for op in d.ops)
            new = d if new_ops == d.ops else world.rebuild(d, new_ops)
            memo[d] = new
            return new
        memo[d] = d
        return d

    for cont in affected_conts:
        if cont.has_body():
            new_ops = tuple(rw(op) for op in cont.ops)
            if new_ops != cont.ops:
                # Raw ``_set_ops``, not ``Continuation.jump``: the
                # frontend rewrites while a predecessor's argument list
                # is still being appended, so arity may not match yet.
                callee, args = world.fold_jump(new_ops[0], new_ops[1:])
                cont._set_ops((callee, *args))
    return memo


def replace_def(old: Def, new: Def) -> dict[Def, Def]:
    """Replace every use of *old* by *new* (convenience wrapper)."""
    return rewrite_uses(old.world, {old: new})
