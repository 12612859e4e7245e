"""Effect-aware memory optimization over split effect threads.

The alias lattice (:mod:`repro.core.alias`) tells us which accesses can
possibly observe each other; this pass family pairs it with a backwards
walk over the ``mem`` chain to do what the single thread otherwise
forbids:

* **store-to-load forwarding** — a load whose chain reaches a
  Must-aliasing store (hopping over Not-aliasing stores, other loads,
  ``enter``/``alloc``) is replaced by the stored value;
* **redundant-load CSE** — a load whose chain reaches an earlier
  Must-aliasing load is replaced by that load's value (loads never
  write, so the hop is unconditional);
* **dead-store elimination** — a store that is Must-overwritten further
  down a linear chain with no possibly-aliasing read in between is
  unlinked from the thread.

The chain walk is the flow-sensitive half of the story: it stops at
mem-typed *parameters* (loop headers, call returns, branch joins — any
point where control flow merges or leaves the segment), so every
verdict is justified by data dependence alone.  A call therefore
clobbers everything (its return continuation's mem parameter is a wall)
and a value merged across a branch join is never forwarded — exactly
the conservative semantics the oracle's ``memopt(static)`` stage checks
differentially.

Trap discipline (same contract as the construction-time folds):

* Forwarding never *removes* an effect — the forwarded-from store/load
  stays on the thread, executes first, and performs the identical
  access, so an out-of-bounds trap fires exactly where it used to.
  Chains contain no prints (prints are calls), so the print stream
  cannot move relative to a trap.
* DSE removes an effect, so it is gated three ways: the dead store's
  access must be provably in bounds (its own trap cannot be the
  program's), its value and address must be discardable
  (``World.may_trap``), and every thread node between it and the
  overwriting store must be that node's only use — otherwise some other
  consumer of the thread still observes the doomed value.
"""

from __future__ import annotations

from ..core.alias import MUST, NOT, AliasAnalysis, world_memory_ops
from ..core.defs import Def
from ..core.primops import (
    Alloc,
    ArithKind,
    ArithOp,
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
from ..core.rewrite import rewrite_uses
from ..core.types import (
    DefiniteArrayType,
    IndefiniteArrayType,
    PtrType,
    StructType,
    TupleType,
)
from ..core.world import World

# A chain segment between two merge points is short; walking further
# mostly re-visits dead ends.
CHAIN_HOPS = 64


def _mem_extract(d: Def) -> tuple[Def, int] | None:
    """``(agg, index)`` when *d* is a literal-index extract of a memory
    op's result pair, else ``None``."""
    d = peel_markers(d)
    if (isinstance(d, Extract) and isinstance(d.index, Literal)
            and isinstance(d.agg, (Load, Enter, Alloc))):
        return d.agg, d.index.value
    return None


def _analysis(world: World) -> AliasAnalysis:
    manager = world._analyses
    if manager is not None:
        return manager.alias()
    return AliasAnalysis(world)


# ---------------------------------------------------------------------------
# load forwarding / CSE
# ---------------------------------------------------------------------------

def _forward_load(world: World, load: Load, aa: AliasAnalysis,
                  stats: dict) -> Def | None:
    """The value this load must observe, or ``None``."""
    cur = load.mem
    for _ in range(CHAIN_HOPS):
        if isinstance(cur, Store):
            verdict = aa.alias(cur.ptr, load.ptr)
            if verdict == MUST:
                if cur.value.type is load.type.elements[1]:
                    stats["forwarded"] += 1
                    return cur.value
                return None
            if verdict == NOT:
                cur = cur.mem
                continue
            return None  # a may-aliasing write is a wall
        pair = _mem_extract(cur)
        if pair is None:
            return None  # mem parameter / bottom: segment boundary
        agg, index = pair
        if index != 0:
            return None
        if isinstance(agg, Load):
            if aa.alias(agg.ptr, load.ptr) == MUST:
                stats["load_cse"] += 1
                return world.extract(agg, 1)
            cur = agg.mem  # loads never write: hop unconditionally
            continue
        cur = agg.mem  # enter/alloc create cells, never touch existing ones
    return None


def _load_extracts(load: Load) -> tuple[Def | None, Def | None] | None:
    """The load's ``(mem, value)`` extracts; ``None`` if it has any
    other kind of use (consumed whole as a tuple — leave it alone)."""
    ext_mem = ext_val = None
    for user, _ in load.uses:
        if (isinstance(user, Extract) and user.agg is load
                and isinstance(user.index, Literal)):
            if user.index.value == 0:
                ext_mem = user
            else:
                ext_val = user
        else:
            return None
    return ext_mem, ext_val


def _forward_loads(world: World, aa: AliasAnalysis, budget: int,
                   stats: dict) -> dict[Def, Def]:
    mapping: dict[Def, Def] = {}
    for op in world_memory_ops(world):
        if len(mapping) >= budget:
            break
        if not isinstance(op, Load):
            continue
        extracts = _load_extracts(op)
        if extracts is None:
            continue
        ext_mem, ext_val = extracts
        if ext_val is None:
            # The value was forwarded away (this or an earlier round):
            # the load is a pure pass-through of its token.  Retire it,
            # unless its access could trap — that trap is behaviour.
            if (ext_mem is not None and ext_mem not in mapping
                    and _in_bounds(op.ptr)):
                stats["dead_loads"] += 1
                mapping[ext_mem] = op.mem
            continue
        if ext_val in mapping:
            continue
        value = _forward_load(world, op, aa, stats)
        if value is None:
            continue
        # Retire the whole load: its value is *value*, its mem token
        # was a pass-through of the input anyway.
        mapping[ext_val] = value
        if ext_mem is not None:
            mapping[ext_mem] = op.mem
    # Path-compress chained forwards (load B forwarded from load A whose
    # own value extract is also being replaced) so one rewrite settles
    # everything instead of leaving work for the next round.
    for key, value in list(mapping.items()):
        seen = {key}
        while value in mapping and value not in seen:
            seen.add(value)
            value = mapping[value]
        mapping[key] = value
    return {k: v for k, v in mapping.items() if k is not v}


# ---------------------------------------------------------------------------
# dead-store elimination
# ---------------------------------------------------------------------------

def _in_bounds(ptr: Def) -> bool:
    """Can this access be proven never to trap at run time?"""
    ptr = peel_markers(ptr)
    if isinstance(ptr, (Slot, Global)):
        return True
    if _mem_extract(ptr) is not None:
        return True  # the alloc's own cell pointer
    if not isinstance(ptr, Lea):
        return False
    if not _in_bounds(ptr.ptr):
        return False
    base_type = ptr.ptr.type
    assert isinstance(base_type, PtrType)
    length = _length_of(base_type.pointee, peel_markers(ptr.ptr))
    if length is None:
        return False
    index = ptr.index
    if isinstance(index, Literal):
        return 0 <= index.value < length
    # The fuzz frontend masks every index: x & m stays in [0, m].
    if (isinstance(index, ArithOp) and index.kind is ArithKind.AND):
        for side in index.ops:
            if isinstance(side, Literal) and 0 <= side.value < length:
                return True
    return False


def _length_of(pointee, base: Def) -> int | None:
    if isinstance(pointee, DefiniteArrayType):
        return pointee.length
    if isinstance(pointee, (TupleType, StructType)):
        return len(pointee.elements)
    if isinstance(pointee, IndefiniteArrayType):
        pair = _mem_extract(base)
        if pair is not None and isinstance(pair[0], Alloc):
            extra = pair[0].extra
            if isinstance(extra, Literal):
                return extra.value
    return None


def _sole_mem_user(op: Def) -> Def | None:
    """The unique consumer of a memory op's outgoing token, or ``None``.

    For a ``Store`` the token is the op itself; for ``Load``/``Enter``/
    ``Alloc`` it is the index-0 extract of the result pair (the other
    extract is a value/frame/pointer, not part of the thread).  ``None``
    when the token fans out, is consumed by something other than the
    next memory op, or is unused.
    """
    if isinstance(op, Store):
        if op.num_uses != 1:
            return None
        ((user, _),) = op.uses
        return user
    ext_mem = None
    for user, _ in op.uses:
        if (isinstance(user, Extract) and user.agg is op
                and isinstance(user.index, Literal)):
            if user.index.value == 0:
                ext_mem = user
        else:
            return None
    if ext_mem is None or ext_mem.num_uses != 1:
        return None
    ((user, _),) = ext_mem.uses
    return user


def _dead_store(world: World, store: Store, aa: AliasAnalysis) -> bool:
    """Is *store* Must-overwritten down a private, read-free chain?"""
    if not _in_bounds(store.ptr):
        return False  # its own trap might be the program's behaviour
    if world.may_trap(store.value) or world.may_trap(store.ptr):
        return False
    cur = _sole_mem_user(store)
    for _ in range(CHAIN_HOPS):
        if cur is None:
            return False  # fan-out, jump argument, dangling, ...: observed
        if isinstance(cur, Store):
            if aa.alias(cur.ptr, store.ptr) == MUST:
                return True
            # An intervening write never *observes* the doomed value.
        elif isinstance(cur, Load):
            if aa.alias(cur.ptr, store.ptr) != NOT:
                return False  # a read that may see the stored value
        elif not isinstance(cur, (Enter, Alloc)):
            return False  # the token escaped the segment
        cur = _sole_mem_user(cur)
    return False


def _eliminate_dead_stores(world: World, aa: AliasAnalysis, budget: int,
                           stats: dict) -> dict[Def, Def]:
    mapping: dict[Def, Def] = {}
    for op in world_memory_ops(world):
        if len(mapping) >= budget:
            break
        if not isinstance(op, Store) or op in mapping or op.mem in mapping:
            continue
        if _dead_store(world, op, aa):
            stats["dead_stores"] += 1
            mapping[op] = op.mem
    for key, value in list(mapping.items()):
        seen = {key}
        while value in mapping and value not in seen:
            seen.add(value)
            value = mapping[value]
        mapping[key] = value
    return mapping


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def optimize_memory(world: World, budget: int = 2048) -> dict:
    """Run forwarding + CSE, then DSE; returns pipeline-style stats.

    Two batches, each one ``rewrite_uses`` flood: forwarding first (it
    only adds value edges, making more stores single-use), then DSE over
    the rewritten graph.  ``rewrites`` is the pipeline's convergence
    key.
    """
    stats = {"forwarded": 0, "load_cse": 0, "dead_loads": 0,
             "dead_stores": 0, "rewrites": 0}
    aa = _analysis(world)

    mapping = _forward_loads(world, aa, budget, stats)
    if mapping:
        rewrite_uses(world, mapping)
        stats["rewrites"] += len(mapping)
        aa = _analysis(world)  # generation moved

    remaining = budget - stats["rewrites"]
    if remaining > 0:
        mapping = _eliminate_dead_stores(world, aa, remaining, stats)
        if mapping:
            rewrite_uses(world, mapping)
            stats["rewrites"] += len(mapping)

    return stats
