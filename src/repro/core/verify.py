"""IR well-formedness and control-flow-form (CFF) checking.

Four layers:

* :func:`verify` — structural sanity of a world: jump arities and types,
  intrinsic call shapes, parameter ownership.  Transformations call this
  in tests after every pass.  ``verify(world, full=True)`` additionally
  runs the analysis audit and the deep graph invariants below.
* :func:`verify_analyses` — every artifact the world's analysis manager
  has cached (scopes, CFGs, loop depths, schedules, the top-level set)
  equals a from-scratch recomputation.  The manager patches its caches
  in place instead of recomputing them; this audit is what turns an
  unsound patch into an error at the pass that triggered it.
* :func:`verify_uses` / :func:`verify_scopes` /
  :func:`verify_effect_threads` — deep graph invariants:
  the def↔use edges must agree in both directions; no live def may
  reference a continuation (or a parameter of a continuation) that a
  rewrite pruned from the world; every parameter referenced from live
  code must have a *value-reachable* owner (binder liveness); and the
  recovered scope of every external function is closed.  These catch
  the classic mangling bugs: a dangling ``peel_markers`` target kept
  alive through an ``EvalOp`` wrapper, or a specialized continuation
  whose body still points into the scope of its mangled-away original.
* :func:`cff_violations` / :func:`is_cff` — the paper's *control-flow
  form* criterion.  A program is in CFF when every continuation is
  either a **basic block** (order-1 type: first-order parameters only)
  or a **top-level function** (order-2 type whose fn-typed parameters
  are return continuations), and continuations are only used in ways a
  classical CFG+SSA backend can lower: as jump/branch targets, as the
  callee of a call, or as the return-continuation argument of a call.
  Reaching CFF is the goal of closure elimination (experiment T2); the
  bytecode backend refuses anything outside CFF.
"""

from __future__ import annotations

from .cfg import CFG
from .defs import Continuation, Def, Intrinsic, Param, Use
from .looptree import LoopTree
from .primops import (
    Alloc,
    Bottom,
    Enter,
    Extract,
    Literal,
    Load,
    Store,
    TupleVal,
    peel_markers,
)
from .schedule import Placement, Schedule
from .scope import Scope, scope_of, top_level_continuations, top_level_of
from .types import FnType
from .world import World


class VerifyError(Exception):
    """A structural invariant of the IR does not hold."""


def verify(world: World, *, full: bool = False) -> None:
    """Check structural well-formedness; raises :class:`VerifyError`.

    With ``full=True``, first audit the cached analyses
    (:func:`verify_analyses`), then also run the deep graph invariants
    (:func:`verify_uses`, :func:`verify_scopes`) — slower, intended for
    ``verify_each_pass`` pipelines and the fuzzing oracle.
    """
    if full:
        verify_analyses(world)
    for cont in world.continuations():
        _verify_params(cont)
        if cont.has_body():
            _verify_jump(cont)
    if full:
        verify_uses(world)
        verify_scopes(world)
        verify_effect_threads(world)


def _verify_params(cont: Continuation) -> None:
    if len(cont.params) != cont.fn_type.num_params:
        raise VerifyError(
            f"{cont.unique_name()}: {len(cont.params)} params but type "
            f"{cont.fn_type}"
        )
    for index, (param, t) in enumerate(zip(cont.params, cont.fn_type.param_types)):
        if param.continuation is not cont:
            raise VerifyError(
                f"{cont.unique_name()}: param {index} owned by "
                f"{param.continuation.unique_name()}"
            )
        if param.index != index:
            raise VerifyError(
                f"{cont.unique_name()}: param {index} has index {param.index}"
            )
        if param.type is not t:
            raise VerifyError(
                f"{cont.unique_name()}: param {index} typed {param.type}, "
                f"type says {t}"
            )


def _verify_jump(cont: Continuation) -> None:
    callee = peel_markers(cont.callee)
    callee_type = callee.type
    if not isinstance(callee_type, FnType):
        raise VerifyError(
            f"{cont.unique_name()}: callee {callee.unique_name()} is not "
            f"fn-typed ({callee_type})"
        )
    args = cont.args
    if isinstance(callee, Continuation) and callee.intrinsic == Intrinsic.MATCH:
        _verify_match(cont, callee, args)
        return
    if len(args) != callee_type.num_params:
        raise VerifyError(
            f"{cont.unique_name()}: {len(args)} args for {callee_type}"
        )
    for index, (arg, t) in enumerate(zip(args, callee_type.param_types)):
        if arg.type is not t:
            raise VerifyError(
                f"{cont.unique_name()}: arg {index} typed {arg.type}, "
                f"callee {callee.unique_name()} wants {t}"
            )


def _verify_match(cont: Continuation, callee: Continuation,
                  args: tuple[Def, ...]) -> None:
    types = callee.fn_type.param_types
    if len(args) < 3:
        raise VerifyError(f"{cont.unique_name()}: match needs mem, value, default")
    mem_t, value_t, default_t, arm_t = types[0], types[1], types[2], types[3]
    checks = [(args[0], mem_t), (args[1], value_t), (args[2], default_t)]
    for arg in args[3:]:
        checks.append((arg, arm_t))
    for index, (arg, t) in enumerate(checks):
        if arg.type is not t:
            raise VerifyError(
                f"{cont.unique_name()}: match operand {index} typed "
                f"{arg.type}, expected {t}"
            )


# ---------------------------------------------------------------------------
# analysis audit: cached artifacts vs from-scratch recomputation
# ---------------------------------------------------------------------------


def _node_key(node) -> Continuation | None:
    # Every CFG has its own ExitNode object; compare exits by role.
    return node if isinstance(node, Continuation) else None


def _cfg_image(cfg: CFG) -> list:
    return [(_node_key(n), [_node_key(s) for s in cfg.succs(n)],
             _node_key(cfg.idom(n)))
            for n in cfg.nodes()]


def _schedule_image(schedule: Schedule) -> list:
    return [(block, list(schedule.ops_in(block)))
            for block in schedule.blocks()]


def verify_analyses(world: World) -> None:
    """Check every cached analysis against a from-scratch recomputation.

    Each cached artifact of a live entry continuation is queried through
    the manager — which first applies any pending patch — and compared
    with a fresh ``Scope`` (member order included), ``CFG`` (RPO nodes,
    successor lists, immediate dominators), ``LoopTree`` (per-node
    depth) and ``Schedule`` per cached placement.  A cached
    ``top_level`` set that is current is compared with a fresh sweep.
    Entries whose continuation garbage collection pruned are skipped —
    nothing can query them any more — and artifacts the patching itself
    dropped are not rebuilt just to be audited.  Raises
    :class:`VerifyError` naming the first stale artifact; a world
    without an analysis manager has nothing to audit.
    """
    manager = world._analyses
    if manager is None:
        return

    def stale(kind: str, entry: Continuation) -> VerifyError:
        return VerifyError(
            f"stale cached {kind} for {entry.unique_name()}: differs "
            f"from a from-scratch recomputation")

    manager._sync()
    live = set(world.continuations())
    for entry in [e for e in manager._scopes if e in live]:
        fresh = Scope(entry)
        if list(manager.scope(entry).defs()) != list(fresh.defs()):
            raise stale("scope", entry)
        if entry not in manager._cfgs:
            continue
        cfg = manager.cfg(entry)
        fresh_cfg = CFG(fresh)
        if _cfg_image(cfg) != _cfg_image(fresh_cfg):
            raise stale("CFG", entry)
        if entry not in manager._looptrees:
            continue
        loops = manager.looptree(entry)
        fresh_loops = LoopTree(fresh_cfg)
        # Same RPO on both sides (checked above), so compare depths
        # position by position.
        if ([loops.depth(n) for n in cfg.nodes()]
                != [fresh_loops.depth(n) for n in fresh_cfg.nodes()]):
            raise stale("loop tree", entry)
        for placement in Placement:
            if (entry, placement) not in manager._schedules:
                continue
            fresh_schedule = Schedule(fresh, placement, cfg=fresh_cfg,
                                      looptree=fresh_loops)
            if (_schedule_image(manager.schedule(entry, placement))
                    != _schedule_image(fresh_schedule)):
                raise stale(f"{placement.value} schedule", entry)
    cached = manager._top_level
    if (cached is not None and cached[0] == world.structural_generation
            and list(cached[1]) != top_level_continuations(world)):
        raise VerifyError("stale cached top_level set: differs from a "
                          "from-scratch sweep")


# ---------------------------------------------------------------------------
# deep graph invariants: use-lists, dangling defs, scope containment
# ---------------------------------------------------------------------------


def _rooted_continuations(world: World) -> set[Continuation]:
    """Continuations reachable *as values* from the external roots.

    The walk follows operand edges only — a reference to a parameter
    does **not** pull its owning continuation in.  A continuation in
    this set can actually be jumped to at run time; one outside it can
    never be invoked, so its parameters can never be bound.  Mirrors
    cleanup's garbage collection: passes may legally leave unreachable
    garbage behind, so the deep scope checks apply to this set only.
    """
    rooted: set[Continuation] = set()
    queue: list[Continuation] = list(world.externals())
    seen: set[Def] = set()
    while queue:
        cont = queue.pop()
        if cont in rooted:
            continue
        rooted.add(cont)
        stack: list[Def] = list(cont.ops)
        while stack:
            d = stack.pop()
            if d in seen:
                continue
            seen.add(d)
            if isinstance(d, Continuation):
                if d not in rooted:
                    queue.append(d)
                continue
            if isinstance(d, Param):
                continue  # a use of a binder, not a way to invoke it
            stack.extend(d.ops)
    return rooted


def _reachable_defs(world: World, roots=None) -> list[Def]:
    """Every def reachable from *roots* (default: all registered
    continuations) — operands, parameters, and transitive operands
    thereof — in deterministic order."""
    seen: dict[Def, None] = {}
    queue: list[Def] = []
    for cont in (world.continuations() if roots is None else roots):
        if cont not in seen:
            seen[cont] = None
            queue.append(cont)
    while queue:
        d = queue.pop()
        children = list(d.ops)
        if isinstance(d, Continuation):
            children.extend(d.params)
        for child in children:
            if child not in seen:
                seen[child] = None
                queue.append(child)
    return list(seen)


def verify_uses(world: World) -> None:
    """Check def↔use edges agree in both directions for the whole graph.

    Every operand edge ``user.ops[i] is d`` must be mirrored by a
    ``Use(user, i)`` entry in ``d``'s use-list, and every use-list entry
    must point back at a def that still holds the edge.  A one-sided
    edge means some rewrite forgot to detach (stale use) or re-attach
    (lost use) — the root cause of phantom scope members.
    """
    for d in _reachable_defs(world):
        for index, op in enumerate(d.ops):
            if Use(d, index) not in op._uses:
                raise VerifyError(
                    f"{d.unique_name()}: operand {index} "
                    f"({op.unique_name()}) does not record the use edge"
                )
        for user, index in d.uses:
            ops = user.ops
            if index >= len(ops) or ops[index] is not d:
                raise VerifyError(
                    f"{d.unique_name()}: stale use by "
                    f"{user.unique_name()} at operand {index}"
                )


def verify_scopes(world: World) -> None:
    """Check that the live program resolves inside the live graph.

    "Live" means value-reachable from the external roots
    (:func:`_rooted_continuations`): passes may leave unreachable
    garbage behind (the next cleanup collects it), and garbage is
    exempt — only code that can actually execute has to resolve.

    * No live def may reference a continuation that was pruned from the
      world — a dangling ``peel_markers`` target left behind by a rewrite.
    * No live def may reference a parameter whose owning continuation is
      dead or unregistered, or that the owner no longer lists (a
      ``remove_param``/mangle leftover).
    * **Binder liveness**: every parameter referenced from live code
      must be bound by a continuation that live code can invoke — the
      owner must itself be value-reachable.  A rewrite that redirects
      calls to a specialized copy but leaves body references into the
      original's parameters breaks exactly this.
    * **Closedness of externals**: the recovered scope of an external
      (bodied) function has no free parameters — everything an entry
      point depends on is bound within it.  (Scope membership is a
      use-closure, so this is not implied by the previous checks.)
    """
    live = set(world.continuations())
    rooted = _rooted_continuations(world)

    def check_continuation(d: Continuation, via: Def) -> None:
        if d not in live and not d.is_intrinsic():
            raise VerifyError(
                f"{via.unique_name()}: references continuation "
                f"{d.unique_name()} that was rewritten away"
            )

    def check_param(p: Param, via: Def) -> None:
        owner = p.continuation
        if owner.is_intrinsic():
            return
        if owner not in live:
            raise VerifyError(
                f"{via.unique_name()}: references parameter "
                f"{p.unique_name()} of dead continuation "
                f"{owner.unique_name()}"
            )
        if p.index >= len(owner.params) or owner.params[p.index] is not p:
            raise VerifyError(
                f"{via.unique_name()}: references removed parameter "
                f"{p.unique_name()} of {owner.unique_name()}"
            )
        if owner not in rooted:
            raise VerifyError(
                f"{via.unique_name()}: references parameter "
                f"{p.unique_name()} whose owner {owner.unique_name()} "
                f"is unreachable — the binder can never be invoked"
            )

    for d in _reachable_defs(world, roots=rooted):
        for op in d.ops:
            if isinstance(op, Continuation):
                check_continuation(op, d)
            elif isinstance(op, Param):
                check_param(op, d)

    for cont in world.externals():
        if not cont.has_body():
            continue
        free = scope_of(cont).free_params()
        if free:
            names = ", ".join(p.unique_name() for p in free[:4])
            raise VerifyError(
                f"{cont.unique_name()}: external scope is not closed — "
                f"free parameter(s) {names}"
            )


def verify_effect_threads(world: World) -> None:
    """Every live memory op hangs off a well-formed effect thread.

    Walking a load/store/enter/alloc's ``mem`` operand backwards through
    producers must reach a mem-typed *source* — a continuation parameter
    or ``bottom`` — crossing only legitimate thread links: a store, the
    index-0 extract of another memory op's result pair, or a component
    of a reassembled ``(mem, value)`` tuple (the rebuild fallback when
    the sibling value may trap).  Anything else — a mem-typed select, a
    dynamic extract, a value smuggled into the thread by a bad rewrite —
    means an effect got detached from the order the token encodes.
    The memory optimizer (:mod:`repro.transform.mem_opt`) relinks
    threads wholesale, which is exactly what this check keeps honest
    under ``verify_each_pass``.
    """
    verdicts: dict[Def, bool] = {}

    def thread_ok(mem: Def) -> bool:
        chain: list[Def] = []
        cur = mem
        while True:
            cached = verdicts.get(cur)
            if cached is not None:
                verdict = cached
                break
            chain.append(cur)
            d = peel_markers(cur)
            if isinstance(d, (Param, Bottom)):
                verdict = True
                break
            if isinstance(d, Store):
                cur = d.mem
                continue
            if isinstance(d, Extract) and isinstance(d.index, Literal):
                agg = peel_markers(d.agg)
                if (isinstance(agg, (Load, Enter, Alloc))
                        and d.index.value == 0):
                    cur = agg.mem
                    continue
                if (isinstance(agg, TupleVal)
                        and d.index.value < len(agg.ops)):
                    cur = agg.op(d.index.value)
                    continue
            verdict = False
            break
        for link in chain:
            verdicts[link] = verdict
        return verdict

    for d in _reachable_defs(world, roots=_rooted_continuations(world)):
        if isinstance(d, (Load, Store, Enter, Alloc)):
            if not thread_ok(d.mem):
                raise VerifyError(
                    f"{d.unique_name()}: mem operand "
                    f"{d.mem.unique_name()} does not reach a well-formed "
                    f"effect thread"
                )


# ---------------------------------------------------------------------------
# control-flow form
# ---------------------------------------------------------------------------


def cff_violations(world: World) -> list[str]:
    """Reasons the world is not in control-flow form (empty = CFF)."""
    violations: list[str] = []
    for function in top_level_of(world):
        if not function.has_body():
            continue
        if function.fn_type.order() > 2:
            violations.append(
                f"{function.unique_name()}: order-{function.fn_type.order()} "
                f"function type {function.fn_type}"
            )
            continue
        scope = scope_of(function)
        free = scope.free_params()
        if free:
            names = ", ".join(p.unique_name() for p in free)
            violations.append(
                f"{function.unique_name()}: free parameters ({names})"
            )
        for cont in scope.continuations():
            if cont is function:
                continue
            if cont.fn_type.order() > 1:
                violations.append(
                    f"{cont.unique_name()} in {function.unique_name()}: "
                    f"inner continuation of order "
                    f"{cont.fn_type.order()} (a closure would be required)"
                )
        for cont in scope.continuations():
            if cont.has_body():
                violations.extend(_jump_violations(cont, scope))
    return violations


def _jump_violations(cont: Continuation, scope: Scope) -> list[str]:
    """Ways a single jump escapes what a CFG backend can lower."""
    violations: list[str] = []
    callee = peel_markers(cont.callee)
    entry = scope.entry

    def ok_return_target(d: Def) -> bool:
        d = peel_markers(d)
        if isinstance(d, Continuation):
            if d in scope:
                return d.fn_type.order() <= 1
            return True  # out-of-scope function: a static code address
        if isinstance(d, Param):
            return d.continuation is entry and isinstance(d.type, FnType)
        return False

    if isinstance(callee, Continuation):
        intrinsic = callee.intrinsic
        if intrinsic in (Intrinsic.BRANCH, Intrinsic.MATCH):
            if intrinsic == Intrinsic.BRANCH:
                targets = list(cont.args[2:])
            else:
                targets = [cont.args[2]]
                targets += [arm.op(1) for arm in cont.args[3:] if arm.num_ops == 2]
            for t in targets:
                if not ok_return_target(t):
                    violations.append(
                        f"{cont.unique_name()}: non-block branch target "
                        f"{t.unique_name()}"
                    )
        else:
            # A call: fn-typed arguments are only lowerable in the
            # callee's (single, conventional) return position.
            callee_ret_index = None
            for index in range(len(callee.params) - 1, -1, -1):
                if isinstance(callee.params[index].type, FnType):
                    callee_ret_index = index
                    break
            for index, arg in enumerate(cont.args):
                if not isinstance(arg.type, FnType):
                    continue
                if index != callee_ret_index:
                    violations.append(
                        f"{cont.unique_name()}: continuation argument "
                        f"{arg.unique_name()} at non-return position "
                        f"{index} of {callee.unique_name()}"
                    )
                elif not ok_return_target(arg):
                    violations.append(
                        f"{cont.unique_name()}: escaping continuation "
                        f"argument {arg.unique_name()}"
                    )
    elif isinstance(callee, Param):
        if callee.continuation is not entry:
            violations.append(
                f"{cont.unique_name()}: jump through inner-continuation "
                f"parameter {callee.unique_name()}"
            )
        for arg in cont.args:
            if isinstance(arg.type, FnType) and not ok_return_target(arg):
                violations.append(
                    f"{cont.unique_name()}: escaping continuation argument "
                    f"{arg.unique_name()}"
                )
    else:
        violations.append(
            f"{cont.unique_name()}: first-class callee "
            f"{callee.unique_name()} ({type(callee).__name__})"
        )
    return violations


def is_cff(world: World) -> bool:
    return not cff_violations(world)
