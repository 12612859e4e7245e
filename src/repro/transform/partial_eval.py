"""Online partial evaluation of ``run``-marked calls.

The paper equips the IR with two markers: ``run(f)`` asks the evaluator
to specialize calls to ``f``; ``hlt(f)`` forbids it.  The evaluator here
is the mangling-based online specializer:

* a call ``jump run(f)(args)`` is specialized by *dropping* every
  static argument (literals, statically known continuations without
  free parameters, and aggregates of such) — folding then re-fires
  inside the copy, which is where computation happens at compile time;
* ``run`` *propagates*: the residual call sites inside the specialized
  copy that target known functions are re-marked ``run``, so evaluation
  continues into callees (until a ``hlt`` marker or a fully dynamic
  call stops it);
* termination: a **memo cache** keyed on (callee, dropped values) makes
  repeated states hit the cache (the tail-recursive case is handled
  structurally by the mangler's self-specializing redirect), and a
  **budget** bounds pathological programs — when it runs out, remaining
  ``run`` markers are simply stripped, leaving a correct residual
  program.  This is the "predictable termination policy" trade-off the
  follow-up work (GPCE'15) discusses; we document the budget in
  EXPERIMENTS.md.
"""

from __future__ import annotations

from ..core.defs import Continuation, Def, Intrinsic, Param
from ..core.primops import (
    Aggregate,
    Bottom,
    EvalOp,
    Hlt,
    Literal,
    Run,
    peel_markers,
)
from ..core.scope import Scope, scope_of
from ..core.world import World
from .mangle import Mangler


def is_static(arg: Def, scope_cache: dict | None = None) -> bool:
    """May this argument be burned into a specialized copy?

    Literals, bottoms and aggregates thereof, plus *closed* continuations
    (no free parameters — typically top-level functions).  Caller-local
    return continuations are deliberately dynamic: specializing on them
    would fork a fresh variant per call site and defeat the memo cache;
    collapsing call chains is the inliner's job, and dissolving genuine
    closures is closure elimination's.
    """
    if isinstance(arg, (Literal, Bottom)):
        return True
    if isinstance(arg, Hlt):
        return False
    if isinstance(arg, Run):
        return is_static(arg.value, scope_cache)
    if isinstance(arg, Continuation):
        if arg.is_intrinsic():
            return False
        if scope_cache is not None and arg in scope_cache:
            return scope_cache[arg]
        closed = not scope_of(arg).has_free_params()
        if scope_cache is not None:
            scope_cache[arg] = closed
        return closed
    if isinstance(arg, Aggregate):
        return all(is_static(op, scope_cache) for op in arg.ops)
    return False


class PartialEvaluator:
    def __init__(self, world: World, budget: int = 512):
        self.world = world
        self.budget = budget
        self.cache: dict[tuple, Continuation] = {}
        self.specialized = 0
        self.cache_hits = 0
        self._static_cache: dict = {}
        self._discovered: list[Continuation] = []

    # ------------------------------------------------------------------

    def run(self) -> dict[str, int]:
        # Only a continuation whose callee is a ``run`` marker can make
        # progress, so sweep a worklist of those sites instead of the
        # whole world per round (the old full sweep was quadratic: one
        # world scan per specialization).  Sites are processed in
        # creation (gid) order, new sites minted by a specialization are
        # deferred to the next round — the same visit order as the full
        # sweep, at a fraction of the scanning cost.
        pending = [c for c in self.world.continuations()
                   if c.has_body() and isinstance(c.callee, Run)]
        while pending and self.budget > 0:
            batch = pending
            pending = []
            self._discovered = pending
            for cont in batch:
                if self.budget <= 0:
                    break
                if not cont.has_body():
                    continue
                if not self._eval_site(cont):
                    continue  # unsuitable target: permanently dynamic
                # Jump folding can splice a fresh ``run``-headed body
                # into the site; keep it live in that case.
                if cont.has_body() and isinstance(cont.callee, Run):
                    pending.append(cont)
        stripped = self._strip_markers()
        return {
            "specialized": self.specialized,
            "cache_hits": self.cache_hits,
            "markers_stripped": stripped,
            "budget_left": self.budget,
        }

    def _eval_site(self, cont: Continuation) -> bool:
        callee = cont.callee
        if not isinstance(callee, Run):
            return False
        target = peel_markers(callee)
        if not isinstance(target, Continuation) or not target.has_body() \
                or target.is_intrinsic():
            return False
        args = cont.args
        scope = scope_of(target)
        if cont in scope:
            # Specializing would copy the caller into itself; strip.
            cont.update_callee(target)
            return True
        spec: dict[Param, Def] = {}
        for param, arg in zip(target.params, args):
            if is_static(arg, self._static_cache):
                value = peel_markers(arg) if isinstance(arg, EvalOp) else arg
                if value not in scope:
                    spec[param] = value
        if not spec:
            # Nothing static: drop the marker, this call stays dynamic.
            cont.update_callee(target)
            return True
        key = (target.gid,
               tuple(sorted((p.index, a.gid) for p, a in spec.items())))
        new_target = self.cache.get(key)
        if new_target is None:
            mangler = Mangler(scope, spec)
            new_target = mangler.mangle()
            self.cache[key] = new_target
            self.specialized += 1
            self.budget -= 1
            self._propagate_run(new_target)
        else:
            self.cache_hits += 1
        remaining = [a for p, a in zip(target.params, args) if p not in spec]
        self.world.jump(cont, new_target, remaining)
        return True

    def _propagate_run(self, new_entry: Continuation) -> None:
        """Re-mark residual *calls* inside the fresh copy.

        Only out-of-scope targets (genuine calls to other functions) are
        re-marked.  Intra-scope jumps — loop heads in particular — are
        left alone: unrolling a dynamically bounded loop would only burn
        the budget.  This is the predictable-termination compromise.

        Only blocks reachable in the copy's CFG are walked: arms that
        folding made dead while mangling (the recursive arm of a base
        case) would otherwise re-mark their calls and specialize
        garbage until the budget runs out.
        """
        scope = scope_of(new_entry)
        discovered = self._discovered
        for cont in self.world.analyses.cfg(new_entry).continuations():
            if not cont.has_body():
                continue
            callee = cont.callee
            if isinstance(callee, Run):
                # A copied run site inside the fresh body: keep it live.
                discovered.append(cont)
                continue
            if isinstance(callee, Hlt):
                continue
            target = peel_markers(callee)
            if (isinstance(target, Continuation) and target.has_body()
                    and not target.is_intrinsic() and target not in scope
                    and target is not new_entry):
                cont.update_callee(self.world.run(callee))
                discovered.append(cont)

    def _strip_markers(self) -> int:
        stripped = 0
        for cont in self.world.continuations():
            if not cont.has_body():
                continue
            if isinstance(cont.callee, EvalOp):
                cont.update_callee(peel_markers(cont.callee))
                stripped += 1
        return stripped


def partial_eval(world: World, budget: int = 512) -> dict[str, int]:
    """Specialize all ``run``-marked calls; returns activity counters."""
    return PartialEvaluator(world, budget).run()
