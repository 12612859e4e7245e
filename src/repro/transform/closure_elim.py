"""Closure elimination: lambda mangling to control-flow form.

Higher-order programs pass continuations around as values.  A classical
backend cannot lower that — it needs *control-flow form* (CFF): every
continuation either a basic block or a top-level second-order function
(see ``core.verify``).  The paper's recipe is to mangle higher-order
call sites until no first-class continuation travel remains:

* a call passing a **statically known** continuation to a fn-typed
  parameter in a non-return position is rewritten to call a copy of the
  callee with that parameter *dropped* — the higher-order function is
  specialized for its functional argument;
* a call to an **inner** function (one with free parameters — a
  closure) or to a function of order > 2 is specialized on *all* its
  continuation arguments, turning the copy into plain blocks of the
  caller's scope.

Specializations are cached per (callee, dropped arguments); a budget
bounds the (rare) divergent cases — non-tail-recursive closures can
require unboundedly many variants, a limitation the paper's system
shares.  Anything not eliminated is reported by ``core.verify``'s CFF
checker and counted in experiment T2.
"""

from __future__ import annotations

from ..core.defs import Continuation, Def, Intrinsic, Param
from ..core.primops import Hlt, Run, peel_markers
from ..core.scope import Scope, scope_of
from ..core.types import FnType, FrameType, MemType
from ..core.world import World
from .inliner import is_recursive
from .mangle import Mangler


def _ret_param(cont: Continuation) -> Param | None:
    """The conventional return parameter: the last fn-typed one."""
    for param in reversed(cont.params):
        if isinstance(param.type, FnType):
            return param
    return None


class ClosureEliminator:
    def __init__(self, world: World, budget: int = 512):
        self.world = world
        self.budget = budget
        self.cache: dict[tuple, Continuation] = {}
        self.mangled = 0
        self.cache_hits = 0

    def run(self) -> dict[str, int]:
        progress = True
        while progress and self.budget > 0:
            progress = False
            for cont in self.world.continuations():
                if self.budget <= 0:
                    break
                if cont.has_body() and self._lower_site(cont):
                    progress = True
        return {
            "mangled": self.mangled,
            "cache_hits": self.cache_hits,
            "budget_left": self.budget,
        }

    # ------------------------------------------------------------------

    def _scope(self, cont: Continuation) -> Scope:
        # The world's analysis manager replaced the ad-hoc per-round
        # cache this pass used to keep: mangles invalidate through the
        # world's mutation notes, so a scope computed before a mangle
        # can never be served stale after it.
        return scope_of(cont)

    def _lower_site(self, site: Continuation) -> bool:
        callee = site.callee
        target = peel_markers(callee)
        if not isinstance(target, Continuation) or not target.has_body() \
                or target.is_intrinsic():
            return False
        if target.fn_type.order() <= 1:
            # A basic-block-like continuation: jumps to it are plain CFG
            # edges, CFF-compatible whatever its free uses are.
            return False
        scope = self._scope(target)
        if site in scope:
            return False  # direct intra-scope jump (a block edge)
        has_free = scope.has_free_params()
        if has_free and is_recursive(target, scope):
            # A *recursive* closure cannot be dissolved by per-return
            # specialization (every recursion level has a fresh return
            # continuation).  Lambda-lift its free defs into parameters
            # instead: the result is a closed top-level function.
            return self._lift_closure(target, scope)
        aggressive = has_free or target.order() > 2
        ret = _ret_param(target)
        spec: dict[Param, Def] = {}
        for param, arg in zip(target.params, site.args):
            if not isinstance(param.type, FnType):
                continue
            if param is ret and not aggressive:
                continue
            value = peel_markers(arg)
            if isinstance(value, Continuation) and value not in scope:
                spec[param] = value
            elif aggressive and isinstance(value, Param) and value not in scope:
                # A closure call forwarding e.g. the caller's return
                # continuation: burning the param in is what dissolves
                # the closure into the caller's scope.
                spec[param] = value
        if not spec:
            return False
        key = (target.gid,
               tuple(sorted((p.index, a.gid) for p, a in spec.items())))
        new_target = self.cache.get(key)
        if new_target is None:
            new_target = Mangler(scope, spec).mangle()
            self.cache[key] = new_target
            self.mangled += 1
            self.budget -= 1
        else:
            self.cache_hits += 1
        remaining = [a for p, a in zip(target.params, site.args)
                     if p not in spec]
        new_callee: Def = new_target
        if isinstance(callee, Run):
            new_callee = self.world.run(new_target)
        elif isinstance(callee, Hlt):
            new_callee = self.world.hlt(new_target)
        self.world.jump(site, new_callee, remaining)
        return True

    def _lift_closure(self, target: Continuation, scope: Scope) -> bool:
        sites: list[Continuation] = []
        for user, index in target.uses:
            if user in scope:
                continue  # internal recursion: the mangler redirects it
            if not (isinstance(user, Continuation) and index == 0):
                return False  # escapes as a value: cannot change signature
            sites.append(user)
        lift: list[Def] = []
        for d in scope.free_defs():
            if isinstance(d, Continuation):
                # References to closed functions are globally available;
                # references to other *closures* cannot be fixed here.
                if not d.is_intrinsic() and scope_of(d).has_free_params():
                    return False
                continue
            if isinstance(d.type, (MemType, FrameType)):
                return False  # cannot abstract over memory state
            lift.append(d)
        if not lift:
            return False
        key = (target.gid, "lift", tuple(d.gid for d in lift))
        if key in self.cache:
            return False  # already lifted once; avoid ping-pong
        new_target = Mangler(scope, {}, tuple(lift)).mangle()
        new_target.name = target.name
        self.cache[key] = new_target
        self.mangled += 1
        self.budget -= 1
        for site in sites:
            if not site.has_body() or peel_markers(site.callee) is not target:
                continue
            callee: Def = new_target
            if isinstance(site.callee, Run):
                callee = self.world.run(new_target)
            elif isinstance(site.callee, Hlt):
                callee = self.world.hlt(new_target)
            self.world.jump(site, callee, tuple(site.args) + tuple(lift))
        return True


def eliminate_closures(world: World, budget: int = 512) -> dict[str, int]:
    """Mangle higher-order call sites toward control-flow form."""
    return ClosureEliminator(world, budget).run()
