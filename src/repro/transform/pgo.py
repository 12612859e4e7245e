"""Profile-guided transformations: hot-loop peeling and hot-site inlining.

Both passes are thin heuristic layers over lambda mangling — exactly
like the static inliner, but steered by *observed* counts from a
:class:`repro.profile.model.Profile` instead of static size thresholds:

* :func:`specialize_hot_loops` peels one iteration of each hot loop
  whose entry arguments are partially static, by mangling the header's
  scope with a :class:`~repro.transform.mangle.PeelMangler` — back-edges
  keep targeting the generic header, so the peeled copy runs once with
  the entry values burned in and folding re-fired.  Loops with no static
  entry arguments are skipped (peeling them is pure code growth).
* :func:`pgo_inline` inlines call sites whose execution count clears the
  hotness thresholds, *regardless* of the callee's static size, and
  leaves cold sites alone.

Profiles speak in stable site IDs (continuation ``unique_name()``s);
the passes resolve them against the live world and silently skip labels
that no longer resolve or whose call shape has changed — a profile is
advice, never an obligation.
"""

from __future__ import annotations

from ..core.defs import Continuation, Def, Param
from ..core.primops import EvalOp, peel_markers
from ..core.scope import scope_of
from ..core.world import World
from .inliner import is_recursive
from .mangle import MangleStats, inline_call, peel
from .partial_eval import is_static


def _label_map(world: World) -> dict[str, Continuation]:
    return {c.unique_name(): c for c in world.continuations()}


# ---------------------------------------------------------------------------
# hot-loop specialization
# ---------------------------------------------------------------------------


def specialize_hot_loops(world: World, profile, *, min_count: int = 32,
                         budget: int = 16) -> dict[str, int]:
    """Peel+specialize loops whose back-edge counts dominate.

    For every profiled loop header with at least *min_count* back-edge
    executions, every out-of-loop entry site that passes at least one
    static argument is retargeted to a peeled copy of the loop with
    those arguments dropped.  Returns activity counters.
    """
    labels = _label_map(world)
    peeled = 0
    skipped_no_static = 0
    skipped_stale = 0
    stats_sink: list[MangleStats] = []
    static_cache: dict = {}
    for loop in profile.hot_loops(min_count=min_count):
        if budget <= 0:
            break
        header = labels.get(loop.header)
        if header is None or not header.has_body():
            skipped_stale += 1
            continue
        scope = scope_of(header)
        # Entry sites: direct jumps to the header from outside the loop.
        sites = [user for user, index in header.uses
                 if index == 0 and isinstance(user, Continuation)
                 and user not in scope and user.has_body()]
        for site in sites:
            if budget <= 0:
                break
            if peel_markers(site.callee) is not header:
                continue
            spec: dict[Param, Def] = {}
            for param, arg in zip(header.params, site.args):
                if is_static(arg, static_cache):
                    value = (peel_markers(arg) if isinstance(arg, EvalOp)
                             else arg)
                    if value not in scope:
                        spec[param] = value
            if not spec:
                skipped_no_static += 1
                continue
            new_header = peel(scope, spec, stats_sink)
            remaining = [a for p, a in zip(header.params, site.args)
                         if p not in spec]
            world.jump(site, new_header, remaining)
            peeled += 1
            budget -= 1
    return {
        "loops_peeled": peeled,
        "loops_skipped_no_static": skipped_no_static,
        "loops_skipped_stale": skipped_stale,
        "budget_left": budget,
        "primops_rebuilt": sum(s.primops_rebuilt for s in stats_sink),
    }


# ---------------------------------------------------------------------------
# PGO inlining
# ---------------------------------------------------------------------------


def pgo_inline(world: World, profile, *, min_count: int = 4,
               min_fraction: float = 0.05,
               budget: int = 32) -> dict[str, int]:
    """Inline hot call sites regardless of static size; skip cold ones.

    A site is hot when its executed count is at least *min_count* and at
    least *min_fraction* of all profiled call executions.  Returns
    activity counters.
    """
    labels = _label_map(world)
    inlined = 0
    skipped_stale = 0
    cold = sum(1 for s in profile.call_sites) \
        - len(profile.hot_call_sites(min_count=min_count,
                                     min_fraction=min_fraction))
    stats_sink: list[MangleStats] = []
    for site_profile in profile.hot_call_sites(min_count=min_count,
                                               min_fraction=min_fraction):
        if budget <= 0:
            break
        site = labels.get(site_profile.block)
        callee = labels.get(site_profile.callee)
        if (site is None or callee is None or not site.has_body()
                or not callee.has_body() or callee.is_intrinsic()):
            skipped_stale += 1
            continue
        if peel_markers(site.callee) is not callee:
            skipped_stale += 1  # rewritten since the profile was taken
            continue
        if is_recursive(callee, scope_of(callee)):
            continue  # specializing recursion is the evaluator's job
        if inline_call(site, stats_sink):
            inlined += 1
            budget -= 1
    return {
        "pgo_inlined": inlined,
        "cold_skipped": cold,
        "sites_stale": skipped_stale,
        "budget_left": budget,
        "primops_rebuilt": sum(s.primops_rebuilt for s in stats_sink),
    }
