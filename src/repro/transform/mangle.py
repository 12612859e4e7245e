"""Lambda mangling — the paper's central transformation.

Mangling takes the scope of a continuation and produces a *specialized
copy* of it.  Two orthogonal ingredients:

* **drop** — substitute concrete values for some of the entry's
  parameters; the new entry no longer has those parameters.
* **lift** — introduce fresh parameters for chosen free defs; the new
  entry abstracts over them.

Because scopes are implicit and the graph is globally value numbered,
mangling is *just* a scope copy through the world's smart factories:

* defs outside the scope are shared, never copied;
* copied primops are rebuilt through the world, so folding re-fires with
  the substituted values — this is where specialization power comes
  from (``pow(x, 5)`` unrolls by itself once the exponent is dropped);
* there are no binders to rearrange, no phis to repair, no variables to
  rename.  The bookkeeping experiment (T3) counts exactly these
  non-events against the SSA and nested-CPS baselines.

Recursion: a jump to the old entry from inside the scope whose arguments
at all dropped positions are *identical* to the dropped values is
retargeted to the new entry (so specializing a tail-recursive loop over
an invariant argument ties the knot instead of unrolling forever).  Any
other recursive reference keeps pointing at the old, generic entry.

Classic transformations are one-liners on top (see the helpers at the
bottom): inlining = drop all params + jump; loop unrolling = clone;
lambda lifting/dropping = lift/drop of free defs.  Inlining at a
callee's only use moves the scope instead of copying it: with no other
caller, the original would be garbage the moment the copy existed (see
:func:`inline_call`).
"""

from __future__ import annotations

from ..core.defs import Continuation, Def, Param
from ..core.primops import EvalOp, PrimOp, peel_markers
from ..core.rewrite import rewrite_uses
from ..core.scope import Scope, scope_of
from ..core.types import fn_type
from ..core.world import World


class MangleStats:
    """What one mangle did — consumed by the bookkeeping experiment T3."""

    def __init__(self) -> None:
        self.continuations_copied = 0
        self.primops_rebuilt = 0
        self.defs_shared = 0
        # Structural repair work that graph-based mangling never needs;
        # kept explicitly at zero so T3 can report it side by side with
        # the baselines' non-zero counters.
        self.phis_repaired = 0
        self.binders_rearranged = 0
        self.alpha_renames = 0


class Mangler:
    """One mangling of ``scope`` with drop substitutions and lifted defs.

    ``spec`` maps entry parameters to their specialization values (the
    dropped ones); parameters absent from ``spec`` are kept.  ``lift``
    lists defs (normally free defs of the scope) that become fresh
    parameters of the new entry.
    """

    def __init__(self, scope: Scope, spec: dict[Param, Def],
                 lift: tuple[Def, ...] = ()):
        self.scope = scope
        self.world: World = scope.entry.world
        self.spec = dict(spec)
        self.lift = tuple(lift)
        self.stats = MangleStats()
        self.old_entry = scope.entry
        for param in self.spec:
            assert param.continuation is self.old_entry, (
                f"can only drop params of the entry, not {param.unique_name()}"
            )

        self.kept_params = [p for p in self.old_entry.params if p not in self.spec]
        new_param_types = [p.type for p in self.kept_params]
        new_param_types += [d.type for d in self.lift]
        self.new_entry = self.world.continuation(
            fn_type(tuple(new_param_types)), f"{self.old_entry.name}.m"
        )
        self.stats.continuations_copied += 1

        self._old2new: dict[Def, Def] = {}
        for old, new in zip(self.kept_params, self.new_entry.params):
            new.name = old.name
            self._old2new[old] = new
        for param, value in self.spec.items():
            self._old2new[param] = value
        for lifted, new in zip(self.lift, self.new_entry.params[len(self.kept_params):]):
            new.name = lifted.name or "lifted"
            self._old2new[lifted] = new

    # ------------------------------------------------------------------

    def mangle(self) -> Continuation:
        self._mangle_body(self.old_entry, self.new_entry)
        return self.new_entry

    def _mangle_body(self, old: Continuation, new: Continuation) -> None:
        if not old.has_body():
            return
        callee, args = old.callee, old.args
        target = peel_markers(callee)
        if target is self.old_entry and self._is_self_specializing(args):
            new_args = [self._mangle(a) for i, a in enumerate(args)
                        if self.old_entry.params[i] not in self.spec]
            new_args += [self._old2new[d] for d in self.lift]
            self.world.jump(new, self._rewrap(callee, self.new_entry), new_args)
            return
        self.world.jump(new, self._mangle(callee), [self._mangle(a) for a in args])

    def _is_self_specializing(self, args: tuple[Def, ...]) -> bool:
        """Does this recursive call pass exactly the dropped values?"""
        for param, value in self.spec.items():
            if self._mangle(args[param.index]) is not value:
                return False
        return True

    def _rewrap(self, original_callee: Def, new_target: Def) -> Def:
        """Transfer run/hlt markers from the old callee to the new target."""
        wrappers = []
        d = original_callee
        while isinstance(d, EvalOp):
            wrappers.append(type(d).__name__)
            d = d.value
        for w in reversed(wrappers):
            new_target = (self.world.run(new_target) if w == "Run"
                          else self.world.hlt(new_target))
        return new_target

    def _mangle(self, d: Def) -> Def:
        mapped = self._old2new.get(d)
        if mapped is not None:
            return mapped
        if d not in self.scope:
            self.stats.defs_shared += 1
            self._old2new[d] = d
            return d
        if isinstance(d, Continuation):
            if d is self.old_entry:
                # First-class recursive reference: keep the generic entry.
                self._old2new[d] = d
                return d
            new = self.world.continuation(d.fn_type, d.name)
            new.filter = d.filter
            self.stats.continuations_copied += 1
            self._old2new[d] = new
            for old_param, new_param in zip(d.params, new.params):
                new_param.name = old_param.name
                self._old2new[old_param] = new_param
            self._mangle_body(d, new)
            return new
        if isinstance(d, Param):
            # Parameter of an in-scope continuation: mangling that
            # continuation populates the mapping.
            self._mangle(d.continuation)
            return self._old2new[d]
        assert isinstance(d, PrimOp), f"unexpected def {d!r}"
        new_ops = tuple(self._mangle(op) for op in d.ops)
        if new_ops == d.ops:
            new = d
            self.stats.defs_shared += 1
        else:
            new = self.world.rebuild(d, new_ops)
            self.stats.primops_rebuilt += 1
        self._old2new[d] = new
        return new


# ---------------------------------------------------------------------------
# The classic transformations, as one-liners over the mangler.
# ---------------------------------------------------------------------------


def mangle(scope: Scope, spec: dict[Param, Def], lift: tuple[Def, ...] = (),
           stats_out: list | None = None) -> Continuation:
    """Mangle ``scope``; returns the new entry."""
    mangler = Mangler(scope, spec, lift)
    result = mangler.mangle()
    if stats_out is not None:
        stats_out.append(mangler.stats)
    return result


def drop(scope: Scope, args: dict[Param, Def] | list[Def | None],
         stats_out: list | None = None) -> Continuation:
    """Specialize the entry by substituting the given arguments.

    ``args`` is either a param→value dict or a list aligned with the
    entry's parameters where ``None`` means "keep".
    """
    if isinstance(args, list):
        spec = {p: a for p, a in zip(scope.entry.params, args) if a is not None}
    else:
        spec = args
    return mangle(scope, spec, (), stats_out)


def clone(scope: Scope, stats_out: list | None = None) -> Continuation:
    """A fresh copy of the scope (used e.g. for loop unrolling/peeling)."""
    return mangle(scope, {}, (), stats_out)


class PeelMangler(Mangler):
    """A mangler whose copy *never* ties the recursive knot.

    The base mangler redirects self-specializing recursive jumps to the
    new entry.  For loop peeling we want the opposite: the copy executes
    the *first* iteration (with the specialized/rewritten values) and
    every back-edge falls through to the old, generic entry.  Used by the
    PGO hot-loop specializer (:mod:`repro.transform.pgo`).
    """

    def _is_self_specializing(self, args: tuple[Def, ...]) -> bool:
        return False


def peel(scope: Scope, spec: dict[Param, Def] | None = None,
         stats_out: list | None = None) -> Continuation:
    """Peel one iteration of the scope (optionally specializing params).

    Returns a new entry that runs the entry's body once — with ``spec``
    substituted, so folding re-fires in the copy — and then continues to
    the *original* entry on any recursive jump.
    """
    mangler = PeelMangler(scope, spec or {})
    result = mangler.mangle()
    if stats_out is not None:
        stats_out.append(mangler.stats)
    return result


def lift(scope: Scope, defs: tuple[Def, ...],
         stats_out: list | None = None) -> Continuation:
    """Abstract the scope over ``defs``: they become new parameters."""
    return mangle(scope, {}, defs, stats_out)


def inline_call(caller: Continuation, stats_out: list | None = None, *,
                outside: bool = False) -> bool:
    """Inline the call in ``caller``'s body, if the callee is known.

    ``caller: jump f(a_1, ..., a_n)`` becomes ``caller: jump f'()`` where
    ``f'`` is the scope of ``f`` with all parameters dropped to the
    ``a_i`` — beta reduction as a degenerate mangle.  Returns ``True`` if
    something was inlined.

    When the plain jump is the only use of a non-external ``f``, the
    original would be garbage the moment a copy existed, so the scope is
    *moved* instead (a shrinking reduction): the parameters' users are
    rewritten to the ``a_i`` in place, the rewritten body goes to a fresh
    parameterless ``f'``, and ``f`` itself is left as ``jump f'()`` for
    cleanup to collect.  That last jump keeps ``f``'s parameters bound
    inside the caller's scope, where the primops the rewrite superseded
    still use them until garbage collection.  No :class:`MangleStats` is
    recorded for a move: nothing was copied.

    ``outside=True`` says the caller already knows it lies outside
    ``f``'s scope (the inliner proves it for a once-called ``f`` without
    recovering the scope).  A move then needs no scope at all; a copy
    still recovers the scope it copies.  Otherwise a caller inside the
    scope is refused: the copy would duplicate the caller into itself.
    """
    if not caller.has_body():
        return False
    callee = peel_markers(caller.callee)
    if not isinstance(callee, Continuation) or not callee.has_body():
        return False
    if callee is caller:
        return False
    scope = None
    if not outside:
        scope = scope_of(callee)
        if caller in scope:
            return False
    world = caller.world
    if (caller.callee is callee and callee.num_uses == 1
            and not callee.is_external):
        rewrite_uses(world, dict(zip(callee.params, caller.args)))
        moved = world.continuation(fn_type(()), f"{callee.name}.m")
        world.jump(moved, callee.callee, callee.args)
        world.jump(callee, moved, ())
        world.jump(caller, moved, ())
        return True
    if scope is None:
        scope = scope_of(callee)
    specialized = drop(scope, list(caller.args), stats_out)
    world.jump(caller, specialized, ())
    return True
