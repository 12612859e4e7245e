"""On-the-fly SSA construction into Thorin.

This is the paper's IR construction story (following Braun et al.,
CC'13, adapted to continuations): basic blocks are continuations,
phi functions are continuation *parameters*, and construction needs
neither a dominance tree nor dominance frontiers.

Per function, the builder tracks for every block:

* the current definition of each variable (``defs``),
* whether the block is *sealed* (all predecessors known),
* its direct-jump predecessors (``preds``) and the variable each of its
  phi parameters carries (``phi_vars``),
* for a loop header, the variables its loop may assign (``carried``).

Reading a variable with no local definition looks through the
predecessors, and a parameter is appended only where one is needed:

* A sealed join uses Braun et al.'s marker variant.  The lookup marks
  the block, reads every predecessor, and returns their common value
  when they agree.  A phi is made when they differ, or when the lookup
  re-enters the marked block (a loop), in which case the re-entry makes
  it and the outer lookup completes its arguments.
* A loop header is handed the variables assigned in the loop's
  condition and body (the ``for`` variable included; the memory token
  always).  Any other variable is read straight from the preheader,
  open or sealed: the loop cannot change it.  A carried variable read
  while the header is open gets its phi at once, as the back edges are
  not known yet.

Trivial-phi removal (all incoming values equal) still runs where a phi
can turn out trivial after it was made: for a header's open phis when
it is sealed, for a phi completed after a re-entry, and as the cascade
into phis that took a dissolved one as an argument.  Dissolved phis
forward through ``_replacements``, which every read resolves through,
so no environment map needs patching.  The result is minimal SSA on
reducible control flow.  Blocks with a single predecessor never
receive parameters: the value is referenced *directly* across blocks,
which the graph IR allows because there is no nesting to fight.

Invariant maintained throughout: **every predecessor's jump carries one
argument per parameter of its target**, except for a phi whose lookup
is still in flight (its creator appends the arguments when the lookup
returns).  A new jump passes arguments for all existing parameters.

Variables are identified by declaration objects (never by name), so
shadowing is a non-issue; the memory token is threaded through the very
same mechanism under the :data:`MEM_VAR` key — which is why join blocks
only carry a mem parameter when memory state actually merges.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core.defs import Continuation, Def, Param
from ..core.primops import peel_markers
from ..core.rewrite import rewrite_uses
from ..core.types import MEM, Type, fn_type
from ..core.world import World


class _MemVar:
    """Sentinel variable key for the memory token."""

    type = MEM
    name = "mem"

    def __repr__(self) -> str:  # pragma: no cover
        return "<mem-var>"


MEM_VAR = _MemVar()

# A sealed join's ``defs`` entry while its predecessors are being read:
# a lookup that finds it has come back around a loop.
_LOOKING = object()


class SSABuilder:
    """SSA-construction state for one function body."""

    def __init__(self, world: World, entry: Continuation):
        self.world = world
        self.entry = entry
        self.cur: Continuation | None = entry
        self._defs: dict[Continuation, dict[object, Def]] = {}
        self._sealed: set[Continuation] = set()
        self._preds: dict[Continuation, list[Continuation]] = {}
        self._phi_vars: dict[Continuation, list[object]] = {}
        self._open_phis: dict[Continuation, list[Param]] = {}
        self._carried: dict[Continuation, set[object]] = {}
        # Forwarding pointers for removed phis: triviality cascades can
        # dissolve a param *after* some in-flight computation picked it
        # up; everyone resolves through this table before using a value.
        self._replacements: dict[Param, Def] = {}
        # Params that predate the builder (the entry's signature, a
        # branch target's mem param): phi params start after them.
        self._fixed: dict[Continuation, int] = {}
        self._register(entry)
        self._sealed.add(entry)

    # ------------------------------------------------------------------
    # block management
    # ------------------------------------------------------------------

    def _register(self, block: Continuation) -> None:
        self._defs[block] = {}
        self._preds[block] = []
        self._phi_vars[block] = []
        self._fixed[block] = block.num_params

    def new_block(self, name: str,
                  carried: Iterable[object] | None = None) -> Continuation:
        """A join block: starts with no params; phis appended on demand.

        A loop header passes *carried*, the variables its loop assigns;
        its first predecessor must be the preheader.
        """
        block = self.world.continuation(fn_type(()), name)
        self._register(block)
        if carried is not None:
            self._carried[block] = {*carried, MEM_VAR}
        return block

    def new_branch_target(self, name: str, pred: Continuation) -> Continuation:
        """An ``fn(mem)`` block used as a branch/match target.

        Branch targets have exactly one (virtual) predecessor — the
        branching block — and are sealed immediately; variable reads fall
        through to it, so they never grow parameters.
        """
        block = self.world.continuation(fn_type((MEM,)), name)
        block.params[0].name = "mem"
        self._register(block)
        self._preds[block] = [pred]
        self._sealed.add(block)
        self._defs[block][MEM_VAR] = block.params[0]
        return block

    def adopt_call_return(self, block: Continuation, pred: Continuation) -> None:
        """Adopt a freshly created return continuation of a call.

        Like a branch target: single known predecessor (the calling
        block), sealed, mem rebound to its first parameter.
        """
        self._register(block)
        self._preds[block] = [pred]
        self._sealed.add(block)
        self._defs[block][MEM_VAR] = block.params[0]

    def is_registered(self, block: Continuation) -> bool:
        return block in self._defs

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------

    def write(self, var: object, value: Def) -> None:
        assert self.cur is not None
        self._defs[self.cur][var] = value

    def read(self, var: object, type: Type) -> Def:
        assert self.cur is not None
        return self._read(self.cur, var, type)

    def read_mem(self) -> Def:
        return self.read(MEM_VAR, MEM)

    def write_mem(self, value: Def) -> None:
        self.write(MEM_VAR, value)

    def _resolve(self, d: Def) -> Def:
        while isinstance(d, Param):
            forwarded = self._replacements.get(d)
            if forwarded is None:
                break
            d = forwarded
        return d

    def resolve(self, d: Def) -> Def:
        """Public view of replacement forwarding (for the emitter).

        Any def held across a :meth:`read` must be passed through here
        before being baked into a jump: the read may have dissolved a
        phi the held def *is*.
        """
        return self._resolve(d)

    def _read(self, block: Continuation, var: object, type: Type) -> Def:
        defs = self._defs[block]
        local = defs.get(var)
        if local is _LOOKING:
            # Back around a loop to a join whose lookup is in flight:
            # it needs a phi, and that lookup supplies the arguments.
            phi = defs[var] = self._append_phi(block, var, type)
            return phi
        if local is not None:
            return self._resolve(local)
        value = self._resolve(self._read_nonlocal(block, var, type))
        defs[var] = value
        return value

    def _read_nonlocal(self, block: Continuation, var: object,
                       type: Type) -> Def:
        preds = self._preds[block]
        carried = self._carried.get(block)
        if carried is not None and var not in carried:
            # The loop never assigns it: read it before the loop.
            return self._read(preds[0], var, type)
        if block not in self._sealed:
            phi = self._new_phi(block, var, type)
            self._open_phis.setdefault(block, []).append(phi)
            return phi
        if len(preds) == 1:
            return self._read(preds[0], var, type)
        if not preds:
            return self.world.bottom(type)  # read before any write
        return self._read_join(block, var, type, preds)

    def _read_join(self, block: Continuation, var: object, type: Type,
                   preds: list[Continuation]) -> Def:
        """Braun et al.'s marker lookup at a sealed join."""
        defs = self._defs[block]
        defs[var] = _LOOKING
        values = [self._read(pred, var, type) for pred in preds]
        # Later reads may dissolve a phi an earlier one returned.
        values = [self._resolve(value) for value in values]
        phi = defs[var]
        if phi is _LOOKING:
            first = values[0]
            if all(value is first for value in values):
                return first
            phi = self._append_phi(block, var, type)
            self._append_args(preds, values)
            return phi
        self._append_args(preds, values)
        return self._try_remove_trivial(block, phi)

    def _new_phi(self, block: Continuation, var: object,
                 type: Type) -> Param:
        """A phi on an open block, its known predecessors read at once."""
        param = self._append_phi(block, var, type)
        # Record the definition *before* reading predecessors: a loop in
        # the predecessor chain must resolve to this very phi instead of
        # recursing forever.
        self._defs[block][var] = param
        # Collect all operand values first: the reads may recursively
        # create and remove other phis, and must not observe this phi's
        # jump arguments half-appended.
        preds = list(self._preds[block])
        # No triviality cascade during those reads can dissolve this phi:
        # cascades only visit sealed blocks.
        values = [self._read(pred, var, type) for pred in preds]
        self._append_args(preds, values)
        return param

    def _append_phi(self, block: Continuation, var: object,
                    type: Type) -> Param:
        assert self._fixed[block] == 0, (
            f"phi on fixed-signature block {block.unique_name()}"
        )
        name = getattr(var, "name", None) or "phi"
        self._phi_vars[block].append(var)
        return block.append_param(type, str(name))

    def _append_args(self, preds: list[Continuation],
                     values: list[Def]) -> None:
        for pred, value in zip(preds, values):
            assert pred.has_body(), (
                f"predecessor {pred.unique_name()} has not jumped yet"
            )
            pred._set_ops(pred.ops + (self._resolve(value),))

    # ------------------------------------------------------------------
    # trivial-phi elimination (Braun et al.)
    # ------------------------------------------------------------------

    def _try_remove_trivial(self, block: Continuation, param: Param) -> Def:
        same: Def | None = None
        index = param.index
        for pred in self._preds[block]:
            if not pred.has_body() or index >= len(pred.args):
                # Operand appending for this phi is still in flight
                # higher up the call chain: not removable yet.  The
                # creator re-runs the check once the phi is complete.
                return param
            arg = pred.arg(index)
            if arg is param or arg is same:
                continue
            if same is not None:
                return param  # merges at least two distinct values
            same = arg
        if same is None:
            same = self.world.bottom(param.type)
        # Phis that might become trivial once this one dissolves: targets
        # of jumps that pass this param as an argument.
        candidates: list[tuple[Continuation, Param]] = []
        for user, index in param.uses:
            if isinstance(user, Continuation) and user.has_body():
                target = peel_markers(user.callee)
                if (isinstance(target, Continuation)
                        and target in self._defs
                        and self._fixed[target] == 0
                        and target is not block
                        and target in self._sealed):
                    arg_pos = index - 1
                    if 0 <= arg_pos < target.num_params:
                        candidates.append((target, target.params[arg_pos]))
        self._remove_param(block, param, same)
        for target, other in candidates:
            if other in target.params and other is not param:
                self._try_remove_trivial(target, other)
        # The cascade may have dissolved `same` itself in the meantime.
        return self._resolve(same)

    def _remove_param(self, block: Continuation, param: Param,
                      replacement: Def) -> None:
        index = param.index
        memo = rewrite_uses(self.world, {param: replacement})
        self._replacements[param] = memo.get(replacement, replacement)
        # Drop the argument from every predecessor's jump (ops[0] is the
        # callee, hence the +1).
        for pred in self._preds[block]:
            ops = list(pred.ops)
            ops.pop(1 + index)
            pred._set_ops(tuple(ops))
        block.params.pop(index)
        for later in block.params[index:]:
            later.index -= 1
        param_types = [t for i, t in enumerate(block.fn_type.param_types)
                       if i != index]
        block.type = fn_type(tuple(param_types))
        self._phi_vars[block].pop(index - self._fixed[block])
        open_list = self._open_phis.get(block)
        if open_list and param in open_list:
            open_list.remove(param)

    # ------------------------------------------------------------------
    # jumps & sealing
    # ------------------------------------------------------------------

    def jump_to(self, target: Continuation) -> None:
        """Direct jump from the current block, passing all phi params."""
        assert self.cur is not None
        assert not self._fixed[target], (
            f"direct jump to fixed-signature block {target.unique_name()}"
        )
        assert target not in self._sealed, (
            f"new predecessor for sealed block {target.unique_name()}"
        )
        args = [self._read(self.cur, var, param.type)
                for var, param in zip(self._phi_vars[target], target.params)]
        # Reads for later args can dissolve params delivered by earlier
        # ones; resolve the whole list at the end.
        args = [self._resolve(a) for a in args]
        self._preds[target].append(self.cur)
        self.world.jump(self.cur, target, args)
        self.cur = None

    def seal(self, block: Continuation) -> None:
        """Declare that all predecessors of *block* are known."""
        assert block not in self._sealed, f"{block.name} sealed twice"
        self._sealed.add(block)
        for param in self._open_phis.pop(block, []):
            if param in block.params:
                self._try_remove_trivial(block, param)

    def enter(self, block: Continuation) -> None:
        """Make *block* the current insertion point."""
        self.cur = block

    def unreachable(self) -> None:
        self.cur = None

    @property
    def reachable(self) -> bool:
        return self.cur is not None
