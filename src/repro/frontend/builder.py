"""On-the-fly SSA construction into Thorin.

This is the paper's IR construction story (following Braun et al.,
CC'13, adapted to continuations): basic blocks are continuations,
phi functions are continuation *parameters*, and construction needs
neither a dominance tree nor dominance frontiers.

Per function, the builder tracks for every block:

* the current definition of each variable (``defs``),
* whether the block is *sealed* (all predecessors known),
* its direct-jump predecessors (``preds``) and the variable each of its
  phi parameters carries (``phi_vars``).

Reading a variable with no local definition recurses into the
predecessors; joins materialize as appended parameters; trivial
parameters (all incoming values equal) are removed again — yielding
minimal SSA on reducible control flow.  Blocks with a single
predecessor never receive parameters: the value is referenced
*directly* across blocks, which the graph IR allows because there is
no nesting to fight.

Invariant maintained throughout: **every predecessor's jump carries one
argument per parameter of its target.**  Creating a phi appends the
corresponding argument to all currently-known predecessors; a new jump
passes arguments for all currently-existing parameters; sealing only
runs the triviality check for phis created while the block was open.

Variables are identified by declaration objects (never by name), so
shadowing is a non-issue; the memory token is threaded through the very
same mechanism under the :data:`MEM_VAR` key — which is why join blocks
only carry a mem parameter when memory state actually merges.
"""

from __future__ import annotations

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

    def new_block(self, name: str) -> Continuation:
        """A join block: starts with no params; phis appended on demand."""
        block = self.world.continuation(fn_type(()), name)
        self._register(block)
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
        local = self._defs[block].get(var)
        if local is not None:
            return self._resolve(local)
        value = self._resolve(self._read_nonlocal(block, var, type))
        self._defs[block][var] = value
        return value

    def _read_nonlocal(self, block: Continuation, var: object,
                       type: Type) -> Def:
        if block not in self._sealed:
            phi = self._new_phi(block, var, type)
            if isinstance(phi, Param) and phi.continuation is block:
                self._open_phis.setdefault(block, []).append(phi)
            return phi
        preds = self._preds[block]
        if len(preds) == 1:
            return self._read(preds[0], var, type)
        if not preds:
            return self.world.bottom(type)  # read before any write
        phi = self._new_phi(block, var, type)
        if isinstance(phi, Param) and phi.continuation is block:
            return self._try_remove_trivial(block, phi)
        return phi

    def _new_phi(self, block: Continuation, var: object, type: Type) -> Def:
        assert self._fixed[block] == 0, (
            f"phi on fixed-signature block {block.unique_name()}"
        )
        name = getattr(var, "name", None) or "phi"
        param = block.append_param(type, str(name))
        self._phi_vars[block].append(var)
        # Record the definition *before* reading predecessors: a loop in
        # the predecessor chain must resolve to this very phi instead of
        # recursing forever.
        self._defs[block][var] = param
        # Collect all operand values first: the reads may recursively
        # create and remove other phis, and must not observe this phi's
        # jump arguments half-appended.
        preds = list(self._preds[block])
        values = [self._read(pred, var, type) for pred in preds]
        # A triviality cascade during those reads may have dissolved
        # this very phi already (its env entry then points elsewhere).
        current = self._defs[block].get(var)
        if current is not param or param not in block.params:
            assert current is not None
            return current
        for pred, value in zip(preds, values):
            assert pred.has_body(), (
                f"predecessor {pred.unique_name()} has not jumped yet"
            )
            pred._set_ops(pred.ops + (self._resolve(value),))
        return param

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
        self._replacements[param] = replacement
        memo = rewrite_uses(self.world, {param: replacement})
        replacement = memo.get(replacement, replacement)
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
        # Fix env maps that still name the removed param.
        for defs in self._defs.values():
            for var, value in list(defs.items()):
                if value is param:
                    defs[var] = replacement

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
