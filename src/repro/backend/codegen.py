"""Code generation: control-flow-form Thorin → register bytecode.

This is the step the paper gets "for free" once closure elimination has
produced CFF: every top-level continuation is a function, every in-scope
continuation a basic block, every jump one of a handful of shapes.
Concretely, per function:

1. recover the scope, its CFG, and a schedule (primop placement);
2. assign one register per value-producing def (``mem`` and ``frame``
   values vanish — they were only dependence edges);
3. emit blocks in reverse postorder; direct jumps become parallel
   register moves + ``jmp`` (phi elimination, done right: cycles broken
   with a scratch register), ``branch``/``match`` become conditional
   jumps, calls to out-of-scope functions become ``call``/``tailcall``
   depending on where their return continuation points.

Anything outside CFF raises :class:`CodegenError` — by design: the CFF
checker in ``core.verify`` names the offending defs, and experiment T2
verifies the pipeline gets every suite program through this door.
"""

from __future__ import annotations

from ..core import fold
from ..core.defs import Continuation, Def, Intrinsic, Param
from ..core.primops import (
    Alloc,
    ArithOp,
    ArrayVal,
    Bitcast,
    Bottom,
    Cast,
    Cmp,
    Enter,
    EvalOp,
    Extract,
    Global,
    Hlt,
    Insert,
    Lea,
    Literal,
    Load,
    MathOp,
    PrimOp,
    Run,
    Select,
    Slot,
    Store,
    StructVal,
    TupleVal,
    peel_markers,
)
from ..core.schedule import Placement
from ..core.types import (
    DefiniteArrayType,
    FnType,
    IndefiniteArrayType,
    MemType,
    PrimType,
    PtrType,
    StructType,
    TupleType,
    Type,
)
from ..core.world import World
from . import bytecode as bc


class CodegenError(Exception):
    """The program is not in control-flow form (or uses an unsupported shape)."""


def _is_mem(t: Type) -> bool:
    return isinstance(t, MemType)


def _value_params(cont: Continuation) -> list[Param]:
    """Params that carry run-time values (not mem, not the return cont)."""
    ret = _ret_param(cont)
    return [p for p in cont.params if not _is_mem(p.type) and p is not ret]


def _ret_param(cont: Continuation) -> Param | None:
    for param in reversed(cont.params):
        if isinstance(param.type, FnType):
            return param
    return None


class WorldCodegen:
    """Compiles every reachable top-level function of a world."""

    def __init__(self, world: World, *, placement: Placement = Placement.SMART):
        self.world = world
        self.placement = placement
        self.program = bc.VMProgram()
        self._indices: dict[Continuation, int] = {}
        self._queue: list[Continuation] = []
        self._globals: dict[int, int] = {}  # global key -> heap address
        self.fn_types: dict[str, tuple[list[Type], list[Type]]] = {}

    def run(self) -> bc.VMProgram:
        for ext in self.world.externals():
            self.function_index(ext)
        while self._queue:
            cont = self._queue.pop()
            FunctionCodegen(self, cont).run()
        return self.program

    def function_index(self, cont: Continuation) -> int:
        index = self._indices.get(cont)
        if index is None:
            if not cont.is_returning():
                raise CodegenError(
                    f"{cont.unique_name()} is not a returning function "
                    f"({cont.fn_type})"
                )
            ret = _ret_param(cont)
            assert ret is not None and isinstance(ret.type, FnType)
            value_params = _value_params(cont)
            results = [t for t in ret.type.param_types if not _is_mem(t)]
            fn = bc.VMFunction(cont.name or cont.unique_name(),
                               len(value_params), len(results))
            # Ensure unique names for lookup.
            if fn.name in self.program.by_name:
                fn.name = f"{fn.name}.{cont.gid}"
            fn.sites["entry"] = cont.unique_name()
            index = self.program.add(fn)
            self._indices[cont] = index
            self._queue.append(cont)
            self.fn_types[fn.name] = ([p.type for p in value_params], results)
        return index

    def global_address(self, op: Global) -> int:
        key = op.global_id if op.is_mutable else -op.gid
        addr = self._globals.get(key)
        if addr is None:
            words = _const_words(op.init)
            addr = 1 + len(self.program.data)  # heap word 0 is null
            self.program.data.extend(words)
            self._globals[key] = addr
        return addr


def _const_value(d: Def):
    """Evaluate a parameter-free value; aggregates become nested lists,
    undef becomes ``None``.

    Raises :class:`fold.EvalError` when evaluation itself traps (e.g. a
    constant integer division by zero that folding deliberately left in
    the program) — callers emit a *runtime* trap for those, because the
    trap belongs to whichever block references the value, not to compile
    time.  Operands are evaluated before undef short-circuiting, same
    order as the reference interpreter.
    """
    d = peel_markers(d)
    if isinstance(d, Literal):
        return d.value
    if isinstance(d, Bottom):
        return None
    if isinstance(d, (TupleVal, StructVal, ArrayVal)):
        return [_const_value(op) for op in d.ops]
    if isinstance(d, ArithOp):
        prim = d.type
        assert isinstance(prim, PrimType)
        lhs, rhs = _const_value(d.lhs), _const_value(d.rhs)
        if lhs is None or rhs is None:
            return None
        return fold.arith(d.kind, prim, lhs, rhs)
    if isinstance(d, Cmp):
        prim = d.lhs.type
        assert isinstance(prim, PrimType)
        lhs, rhs = _const_value(d.lhs), _const_value(d.rhs)
        if lhs is None or rhs is None:
            return None
        return fold.compare(d.rel, prim, lhs, rhs)
    if isinstance(d, MathOp):
        prim = d.type
        assert isinstance(prim, PrimType)
        value = _const_value(d.value)
        return None if value is None else fold.math_op(d.kind, prim, value)
    if isinstance(d, Cast):
        to, frm = d.type, d.value.type
        assert isinstance(to, PrimType) and isinstance(frm, PrimType)
        value = _const_value(d.value)
        return None if value is None else fold.cast(to, frm, value)
    if isinstance(d, Bitcast):
        to, frm = d.type, d.value.type
        if not (isinstance(to, PrimType) and isinstance(frm, PrimType)):
            raise CodegenError(f"unsupported constant bitcast {d!r}")
        value = _const_value(d.value)
        return None if value is None else fold.bitcast(to, frm, value)
    if isinstance(d, Select):
        cond = _const_value(d.cond)
        tval, fval = _const_value(d.tval), _const_value(d.fval)
        if cond is None:
            return None
        return tval if cond else fval
    if isinstance(d, Extract):
        agg, index = _const_value(d.agg), _const_value(d.index)
        if agg is None or index is None:
            return None
        if not 0 <= index < len(agg):
            return None  # out of bounds: bottom
        return agg[index]
    if isinstance(d, Insert):
        agg, index = _const_value(d.agg), _const_value(d.index)
        value = _const_value(d.value)
        if agg is None or index is None:
            return None
        if not 0 <= index < len(agg):
            return None
        agg = list(agg)
        agg[index] = value
        return agg
    raise CodegenError(f"unsupported global initializer {d!r}")


def _value_words(value, type_: Type) -> list:
    """Flatten an evaluated constant into its heap word image."""
    size = bc.word_size(type_)
    if value is None:
        return [0] * size
    if isinstance(type_, TupleType):
        elem_types: tuple[Type, ...] = type_.elem_types
    elif isinstance(type_, StructType):
        elem_types = type_.field_types
    elif isinstance(type_, DefiniteArrayType):
        elem_types = (type_.elem_type,) * type_.length
    else:
        return [value]
    words: list = []
    for elem, elem_type in zip(value, elem_types):
        words.extend(_value_words(elem, elem_type))
    return words


def _const_words(d: Def) -> list:
    """Flattened word image of a parameter-free value (global initializers)."""
    return _value_words(_const_value(d), d.type)


class FunctionCodegen:
    """Compiles one top-level function's scope into a :class:`VMFunction`."""

    def __init__(self, parent: WorldCodegen, entry: Continuation):
        self.parent = parent
        self.world = parent.world
        self.entry = entry
        self.fn = parent.program.functions[parent.function_index(entry)]
        analyses = self.world.analyses
        self.scope = analyses.scope(entry)
        self.schedule = analyses.schedule(entry, parent.placement)
        self.ret_param = _ret_param(entry)
        self._regs: dict[Def, int] = {}
        self._const_regs: dict[Def, int] = {}
        self._block_pcs: dict[Continuation, int] = {}
        self._fixups: list[tuple[int, tuple]] = []
        self._scratch: int | None = None
        self._ret_epilogue_pc: int | None = None
        # Constants are discovered lazily during emission but must be
        # initialized before any block runs: they go into a prologue
        # that is prepended at the end (shifting all recorded pcs).
        self._prologue: list[tuple] = []

    # ------------------------------------------------------------------

    def run(self) -> None:
        fn = self.fn
        blocks = self.schedule.blocks()
        assert blocks and blocks[0] is self.entry
        free = self.scope.free_params()
        if free:
            names = ", ".join(p.unique_name() for p in free)
            raise CodegenError(
                f"{self.entry.unique_name()} captures {names}: not in CFF"
            )
        # Registers for entry params.
        for index, param in enumerate(_value_params(self.entry)):
            self._regs[param] = index
        # Registers for block params.
        for block in blocks[1:]:
            if block.fn_type.order() > 1:
                raise CodegenError(
                    f"inner continuation {block.unique_name()} of "
                    f"{self.entry.unique_name()} is not a basic block"
                )
            for param in block.params:
                if not _is_mem(param.type):
                    self._regs[param] = fn.new_reg()
        # Slots: one bump allocation each, in the entry block.
        slots = [op for block in blocks for op in self.schedule.ops_in(block)
                 if isinstance(op, Slot)]
        for slot in slots:
            reg = fn.new_reg()
            self._regs[slot] = reg
            assert isinstance(slot.type, PtrType)
            fn.emit(bc.OP_ALLOC, reg, None, 0, bc.word_size(slot.type.pointee))
        # Emit blocks in RPO.  The split effect threads (transform.mem_opt)
        # are plain data dependences; assert the block-local order kept
        # every thread intact before baking it into bytecode.
        self.schedule.verify_effect_order()
        for block in blocks:
            self._block_pcs[block] = len(fn.code)
            for op in self.schedule.ops_in(block):
                self._emit_primop(op)
            self._emit_terminator(block)
        # Prepend lazily discovered constants, shifting every pc.
        if self._prologue:
            offset = len(self._prologue)
            fn.code[:0] = self._prologue
            self._block_pcs = {b: pc + offset
                               for b, pc in self._block_pcs.items()}
            self._fixups = [(index + offset, fixup)
                            for index, fixup in self._fixups]
        self._apply_fixups()
        # Site metadata for PGO: block-start pcs keyed back to the source
        # continuations' stable names (pcs are final after the prologue
        # shift above).
        fn.sites["blocks"] = {pc: block.unique_name()
                              for block, pc in self._block_pcs.items()}

    # ------------------------------------------------------------------
    # operands & registers
    # ------------------------------------------------------------------

    def _reg_of(self, d: Def) -> int:
        """Register holding the value of *d* (materializing constants)."""
        d = peel_markers(d)
        reg = self._regs.get(d)
        if reg is not None:
            return reg
        if isinstance(d, Literal):
            return self._const_reg(d, d.value)
        if isinstance(d, Bottom):
            return self._const_reg(d, None)
        if isinstance(d, Global):
            try:
                return self._const_reg(d, self.parent.global_address(d))
            except fold.EvalError as trap:
                return self._emit_trap_value(trap)
        if isinstance(d, PrimOp) and d not in self.scope:
            # A shared, parameter-free primop (constant expression that
            # escaped folding, e.g. chained inserts over bottom).
            try:
                return self._const_reg(d, self._eval_const(d))
            except fold.EvalError as trap:
                return self._emit_trap_value(trap)
        if isinstance(d, Param):
            raise CodegenError(
                f"{self.entry.unique_name()}: foreign parameter "
                f"{d.unique_name()} (free variable — not CFF)"
            )
        raise CodegenError(
            f"{self.entry.unique_name()}: no register for {d!r}"
        )

    def _const_reg(self, d: Def, value) -> int:
        reg = self._const_regs.get(d)
        if reg is None:
            reg = self.fn.new_reg()
            self._const_regs[d] = reg
            self._prologue.append((bc.OP_CONST, reg, value))
        return reg

    def _eval_const(self, d: PrimOp):
        if bc.word_size(d.type) == 1:
            return _const_value(d)
        return _const_words(d)

    def _emit_trap_value(self, trap: fold.EvalError) -> int:
        """A constant expression that traps when evaluated.

        The trap is emitted *inline* at the current emission point — not
        into the constant prologue, which runs unconditionally at
        function entry — so it fires exactly when the referencing block
        executes, matching the reference interpreter's lazy evaluation.
        The register is only a placeholder; nothing past the trap runs.
        """
        self.fn.emit(bc.OP_TRAP, str(trap))
        return self._scratch_reg()

    def _def_reg(self, d: Def) -> int:
        reg = self._regs.get(d)
        if reg is None:
            reg = self.fn.new_reg()
            self._regs[d] = reg
        return reg

    def _alias(self, d: Def, reg: int) -> None:
        self._regs[d] = reg

    def _scratch_reg(self) -> int:
        if self._scratch is None:
            self._scratch = self.fn.new_reg()
        return self._scratch

    # ------------------------------------------------------------------
    # primops
    # ------------------------------------------------------------------

    def _emit_primop(self, op: PrimOp) -> None:
        fn = self.fn
        if isinstance(op, ArithOp):
            prim = op.type
            assert isinstance(prim, PrimType)
            fn.emit(bc.OP_ARITH, self._def_reg(op), bc.arith_fn(op.kind, prim),
                    self._reg_of(op.lhs), self._reg_of(op.rhs))
            return
        if isinstance(op, Cmp):
            prim = op.lhs.type
            assert isinstance(prim, PrimType)
            fn.emit(bc.OP_ARITH, self._def_reg(op), bc.cmp_fn(op.rel, prim),
                    self._reg_of(op.lhs), self._reg_of(op.rhs))
            return
        if isinstance(op, Cast):
            to, frm = op.type, op.value.type
            assert isinstance(to, PrimType) and isinstance(frm, PrimType)
            fn.emit(bc.OP_UNOP, self._def_reg(op), bc.cast_fn(to, frm),
                    self._reg_of(op.value))
            return
        if isinstance(op, Bitcast):
            to, frm = op.type, op.value.type
            assert isinstance(to, PrimType) and isinstance(frm, PrimType)
            fn.emit(bc.OP_UNOP, self._def_reg(op), bc.bitcast_fn(to, frm),
                    self._reg_of(op.value))
            return
        if isinstance(op, MathOp):
            prim = op.type
            assert isinstance(prim, PrimType)
            fn.emit(bc.OP_UNOP, self._def_reg(op), bc.math_fn(op.kind, prim),
                    self._reg_of(op.value))
            return
        if isinstance(op, Select):
            fn.emit(bc.OP_SELECT, self._def_reg(op), self._reg_of(op.cond),
                    self._reg_of(op.tval), self._reg_of(op.fval))
            return
        if isinstance(op, (TupleVal, StructVal, ArrayVal)):
            if any(isinstance(t, FnType) for t in op.type.elements):
                return  # control-flow aggregate (match arm): no value
            parts = tuple((self._reg_of(e), bc.word_size(e.type))
                          for e in op.ops)
            fn.emit(bc.OP_TUPLE, self._def_reg(op), parts)
            return
        if isinstance(op, Extract):
            self._emit_extract(op)
            return
        if isinstance(op, Insert):
            self._emit_insert(op)
            return
        if isinstance(op, Enter):
            return  # frames have no runtime footprint
        if isinstance(op, Slot):
            assert op in self._regs  # preallocated in the entry block
            return
        if isinstance(op, Alloc):
            self._emit_alloc(op)
            return
        if isinstance(op, Load):
            ptr_t = op.ptr.type
            assert isinstance(ptr_t, PtrType)
            size = bc.word_size(ptr_t.pointee)
            if size == 1 and not isinstance(ptr_t.pointee, IndefiniteArrayType):
                fn.emit(bc.OP_LOAD, self._def_reg(op), self._reg_of(op.ptr))
            else:
                fn.emit(bc.OP_LOAD_AGG, self._def_reg(op),
                        self._reg_of(op.ptr), size)
            return
        if isinstance(op, Store):
            ptr_t = op.ptr.type
            assert isinstance(ptr_t, PtrType)
            size = bc.word_size(ptr_t.pointee)
            if size == 1 and not isinstance(ptr_t.pointee, IndefiniteArrayType):
                fn.emit(bc.OP_STORE, self._reg_of(op.ptr),
                        self._reg_of(op.value))
            else:
                fn.emit(bc.OP_STORE_AGG, self._reg_of(op.ptr),
                        self._reg_of(op.value), size)
            return
        if isinstance(op, Lea):
            self._emit_lea(op)
            return
        if isinstance(op, Global):
            self._alias(op, self._reg_of(op))
            return
        if isinstance(op, EvalOp):
            self._alias(op, self._reg_of(op.value))
            return
        if isinstance(op, (Literal, Bottom)):
            self._alias(op, self._reg_of(op))
            return
        raise CodegenError(f"cannot lower primop {op!r}")

    def _emit_extract(self, op: Extract) -> None:
        agg = peel_markers(op.agg)
        # Components of memory-op result tuples are aliases.
        if isinstance(agg, (Load, Alloc, Enter)):
            index = agg_index_literal(op.index)
            if _is_mem(op.type):
                return
            if isinstance(agg, Enter):
                return  # frame: no runtime value
            assert index == 1
            self._alias(op, self._reg_of(agg))
            return
        if _is_mem(op.type):
            return
        agg_t = agg.type
        size = bc.word_size(op.type)
        if isinstance(op.index, Literal):
            offset = bc.field_offset(agg_t, op.index.value)
            self.fn.emit(bc.OP_EXTRACT, self._def_reg(op), self._reg_of(agg),
                         offset, size)
        else:
            assert isinstance(agg_t, (DefiniteArrayType, IndefiniteArrayType))
            scale = bc.word_size(agg_t.elem_type)
            self.fn.emit(bc.OP_EXTRACT_DYN, self._def_reg(op),
                         self._reg_of(agg), self._reg_of(op.index), scale, size)

    def _emit_insert(self, op: Insert) -> None:
        agg_t = op.agg.type
        size = bc.word_size(op.value.type)
        if isinstance(op.index, Literal):
            offset = bc.field_offset(agg_t, op.index.value)
            self.fn.emit(bc.OP_INSERT, self._def_reg(op), self._reg_of(op.agg),
                         offset, size, self._reg_of(op.value))
        else:
            assert isinstance(agg_t, (DefiniteArrayType, IndefiniteArrayType))
            scale = bc.word_size(agg_t.elem_type)
            self.fn.emit(bc.OP_INSERT_DYN, self._def_reg(op),
                         self._reg_of(op.agg), self._reg_of(op.index), scale,
                         size, self._reg_of(op.value))

    def _emit_alloc(self, op: Alloc) -> None:
        pair_t = op.type
        assert isinstance(pair_t, TupleType)
        ptr_t = pair_t.elem_types[1]
        assert isinstance(ptr_t, PtrType)
        pointee = ptr_t.pointee
        if isinstance(pointee, IndefiniteArrayType):
            elem = bc.word_size(pointee.elem_type)
            self.fn.emit(bc.OP_ALLOC, self._def_reg(op),
                         self._reg_of(op.extra), elem, 0)
        else:
            self.fn.emit(bc.OP_ALLOC, self._def_reg(op), None, 0,
                         bc.word_size(pointee))

    def _emit_lea(self, op: Lea) -> None:
        base_t = op.ptr.type
        assert isinstance(base_t, PtrType)
        pointee = base_t.pointee
        if isinstance(op.index, Literal):
            offset = bc.field_offset(pointee, op.index.value)
            self.fn.emit(bc.OP_LEA_CONST, self._def_reg(op),
                         self._reg_of(op.ptr), offset)
        else:
            assert isinstance(pointee, (DefiniteArrayType, IndefiniteArrayType))
            scale = bc.word_size(pointee.elem_type)
            self.fn.emit(bc.OP_LEA, self._def_reg(op), self._reg_of(op.ptr),
                         self._reg_of(op.index), scale)

    # ------------------------------------------------------------------
    # terminators
    # ------------------------------------------------------------------

    def _emit_terminator(self, block: Continuation) -> None:
        if not block.has_body():
            self.fn.emit(bc.OP_TRAP, f"fell into bodiless {block.unique_name()}")
            return
        callee = peel_markers(block.callee)
        args = block.args
        if isinstance(callee, Continuation):
            if callee.intrinsic == Intrinsic.BRANCH:
                index = self.fn.emit(bc.OP_BR, self._reg_of(args[1]), 0, 0)
                self._fixups.append((index, ("br", args[2], args[3])))
                return
            if callee.intrinsic == Intrinsic.MATCH:
                self._emit_match(args)
                return
            if callee.intrinsic in (Intrinsic.PRINT_I64, Intrinsic.PRINT_F64,
                                    Intrinsic.PRINT_CHAR):
                opcode = {
                    Intrinsic.PRINT_I64: bc.OP_PRINT_I64,
                    Intrinsic.PRINT_F64: bc.OP_PRINT_F64,
                    Intrinsic.PRINT_CHAR: bc.OP_PRINT_CHAR,
                }[callee.intrinsic]
                self.fn.emit(opcode, self._reg_of(args[1]))
                self._emit_continue_to(args[2], ())
                return
            if callee.intrinsic == Intrinsic.PE_INFO:
                self._emit_continue_to(args[2], ())
                return
            if callee.intrinsic is not None:
                raise CodegenError(f"unknown intrinsic {callee.intrinsic}")
            if callee in self.scope and callee is not self.entry:
                self._emit_direct_jump(callee, args)
                return
            # Out-of-scope function or a recursive jump to the entry:
            # both are calls.
            self._emit_call(callee, args)
            return
        if isinstance(callee, Param):
            if callee is self.ret_param:
                rets = tuple(self._reg_of(a) for a in args
                             if not _is_mem(a.type))
                self.fn.emit(bc.OP_RET, rets)
                return
            raise CodegenError(
                f"{block.unique_name()}: first-class callee "
                f"{callee.unique_name()} (not CFF)"
            )
        raise CodegenError(
            f"{block.unique_name()}: cannot lower callee {callee!r}"
        )

    def _emit_match(self, args: tuple[Def, ...]) -> None:
        value_reg = self._reg_of(args[1])
        index = self.fn.emit(bc.OP_MATCH, value_reg, {}, 0)
        arms = []
        for arm in args[3:]:
            lit = peel_markers(arm.op(0))
            if not isinstance(lit, Literal):
                raise CodegenError("match arm with non-literal pattern")
            arms.append((lit.value, arm.op(1)))
        self._fixups.append((index, ("match", args[2], arms)))

    def _emit_direct_jump(self, target: Continuation, args: tuple[Def, ...]) -> None:
        moves: list[tuple[int, int]] = []  # (dst, src)
        const_writes: list[tuple[int, object]] = []
        for param, arg in zip(target.params, args):
            if _is_mem(param.type):
                continue
            dst = self._regs[param]
            arg = peel_markers(arg)
            if isinstance(arg, Literal):
                const_writes.append((dst, arg.value))
            elif isinstance(arg, Bottom):
                const_writes.append((dst, None))
            else:
                src = self._reg_of(arg)
                if src != dst:
                    moves.append((dst, src))
        self._emit_parallel_moves(moves)
        for dst, value in const_writes:
            self.fn.emit(bc.OP_CONST, dst, value)
        index = self.fn.emit(bc.OP_JMP, 0)
        self._fixups.append((index, ("jmp", target)))

    def _emit_parallel_moves(self, moves: list[tuple[int, int]]) -> None:
        """Emit reg-reg moves preserving simultaneous-assignment semantics.

        All destinations are distinct (they are block parameters).  Emit
        every move whose destination no pending move still reads; when
        only cycles remain, save one source to the scratch register and
        redirect its readers.
        """
        pending: dict[int, int] = dict(moves)  # dst -> src
        while pending:
            safe = [d for d in pending if d not in pending.values()]
            if safe:
                for dst in safe:
                    self.fn.emit(bc.OP_MOV, dst, pending.pop(dst))
                continue
            # Only cycles remain: free up one source.
            dst, src = next(iter(pending.items()))
            scratch = self._scratch_reg()
            self.fn.emit(bc.OP_MOV, scratch, src)
            for d in pending:
                if pending[d] == src:
                    pending[d] = scratch

    def _emit_call(self, callee: Continuation, args: tuple[Def, ...]) -> None:
        findex = self.parent.function_index(callee)
        value_args: list[int] = []
        ret_target: Def | None = None
        ret = _ret_param(callee)
        for param, arg in zip(callee.params, args):
            if _is_mem(param.type):
                continue
            if param is ret:
                ret_target = arg
                continue
            if isinstance(param.type, FnType):
                raise CodegenError(
                    f"call to {callee.unique_name()} passes continuation "
                    f"argument {arg.unique_name()} (not CFF)"
                )
            value_args.append(self._reg_of(arg))
        assert ret_target is not None
        ret_target = peel_markers(ret_target)
        if isinstance(ret_target, Param) and ret_target is self.ret_param:
            self.fn.emit(bc.OP_TAILCALL, findex, tuple(value_args))
            return
        if isinstance(ret_target, Continuation) and ret_target in self.scope:
            dsts = tuple(self._regs[p] for p in ret_target.params
                         if not _is_mem(p.type))
            self.fn.emit(bc.OP_CALL, findex, tuple(value_args), dsts)
            index = self.fn.emit(bc.OP_JMP, 0)
            self._fixups.append((index, ("jmp", ret_target)))
            return
        raise CodegenError(
            f"call to {callee.unique_name()}: unsupported return target "
            f"{ret_target!r}"
        )

    def _emit_continue_to(self, target: Def, ret_regs: tuple) -> None:
        """Resume after an intrinsic call: jump to block or return."""
        target = peel_markers(target)
        if isinstance(target, Continuation) and target in self.scope:
            index = self.fn.emit(bc.OP_JMP, 0)
            self._fixups.append((index, ("jmp", target)))
            return
        if isinstance(target, Param) and target is self.ret_param:
            self.fn.emit(bc.OP_RET, ret_regs)
            return
        raise CodegenError(f"unsupported continuation target {target!r}")

    # ------------------------------------------------------------------

    def _target_pc(self, target: Def) -> int:
        target = peel_markers(target)
        if isinstance(target, Param) and target is self.ret_param:
            # Eta reduction can turn a unit-returning branch target into
            # the return parameter itself ("conditional return"): give
            # it a one-instruction epilogue.
            if self._ret_epilogue_pc is None:
                self._ret_epilogue_pc = len(self.fn.code)
                self.fn.emit(bc.OP_RET, ())
            return self._ret_epilogue_pc
        if not isinstance(target, Continuation):
            raise CodegenError(
                f"{self.entry.unique_name()}: control target "
                f"{target!r} is not lowerable"
            )
        pc = self._block_pcs.get(target)
        if pc is None:
            raise CodegenError(
                f"jump to out-of-scope block {target.unique_name()} from "
                f"{self.entry.unique_name()}"
            )
        return pc

    def _apply_fixups(self) -> None:
        for index, fixup in self._fixups:
            kind = fixup[0]
            if kind == "jmp":
                self.fn.patch(index, bc.OP_JMP, self._target_pc(fixup[1]))
            elif kind == "br":
                _, cond_reg, _, _ = self.fn.code[index]
                self.fn.patch(index, bc.OP_BR, cond_reg,
                              self._target_pc(fixup[1]),
                              self._target_pc(fixup[2]))
            elif kind == "match":
                _, value_reg, _, _ = self.fn.code[index]
                table = {value: self._target_pc(t) for value, t in fixup[2]}
                self.fn.patch(index, bc.OP_MATCH, value_reg, table,
                              self._target_pc(fixup[1]))
            else:  # pragma: no cover
                raise AssertionError(kind)


class CompiledWorld:
    """A compiled world plus a VM, with Python-typed call/return."""

    def __init__(self, world: World, *, placement: Placement = Placement.SMART,
                 profile=None, max_steps: int | None = None):
        codegen = WorldCodegen(world, placement=placement)
        self.program = codegen.run()
        self.fn_types = codegen.fn_types
        self.vm = bc.VM(self.program, profile=profile, max_steps=max_steps)

    def call(self, name: str, *args):
        param_types, result_types = self.fn_types[name]
        if len(args) != len(param_types):
            raise bc.VMError(
                f"{name} expects {len(param_types)} arguments, got {len(args)}"
            )
        vm_args = [_to_vm_value(a, t) for a, t in zip(args, param_types)]
        result = self.vm.call(self.program, name, *vm_args)
        if not result_types:
            return None
        if len(result_types) == 1:
            return _from_vm_value(result, result_types[0])
        return tuple(_from_vm_value(v, t) for v, t in zip(result, result_types))

    def output_text(self) -> str:
        return self.vm.output_text()


def _to_vm_value(value, t: Type):
    if isinstance(t, PrimType):
        return fold.canonicalize(t.kind, value)
    if isinstance(t, (TupleType, DefiniteArrayType)):
        elems = (t.elem_types if isinstance(t, TupleType)
                 else [t.elem_type] * t.length)
        words: list = []
        for v, et in zip(value, elems):
            w = _to_vm_value(v, et)
            if isinstance(w, list):
                words.extend(w)
            else:
                words.append(w)
        return words
    raise bc.VMError(f"cannot pass a Python value as {t}")


def _from_vm_value(value, t: Type):
    if isinstance(t, PrimType):
        return fold.public_value(t.kind, value)
    return value


def compile_world(world: World, *,
                  placement: Placement = Placement.SMART,
                  profile=None, max_steps: int | None = None) -> CompiledWorld:
    """Compile all externals of a CFF world; returns a callable image.

    Pass ``profile=`` a :class:`repro.profile.collector.ProfileCollector`
    to have the VM count entries, calls and taken edges into it.
    ``max_steps`` bounds executed VM instructions per call (see
    :class:`repro.backend.bytecode.VM`).
    """
    return CompiledWorld(world, placement=placement, profile=profile,
                         max_steps=max_steps)


def agg_index_literal(index: Def) -> int:
    assert isinstance(index, Literal)
    return index.value
