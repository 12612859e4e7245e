"""C-like source emission from control-flow-form Thorin.

The paper's system hands CFF programs to LLVM; this repository's
"machine" is the bytecode VM, but for inspection (and as a second,
independent witness that CFF maps onto a classical language) this
module renders a world as readable C:

* functions for top-level continuations, ``goto`` labels for blocks,
  block parameters as variables assigned before each jump (classic phi
  destruction);
* scalars map to ``<stdint.h>`` types; buffers to element pointers;
  definite arrays and tuples to flat word structs.

Two consumers build on this emitter:

* plain mode (:func:`emit_c`) renders readable C for humans and golden
  tests — no compiler involved, traps and prints use bare C idioms
  (``/`` that may fault, ``printf``);
* the native execution tier (:mod:`repro.native`) subclasses
  :class:`CEmitter` to produce *actually compilable and runnable*
  translation units — guarded division, trap reporting, print capture
  and a fixed entry ABI — which the system ``cc`` turns into ``.so``
  files (see DESIGN.md §4f).

The hook methods (``_prelude``, ``_postlude``, ``_function_entry``,
``_block_entry``, ``_arith_expr``, ``_cast_expr``, ``_float_lit``,
``_int_lit``, ``_alloc_expr``, ``_emit_print``) are the subclassing
surface; everything else is shared emission logic.
"""

from __future__ import annotations

import io

from ..core.defs import Continuation, Def, Intrinsic, Param
from ..core.primops import (
    Alloc,
    ArithKind,
    ArithOp,
    ArrayVal,
    Bitcast,
    Bottom,
    Cast,
    Cmp,
    CmpRel,
    Enter,
    EvalOp,
    Extract,
    Global,
    Insert,
    Lea,
    Literal,
    Load,
    MathOp,
    PrimOp,
    Select,
    Slot,
    Store,
    StructVal,
    TupleVal,
    peel_markers,
)
from ..core.schedule import Schedule
from ..core.scope import scope_of
from ..core.types import (
    BOOL,
    DefiniteArrayType,
    FnType,
    IndefiniteArrayType,
    MemType,
    PrimType,
    PtrType,
    TupleType,
    Type,
    prim_type,
)
from ..core.world import World

_C_PRIM = {
    "bool": "bool", "i8": "int8_t", "i16": "int16_t", "i32": "int32_t",
    "i64": "int64_t", "u8": "uint8_t", "u16": "uint16_t", "u32": "uint32_t",
    "u64": "uint64_t", "f32": "float", "f64": "double",
}

_ARITH_C = {
    ArithKind.ADD: "+", ArithKind.SUB: "-", ArithKind.MUL: "*",
    ArithKind.DIV: "/", ArithKind.REM: "%", ArithKind.AND: "&",
    ArithKind.OR: "|", ArithKind.XOR: "^", ArithKind.SHL: "<<",
    ArithKind.SHR: ">>",
}

_CMP_C = {
    CmpRel.EQ: "==", CmpRel.NE: "!=", CmpRel.LT: "<", CmpRel.LE: "<=",
    CmpRel.GT: ">", CmpRel.GE: ">=",
}


class CEmitError(Exception):
    pass


def c_type(t: Type) -> str:
    if isinstance(t, PrimType):
        return _C_PRIM[str(t)]
    if isinstance(t, PtrType):
        pointee = t.pointee
        if isinstance(pointee, IndefiniteArrayType):
            return f"{c_type(pointee.elem_type)}*"
        if isinstance(pointee, DefiniteArrayType):
            return f"{c_type(pointee.elem_type)}*"
        return f"{c_type(pointee)}*"
    if isinstance(t, (TupleType, DefiniteArrayType)):
        return "word_block"  # flat word struct; see prelude
    raise CEmitError(f"no C type for {t}")


def _is_mem(t: Type) -> bool:
    return isinstance(t, MemType)


PRELUDE = """\
#include <stdint.h>
#include <stdbool.h>
#include <stdlib.h>
#include <stdio.h>
#include <math.h>

/* flat aggregate-by-value fallback */
typedef struct { int64_t w[8]; } word_block;

/* trap anchor for constant expressions that must fault at runtime */
static volatile int64_t repro_c_zero = 0;
"""


class CEmitter:
    def __init__(self, world: World):
        self.world = world
        self.out = io.StringIO()
        self._names: dict[Def, str] = {}
        self._counter = 0
        # Ops placed by the current function's schedule; anything else a
        # _ref meets is a parameter-free constant to materialize inline.
        self._placed: set[PrimOp] = set()

    def emit(self) -> str:
        functions = [c for c in self.world.analyses.top_level()
                     if c.has_body() and c.is_returning()]
        self.out.write(self._prelude(functions))
        for fn in functions:
            self.out.write("\n")
            self._emit_function(fn)
        self._postlude(functions)
        return self.out.getvalue()

    # -- subclassing surface (see repro.native.runtime) ----------------

    def _prelude(self, functions: list[Continuation]) -> str:
        return PRELUDE

    def _postlude(self, functions: list[Continuation]) -> None:
        """Emitted after all function bodies (entry wrappers, etc.)."""

    def _function_entry(self, fn: Continuation) -> None:
        """Emitted just inside every function's opening brace."""

    def _block_entry(self, block: Continuation) -> None:
        """Emitted right after every block label (fuel checks, etc.)."""

    def _float_lit(self, prim: PrimType, value: float) -> str:
        return repr(float(value))

    def _int_lit(self, prim: PrimType, value: int) -> str:
        suffix = "ull" if prim.is_unsigned else "ll"
        return f"{value}{suffix}" if prim.bitwidth == 64 else str(value)

    def _arith_expr(self, op: ArithOp) -> str:
        return (f"{self._ref(op.lhs)} {_ARITH_C[op.kind]} "
                f"{self._ref(op.rhs)}")

    def _cast_expr(self, op: Cast | Bitcast) -> str:
        return f"({c_type(op.type)}){self._ref(op.op(0))}"

    def _alloc_expr(self, elem: str, count: str) -> str:
        return f"({elem}*)calloc({count}, sizeof({elem}))"

    def _emit_print(self, intrinsic: Intrinsic, value: Def) -> None:
        fmt = {Intrinsic.PRINT_I64: '"%lld"',
               Intrinsic.PRINT_F64: '"%g"',
               Intrinsic.PRINT_CHAR: '"%c"'}[intrinsic]
        self.out.write(f"    printf({fmt}, {self._ref(value)});\n")

    # ------------------------------------------------------------------

    def _name(self, d: Def) -> str:
        name = self._names.get(d)
        if name is None:
            base = d.name or "v"
            base = "".join(ch if ch.isalnum() else "_" for ch in base)
            self._counter += 1
            name = f"{base}_{self._counter}"
            self._names[d] = name
        return name

    def _ref(self, d: Def) -> str:
        d = peel_markers(d)
        if isinstance(d, Literal):
            value = d.public_value()
            if d.prim_type.is_bool:
                return "true" if value else "false"
            if d.prim_type.is_float:
                return self._float_lit(d.prim_type, float(value))
            return self._int_lit(d.prim_type, value)
        if isinstance(d, Bottom):
            return "0 /* undef */"
        if (isinstance(d, PrimOp) and not isinstance(d, Global)
                and d not in self._placed):
            return self._const_ref(d)
        return self._name(d)

    def _const_ref(self, d: PrimOp) -> str:
        """A parameter-free primop the schedule left to the backend.

        Mirrors codegen's constant materialization: evaluate with the
        folder; a clean value becomes a literal, a trapping evaluation
        (constant division by zero that folding deliberately kept)
        becomes an expression that faults when — and only when — the
        referencing block executes.
        """
        from ..core import fold
        from .codegen import _const_value

        try:
            value = _const_value(d)
        except fold.EvalError as trap:
            return self._trap_expr(d, trap)
        if isinstance(value, list):  # flat aggregate image
            words = ", ".join(self._scalar_lit(w) for w in value)
            return f"(word_block){{ .w = {{ {words} }} }}"
        prim = d.type
        if not isinstance(prim, PrimType):
            raise CEmitError(f"cannot materialize constant {d!r}")
        if value is None:
            return "0 /* undef */"
        if prim.is_bool:
            return "true" if value else "false"
        if prim.is_float:
            return self._float_lit(prim, float(value))
        return self._int_lit(prim, value)

    def _scalar_lit(self, value) -> str:
        # Words of a flat aggregate image land in int64_t slots; route
        # through the literal hooks so subclass hardening (INT64_MIN,
        # non-finite floats) applies to aggregate constants too.
        if value is None:
            return "0"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return self._float_lit(prim_type("f64"), value)
        if value >= 1 << 63:  # u64 word: same bits, signed reading
            value -= 1 << 64
        return self._int_lit(prim_type("i64"), value)

    def _trap_expr(self, d: PrimOp, trap: Exception) -> str:
        """A constant expression whose evaluation faults at runtime."""
        return f"({c_type(d.type)})(1 / repro_c_zero) /* {trap} */"

    def _ret_param(self, fn: Continuation) -> Param:
        ret = None
        for p in reversed(fn.params):
            if isinstance(p.type, FnType):
                ret = p
                break
        assert ret is not None and isinstance(ret.type, FnType)
        return ret

    def _fn_signature(self, fn: Continuation) -> tuple[Param, str, list]:
        """``(ret_param, return C type, value params)`` of a function."""
        ret = self._ret_param(fn)
        ret_types = [t for t in ret.type.param_types if not _is_mem(t)]
        ret_c = "void" if not ret_types else c_type(ret_types[0])
        params = [p for p in fn.params if not _is_mem(p.type) and p is not ret]
        return ret, ret_c, params

    def _fn_name(self, fn: Continuation) -> str:
        return fn.name or self._name(fn)

    def _emit_function(self, fn: Continuation) -> None:
        schedule = self.world.analyses.schedule(fn)
        ret, ret_c, params = self._fn_signature(fn)
        sig = ", ".join(f"{c_type(p.type)} {self._name(p)}" for p in params)
        self.out.write(f"{ret_c} {self._fn_name(fn)}({sig}) {{\n")
        self._function_entry(fn)

        blocks = schedule.blocks()
        self._placed = {op for block in blocks
                        for op in schedule.ops_in(block)}
        # declare block params as variables
        for block in blocks[1:]:
            for p in block.params:
                if not _is_mem(p.type):
                    self.out.write(f"    {c_type(p.type)} {self._name(p)};\n")

        # The split effect threads (transform.mem_opt) are plain data
        # dependences; assert the block-local order kept every thread
        # intact before serializing it as C statements.
        schedule.verify_effect_order()
        for block in blocks:
            if block is not fn:
                self.out.write(f"{self._label(block)}:;\n")
                self._block_entry(block)
            for op in schedule.ops_in(block):
                self._emit_primop(op)
            self._emit_terminator(fn, ret, block, schedule)
        self.out.write("}\n")

    def _label(self, block: Continuation) -> str:
        return f"L{self._name(block)}"

    def _assign(self, d: PrimOp, expr: str) -> None:
        self.out.write(f"    {c_type(d.type)} {self._name(d)} = {expr};\n")

    def _emit_primop(self, op: PrimOp) -> None:
        if isinstance(op, ArithOp):
            self._assign(op, self._arith_expr(op))
            return
        if isinstance(op, Cmp):
            self._assign(op, f"{self._ref(op.lhs)} {_CMP_C[op.rel]} "
                             f"{self._ref(op.rhs)}")
            return
        if isinstance(op, (Cast, Bitcast)):
            self._assign(op, self._cast_expr(op))
            return
        if isinstance(op, MathOp):
            self._assign(op, f"{op.kind.value}({self._ref(op.value)})")
            return
        if isinstance(op, Select):
            self._assign(op, f"{self._ref(op.cond)} ? {self._ref(op.tval)} "
                             f": {self._ref(op.fval)}")
            return
        if isinstance(op, Lea):
            self._assign(op, f"&{self._ref(op.ptr)}[{self._ref(op.index)}]")
            return
        if isinstance(op, Load):
            value_t = op.type.elements[1]
            self.out.write(f"    {c_type(value_t)} {self._name(op)} = "
                           f"*{self._ref(op.ptr)};\n")
            return
        if isinstance(op, Store):
            self.out.write(f"    *{self._ref(op.ptr)} = "
                           f"{self._ref(op.value)};\n")
            return
        if isinstance(op, Slot):
            assert isinstance(op.type, PtrType)
            pointee = op.type.pointee
            if isinstance(pointee, DefiniteArrayType):
                self.out.write(
                    f"    {c_type(pointee.elem_type)} "
                    f"{self._name(op)}_buf[{pointee.length}];\n"
                    f"    {c_type(op.type)} {self._name(op)} = "
                    f"{self._name(op)}_buf;\n")
            else:
                self.out.write(
                    f"    {c_type(pointee)} {self._name(op)}_cell;\n"
                    f"    {c_type(op.type)} {self._name(op)} = "
                    f"&{self._name(op)}_cell;\n")
            return
        if isinstance(op, Alloc):
            ptr_t = op.type.elements[1]
            assert isinstance(ptr_t, PtrType)
            pointee = ptr_t.pointee
            name = self._name(op)
            if isinstance(pointee, IndefiniteArrayType):
                elem = c_type(pointee.elem_type)
                count = self._ref(op.extra)
            else:
                elem = c_type(pointee)
                count = "1"
            self.out.write(f"    {elem}* {name} = "
                           f"{self._alloc_expr(elem, count)};\n")
            return
        if isinstance(op, Extract):
            agg = peel_markers(op.agg)
            if isinstance(agg, (Load, Alloc, Enter)):
                if _is_mem(op.type):
                    return
                self._names[op] = self._name(agg)
                return
            if _is_mem(op.type):
                return
            self._assign(op, f"{self._ref(agg)}.w[{self._ref(op.index)}]")
            return
        if isinstance(op, (TupleVal, ArrayVal, StructVal)):
            if any(isinstance(t, FnType) for t in op.type.elements):
                return
            parts = ", ".join(self._ref(e) for e in op.ops)
            self._assign(op, f"(word_block){{ .w = {{ {parts} }} }}")
            return
        if isinstance(op, Insert):
            self._assign(op, self._ref(op.agg))
            self.out.write(f"    {self._name(op)}.w[{self._ref(op.index)}] = "
                           f"{self._ref(op.value)};\n")
            return
        if isinstance(op, (Enter, EvalOp, Literal, Bottom, Global)):
            return
        raise CEmitError(f"cannot emit {op!r}")

    # ------------------------------------------------------------------

    def _emit_terminator(self, fn: Continuation, ret: Param,
                         block: Continuation, schedule: Schedule) -> None:
        callee = peel_markers(block.callee)
        args = block.args
        w = self.out
        if isinstance(callee, Continuation):
            if callee.intrinsic == Intrinsic.BRANCH:
                then_stmt = self._control_stmt(args[2], ret)
                else_stmt = self._control_stmt(args[3], ret)
                w.write(f"    if ({self._ref(args[1])}) {{ {then_stmt} }} "
                        f"else {{ {else_stmt} }}\n")
                return
            if callee.intrinsic in (Intrinsic.PRINT_I64, Intrinsic.PRINT_F64,
                                    Intrinsic.PRINT_CHAR):
                self._emit_print(callee.intrinsic, args[1])
                w.write(f"    goto {self._goto_target(args[2])};\n")
                return
            if callee in scope_of(fn) and callee is not fn:
                self._emit_jump_to_block(block, callee)
                return
            # a call (possibly recursive)
            self._emit_call(fn, ret, block, callee)
            return
        if isinstance(callee, Param) and callee is ret:
            values = [self._ref(a) for a in args if not _is_mem(a.type)]
            w.write(f"    return {values[0] if values else ''};\n")
            return
        raise CEmitError(f"cannot emit terminator of {block.unique_name()}")

    def _goto_target(self, target: Def) -> str:
        target = peel_markers(target)
        assert isinstance(target, Continuation)
        return self._label(target)

    def _control_stmt(self, target: Def, ret: Param) -> str:
        """goto, or a return when eta reduction targeted the ret param."""
        target = peel_markers(target)
        if isinstance(target, Param) and target is ret:
            return "return;"
        return f"goto {self._goto_target(target)};"

    def _emit_jump_to_block(self, block: Continuation,
                            target: Continuation) -> None:
        # Two-phase phi assignment: read all sources into temporaries
        # first, so a swap between block parameters stays correct.
        pending = []
        for param, arg in zip(target.params, block.args):
            if _is_mem(param.type):
                continue
            tmp = f"phi_tmp_{self._counter}"
            self._counter += 1
            self.out.write(f"    {c_type(param.type)} {tmp} = "
                           f"{self._ref(arg)};\n")
            pending.append((param, tmp))
        for param, tmp in pending:
            self.out.write(f"    {self._name(param)} = {tmp};\n")
        self.out.write(f"    goto {self._label(target)};\n")

    def _emit_call(self, fn: Continuation, ret: Param, block: Continuation,
                   callee: Continuation) -> None:
        callee_ret = None
        for p in reversed(callee.params):
            if isinstance(p.type, FnType):
                callee_ret = p
                break
        assert callee_ret is not None
        value_args = []
        ret_target = None
        for param, arg in zip(callee.params, block.args):
            if _is_mem(param.type):
                continue
            if param is callee_ret:
                ret_target = peel_markers(arg)
                continue
            value_args.append(self._ref(arg))
        call = f"{self._fn_name(callee)}({', '.join(value_args)})"
        if isinstance(ret_target, Param) and ret_target is ret:
            self.out.write(f"    return {call};\n")
            return
        assert isinstance(ret_target, Continuation)
        value_params = [p for p in ret_target.params if not _is_mem(p.type)]
        if value_params:
            self.out.write(f"    {self._name(value_params[0])} = {call};\n")
        else:
            self.out.write(f"    {call};\n")
        self.out.write(f"    goto {self._label(ret_target)};\n")


def emit_c(world: World) -> str:
    """Render every top-level function of a CFF world as C source."""
    return CEmitter(world).emit()
