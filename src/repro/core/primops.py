"""Primitive operations (primops).

Primops are the pure, structural nodes of the graph.  They are immutable
and hash-consed by the :class:`~repro.core.world.World`: building the
same primop twice yields the identical object.  Together with the
folding rules in ``world.py`` this realizes the paper's claim that local
optimizations (constant folding, CSE/GVN, copy propagation, algebraic
simplification) happen *during IR construction* and hold at all times.

Side effects are made explicit: memory primops consume and produce a
``mem`` token, turning effect order into data dependence.  This is what
keeps primops floating freely in the graph until the scheduler places
them (see ``schedule.py``).

Only :class:`Slot`, :class:`Alloc` and mutable :class:`Global` carry a
world-unique id in their hash key: two distinct allocations must never
be merged by value numbering, while e.g. two loads from the same memory
and pointer may.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from .defs import Def
from .types import (
    BOOL,
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

if TYPE_CHECKING:  # pragma: no cover
    from .world import World


class PrimOp(Def):
    """Base class of all primops.  Instances are created by the world only."""

    __slots__ = ()

    def attrs(self) -> tuple:
        """Extra hash-consing key components beyond (class, type, ops)."""
        return ()

    def op_name(self) -> str:
        return type(self).__name__.lower()


class Literal(PrimOp):
    """A compile-time constant of primitive type.

    Integer literal values are stored in **canonical** form: unsigned
    representation modulo the bitwidth (booleans as Python bools).  The
    world's factory normalizes on the way in; :meth:`signed_value`
    recovers the two's-complement reading.
    """

    __slots__ = ("value",)

    def __init__(self, world: "World", type: PrimType, value):
        self.value = value
        super().__init__(world, type, (), str(value))

    def attrs(self) -> tuple:
        return (self.value,)

    @property
    def prim_type(self) -> PrimType:
        assert isinstance(self.type, PrimType)
        return self.type

    def signed_value(self) -> int:
        """Two's-complement signed reading of an integer literal."""
        assert self.prim_type.is_int
        width = self.prim_type.bitwidth
        value = self.value
        if value >= 1 << (width - 1):
            value -= 1 << width
        return value

    def public_value(self):
        """The value as seen by the surface language / interpreter."""
        if self.prim_type.is_signed:
            return self.signed_value()
        return self.value

    def op_name(self) -> str:
        return "literal"


class Bottom(PrimOp):
    """An undefined value of any type (unreachable/uninitialized)."""

    __slots__ = ()

    def __init__(self, world: "World", type: Type):
        super().__init__(world, type, (), "bottom")


class ArithKind(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"

    @property
    def is_commutative(self) -> bool:
        return self in (ArithKind.ADD, ArithKind.MUL, ArithKind.AND,
                        ArithKind.OR, ArithKind.XOR)

    @property
    def is_bitop(self) -> bool:
        return self in (ArithKind.AND, ArithKind.OR, ArithKind.XOR,
                        ArithKind.SHL, ArithKind.SHR)

    @property
    def is_division(self) -> bool:
        return self in (ArithKind.DIV, ArithKind.REM)


class ArithOp(PrimOp):
    """A binary arithmetic/bitwise operation on two same-typed scalars."""

    __slots__ = ("kind",)

    def __init__(self, world: "World", kind: ArithKind, lhs: Def, rhs: Def):
        self.kind = kind
        super().__init__(world, lhs.type, (lhs, rhs), kind.value)

    def attrs(self) -> tuple:
        return (self.kind,)

    @property
    def lhs(self) -> Def:
        return self.op(0)

    @property
    def rhs(self) -> Def:
        return self.op(1)

    def op_name(self) -> str:
        return self.kind.value


class MathKind(enum.Enum):
    SQRT = "sqrt"
    FABS = "fabs"
    FLOOR = "floor"
    SIN = "sin"
    COS = "cos"
    EXP = "exp"
    LOG = "log"


class MathOp(PrimOp):
    """A unary float math builtin (sqrt, fabs, floor, sin, cos, exp, log)."""

    __slots__ = ("kind",)

    def __init__(self, world: "World", kind: MathKind, value: Def):
        self.kind = kind
        super().__init__(world, value.type, (value,), kind.value)

    def attrs(self) -> tuple:
        return (self.kind,)

    @property
    def value(self) -> Def:
        return self.op(0)

    def op_name(self) -> str:
        return self.kind.value


class CmpRel(enum.Enum):
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    def swap(self) -> "CmpRel":
        """The relation with operands exchanged (``a < b`` == ``b > a``)."""
        return _CMP_SWAP[self]

    def negate(self) -> "CmpRel":
        return _CMP_NEGATE[self]


_CMP_SWAP = {}
_CMP_NEGATE = {}


def _init_cmp_tables() -> None:
    swap_pairs = [(CmpRel.EQ, CmpRel.EQ), (CmpRel.NE, CmpRel.NE),
                  (CmpRel.LT, CmpRel.GT), (CmpRel.LE, CmpRel.GE)]
    for a, b in swap_pairs:
        _CMP_SWAP[a] = b
        _CMP_SWAP[b] = a
    negate_pairs = [(CmpRel.EQ, CmpRel.NE), (CmpRel.LT, CmpRel.GE),
                    (CmpRel.GT, CmpRel.LE)]
    for a, b in negate_pairs:
        _CMP_NEGATE[a] = b
        _CMP_NEGATE[b] = a


_init_cmp_tables()


class Cmp(PrimOp):
    """A comparison of two same-typed scalars, yielding ``bool``."""

    __slots__ = ("rel",)

    def __init__(self, world: "World", rel: CmpRel, lhs: Def, rhs: Def):
        self.rel = rel
        super().__init__(world, BOOL, (lhs, rhs), f"cmp_{rel.value}")

    def attrs(self) -> tuple:
        return (self.rel,)

    @property
    def lhs(self) -> Def:
        return self.op(0)

    @property
    def rhs(self) -> Def:
        return self.op(1)

    def op_name(self) -> str:
        return f"cmp.{self.rel.value}"


class Cast(PrimOp):
    """A value-converting cast between scalar types (int<->float etc.)."""

    __slots__ = ()

    def __init__(self, world: "World", to: Type, value: Def):
        super().__init__(world, to, (value,), "cast")

    @property
    def value(self) -> Def:
        return self.op(0)


class Bitcast(PrimOp):
    """A bit-reinterpreting cast between same-sized types."""

    __slots__ = ()

    def __init__(self, world: "World", to: Type, value: Def):
        super().__init__(world, to, (value,), "bitcast")

    @property
    def value(self) -> Def:
        return self.op(0)


class Select(PrimOp):
    """``select(cond, tval, fval)`` — a value-level conditional.

    ``tval``/``fval`` may be of any type, including fn types: selecting
    between continuations and jumping to the result is a conditional
    branch, which is why jump threading falls out of folding.
    """

    __slots__ = ()

    def __init__(self, world: "World", cond: Def, tval: Def, fval: Def):
        super().__init__(world, tval.type, (cond, tval, fval), "select")

    @property
    def cond(self) -> Def:
        return self.op(0)

    @property
    def tval(self) -> Def:
        return self.op(1)

    @property
    def fval(self) -> Def:
        return self.op(2)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class Aggregate(PrimOp):
    """Base for value-level aggregate construction."""

    __slots__ = ()


class TupleVal(Aggregate):
    """Construction of a tuple value from its elements."""

    __slots__ = ()

    def __init__(self, world: "World", type: TupleType, elems: tuple[Def, ...]):
        super().__init__(world, type, elems, "tuple")

    def op_name(self) -> str:
        return "tuple"


class ArrayVal(Aggregate):
    """Construction of a definite array value from its elements."""

    __slots__ = ()

    def __init__(self, world: "World", type: DefiniteArrayType,
                 elems: tuple[Def, ...]):
        super().__init__(world, type, elems, "array")

    def op_name(self) -> str:
        return "array"


class StructVal(Aggregate):
    """Construction of a struct value from its fields."""

    __slots__ = ()

    def __init__(self, world: "World", type: StructType, fields: tuple[Def, ...]):
        super().__init__(world, type, fields, f"{type.name}.new")

    def op_name(self) -> str:
        return "struct"


class Extract(PrimOp):
    """``extract(agg, index)`` — read one component of an aggregate value."""

    __slots__ = ()

    def __init__(self, world: "World", type: Type, agg: Def, index: Def):
        super().__init__(world, type, (agg, index), "extract")

    @property
    def agg(self) -> Def:
        return self.op(0)

    @property
    def index(self) -> Def:
        return self.op(1)


class Insert(PrimOp):
    """``insert(agg, index, value)`` — a copy of ``agg`` with one slot replaced."""

    __slots__ = ()

    def __init__(self, world: "World", agg: Def, index: Def, value: Def):
        super().__init__(world, agg.type, (agg, index, value), "insert")

    @property
    def agg(self) -> Def:
        return self.op(0)

    @property
    def index(self) -> Def:
        return self.op(1)

    @property
    def value(self) -> Def:
        return self.op(2)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


class MemOp(PrimOp):
    """Base for primops that consume a ``mem`` token as first operand."""

    __slots__ = ()

    @property
    def mem(self) -> Def:
        return self.op(0)


class Enter(MemOp):
    """``enter(mem) : (mem, frame)`` — open a stack frame for slots."""

    __slots__ = ()

    def __init__(self, world: "World", type: TupleType, mem: Def):
        super().__init__(world, type, (mem,), "enter")


class Slot(MemOp):
    """``slot(frame) : ptr[T]`` — a stack cell in a frame.

    Each slot is unique (``slot_id`` is part of the hash key): distinct
    local variables must never be value-numbered together.
    """

    __slots__ = ("slot_id",)

    def __init__(self, world: "World", type: PtrType, frame: Def, slot_id: int):
        self.slot_id = slot_id
        super().__init__(world, type, (frame,), f"slot{slot_id}")

    def attrs(self) -> tuple:
        return (self.slot_id,)

    @property
    def frame(self) -> Def:
        return self.op(0)

    @property
    def mem(self) -> Def:  # pragma: no cover - slots hold a frame, not a mem
        raise AssertionError("slot has no mem operand")


class Alloc(MemOp):
    """``alloc(mem) : (mem, ptr[T])`` — heap allocation (unique per id)."""

    __slots__ = ("alloc_id",)

    def __init__(self, world: "World", type: TupleType, mem: Def, extra: Def,
                 alloc_id: int):
        self.alloc_id = alloc_id
        super().__init__(world, type, (mem, extra), "alloc")

    def attrs(self) -> tuple:
        return (self.alloc_id,)

    @property
    def extra(self) -> Def:
        """Run-time element count for indefinite-array allocations."""
        return self.op(1)


class Load(MemOp):
    """``load(mem, ptr) : (mem, T)``."""

    __slots__ = ()

    def __init__(self, world: "World", type: TupleType, mem: Def, ptr: Def):
        super().__init__(world, type, (mem, ptr), "load")

    @property
    def ptr(self) -> Def:
        return self.op(1)


class Store(MemOp):
    """``store(mem, ptr, value) : mem``."""

    __slots__ = ()

    def __init__(self, world: "World", type: MemType, mem: Def, ptr: Def, value: Def):
        super().__init__(world, type, (mem, ptr, value), "store")

    @property
    def ptr(self) -> Def:
        return self.op(1)

    @property
    def value(self) -> Def:
        return self.op(2)


class Lea(PrimOp):
    """``lea(ptr, index) : ptr`` — address of one component of an aggregate."""

    __slots__ = ()

    def __init__(self, world: "World", type: PtrType, ptr: Def, index: Def):
        super().__init__(world, type, (ptr, index), "lea")

    @property
    def ptr(self) -> Def:
        return self.op(0)

    @property
    def index(self) -> Def:
        return self.op(1)


class Global(PrimOp):
    """A global memory cell, yielding ``ptr[T]``.

    Mutable globals are unique per id; immutable globals (constant data
    such as string tables) are value-numbered structurally.
    """

    __slots__ = ("is_mutable", "global_id")

    def __init__(self, world: "World", type: PtrType, init: Def,
                 is_mutable: bool, global_id: int):
        self.is_mutable = is_mutable
        self.global_id = global_id
        super().__init__(world, type, (init,), "global")

    def attrs(self) -> tuple:
        return (self.is_mutable, self.global_id)

    @property
    def init(self) -> Def:
        return self.op(0)


# ---------------------------------------------------------------------------
# Partial-evaluation markers
# ---------------------------------------------------------------------------


class EvalOp(PrimOp):
    """Base of the PE markers ``run`` and ``hlt`` (identity at run time)."""

    __slots__ = ()

    @property
    def value(self) -> Def:
        return self.op(0)


class Run(EvalOp):
    """``run(f)`` — ask the partial evaluator to specialize calls to ``f``."""

    __slots__ = ()

    def __init__(self, world: "World", value: Def):
        super().__init__(world, value.type, (value,), "run")


class Hlt(EvalOp):
    """``hlt(f)`` — forbid the partial evaluator from touching calls to ``f``."""

    __slots__ = ()

    def __init__(self, world: "World", value: Def):
        super().__init__(world, value.type, (value,), "hlt")


def peel_markers(d: Def) -> Def:
    """Strip the ``run``/``hlt`` markers off *d*."""
    while isinstance(d, EvalOp):
        d = d.value
    return d


def element_type_of(agg_type: Type, index: Def) -> Type:
    """Result type of ``extract(agg, index)`` / pointee of ``lea``.

    Tuples and structs require a literal index; arrays accept any integer
    index and vectors of a single element type.
    """
    if isinstance(agg_type, (DefiniteArrayType, IndefiniteArrayType)):
        return agg_type.elem_type
    if isinstance(agg_type, (TupleType, StructType)):
        assert isinstance(index, Literal), (
            f"indexing {agg_type} requires a literal index"
        )
        return agg_type.elements[index.value]
    raise AssertionError(f"cannot index into {agg_type}")
