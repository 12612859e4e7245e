"""The world: container and smart factory for the IR graph.

All IR nodes are created through a :class:`World`.  The world maintains

* a **hash-consing table** for primops (global value numbering): two
  structurally equal primops are the same Python object, always;
* **folding and simplification rules** inside every factory method, so
  constant folding, algebraic simplification, copy propagation and CSE
  hold *by construction* — the paper's central engineering claim;
* the registry of continuations and of *external* continuations (the
  roots that keep the rest of the graph alive);
* the compiler-known *intrinsic* continuations (``branch``, ``match``,
  I/O).

Folding can be disabled (``World(folding=False)``) to measure what the
rules buy (ablation A1); value numbering itself is always on, since the
rest of the system relies on pointer equality of structural nodes.
"""

from __future__ import annotations

from typing import Iterable

from . import fold
from .defs import Continuation, Def, Intrinsic, Param
from .primops import (
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
    Extract,
    Global,
    Hlt,
    Insert,
    Lea,
    Literal,
    Load,
    PrimOp,
    Run,
    Select,
    Slot,
    Store,
    StructVal,
    TupleVal,
    element_type_of,
)
from .types import (
    BOOL,
    FRAME,
    MEM,
    DefiniteArrayType,
    FnType,
    FrameType,
    MemType,
    PrimType,
    PtrType,
    StructType,
    TupleType,
    Type,
    definite_array_type,
    fn_type,
    ptr_type,
    tuple_type,
)


class WorldStats:
    """Counters describing construction-time optimization activity."""

    def __init__(self) -> None:
        self.gvn_hits = 0
        self.gvn_misses = 0
        self.folds = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "gvn_hits": self.gvn_hits,
            "gvn_misses": self.gvn_misses,
            "folds": self.folds,
        }


class World:
    """One IR universe: value-numbering table, continuations, intrinsics."""

    def __init__(self, name: str = "world", *, folding: bool = True):
        self.name = name
        self.folding = folding
        self.stats = WorldStats()
        self._gid = 0
        self._primops: dict[tuple, PrimOp] = {}
        self._continuations: list[Continuation] = []
        self._externals: dict[str, Continuation] = {}
        self._intrinsics: dict[str, Continuation] = {}
        self._slot_id = 0
        self._alloc_id = 0
        self._global_id = 0
        self._generation = 0
        self._structural_generation = 0
        self._analyses = None
        self._undo = None  # armed UndoLog, if any (core.undo)
        # Registered continuations whose bodies, signatures or external
        # flags changed since cleanup's eta-reduction last took the set;
        # None stands for every continuation (a fresh world, or after an
        # undo-log rollback).
        self._touched_conts: set[Continuation] | None = None
        # Generation at which the last completed cleanup left the world;
        # while it stands, another cleanup is provably a no-op and every
        # registered primop is reachable from the externals.
        self._clean_generation: int | None = None
        # Set by the pipeline under ``verify_each_pass``: passes check
        # each answer they take without recovering a scope or marking
        # the world against the recovery they skip.
        self._verify_shortcuts = False

    # ------------------------------------------------------------------
    # identity & registry
    # ------------------------------------------------------------------

    def next_gid(self) -> int:
        self._gid += 1
        self._generation += 1
        return self._gid

    @property
    def generation(self) -> int:
        """Monotone mutation counter: bumped by every change to the graph
        or its registries, never by reads and never rolled back (an
        undo-log rollback *advances* it).  Cached analyses key on it.
        """
        return self._generation

    @property
    def structural_generation(self) -> int:
        """Monotone counter of *continuation-structure* mutations.

        Bumped by continuation registration/pruning, body rewires, param
        surgery, external marking and undo-log rollbacks — but **not** by
        primop creation.  Primops are immutable once built and carry no
        users at birth, so minting one cannot change which continuations
        are nested in which (the ``top_level`` sweep's answer): reaching
        sets propagate def → user, and a fresh primop has no users until
        some continuation body is rewired to mention it — which bumps
        this counter.  Whole-world analyses that only depend on the
        continuation structure stamp against this, surviving the primop
        churn that dominates generation bumps inside a pass.
        """
        return self._structural_generation

    @property
    def analyses(self):
        """The world's :class:`~repro.core.analyses.AnalysisManager`.

        Created lazily so worlds that never ask for cached analyses pay
        nothing; once created, mutation notes flow into it.
        """
        if self._analyses is None:
            from .analyses import AnalysisManager

            self._analyses = AnalysisManager(self)
        return self._analyses

    # -- mutation notes -------------------------------------------------
    #
    # Every graph mutation funnels through one of these three hooks.
    # ``_set_ops`` (the single place use-edges change) reports the user
    # and its new operands; structural registry surgery reports the
    # continuations it touched; a wholesale change (an undo-log
    # rollback) reports nothing and forces a drop-all.  The generation counter bumps
    # unconditionally; the analysis manager only hears about it once it
    # exists.  Touched continuations also feed ``_touched_conts``, the
    # worklist of cleanup's eta-reduction.

    def _note_touched(self, user: Def, ops: tuple) -> None:
        self._generation += 1
        if user.__class__ is Continuation:
            self._structural_generation += 1
            touched = self._touched_conts
            if touched is not None:
                touched.add(user)
        undo = self._undo
        if undo is not None:
            # Fired before ``user._ops`` is swapped, so the log can
            # capture the old operand tuple on first touch.
            undo._on_touched(user)
        manager = self._analyses
        if manager is not None:
            manager._record_touched(user, ops)

    def _note_structural(self, *touched: Def) -> None:
        self._generation += 1
        self._structural_generation += 1
        if self._touched_conts is not None:
            # An external flag or a signature can make a forwarder.
            self._touched_conts.update(touched)
        manager = self._analyses
        if manager is not None and touched:
            manager._record_structural(touched)

    def _note_all(self) -> None:
        self._generation += 1
        self._structural_generation += 1
        # A wholesale change disarms any armed undo log, so the
        # rewiring that follows it logs nothing.
        self._undo = None
        self._touched_conts = None
        manager = self._analyses
        if manager is not None:
            manager._record_all()

    def continuations(self) -> list[Continuation]:
        """All live continuations, in creation order."""
        return list(self._continuations)

    def externals(self) -> list[Continuation]:
        return list(self._externals.values())

    def find_external(self, name: str) -> Continuation:
        return self._externals[name]

    def make_external(self, cont: Continuation) -> None:
        if self._undo is not None:
            self._undo._on_external(cont)
        cont.is_external = True
        self._externals[cont.name] = cont
        self._note_structural(cont)

    def remove_external(self, cont: Continuation) -> None:
        if self._undo is not None:
            self._undo._on_external(cont)
        cont.is_external = False
        self._externals.pop(cont.name, None)
        self._note_structural(cont)

    def num_primops(self) -> int:
        return len(self._primops)

    def _prune_continuations(self, live: set[Continuation]) -> None:
        """Drop dead continuations from the registry (used by cleanup)."""
        pruned = [c for c in self._continuations if c not in live]
        if not pruned:
            return
        if self._undo is not None:
            self._undo._on_prune_continuations()
        self._continuations = [c for c in self._continuations if c in live]
        self._note_structural(*pruned)
        if self._touched_conts is not None:
            # Unregistered for good: no eta-reduction scan needs them.
            self._touched_conts.difference_update(pruned)

    def _prune_primops(self, live: set[Def]) -> None:
        before = len(self._primops)
        if self._undo is not None:
            self._undo._on_prune_primops()
        self._primops = {
            key: op for key, op in self._primops.items() if op in live
        }
        if len(self._primops) != before:
            self._generation += 1

    def dead_primops(self, live: set[Def]) -> list[PrimOp]:
        return [op for op in self._primops.values() if op not in live]

    # ------------------------------------------------------------------
    # continuations & intrinsics
    # ------------------------------------------------------------------

    def continuation(self, type: FnType, name: str = "") -> Continuation:
        cont = Continuation(self, type, name or f"cont{self._gid + 1}")
        self._continuations.append(cont)
        self._structural_generation += 1
        return cont

    def basic_block(self, param_types: Iterable[Type] = (), name: str = "") -> Continuation:
        return self.continuation(fn_type(tuple(param_types)), name)

    def _intrinsic(self, name: str, type: FnType) -> Continuation:
        cont = self._intrinsics.get(name)
        if cont is None:
            cont = Continuation(self, type, name, intrinsic=name)
            self._continuations.append(cont)
            self._intrinsics[name] = cont
            self._structural_generation += 1
        return cont

    def branch(self) -> Continuation:
        """``branch(mem, cond, then: fn(mem), else: fn(mem))``."""
        bb = fn_type((MEM,))
        return self._intrinsic(Intrinsic.BRANCH, fn_type((MEM, BOOL, bb, bb)))

    def match(self, value_type: Type) -> Continuation:
        """``match(mem, value, default, (lit, target)...)`` — a switch.

        Variadic: the verifier checks the (lit, target) pair arguments.
        One intrinsic per scrutinee type.
        """
        bb = fn_type((MEM,))
        arm = tuple_type((value_type, bb))
        name = f"{Intrinsic.MATCH}.{value_type}"
        cont = self._intrinsics.get(name)
        if cont is None:
            cont = Continuation(
                self, fn_type((MEM, value_type, bb, arm)), name,
                intrinsic=Intrinsic.MATCH,
            )
            self._continuations.append(cont)
            self._intrinsics[name] = cont
            self._structural_generation += 1
        return cont

    def print_i64(self) -> Continuation:
        from .types import I64

        ret = fn_type((MEM,))
        return self._intrinsic(Intrinsic.PRINT_I64, fn_type((MEM, I64, ret)))

    def print_f64(self) -> Continuation:
        from .types import F64

        ret = fn_type((MEM,))
        return self._intrinsic(Intrinsic.PRINT_F64, fn_type((MEM, F64, ret)))

    def print_char(self) -> Continuation:
        from .types import U8

        ret = fn_type((MEM,))
        return self._intrinsic(Intrinsic.PRINT_CHAR, fn_type((MEM, U8, ret)))

    # ------------------------------------------------------------------
    # the hash-consing core
    # ------------------------------------------------------------------

    def _unify(self, key: tuple, build) -> PrimOp:
        existing = self._primops.get(key)
        if existing is not None:
            self.stats.gvn_hits += 1
            return existing
        self.stats.gvn_misses += 1
        op = build()
        self._primops[key] = op
        return op

    @staticmethod
    def _ops_key(ops: tuple[Def, ...]) -> tuple:
        return tuple(op.gid for op in ops)

    def _folded(self, value: Def) -> Def:
        self.stats.folds += 1
        return value

    # ------------------------------------------------------------------
    # literals / bottom
    # ------------------------------------------------------------------

    def literal(self, type: PrimType, value) -> Literal:
        value = fold.canonicalize(type.kind, value)
        key = (Literal, type, (), (value,))
        return self._unify(key, lambda: Literal(self, type, value))  # type: ignore[return-value]

    def lit_bool(self, value: bool) -> Literal:
        return self.literal(BOOL, value)

    def true_(self) -> Literal:
        return self.lit_bool(True)

    def false_(self) -> Literal:
        return self.lit_bool(False)

    def zero(self, type: PrimType) -> Literal:
        return self.literal(type, 0)

    def one(self, type: PrimType) -> Literal:
        return self.literal(type, 1)

    def bottom(self, type: Type) -> Bottom:
        key = (Bottom, type, (), ())
        return self._unify(key, lambda: Bottom(self, type))  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def arithop(self, kind: ArithKind, lhs: Def, rhs: Def) -> Def:
        assert lhs.type is rhs.type, (
            f"arith operand type mismatch: {lhs.type} vs {rhs.type}"
        )
        prim = lhs.type
        assert isinstance(prim, PrimType), f"arith on non-scalar {prim}"
        if self.folding:
            folded = self._fold_arith(kind, prim, lhs, rhs)
            if folded is not None:
                return self._folded(folded)
            # Canonicalize: constants to the right for commutative ops.
            if kind.is_commutative and isinstance(lhs, Literal) and not isinstance(rhs, Literal):
                lhs, rhs = rhs, lhs
        key = (ArithOp, prim, self._ops_key((lhs, rhs)), (kind,))
        return self._unify(key, lambda: ArithOp(self, kind, lhs, rhs))

    def may_trap(self, d: Def) -> bool:
        """Can evaluating *d*'s primop subtree trap at run time?

        True when the subtree contains an integer ``div``/``rem`` whose
        divisor is not a provably nonzero literal (``INT_MIN / -1``
        wraps, float division follows IEEE — neither traps).  The walk
        treats continuations, parameters and literals as leaves: the
        reference interpreter evaluates every primop operand of an
        executed body, but never the body of a closure it merely builds.
        """
        stack = [d]
        seen: set[int] = set()
        while stack:
            cur = stack.pop()
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            if not isinstance(cur, PrimOp):
                continue
            if (isinstance(cur, ArithOp) and cur.kind.is_division
                    and isinstance(cur.type, PrimType) and cur.type.is_int):
                divisor = cur.ops[1]
                if not (isinstance(divisor, Literal) and divisor.value != 0):
                    return True
            stack.extend(cur.ops)
        return False

    def _can_discard(self, *defs: Def) -> bool:
        """May these operand subtrees be folded away?

        A fold that *discards* an operand the reference interpreter
        would have evaluated must not lose a trap: ``(1/x) * 0`` still
        divides by ``x`` at run time, so it must not fold to ``0``.
        Every discarding fold below is gated on this predicate.
        """
        return not any(self.may_trap(d) for d in defs)

    def _fold_arith(self, kind: ArithKind, prim: PrimType, lhs: Def, rhs: Def) -> Def | None:
        if isinstance(lhs, Bottom) or isinstance(rhs, Bottom):
            if self._can_discard(lhs, rhs):
                return self.bottom(prim)
            return None
        if isinstance(lhs, Literal) and isinstance(rhs, Literal):
            if kind.is_division and prim.is_int and rhs.value == 0:
                return None  # leave the trap in the program
            return self.literal(prim, fold.arith(kind, prim, lhs.value, rhs.value))

        def is_zero(d: Def) -> bool:
            return isinstance(d, Literal) and not d.prim_type.is_float and d.value == 0

        def is_one(d: Def) -> bool:
            return isinstance(d, Literal) and d.value == 1

        def is_all_ones(d: Def) -> bool:
            return (isinstance(d, Literal) and d.prim_type.is_int
                    and d.value == (1 << d.prim_type.bitwidth) - 1)

        if kind is ArithKind.ADD:
            if is_zero(lhs):
                return rhs
            if is_zero(rhs):
                return lhs
        elif kind is ArithKind.SUB:
            if is_zero(rhs):
                return lhs
            if lhs is rhs and prim.is_int and self._can_discard(lhs):
                return self.zero(prim)
        elif kind is ArithKind.MUL:
            if prim.is_int and is_zero(lhs) and self._can_discard(rhs):
                return self.zero(prim)
            if prim.is_int and is_zero(rhs) and self._can_discard(lhs):
                return self.zero(prim)
            if is_one(lhs) and not prim.is_bool:
                return rhs
            if is_one(rhs) and not prim.is_bool:
                return lhs
        elif kind is ArithKind.DIV:
            if is_one(rhs) and not prim.is_bool:
                return lhs
        elif kind is ArithKind.AND:
            if is_zero(lhs) and self._can_discard(rhs):
                return self.zero(prim) if prim.is_int else self.false_()
            if is_zero(rhs) and self._can_discard(lhs):
                return self.zero(prim) if prim.is_int else self.false_()
            if lhs is rhs:
                return lhs
            if prim.is_bool:
                if isinstance(lhs, Literal) and lhs.value:
                    return rhs
                if isinstance(rhs, Literal) and rhs.value:
                    return lhs
            if is_all_ones(lhs):
                return rhs
            if is_all_ones(rhs):
                return lhs
        elif kind is ArithKind.OR:
            if lhs is rhs:
                return lhs
            if prim.is_bool:
                if isinstance(lhs, Literal):
                    if not lhs.value:
                        return rhs
                    if self._can_discard(rhs):
                        return self.true_()
                elif isinstance(rhs, Literal):
                    if not rhs.value:
                        return lhs
                    if self._can_discard(lhs):
                        return self.true_()
            else:
                if is_zero(lhs):
                    return rhs
                if is_zero(rhs):
                    return lhs
                if is_all_ones(lhs) and self._can_discard(rhs):
                    return self.literal(prim, (1 << prim.bitwidth) - 1)
                if is_all_ones(rhs) and self._can_discard(lhs):
                    return self.literal(prim, (1 << prim.bitwidth) - 1)
        elif kind is ArithKind.XOR:
            if lhs is rhs and self._can_discard(lhs):
                return self.false_() if prim.is_bool else self.zero(prim)
            if is_zero(lhs):
                return rhs
            if is_zero(rhs):
                return lhs
            # xor-chain collapsing: (a ^ c1) ^ c2  ->  a ^ (c1 ^ c2);
            # double negation !!b falls out of this.
            if (isinstance(rhs, Literal) and isinstance(lhs, ArithOp)
                    and lhs.kind is ArithKind.XOR
                    and isinstance(lhs.rhs, Literal)):
                folded_const = self.literal(
                    prim, fold.arith(kind, prim, lhs.rhs.value, rhs.value)
                )
                return self.xor(lhs.lhs, folded_const)
        elif kind in (ArithKind.SHL, ArithKind.SHR):
            if is_zero(rhs):
                return lhs
            if is_zero(lhs) and self._can_discard(rhs):
                return self.zero(prim)
        return None

    # Convenience spellings used heavily by frontends and tests.
    def add(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.ADD, lhs, rhs)

    def sub(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.SUB, lhs, rhs)

    def mul(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.MUL, lhs, rhs)

    def div(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.DIV, lhs, rhs)

    def rem(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.REM, lhs, rhs)

    def and_(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.AND, lhs, rhs)

    def or_(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.OR, lhs, rhs)

    def xor(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.XOR, lhs, rhs)

    def shl(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.SHL, lhs, rhs)

    def shr(self, lhs: Def, rhs: Def) -> Def:
        return self.arithop(ArithKind.SHR, lhs, rhs)

    def not_(self, value: Def) -> Def:
        assert value.type is BOOL
        return self.xor(value, self.true_())

    def neg(self, value: Def) -> Def:
        prim = value.type
        assert isinstance(prim, PrimType) and not prim.is_bool
        if prim.is_float:
            return self.sub(self.literal(prim, -0.0), value)
        return self.sub(self.zero(prim), value)

    def mathop(self, kind, value: Def) -> Def:
        from .primops import MathOp

        prim = value.type
        assert isinstance(prim, PrimType) and prim.is_float, (
            f"math op on non-float {prim}"
        )
        if self.folding:
            if isinstance(value, Bottom):
                return self._folded(self.bottom(prim))
            if isinstance(value, Literal):
                return self._folded(
                    self.literal(prim, fold.math_op(kind, prim, value.value))
                )
        key = (MathOp, prim, self._ops_key((value,)), (kind,))
        return self._unify(key, lambda: MathOp(self, kind, value))

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------

    def cmp(self, rel: CmpRel, lhs: Def, rhs: Def) -> Def:
        assert lhs.type is rhs.type, (
            f"cmp operand type mismatch: {lhs.type} vs {rhs.type}"
        )
        prim = lhs.type
        assert isinstance(prim, PrimType), f"cmp on non-scalar {prim}"
        if self.folding:
            if isinstance(lhs, Bottom) or isinstance(rhs, Bottom):
                if self._can_discard(lhs, rhs):
                    return self._folded(self.bottom(BOOL))
            elif isinstance(lhs, Literal) and isinstance(rhs, Literal):
                return self._folded(
                    self.lit_bool(fold.compare(rel, prim, lhs.value, rhs.value))
                )
            elif lhs is rhs and not prim.is_float and self._can_discard(lhs):
                if rel in (CmpRel.EQ, CmpRel.LE, CmpRel.GE):
                    return self._folded(self.true_())
                return self._folded(self.false_())
            if isinstance(lhs, Literal) and not isinstance(rhs, Literal):
                lhs, rhs, rel = rhs, lhs, rel.swap()
        key = (Cmp, BOOL, self._ops_key((lhs, rhs)), (rel,))
        return self._unify(key, lambda: Cmp(self, rel, lhs, rhs))

    def eq(self, lhs: Def, rhs: Def) -> Def:
        return self.cmp(CmpRel.EQ, lhs, rhs)

    def ne(self, lhs: Def, rhs: Def) -> Def:
        return self.cmp(CmpRel.NE, lhs, rhs)

    def lt(self, lhs: Def, rhs: Def) -> Def:
        return self.cmp(CmpRel.LT, lhs, rhs)

    def le(self, lhs: Def, rhs: Def) -> Def:
        return self.cmp(CmpRel.LE, lhs, rhs)

    def gt(self, lhs: Def, rhs: Def) -> Def:
        return self.cmp(CmpRel.GT, lhs, rhs)

    def ge(self, lhs: Def, rhs: Def) -> Def:
        return self.cmp(CmpRel.GE, lhs, rhs)

    # ------------------------------------------------------------------
    # casts
    # ------------------------------------------------------------------

    def cast(self, to: Type, value: Def) -> Def:
        if to is value.type:
            return value
        assert isinstance(to, PrimType) and isinstance(value.type, PrimType)
        if self.folding:
            if isinstance(value, Bottom):
                return self._folded(self.bottom(to))
            if isinstance(value, Literal):
                return self._folded(
                    self.literal(to, fold.cast(to, value.prim_type, value.value))
                )
        key = (Cast, to, self._ops_key((value,)), ())
        return self._unify(key, lambda: Cast(self, to, value))

    def bitcast(self, to: Type, value: Def) -> Def:
        if to is value.type:
            return value
        if self.folding:
            if isinstance(value, Bottom):
                return self._folded(self.bottom(to))
            if (isinstance(value, Literal) and isinstance(to, PrimType)
                    and isinstance(value.type, PrimType)):
                return self._folded(
                    self.literal(to, fold.bitcast(to, value.prim_type, value.value))
                )
            if isinstance(value, Bitcast):
                return self.bitcast(to, value.value)
        key = (Bitcast, to, self._ops_key((value,)), ())
        return self._unify(key, lambda: Bitcast(self, to, value))

    # ------------------------------------------------------------------
    # select
    # ------------------------------------------------------------------

    def select(self, cond: Def, tval: Def, fval: Def) -> Def:
        assert cond.type is BOOL, "select condition must be bool"
        assert tval.type is fval.type, (
            f"select arm type mismatch: {tval.type} vs {fval.type}"
        )
        if self.folding:
            if isinstance(cond, Literal):
                discarded = fval if cond.value else tval
                if self._can_discard(discarded):
                    return self._folded(tval if cond.value else fval)
            elif isinstance(cond, Bottom):
                if self._can_discard(tval, fval):
                    return self._folded(self.bottom(tval.type))
            elif tval is fval and self._can_discard(cond):
                return self._folded(tval)
            # select(!c, a, b) -> select(c, b, a)
            negated = self._negated_cond(cond)
            if negated is not None:
                return self.select(negated, fval, tval)
            if tval.type is BOOL:
                if (isinstance(tval, Literal) and isinstance(fval, Literal)):
                    # (c, true, false) -> c ; (c, false, true) -> !c
                    return self._folded(cond if tval.value else self.not_(cond))
        key = (Select, tval.type, self._ops_key((cond, tval, fval)), ())
        return self._unify(key, lambda: Select(self, cond, tval, fval))

    @staticmethod
    def _negated_cond(cond: Def) -> Def | None:
        if (isinstance(cond, ArithOp) and cond.kind is ArithKind.XOR
                and isinstance(cond.rhs, Literal) and cond.rhs.value is True):
            return cond.lhs
        return None

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def tuple_(self, elems: Iterable[Def]) -> Def:
        elems = tuple(elems)
        type = tuple_type(tuple(e.type for e in elems))
        key = (TupleVal, type, self._ops_key(elems), ())
        return self._unify(key, lambda: TupleVal(self, type, elems))

    def unit(self) -> Def:
        return self.tuple_(())

    def definite_array(self, elem_type: Type, elems: Iterable[Def]) -> Def:
        elems = tuple(elems)
        assert all(e.type is elem_type for e in elems)
        type = definite_array_type(elem_type, len(elems))
        key = (ArrayVal, type, self._ops_key(elems), ())
        return self._unify(key, lambda: ArrayVal(self, type, elems))

    def struct_val(self, type: StructType, fields: Iterable[Def]) -> Def:
        fields = tuple(fields)
        assert len(fields) == len(type.field_types)
        assert all(f.type is t for f, t in zip(fields, type.field_types))
        key = (StructVal, type, self._ops_key(fields), ())
        return self._unify(key, lambda: StructVal(self, type, fields))

    def extract(self, agg: Def, index) -> Def:
        from .types import I64

        if isinstance(index, int):
            index = self.literal(I64, index)
        type = element_type_of(agg.type, index)
        if self.folding:
            folded = self._fold_extract(agg, index, type)
            if folded is not None:
                return self._folded(folded)
        key = (Extract, type, self._ops_key((agg, index)), ())
        return self._unify(key, lambda: Extract(self, type, agg, index))

    def _fold_extract(self, agg: Def, index: Def, type: Type) -> Def | None:
        if isinstance(agg, Bottom):
            if self._can_discard(index):
                return self.bottom(type)
            return None
        if isinstance(index, Literal):
            if isinstance(agg, (TupleVal, StructVal)):
                siblings = [op for i, op in enumerate(agg.ops)
                            if i != index.value]
                if self._can_discard(*siblings):
                    return agg.op(index.value)
                return None
            if isinstance(agg, ArrayVal):
                if index.value < agg.num_ops:
                    siblings = [op for i, op in enumerate(agg.ops)
                                if i != index.value]
                    if self._can_discard(*siblings):
                        return agg.op(index.value)
                    return None
                if self._can_discard(agg):
                    return self.bottom(type)
                return None
            if isinstance(agg, Insert) and isinstance(agg.index, Literal):
                if agg.index.value == index.value:
                    if self._can_discard(agg.agg):
                        return agg.value
                    return None
                if self._can_discard(agg.value):
                    return self.extract(agg.agg, index)
        return None

    def insert(self, agg: Def, index, value: Def) -> Def:
        from .types import I64

        if isinstance(index, int):
            index = self.literal(I64, index)
        elem = element_type_of(agg.type, index)
        assert value.type is elem, (
            f"insert type mismatch: {value.type} into slot of {elem}"
        )
        if self.folding:
            folded = self._fold_insert(agg, index, value)
            if folded is not None:
                return self._folded(folded)
        key = (Insert, agg.type, self._ops_key((agg, index, value)), ())
        return self._unify(key, lambda: Insert(self, agg, index, value))

    def _fold_insert(self, agg: Def, index: Def, value: Def) -> Def | None:
        if not isinstance(index, Literal):
            return None
        i = index.value
        if isinstance(agg, TupleVal):
            if not self._can_discard(agg.op(i)):
                return None
            elems = list(agg.ops)
            elems[i] = value
            return self.tuple_(elems)
        if isinstance(agg, StructVal):
            assert isinstance(agg.type, StructType)
            if not self._can_discard(agg.op(i)):
                return None
            fields = list(agg.ops)
            fields[i] = value
            return self.struct_val(agg.type, fields)
        if isinstance(agg, ArrayVal):
            assert isinstance(agg.type, DefiniteArrayType)
            if i < agg.num_ops:
                if not self._can_discard(agg.op(i)):
                    return None
                elems = list(agg.ops)
                elems[i] = value
                return self.definite_array(agg.type.elem_type, elems)
            if self._can_discard(agg, value):
                return self.bottom(agg.type)
            return None
        if isinstance(agg, Insert) and isinstance(agg.index, Literal):
            if agg.index.value == i and self._can_discard(agg.value):
                return self.insert(agg.agg, index, value)
        if isinstance(agg, Bottom) and isinstance(agg.type, DefiniteArrayType):
            # Building up a fresh array over bottom: keep as chained inserts.
            return None
        return None

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def enter(self, mem: Def) -> tuple[Def, Def]:
        """Open a stack frame; returns ``(mem, frame)``."""
        assert isinstance(mem.type, MemType)
        type = tuple_type((MEM, FRAME))
        key = (Enter, type, self._ops_key((mem,)), ())
        op = self._unify(key, lambda: Enter(self, type, mem))
        return self.extract(op, 0), self.extract(op, 1)

    def slot(self, pointee: Type, frame: Def, name: str = "") -> Def:
        assert isinstance(frame.type, FrameType)
        self._slot_id += 1
        slot_id = self._slot_id
        type = ptr_type(pointee)
        key = (Slot, type, self._ops_key((frame,)), (slot_id,))
        op = self._unify(key, lambda: Slot(self, type, frame, slot_id))
        if name:
            op.name = name
        return op

    def alloc(self, mem: Def, pointee: Type, extra: Def | None = None) -> tuple[Def, Def]:
        """Heap-allocate a cell of ``pointee``; returns ``(mem, ptr)``.

        For indefinite arrays, ``extra`` is the run-time element count.
        """
        from .types import I64

        if extra is None:
            extra = self.zero(I64)
        self._alloc_id += 1
        alloc_id = self._alloc_id
        type = tuple_type((MEM, ptr_type(pointee)))
        key = (Alloc, type, self._ops_key((mem, extra)), (alloc_id,))
        op = self._unify(key, lambda: Alloc(self, type, mem, extra, alloc_id))
        return self.extract(op, 0), self.extract(op, 1)

    def load(self, mem: Def, ptr: Def) -> tuple[Def, Def]:
        """Load through ``ptr``; returns ``(mem, value)``."""
        assert isinstance(ptr.type, PtrType), f"load through non-pointer {ptr.type}"
        pointee = ptr.type.pointee
        if self.folding:
            # Store-to-load forwarding through the very same memory token.
            if isinstance(mem, Store) and mem.ptr is ptr:
                self.stats.folds += 1
                return mem, mem.value
            if isinstance(ptr, Global) and not ptr.is_mutable:
                self.stats.folds += 1
                return mem, ptr.init
        type = tuple_type((MEM, pointee))
        key = (Load, type, self._ops_key((mem, ptr)), ())
        op = self._unify(key, lambda: Load(self, type, mem, ptr))
        return self.extract(op, 0), self.extract(op, 1)

    def store(self, mem: Def, ptr: Def, value: Def) -> Def:
        assert isinstance(ptr.type, PtrType), f"store through non-pointer {ptr.type}"
        assert ptr.type.pointee is value.type, (
            f"store type mismatch: {value.type} through {ptr.type}"
        )
        if self.folding:
            # Dead-store elimination through the same memory token.
            if (isinstance(mem, Store) and mem.ptr is ptr
                    and self._can_discard(mem.value)):
                return self.store(mem.mem, ptr, value)
        key = (Store, MEM, self._ops_key((mem, ptr, value)), ())
        return self._unify(key, lambda: Store(self, MEM, mem, ptr, value))

    def lea(self, ptr: Def, index) -> Def:
        from .types import I64

        if isinstance(index, int):
            index = self.literal(I64, index)
        assert isinstance(ptr.type, PtrType)
        pointee = element_type_of(ptr.type.pointee, index)
        type = ptr_type(pointee)
        key = (Lea, type, self._ops_key((ptr, index)), ())
        return self._unify(key, lambda: Lea(self, type, ptr, index))

    def global_(self, init: Def, is_mutable: bool = True, name: str = "") -> Def:
        self._global_id += 1
        global_id = self._global_id if is_mutable else 0
        type = ptr_type(init.type)
        key = (Global, type, self._ops_key((init,)), (is_mutable, global_id))
        op = self._unify(
            key, lambda: Global(self, type, init, is_mutable, global_id)
        )
        if name:
            # Immutable globals share global_id 0, so _unify may hand
            # back a pre-existing op; the rename must be undoable.
            if self._undo is not None:
                self._undo._on_rename(op)
            op.name = name
        return op

    # ------------------------------------------------------------------
    # partial-evaluation markers
    # ------------------------------------------------------------------

    def run(self, value: Def) -> Def:
        if isinstance(value, (Run, Hlt)):
            return value
        key = (Run, value.type, self._ops_key((value,)), ())
        return self._unify(key, lambda: Run(self, value))

    def hlt(self, value: Def) -> Def:
        if isinstance(value, Hlt):
            return value
        if isinstance(value, Run):
            value = value.value
        key = (Hlt, value.type, self._ops_key((value,)), ())
        return self._unify(key, lambda: Hlt(self, value))

    # ------------------------------------------------------------------
    # jump-level folding
    # ------------------------------------------------------------------

    def jump(self, cont: Continuation, callee: Def, args: Iterable[Def]) -> None:
        """Set ``cont``'s body to ``callee(args)``, folding trivial jumps."""
        cont.jump(*self.fold_jump(callee, tuple(args)))

    def fold_jump(self, callee: Def,
                  args: tuple[Def, ...]) -> tuple[Def, tuple[Def, ...]]:
        """The jump ``callee(args)`` with trivial jumps folded away.

        * a branch on a literal condition becomes a direct jump,
        * a branch whose arms coincide becomes a direct jump,
        * a jump to ``select(c, t, f)`` becomes a branch.
        """
        if self.folding:
            target = callee
            if isinstance(target, (Run, Hlt)):
                target = target.value
            if isinstance(target, Continuation) and target.intrinsic == Intrinsic.BRANCH:
                mem, cond, tgt_t, tgt_f = args
                if isinstance(cond, Literal):
                    dropped = tgt_f if cond.value else tgt_t
                    if self._can_discard(dropped):
                        self.stats.folds += 1
                        return self.fold_jump(tgt_t if cond.value else tgt_f, (mem,))
                elif tgt_t is tgt_f and self._can_discard(cond):
                    self.stats.folds += 1
                    return self.fold_jump(tgt_t, (mem,))
            if isinstance(callee, Select):
                # jump select(c, t, f)(args) == branch-like dispatch
                if isinstance(callee.cond, Literal):
                    dropped = callee.fval if callee.cond.value else callee.tval
                    if self._can_discard(dropped):
                        self.stats.folds += 1
                        picked = callee.tval if callee.cond.value else callee.fval
                        return self.fold_jump(picked, args)
        return callee, args

    def rebuild(self, op: PrimOp, new_ops: tuple[Def, ...]) -> Def:
        """Reconstruct *op* with new operands through the smart factories.

        This is the workhorse of the mangler and the generic rewriter:
        because reconstruction goes through the factory methods, folding
        re-fires with the substituted operands — specialization power
        comes from exactly this.
        """
        if isinstance(op, Literal) or isinstance(op, Bottom):
            return op
        if isinstance(op, ArithOp):
            return self.arithop(op.kind, *new_ops)
        if isinstance(op, Cmp):
            return self.cmp(op.rel, *new_ops)
        from .primops import MathOp

        if isinstance(op, MathOp):
            return self.mathop(op.kind, *new_ops)
        if isinstance(op, Cast):
            return self.cast(op.type, *new_ops)
        if isinstance(op, Bitcast):
            return self.bitcast(op.type, *new_ops)
        if isinstance(op, Select):
            return self.select(*new_ops)
        if isinstance(op, TupleVal):
            return self.tuple_(new_ops)
        if isinstance(op, ArrayVal):
            assert isinstance(op.type, DefiniteArrayType)
            return self.definite_array(op.type.elem_type, new_ops)
        if isinstance(op, StructVal):
            assert isinstance(op.type, StructType)
            return self.struct_val(op.type, new_ops)
        if isinstance(op, Extract):
            return self.extract(*new_ops)
        if isinstance(op, Insert):
            return self.insert(*new_ops)
        if isinstance(op, Enter):
            key = (Enter, op.type, self._ops_key(new_ops), ())
            return self._unify(key, lambda: Enter(self, op.type, *new_ops))  # type: ignore[arg-type]
        if isinstance(op, Slot):
            key = (Slot, op.type, self._ops_key(new_ops), (op.slot_id,))
            return self._unify(
                key, lambda: Slot(self, op.type, new_ops[0], op.slot_id)  # type: ignore[arg-type]
            )
        if isinstance(op, Alloc):
            key = (Alloc, op.type, self._ops_key(new_ops), (op.alloc_id,))
            return self._unify(
                key,
                lambda: Alloc(self, op.type, new_ops[0], new_ops[1], op.alloc_id),  # type: ignore[arg-type]
            )
        if isinstance(op, Load):
            mem, value = self.load(*new_ops)
            return self._reassemble_pair(op, mem, value, new_ops[1])
        if isinstance(op, Store):
            return self.store(*new_ops)
        if isinstance(op, Lea):
            return self.lea(*new_ops)
        if isinstance(op, Global):
            key = (Global, op.type, self._ops_key(new_ops), (op.is_mutable, op.global_id))
            return self._unify(
                key,
                lambda: Global(self, op.type, new_ops[0], op.is_mutable, op.global_id),  # type: ignore[arg-type]
            )
        if isinstance(op, Run):
            return self.run(*new_ops)
        if isinstance(op, Hlt):
            return self.hlt(*new_ops)
        raise AssertionError(f"rebuild: unhandled primop {type(op).__name__}")

    def _reassemble_pair(self, op: PrimOp, mem: Def, value: Def,
                         ptr: Def) -> Def:
        """Pack a folded (mem, value) result back into a tuple-typed def.

        ``rebuild`` must return something of ``op.type``; when a load was
        folded away we re-tuple the components (extracts of this tuple
        fold right back to the components).  That dissolution is only
        guaranteed when both halves are discardable siblings — a
        trapping store value blocks the extract folds and would leave a
        mem token stranded inside a live tuple, which no backend can
        express.  In that case rebuild the raw load instead; it is
        merely unfolded, not wrong.
        """
        if isinstance(mem, Extract) and isinstance(value, Extract) \
                and mem.agg is value.agg:
            return mem.agg
        if self._can_discard(mem) and self._can_discard(value):
            return self.tuple_((mem, value))
        key = (Load, op.type, self._ops_key((mem, ptr)), ())
        return self._unify(key, lambda: Load(self, op.type, mem, ptr))
