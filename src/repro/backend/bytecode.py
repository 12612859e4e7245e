"""The register bytecode and its virtual machine.

This is the "hardware" of the reproduction: both the Thorin pipeline
(:mod:`repro.backend.codegen`) and the classical SSA baseline
(:mod:`repro.baselines.ssa`) lower to this machine, so run-time
comparisons (experiment F1/F2) measure the *code* both compilers
produce, not two different interpreters.

Machine model:

* a frame of registers per activation; explicit call stack (Python's
  stack is not involved, so deep CPS-shaped call chains are fine);
* word-oriented flat memory: every scalar occupies one word; aggregates
  are laid out contiguously (see :func:`word_size`); pointers are word
  indices; aggregate *register values* are flat Python lists of words;
* scalar arithmetic uses precompiled per-(op, type) functions generated
  from :mod:`repro.core.fold`, so the machine cannot disagree with the
  constant folder (property-tested);
* allocation is bump-only (no GC, no free) — sufficient for the
  benchmark suite and documented in DESIGN.md.

Instructions are tuples ``(opcode, ...)``; the dispatch loop is a plain
``if/elif`` chain ordered by dynamic frequency.  ``VM.executed`` counts
retired instructions — the architecture-neutral "cycles" metric used in
the experiments alongside wall-clock time.

Dispatch acceleration: each :class:`VMFunction` lazily derives a
*fused* twin of its code array (:meth:`VMFunction.fused`) in which hot
adjacent pairs — compare-and-branch, address-and-access, back-to-back
arithmetic, move-and-jump — are collapsed into superinstructions, each
retiring *two* source instructions per dispatch.  Fusion is purely a
dispatch-count optimization and is transparent by construction: pc
numbering is unchanged (the second instruction of a fused pair stays in
place, so it remains a valid jump target), every intermediate register
the pair wrote is still written, and ``VM.executed`` still counts
retired *source* instructions.  The one dispatch loop runs the fused
stream; the disassembly (``VMFunction.sites``, serve artifacts, PGO
site labels) stays on the source stream, whose pcs are the stable
names everything else refers to.

Profiling (experiment F4): ``VM(program, profile=collector)`` makes the
same loop also count function entries, call-site executions and taken
control-flow edges (from which loop back-edge frequencies are derived).
The collector is duck-typed — any object with ``entries``/``calls``/
``edges`` mappings that support ``+= 1`` works;
:class:`repro.profile.collector.ProfileCollector` is the canonical one.
Counting happens only at control transfers, behind the same test that
guards the step budget, so straight-line dispatch is untouched.  Every
key is a *source* pc: a fused ``arith.br`` or ``mov.jmp`` at pc ``p``
records its edge from ``p + 1``, the branch it absorbed, so a profile
is the same whichever stream ran.  The instruction stream itself
carries only inert site metadata (:attr:`VMFunction.sites`).
"""

from __future__ import annotations

from ..core import fold
from ..core.limits import ResourceLimitError
from ..core.primops import ArithKind, CmpRel, MathKind
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

# --------------------------------------------------------------------------
# opcodes
# --------------------------------------------------------------------------

(
    OP_CONST,
    OP_MOV,
    OP_ARITH,
    OP_UNOP,
    OP_SELECT,
    OP_TUPLE,
    OP_EXTRACT,
    OP_EXTRACT_DYN,
    OP_INSERT,
    OP_INSERT_DYN,
    OP_LOAD,
    OP_LOAD_AGG,
    OP_STORE,
    OP_STORE_AGG,
    OP_LEA,
    OP_LEA_CONST,
    OP_ALLOC,
    OP_JMP,
    OP_BR,
    OP_MATCH,
    OP_CALL,
    OP_TAILCALL,
    OP_RET,
    OP_PRINT_I64,
    OP_PRINT_F64,
    OP_PRINT_CHAR,
    OP_TRAP,
    # -- superinstructions: appear only in fused streams, never in
    # VMFunction.code (codegen does not emit them).
    OP_ARITH_BR,
    OP_ARITH_ARITH,
    OP_LEA_LOAD,
    OP_LEA_STORE,
    OP_LEA_CONST_LOAD,
    OP_LEA_CONST_STORE,
    OP_MOV_JMP,
) = range(34)

OPCODE_NAMES = {
    OP_CONST: "const", OP_MOV: "mov", OP_ARITH: "arith", OP_UNOP: "unop",
    OP_SELECT: "select", OP_TUPLE: "tuple", OP_EXTRACT: "extract",
    OP_EXTRACT_DYN: "extract.dyn", OP_INSERT: "insert",
    OP_INSERT_DYN: "insert.dyn", OP_LOAD: "load", OP_LOAD_AGG: "load.agg",
    OP_STORE: "store", OP_STORE_AGG: "store.agg", OP_LEA: "lea",
    OP_LEA_CONST: "lea.const", OP_ALLOC: "alloc", OP_JMP: "jmp",
    OP_BR: "br", OP_MATCH: "match", OP_CALL: "call",
    OP_TAILCALL: "tailcall", OP_RET: "ret", OP_PRINT_I64: "print.i64",
    OP_PRINT_F64: "print.f64", OP_PRINT_CHAR: "print.char", OP_TRAP: "trap",
    OP_ARITH_BR: "arith.br", OP_ARITH_ARITH: "arith.arith",
    OP_LEA_LOAD: "lea.load", OP_LEA_STORE: "lea.store",
    OP_LEA_CONST_LOAD: "lea.const.load",
    OP_LEA_CONST_STORE: "lea.const.store", OP_MOV_JMP: "mov.jmp",
}


class VMError(Exception):
    """A runtime trap (division by zero, undef branch, OOB access)."""


class VMLimitError(VMError, ResourceLimitError):
    """A VM resource limit was hit (heap words, or executed steps).

    Both a :class:`VMError` (existing handlers keep working) and a
    :class:`~repro.core.limits.ResourceLimitError` (oracles normalize
    the whole family to a trap).
    """

    def __init__(self, resource: str, limit: int):
        ResourceLimitError.__init__(self, resource, limit, "vm")


# --------------------------------------------------------------------------
# precompiled scalar operations
# --------------------------------------------------------------------------

_M8 = (1 << 8) - 1
_M16 = (1 << 16) - 1
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_MASKS = {8: _M8, 16: _M16, 32: _M32, 64: _M64}


def _fast_int_fn(kind: ArithKind, width: int, signed: bool):
    """Hand-specialized fast paths for the hot integer operations."""
    mask = _MASKS[width]
    if kind is ArithKind.ADD:
        return lambda a, b: (a + b) & mask
    if kind is ArithKind.SUB:
        return lambda a, b: (a - b) & mask
    if kind is ArithKind.MUL:
        return lambda a, b: (a * b) & mask
    if kind is ArithKind.AND:
        return lambda a, b: a & b
    if kind is ArithKind.OR:
        return lambda a, b: a | b
    if kind is ArithKind.XOR:
        return lambda a, b: a ^ b
    return None


def arith_fn(kind: ArithKind, prim: PrimType):
    """A compiled ``(a, b) -> result`` for canonical operand values."""
    if prim.is_int:
        fast = _fast_int_fn(kind, prim.bitwidth, prim.is_signed)
        if fast is not None:
            return fast

    def slow(a, b, _kind=kind, _prim=prim):
        try:
            return fold.arith(_kind, _prim, a, b)
        except fold.EvalError as exc:
            raise VMError(str(exc)) from None

    return slow


def cmp_fn(rel: CmpRel, prim: PrimType):
    if prim.is_int and not prim.is_signed or prim.is_bool:
        if rel is CmpRel.EQ:
            return lambda a, b: a == b
        if rel is CmpRel.NE:
            return lambda a, b: a != b
        if rel is CmpRel.LT:
            return lambda a, b: a < b
        if rel is CmpRel.LE:
            return lambda a, b: a <= b
        if rel is CmpRel.GT:
            return lambda a, b: a > b
        if rel is CmpRel.GE:
            return lambda a, b: a >= b
    if prim.is_signed:
        width = prim.bitwidth
        half = 1 << (width - 1)
        full = 1 << width

        def signed(a, b, _rel=rel, _half=half, _full=full):
            if a >= _half:
                a -= _full
            if b >= _half:
                b -= _full
            if _rel is CmpRel.LT:
                return a < b
            if _rel is CmpRel.LE:
                return a <= b
            if _rel is CmpRel.GT:
                return a > b
            if _rel is CmpRel.GE:
                return a >= b
            if _rel is CmpRel.EQ:
                return a == b
            return a != b

        return signed
    return lambda a, b, _rel=rel, _prim=prim: fold.compare(_rel, _prim, a, b)


def cast_fn(to: PrimType, frm: PrimType):
    return lambda v, _to=to, _frm=frm: fold.cast(_to, _frm, v)


def bitcast_fn(to: PrimType, frm: PrimType):
    return lambda v, _to=to, _frm=frm: fold.bitcast(_to, _frm, v)


def math_fn(kind: MathKind, prim: PrimType):
    return lambda v, _kind=kind, _prim=prim: fold.math_op(_kind, _prim, v)


# --------------------------------------------------------------------------
# type layout
# --------------------------------------------------------------------------

_SIZE_CACHE: dict[Type, int] = {}


def word_size(t: Type) -> int:
    """Number of machine words a value of type *t* occupies."""
    cached = _SIZE_CACHE.get(t)
    if cached is not None:
        return cached
    if isinstance(t, (PrimType, PtrType, FnType, MemType)):
        size = 1
    elif isinstance(t, (TupleType, StructType)):
        size = sum(word_size(e) for e in t.elements)
    elif isinstance(t, DefiniteArrayType):
        size = t.length * word_size(t.elem_type)
    elif isinstance(t, IndefiniteArrayType):
        size = word_size(t.elem_type)  # per-element; count is dynamic
    else:
        raise VMError(f"type {t} has no layout")
    _SIZE_CACHE[t] = size
    return size


def field_offset(agg: Type, index: int) -> int:
    """Word offset of component *index* in an aggregate type."""
    if isinstance(agg, (TupleType, StructType)):
        return sum(word_size(e) for e in agg.elements[:index])
    if isinstance(agg, (DefiniteArrayType, IndefiniteArrayType)):
        return index * word_size(agg.elem_type)
    raise VMError(f"cannot index {agg}")


# --------------------------------------------------------------------------
# program representation
# --------------------------------------------------------------------------


def _operand_repr(operand) -> str:
    """Deterministic operand rendering for disassembly listings.

    Arith/cmp instructions embed the folding callable itself; its
    default repr carries a memory address, which would make the
    disassembly differ run to run.  Render callables by qualified name
    so the listing is a stable, content-addressable artifact.
    """
    if callable(operand) and not isinstance(operand, type):
        name = getattr(operand, "__qualname__", None)
        if name:
            return f"<fn {name}>"
    return repr(operand)


def fuse_code(code: list[tuple]) -> list[tuple]:
    """Derive the fused dispatch stream for one code array.

    Adjacent pairs are collapsed into a superinstruction placed at the
    *first* pc; the second instruction is left in place, so every
    source pc remains a valid jump/resume target (a jump into the
    middle of a pair simply executes the original second instruction).
    Fall-through from a fused pc skips it with ``pc += 2``.  Handlers
    execute both halves in order and write every register the pair
    wrote, so no liveness analysis is needed — fusion can never change
    observable state, only the number of dispatches.  They count the
    first half retired before the second runs, so a trap in either half
    leaves ``VM.executed`` where the source stream leaves it.
    """
    fused = list(code)
    pc, last = 0, len(code) - 1
    while pc < last:
        a, b = code[pc], code[pc + 1]
        op_a, op_b = a[0], b[0]
        if op_a == OP_ARITH:
            if op_b == OP_BR and b[1] == a[1]:
                # cmp + branch-on-result: the loop exit test.
                fused[pc] = (OP_ARITH_BR, a[1], a[2], a[3], a[4],
                             b[2], b[3])
                pc += 2
                continue
            if op_b == OP_ARITH:
                fused[pc] = (OP_ARITH_ARITH, a[1], a[2], a[3], a[4],
                             b[1], b[2], b[3], b[4])
                pc += 2
                continue
        elif op_a == OP_LEA:
            if op_b == OP_LOAD and b[2] == a[1]:
                fused[pc] = (OP_LEA_LOAD, a[1], a[2], a[3], a[4], b[1])
                pc += 2
                continue
            if op_b == OP_STORE and b[1] == a[1]:
                fused[pc] = (OP_LEA_STORE, a[1], a[2], a[3], a[4], b[2])
                pc += 2
                continue
        elif op_a == OP_LEA_CONST:
            if op_b == OP_LOAD and b[2] == a[1]:
                fused[pc] = (OP_LEA_CONST_LOAD, a[1], a[2], a[3], b[1])
                pc += 2
                continue
            if op_b == OP_STORE and b[1] == a[1]:
                fused[pc] = (OP_LEA_CONST_STORE, a[1], a[2], a[3], b[2])
                pc += 2
                continue
        elif op_a == OP_MOV and op_b == OP_JMP:
            # block-argument copy + edge: the unconditional loop latch.
            fused[pc] = (OP_MOV_JMP, a[1], a[2], b[1])
            pc += 2
            continue
        pc += 1
    return fused


class VMFunction:
    """One compiled function: flat code array, block starts resolved."""

    def __init__(self, name: str, num_params: int, num_results: int):
        self.name = name
        self.num_params = num_params
        self.num_results = num_results
        self.num_regs = num_params
        self.code: list[tuple] = []
        self._fused: list[tuple] | None = None
        # Site metadata for PGO (experiment F4): stable labels mapping VM
        # locations back to Thorin continuations.  ``entry`` is the source
        # continuation's unique name; ``blocks`` maps block-start pcs to
        # basic-block unique names.  Inert during execution.
        self.sites: dict = {"entry": None, "blocks": {}}

    def new_reg(self) -> int:
        reg = self.num_regs
        self.num_regs += 1
        return reg

    def emit(self, *instr) -> int:
        self._fused = None
        self.code.append(tuple(instr))
        return len(self.code) - 1

    def patch(self, index: int, *instr) -> None:
        self._fused = None
        self.code[index] = tuple(instr)

    def fused(self) -> list[tuple]:
        """The per-function superinstruction stream (built on demand)."""
        if self._fused is None:
            self._fused = fuse_code(self.code)
        return self._fused

    def disassemble(self, *, fused: bool = False) -> str:
        lines = []
        for pc, instr in enumerate(self.fused() if fused else self.code):
            op = OPCODE_NAMES.get(instr[0], str(instr[0]))
            rest = " ".join(_operand_repr(x) for x in instr[1:])
            lines.append(f"  {pc:4d}: {op} {rest}")
        return f"fn {self.name}/{self.num_params} regs={self.num_regs}\n" + \
            "\n".join(lines)


class VMProgram:
    """A linked set of functions plus entry points by name."""

    def __init__(self) -> None:
        self.functions: list[VMFunction] = []
        self.by_name: dict[str, int] = {}
        # Initial heap contents beyond the reserved null word (globals).
        self.data: list = []

    def add(self, fn: VMFunction) -> int:
        index = len(self.functions)
        self.functions.append(fn)
        self.by_name[fn.name] = index
        return index

    def function(self, name: str) -> VMFunction:
        return self.functions[self.by_name[name]]

    def disassemble(self) -> str:
        return "\n\n".join(f.disassemble() for f in self.functions)

    # Convenience: run an entry point on a fresh VM.
    def call(self, name: str, *args, vm: "VM | None" = None):
        vm = vm if vm is not None else VM(self)
        return vm.call(self, name, *args)


# --------------------------------------------------------------------------
# the machine
# --------------------------------------------------------------------------


class VM:
    """Executes :class:`VMProgram` code."""

    def __init__(self, program: "VMProgram | None" = None, *,
                 heap_limit: int = 64_000_000, max_steps: int | None = None,
                 profile=None):
        # Word 0 is reserved (null); globals follow.
        self.heap: list = [0]
        if program is not None:
            self.heap.extend(program.data)
        self.heap_limit = heap_limit
        # Optional per-``call`` instruction budget.  Checked only at
        # control-flow opcodes (every runaway loop passes through one),
        # so straight-line dispatch stays untouched.
        self.max_steps = max_steps
        self.output: list[str] = []
        self.executed = 0
        # Optional profile collector (see module docstring), filled at
        # control transfers by the one dispatch loop.
        self.profile = profile

    def output_text(self) -> str:
        return "".join(self.output)

    def reset(self, program: VMProgram) -> None:
        """Back to *program*'s initial heap (the null word, then its
        globals) with no output: the next call sees nothing an earlier
        one allocated or printed."""
        self.heap = [0, *program.data]
        self.output = []

    def alloc_words(self, count: int):
        if len(self.heap) + count > self.heap_limit:
            raise VMLimitError("heap", self.heap_limit)
        addr = len(self.heap)
        self.heap.extend([0] * count)
        return addr

    # ------------------------------------------------------------------

    def call(self, program: VMProgram, name: str, *args):
        """Run function *name*; returns its result words (or scalar)."""
        findex = program.by_name[name]
        fn = program.functions[findex]
        if len(args) != fn.num_params:
            raise VMError(
                f"{name} expects {fn.num_params} arguments, got {len(args)}"
            )
        results = self._run(program, findex, list(args))
        if fn.num_results == 0:
            return None
        if fn.num_results == 1:
            return results[0]
        return tuple(results)

    def _run(self, program: VMProgram, findex: int, args: list) -> list:
        functions = program.functions
        fn = functions[findex]
        regs: list = list(args) + [None] * (fn.num_regs - fn.num_params)
        code = fn.fused()
        pc = 0
        heap = self.heap
        # call stack: (findex, code, regs, pc_to_resume, ret_dsts)
        stack: list[tuple] = []
        executed = 0
        limit = self.max_steps
        profile = self.profile
        # The one test a control transfer pays besides transferring:
        # a step budget to check or a profile to count into.  Those
        # handlers end in ``continue``, straight back to dispatch rather
        # than through the end of the chain; the jump saved pays for it.
        watched = limit is not None or profile is not None
        if profile is not None:
            entries, calls, edges = (profile.entries, profile.calls,
                                     profile.edges)
            entries[findex] += 1
        try:
            while True:
                instr = code[pc]
                executed += 1
                op = instr[0]
                if op == OP_ARITH:
                    _, dst, f, a, b = instr
                    regs[dst] = f(regs[a], regs[b])
                    pc += 1
                elif op == OP_ARITH_BR:
                    _, dst, f, a, b, pc_t, pc_f = instr
                    value = regs[dst] = f(regs[a], regs[b])
                    executed += 1  # retires arith + br
                    if value is None:
                        raise VMError("branch on undef")
                    if watched:
                        if profile is not None:  # the br sits at pc + 1
                            edges[(findex, pc + 1,
                                   pc_t if value else pc_f)] += 1
                        if limit is not None and executed > limit:
                            raise VMLimitError("steps", limit)
                    pc = pc_t if value else pc_f
                    continue
                elif op == OP_ARITH_ARITH:
                    _, d1, f1, a1, b1, d2, f2, a2, b2 = instr
                    regs[d1] = f1(regs[a1], regs[b1])
                    executed += 1
                    regs[d2] = f2(regs[a2], regs[b2])
                    pc += 2
                elif op == OP_BR:
                    _, cond, pc_t, pc_f = instr
                    value = regs[cond]
                    if value is None:
                        raise VMError("branch on undef")
                    if watched:
                        if profile is not None:
                            edges[(findex, pc, pc_t if value else pc_f)] += 1
                        if limit is not None and executed > limit:
                            raise VMLimitError("steps", limit)
                    pc = pc_t if value else pc_f
                    continue
                elif op == OP_JMP:
                    if watched:
                        if profile is not None:
                            edges[(findex, pc, instr[1])] += 1
                        if limit is not None and executed > limit:
                            raise VMLimitError("steps", limit)
                    pc = instr[1]
                    continue
                elif op == OP_MOV_JMP:
                    regs[instr[1]] = regs[instr[2]]
                    executed += 1  # retires mov + jmp
                    if watched:
                        if profile is not None:  # the jmp sits at pc + 1
                            edges[(findex, pc + 1, instr[3])] += 1
                        if limit is not None and executed > limit:
                            raise VMLimitError("steps", limit)
                    pc = instr[3]
                    continue
                elif op == OP_MOV:
                    regs[instr[1]] = regs[instr[2]]
                    pc += 1
                elif op == OP_CONST:
                    regs[instr[1]] = instr[2]
                    pc += 1
                elif op == OP_LOAD:
                    _, dst, addr = instr
                    regs[dst] = heap[regs[addr]]
                    pc += 1
                elif op == OP_STORE:
                    _, addr, src = instr
                    heap[regs[addr]] = regs[src]
                    pc += 1
                elif op == OP_LEA_LOAD:
                    _, lea_dst, base, index, scale, dst = instr
                    regs[lea_dst] = addr = regs[base] + regs[index] * scale
                    executed += 1
                    regs[dst] = heap[addr]
                    pc += 2
                elif op == OP_LEA_STORE:
                    _, lea_dst, base, index, scale, src = instr
                    regs[lea_dst] = addr = regs[base] + regs[index] * scale
                    executed += 1
                    heap[addr] = regs[src]
                    pc += 2
                elif op == OP_LEA_CONST_LOAD:
                    _, lea_dst, base, offset, dst = instr
                    regs[lea_dst] = addr = regs[base] + offset
                    executed += 1
                    regs[dst] = heap[addr]
                    pc += 2
                elif op == OP_LEA_CONST_STORE:
                    _, lea_dst, base, offset, src = instr
                    regs[lea_dst] = addr = regs[base] + offset
                    executed += 1
                    heap[addr] = regs[src]
                    pc += 2
                elif op == OP_LEA:
                    _, dst, base, index, scale = instr
                    regs[dst] = regs[base] + regs[index] * scale
                    pc += 1
                elif op == OP_LEA_CONST:
                    _, dst, base, offset = instr
                    regs[dst] = regs[base] + offset
                    pc += 1
                elif op == OP_UNOP:
                    _, dst, f, a = instr
                    regs[dst] = f(regs[a])
                    pc += 1
                elif op == OP_SELECT:
                    _, dst, cond, a, b = instr
                    value = regs[cond]
                    if value is None:
                        raise VMError("select on undef")
                    regs[dst] = regs[a] if value else regs[b]
                    pc += 1
                elif op == OP_CALL:
                    _, target, arg_regs, ret_dsts = instr
                    callee = functions[target]
                    new_regs = [None] * callee.num_regs
                    for i, r in enumerate(arg_regs):
                        new_regs[i] = regs[r]
                    stack.append((findex, code, regs, pc + 1, ret_dsts))
                    if watched:
                        if profile is not None:
                            calls[(findex, pc)] += 1
                            entries[target] += 1
                        if limit is not None and executed > limit:
                            raise VMLimitError("steps", limit)
                    findex = target
                    code = callee.fused()
                    regs = new_regs
                    pc = 0
                    continue
                elif op == OP_TAILCALL:
                    _, target, arg_regs = instr
                    callee = functions[target]
                    new_regs = [None] * callee.num_regs
                    for i, r in enumerate(arg_regs):
                        new_regs[i] = regs[r]
                    if watched:
                        if profile is not None:
                            calls[(findex, pc)] += 1
                            entries[target] += 1
                        if limit is not None and executed > limit:
                            raise VMLimitError("steps", limit)
                    findex = target
                    code = callee.fused()
                    regs = new_regs
                    pc = 0
                    continue
                elif op == OP_RET:
                    values = [regs[r] for r in instr[1]]
                    if not stack:
                        return values
                    findex, code, regs, pc, ret_dsts = stack.pop()
                    for dst, value in zip(ret_dsts, values):
                        regs[dst] = value
                elif op == OP_TUPLE:
                    _, dst, parts = instr
                    out: list = []
                    for r, size in parts:
                        value = regs[r]
                        if size == 1 and type(value) is not list:
                            out.append(value)
                        else:
                            out.extend(value)
                    regs[dst] = out
                    pc += 1
                elif op == OP_EXTRACT:
                    _, dst, src, offset, size = instr
                    agg = regs[src]
                    if size == 1:
                        regs[dst] = agg[offset]
                    else:
                        regs[dst] = agg[offset:offset + size]
                    pc += 1
                elif op == OP_EXTRACT_DYN:
                    _, dst, src, index, scale, size = instr
                    agg = regs[src]
                    offset = regs[index] * scale
                    if offset < 0 or offset + size > len(agg):
                        raise VMError("aggregate index out of bounds")
                    if size == 1:
                        regs[dst] = agg[offset]
                    else:
                        regs[dst] = agg[offset:offset + size]
                    pc += 1
                elif op == OP_INSERT:
                    _, dst, src, offset, size, value_reg = instr
                    agg = list(regs[src])
                    value = regs[value_reg]
                    if size == 1 and type(value) is not list:
                        agg[offset] = value
                    else:
                        agg[offset:offset + size] = value
                    regs[dst] = agg
                    pc += 1
                elif op == OP_INSERT_DYN:
                    _, dst, src, index, scale, size, value_reg = instr
                    agg = list(regs[src])
                    offset = regs[index] * scale
                    if offset < 0 or offset + size > len(agg):
                        raise VMError("aggregate index out of bounds")
                    value = regs[value_reg]
                    if size == 1 and type(value) is not list:
                        agg[offset] = value
                    else:
                        agg[offset:offset + size] = value
                    regs[dst] = agg
                    pc += 1
                elif op == OP_LOAD_AGG:
                    _, dst, addr, size = instr
                    base = regs[addr]
                    regs[dst] = heap[base:base + size]
                    pc += 1
                elif op == OP_STORE_AGG:
                    _, addr, src, size = instr
                    base = regs[addr]
                    value = regs[src]
                    if type(value) is not list:
                        heap[base] = value
                    else:
                        heap[base:base + size] = value
                    pc += 1
                elif op == OP_ALLOC:
                    _, dst, count_reg, elem_size, fixed = instr
                    if count_reg is None:
                        words = fixed
                    else:
                        words = regs[count_reg] * elem_size + fixed
                    regs[dst] = self.alloc_words(words)
                    heap = self.heap
                    pc += 1
                elif op == OP_MATCH:
                    _, value_reg, table, default_pc = instr
                    taken = table.get(regs[value_reg], default_pc)
                    if watched:
                        if profile is not None:
                            edges[(findex, pc, taken)] += 1
                        if limit is not None and executed > limit:
                            raise VMLimitError("steps", limit)
                    pc = taken
                    continue
                elif op == OP_PRINT_I64:
                    self.output.append(str(fold.to_signed(regs[instr[1]], 64)))
                    pc += 1
                elif op == OP_PRINT_F64:
                    self.output.append(repr(regs[instr[1]]))
                    pc += 1
                elif op == OP_PRINT_CHAR:
                    self.output.append(chr(regs[instr[1]]))
                    pc += 1
                elif op == OP_TRAP:
                    raise VMError(instr[1])
                else:  # pragma: no cover
                    raise VMError(f"bad opcode {op}")
        except IndexError:
            raise VMError("memory access out of bounds") from None
        except TypeError:
            raise VMError("operation on undef value") from None
        finally:
            self.executed += executed
