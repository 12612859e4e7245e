"""The native runtime preamble and the hardened C emitter.

:data:`RUNTIME_H` is the ``repro_rt.h``-style header prepended to every
native translation unit.  It supplies everything the plain C emission
lacks to *run* with the IR's semantics:

* **traps** — a ``setjmp``-based abort channel.  Guarded division
  helpers report division by zero as a structured trap code instead of
  a SIGFPE, and ``INT_MIN / -1`` wraps (two's complement) exactly like
  :func:`repro.core.fold._int_arith`.  Shift helpers mask the amount by
  ``width - 1`` and use arithmetic shift for signed ``>>``.
* **fuel** — a step budget decremented at every function and block
  entry.  A miscompile that manufactures an infinite loop surfaces as a
  ``step-limit`` trap (mirroring the VM's ``max_steps``) instead of
  hanging the host process, which matters because the loader runs the
  code *in-process* where no deadline can interrupt it.
* **a run heap** — every ``Alloc`` takes a zeroed block from
  ``repro_alloc``, which chains it to the run's heap; each entry
  wrapper frees the previous run's chain first, trapped runs
  included, so a process that serves many runs holds one run's heap,
  not all of them.  A count that is negative or cannot be represented,
  or a failed ``calloc``, traps ``oom`` (like the print buffer): a run
  never goes on with a null buffer.
* **print capture** — ``print_i64/f64/char`` append to a growable
  buffer rather than stdout, so the loader can return the print stream
  byte-for-byte.  The float formatter reproduces CPython's ``repr``
  (shortest round-tripping digits, fixed notation for ``-4 <= exp10 <
  16``, trailing ``.0`` on integral values) because that is what the
  VM's ``PRINT_F64`` emits.
* **a fixed entry ABI** — for every function with an all-scalar
  signature the emitter appends an ``extern`` wrapper::

      int32_t repro_run_<name>(const int64_t *argv, int64_t *out);

  Arguments and the result travel as i64 bit patterns (floats bitcast
  via ``memcpy``); the return value is ``0`` or a trap code.

:class:`NativeEmitter` subclasses the plain
:class:`~repro.backend.c_emitter.CEmitter`, overriding only the
documented hook surface; the control-flow and scheduling logic is
shared with the human-readable emission.
"""

from __future__ import annotations

import math

from ..backend.c_emitter import CEmitter, c_type, _is_mem
from ..core.defs import Continuation, Def, Intrinsic
from ..core.primops import ArithKind, ArithOp, Bitcast, Cast, peel_markers
from ..core.types import FnType, PrimType
from ..core.world import World

#: Trap codes returned by the entry wrappers; keep in sync with the
#: enum in RUNTIME_H and TRAP_KINDS in loader.py.
TRAP_OK = 0
TRAP_DIV = 1
TRAP_FUEL = 2
TRAP_OOM = 3

RUNTIME_H = r"""/* repro_rt: runtime preamble for native execution (see DESIGN.md 4f) */
#include <stdint.h>
#include <stddef.h>
#include <stdbool.h>
#include <stdlib.h>
#include <string.h>
#include <stdio.h>
#include <setjmp.h>
#include <math.h>

/* flat aggregate-by-value fallback */
typedef struct { int64_t w[8]; } word_block;

enum {
    REPRO_TRAP_DIV  = 1,  /* integer division by zero */
    REPRO_TRAP_FUEL = 2,  /* block-entry budget exhausted (step-limit) */
    REPRO_TRAP_OOM  = 3   /* heap or print buffer allocation failed */
};

/* One block of the run heap: a header, then the caller's bytes. */
typedef union repro_block {
    union repro_block *next;
    max_align_t align;
} repro_block;

static struct {
    jmp_buf jb;
    int32_t trap;
    int64_t fuel;
    char   *out;
    size_t  out_len;
    size_t  out_cap;
    repro_block *heap;   /* this run's allocations, newest first */
} repro_rt = { .fuel = INT64_MAX };

static void repro_trap(int32_t code) {
    repro_rt.trap = code;
    longjmp(repro_rt.jb, 1);
}

#define REPRO_FUEL() \
    do { if (--repro_rt.fuel < 0) repro_trap(REPRO_TRAP_FUEL); } while (0)

/* -- the run heap ----------------------------------------------------- */

/* Every Alloc of a run, zeroed.  A count that is negative or too large
   to represent, or a failed calloc, traps oom: the run never goes on
   with a null buffer. */
static void *repro_alloc(int64_t count, size_t size) {
    if (count < 0
        || (uint64_t)count > (SIZE_MAX - sizeof(repro_block)) / size)
        repro_trap(REPRO_TRAP_OOM);
    repro_block *block =
        (repro_block *)calloc(1, sizeof(repro_block) + (size_t)count * size);
    if (!block) repro_trap(REPRO_TRAP_OOM);
    block->next = repro_rt.heap;
    repro_rt.heap = block;
    return block + 1;
}

/* Free the previous run's heap; every entry wrapper calls this first,
   so a trapped run's blocks go too. */
static void repro_heap_release(void) {
    while (repro_rt.heap) {
        repro_block *next = repro_rt.heap->next;
        free(repro_rt.heap);
        repro_rt.heap = next;
    }
}

/* -- print capture ---------------------------------------------------- */

static void repro_out_write(const char *data, size_t n) {
    if (repro_rt.out_len + n > repro_rt.out_cap) {
        size_t cap = repro_rt.out_cap ? repro_rt.out_cap : 256;
        while (cap < repro_rt.out_len + n) cap *= 2;
        char *grown = (char *)realloc(repro_rt.out, cap);
        if (!grown) repro_trap(REPRO_TRAP_OOM);
        repro_rt.out = grown;
        repro_rt.out_cap = cap;
    }
    memcpy(repro_rt.out + repro_rt.out_len, data, n);
    repro_rt.out_len += n;
}

static void repro_print_i64(int64_t v) {
    char buf[32];
    int n = snprintf(buf, sizeof buf, "%lld", (long long)v);
    repro_out_write(buf, (size_t)n);
}

/* CPython repr(float): shortest digit string that round-trips, fixed
   notation iff -4 <= exp10 < 16, integral values keep a ".0". */
static void repro_print_f64(double v) {
    char buf[64];
    if (isnan(v)) {
        repro_out_write("nan", 3);
        return;
    }
    if (isinf(v)) {
        if (v < 0) repro_out_write("-inf", 4);
        else repro_out_write("inf", 3);
        return;
    }
    int prec = 17;
    for (int p = 1; p <= 17; p++) {
        snprintf(buf, sizeof buf, "%.*e", p - 1, v);
        if (strtod(buf, NULL) == v) { prec = p; break; }
    }
    /* buf now holds "d.ddd...e(+|-)XX" with prec significant digits */
    const char *e = strchr(buf, 'e');
    int exp10 = (int)strtol(e + 1, NULL, 10);
    if (exp10 < -4 || exp10 >= 16) {
        /* scientific, as C prints it (>= 2 exponent digits, like
           CPython); drop nothing — prec is already minimal. */
        repro_out_write(buf, strlen(buf));
        return;
    }
    int decimals = prec - 1 - exp10;
    if (decimals < 0) decimals = 0;
    snprintf(buf, sizeof buf, "%.*f", decimals, v);
    repro_out_write(buf, strlen(buf));
    if (decimals == 0) repro_out_write(".0", 2);
}

/* PRINT_CHAR carries a unicode codepoint (the VM does chr(v)): encode
   it as UTF-8; invalid codepoints become U+FFFD like Python's
   errors="replace". */
static void repro_print_char(int64_t cp) {
    char buf[4];
    if (cp < 0 || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF))
        cp = 0xFFFD;
    if (cp < 0x80) {
        buf[0] = (char)cp;
        repro_out_write(buf, 1);
    } else if (cp < 0x800) {
        buf[0] = (char)(0xC0 | (cp >> 6));
        buf[1] = (char)(0x80 | (cp & 0x3F));
        repro_out_write(buf, 2);
    } else if (cp < 0x10000) {
        buf[0] = (char)(0xE0 | (cp >> 12));
        buf[1] = (char)(0x80 | ((cp >> 6) & 0x3F));
        buf[2] = (char)(0x80 | (cp & 0x3F));
        repro_out_write(buf, 3);
    } else {
        buf[0] = (char)(0xF0 | (cp >> 18));
        buf[1] = (char)(0x80 | ((cp >> 12) & 0x3F));
        buf[2] = (char)(0x80 | ((cp >> 6) & 0x3F));
        buf[3] = (char)(0x80 | (cp & 0x3F));
        repro_out_write(buf, 4);
    }
}

/* -- guarded integer arithmetic (fold.py semantics) ------------------- */

#define REPRO_DEF_SINT(NAME, T, UT, W) \
static T repro_div_##NAME(T a, T b) { \
    if (b == 0) repro_trap(REPRO_TRAP_DIV); \
    if (b == (T)-1) return (T)(0u - (UT)a); /* INT_MIN/-1 wraps */ \
    return (T)(a / b); \
} \
static T repro_rem_##NAME(T a, T b) { \
    if (b == 0) repro_trap(REPRO_TRAP_DIV); \
    if (b == (T)-1) return 0; \
    return (T)(a % b); \
} \
static T repro_shl_##NAME(T a, T b) { \
    return (T)((UT)a << ((UT)b & (W - 1))); \
} \
static T repro_shr_##NAME(T a, T b) { \
    return (T)(a >> ((UT)b & (W - 1))); /* arithmetic: T is signed */ \
}

#define REPRO_DEF_UINT(NAME, T, W) \
static T repro_div_##NAME(T a, T b) { \
    if (b == 0) repro_trap(REPRO_TRAP_DIV); \
    return (T)(a / b); \
} \
static T repro_rem_##NAME(T a, T b) { \
    if (b == 0) repro_trap(REPRO_TRAP_DIV); \
    return (T)(a % b); \
} \
static T repro_shl_##NAME(T a, T b) { \
    return (T)(a << (b & (W - 1))); \
} \
static T repro_shr_##NAME(T a, T b) { \
    return (T)(a >> (b & (W - 1))); \
}

REPRO_DEF_SINT(s8,  int8_t,  uint8_t,  8)
REPRO_DEF_SINT(s16, int16_t, uint16_t, 16)
REPRO_DEF_SINT(s32, int32_t, uint32_t, 32)
REPRO_DEF_SINT(s64, int64_t, uint64_t, 64)
REPRO_DEF_UINT(u8,  uint8_t,  8)
REPRO_DEF_UINT(u16, uint16_t, 16)
REPRO_DEF_UINT(u32, uint32_t, 32)
REPRO_DEF_UINT(u64, uint64_t, 64)

/* float -> int cast with fold.py semantics: truncate toward zero, wrap
   mod 2^64 (narrower targets truncate the low bits); NaN and the
   infinities map to 0. */
static uint64_t repro_cast_f2i(double x) {
    if (!isfinite(x)) return 0;
    double t = trunc(x);
    double m = fmod(t, 18446744073709551616.0);          /* 2^64; exact */
    /* |m| < 2^64, so the double->uint64 conversions below are exact.
       The negative branch must wrap in *integer* arithmetic: adding
       2^64 in double rounds to a multiple of 4096 (the ulp at 2^64). */
    if (m < 0)
        return (uint64_t)0 - (uint64_t)-m;               /* mod-2^64 wrap */
    if (m >= 9223372036854775808.0)                      /* 2^63 */
        return (uint64_t)(m - 9223372036854775808.0)
               | 0x8000000000000000ULL;
    return (uint64_t)m;
}

/* -- exported control surface ----------------------------------------- */

void repro_set_fuel(int64_t fuel) { repro_rt.fuel = fuel; }
const char *repro_out_data(void) {
    return repro_rt.out ? repro_rt.out : "";
}
int64_t repro_out_size(void) { return (int64_t)repro_rt.out_len; }
"""


def _abi_kind(t) -> str | None:
    """The wire kind of a scalar type, or ``None`` if not marshallable."""
    if isinstance(t, PrimType):
        return str(t)
    return None


class NativeEmitter(CEmitter):
    """C emission hardened for actual compilation and execution.

    Differences from the plain emitter, all via the hook surface:

    * the prelude is :data:`RUNTIME_H` plus forward declarations for
      every function (the shared emitter writes bodies in scope order,
      so calls to later functions need prototypes);
    * integer ``/ % << >>`` go through the guarded ``repro_*`` helpers,
      float ``%`` becomes ``fmod`` (C has no float ``%``);
    * float -> int casts go through ``repro_cast_f2i``;
    * ``INT64_MIN``/``INT32_MIN`` literals avoid the C "negate a too-big
      constant" pitfall; non-finite float literals become expressions;
    * prints append to the capture buffer;
    * allocations come from the run heap (``repro_alloc``), which the
      entry wrappers release when the next run starts;
    * every function and block entry burns one unit of fuel;
    * after the bodies, an ``extern`` ABI wrapper is emitted per
      all-scalar function, recorded in :attr:`entry_meta` as
      ``{name: {"params": [kind...], "result": kind}}``.
    """

    def __init__(self, world: World):
        super().__init__(world)
        self.entry_meta: dict[str, dict] = {}
        self._fn_named: dict[Continuation, str] = {}
        self._fn_names_taken: set[str] = set()

    # -- naming: definitions and calls must agree; two top-level
    # -- functions may share a source-level name after specialization;
    # -- and user names must not collide with libc/libm declarations
    # -- pulled in by the runtime header (a program defining ``pow``
    # -- must still compile).  The ``rp_`` prefix sidesteps all three.

    def _fn_name(self, fn: Continuation) -> str:
        name = self._fn_named.get(fn)
        if name is None:
            base = f"rp_{super()._fn_name(fn)}"
            name = base
            n = 2
            while name in self._fn_names_taken:
                name = f"{base}__{n}"
                n += 1
            self._fn_names_taken.add(name)
            self._fn_named[fn] = name
        return name

    # -- hook overrides -------------------------------------------------

    def _prelude(self, functions: list[Continuation]) -> str:
        # Claim external (entry) names first so a later internal
        # function with the same source name gets the suffix, not the
        # entry the loader will look up.
        ordered = ([f for f in functions if f.is_external]
                   + [f for f in functions if not f.is_external])
        decls = []
        for fn in ordered:
            _ret, ret_c, params = self._fn_signature(fn)
            sig = ", ".join(c_type(p.type) for p in params) or "void"
            decls.append(f"{ret_c} {self._fn_name(fn)}({sig});")
        return RUNTIME_H + "\n" + "\n".join(decls) + "\n"

    def _function_entry(self, fn: Continuation) -> None:
        self.out.write("    REPRO_FUEL();\n")

    def _block_entry(self, block: Continuation) -> None:
        self.out.write("    REPRO_FUEL();\n")

    def _float_lit(self, prim: PrimType, value: float) -> str:
        if math.isnan(value):
            return "(0.0/0.0)"
        if math.isinf(value):
            return "(1.0/0.0)" if value > 0 else "(-1.0/0.0)"
        text = repr(float(value))
        return f"{text}f" if prim.bitwidth == 32 else text

    def _int_lit(self, prim: PrimType, value: int) -> str:
        # -9223372036854775808ll parses as -(9223372036854775808ll): the
        # magnitude overflows int64 before negation.
        if not prim.is_unsigned and value == -(1 << (prim.bitwidth - 1)):
            if prim.bitwidth == 64:
                return "(-9223372036854775807ll - 1)"
            if prim.bitwidth == 32:
                return "(-2147483647 - 1)"
        return super()._int_lit(prim, value)

    def _arith_expr(self, op: ArithOp) -> str:
        t = op.type
        lhs, rhs = self._ref(op.lhs), self._ref(op.rhs)
        if isinstance(t, PrimType) and t.is_int:
            w = t.bitwidth
            sign = "u" if t.is_unsigned else "s"
            if op.kind is ArithKind.DIV:
                return f"repro_div_{sign}{w}({lhs}, {rhs})"
            if op.kind is ArithKind.REM:
                return f"repro_rem_{sign}{w}({lhs}, {rhs})"
            if op.kind is ArithKind.SHL:
                return f"repro_shl_{sign}{w}({lhs}, {rhs})"
            if op.kind is ArithKind.SHR:
                return f"repro_shr_{sign}{w}({lhs}, {rhs})"
        if isinstance(t, PrimType) and t.is_float:
            if op.kind is ArithKind.REM:
                return f"fmod({lhs}, {rhs})"
        return super()._arith_expr(op)

    def _cast_expr(self, op: Cast | Bitcast) -> str:
        if isinstance(op, Cast):
            src = peel_markers(op.op(0)).type
            to = op.type
            if (isinstance(src, PrimType) and src.is_float
                    and isinstance(to, PrimType) and to.is_int):
                w = to.bitwidth
                return (f"({c_type(to)})(uint{w}_t)"
                        f"repro_cast_f2i({self._ref(op.op(0))})")
        return super()._cast_expr(op)

    def _trap_expr(self, d, trap: Exception) -> str:
        # A constant expression folding kept for its trap (always a
        # division in practice); raise the structured trap exactly when
        # the referencing block executes.  repro_trap longjmps, so the
        # comma-expression's value is never produced.
        t = d.type
        zero = (f"({c_type(t)})0" if isinstance(t, PrimType)
                else "(word_block){ .w = {0} }")
        return f"(repro_trap(REPRO_TRAP_DIV), {zero})"

    def _alloc_expr(self, elem: str, count: str) -> str:
        return f"({elem}*)repro_alloc({count}, sizeof({elem}))"

    def _emit_print(self, intrinsic: Intrinsic, value: Def) -> None:
        fn = {Intrinsic.PRINT_I64: "repro_print_i64",
              Intrinsic.PRINT_F64: "repro_print_f64",
              Intrinsic.PRINT_CHAR: "repro_print_char"}[intrinsic]
        self.out.write(f"    {fn}({self._ref(value)});\n")

    # -- the entry ABI --------------------------------------------------

    def _postlude(self, functions: list[Continuation]) -> None:
        # Externals first: on a public-name tie the entry the loader
        # will actually look up wins the wrapper.
        for fn in sorted(functions, key=lambda f: not f.is_external):
            self._emit_wrapper(fn)

    def _emit_wrapper(self, fn: Continuation) -> None:
        public = fn.name
        if not public or public in self.entry_meta:
            return
        ret, _ret_c, params = self._fn_signature(fn)
        assert isinstance(ret.type, FnType)
        ret_types = [t for t in ret.type.param_types if not _is_mem(t)]
        if len(ret_types) > 1:
            return
        kinds = [_abi_kind(p.type) for p in params]
        result = _abi_kind(ret_types[0]) if ret_types else "void"
        if any(k is None for k in kinds) or result is None:
            return
        name = self._fn_name(fn)
        symbol = "repro_run_" + "".join(
            ch if ch.isalnum() else "_" for ch in public)
        self.entry_meta[public] = {"params": kinds, "result": result,
                                   "symbol": symbol}
        w = self.out
        w.write(f"\nint32_t {symbol}(const int64_t *argv, "
                f"int64_t *out) {{\n")
        w.write("    repro_heap_release();\n")
        w.write("    repro_rt.trap = 0;\n")
        w.write("    repro_rt.out_len = 0;\n")
        w.write("    if (setjmp(repro_rt.jb)) return repro_rt.trap;\n")
        args = []
        for index, (param, kind) in enumerate(zip(params, kinds)):
            ctype = c_type(param.type)
            if kind in ("f64", "f32"):
                w.write(f"    double d{index};\n")
                w.write(f"    memcpy(&d{index}, &argv[{index}], 8);\n")
                args.append(f"({ctype})d{index}" if kind == "f32"
                            else f"d{index}")
            elif kind == "bool":
                args.append(f"(argv[{index}] != 0)")
            else:
                args.append(f"({ctype})argv[{index}]")
        call = f"{name}({', '.join(args)})"
        if result == "void":
            w.write(f"    {call};\n")
            w.write("    *out = 0;\n")
        elif result in ("f64", "f32"):
            w.write(f"    double r = (double){call};\n")
            w.write("    memcpy(out, &r, 8);\n")
        elif result == "bool":
            w.write(f"    *out = {call} ? 1 : 0;\n")
        else:
            w.write(f"    *out = (int64_t){call};\n")
        w.write("    return 0;\n}\n")


def emit_native_c(world: World) -> tuple[str, dict]:
    """Render *world* as a compilable TU; returns ``(source, entry_meta)``."""
    emitter = NativeEmitter(world)
    source = emitter.emit()
    return source, emitter.entry_meta
