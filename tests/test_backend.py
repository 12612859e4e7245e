"""Unit tests for the bytecode VM, Thorin codegen, and the C emitter."""

import pytest

from repro import compile_source
from repro.backend import bytecode as bc
from repro.backend.c_emitter import emit_c
from repro.backend.codegen import CodegenError, compile_world
from repro.core import types as ct

from .helpers import unfused_stream, vm_observation


class TestVMPrimitives:
    def test_word_sizes(self):
        assert bc.word_size(ct.I64) == 1
        assert bc.word_size(ct.tuple_type((ct.I64, ct.F64))) == 2
        assert bc.word_size(ct.definite_array_type(ct.I32, 5)) == 5
        nested = ct.tuple_type((ct.definite_array_type(ct.I8, 3), ct.BOOL))
        assert bc.word_size(nested) == 4

    def test_field_offsets(self):
        t = ct.tuple_type((ct.definite_array_type(ct.I8, 3), ct.BOOL, ct.I64))
        assert bc.field_offset(t, 0) == 0
        assert bc.field_offset(t, 1) == 3
        assert bc.field_offset(t, 2) == 4
        arr = ct.definite_array_type(ct.tuple_type((ct.I64, ct.I64)), 4)
        assert bc.field_offset(arr, 2) == 4

    def test_manual_program(self):
        program = bc.VMProgram()
        fn = bc.VMFunction("add3", 1, 1)
        reg = fn.new_reg()
        fn.emit(bc.OP_CONST, reg, 3)
        out = fn.new_reg()
        fn.emit(bc.OP_ARITH, out, bc.arith_fn(
            __import__("repro.core.primops", fromlist=["ArithKind"]).ArithKind.ADD,
            ct.I64), 0, reg)
        fn.emit(bc.OP_RET, (out,))
        program.add(fn)
        assert program.call("add3", 39) == 42

    def test_trap_instruction(self):
        program = bc.VMProgram()
        fn = bc.VMFunction("boom", 0, 0)
        fn.emit(bc.OP_TRAP, "kaboom")
        program.add(fn)
        with pytest.raises(bc.VMError, match="kaboom"):
            program.call("boom")

    def test_heap_limit(self):
        vm = bc.VM(heap_limit=100)
        with pytest.raises(bc.VMError):
            vm.alloc_words(1000)

    def test_disassembler(self):
        world = compile_source("fn main(a: i64) -> i64 { a + 1 }")
        compiled = compile_world(world)
        text = compiled.program.disassemble()
        assert "fn main/1" in text
        assert "ret" in text


FUSED_NAMES = ("arith.br", "arith.arith", "lea.load", "lea.store",
               "lea.const.load", "lea.const.store", "mov.jmp")


class TestSuperinstructionFusion:
    LOOP = """
fn main(n: i64) -> i64 {
    let arr = new_buf_i64(64);
    let mut i = 0;
    while i < n {
        arr[i % 64] = arr[i % 64] + i;
        i += 1;
    }
    let mut acc = 0;
    for k in 0..64 { acc += arr[k]; }
    acc
}
"""

    def test_fusion_fires_on_hot_loops(self):
        world = compile_source(self.LOOP)
        program = compile_world(world).program
        fused = "\n\n".join(f.disassemble(fused=True)
                            for f in program.functions)
        assert any(name in fused for name in FUSED_NAMES)
        # The source stream — what serve artifacts and PGO site labels
        # name — never contains superinstructions.
        assert not any(name in program.disassemble()
                       for name in FUSED_NAMES)

    def test_fused_run_matches_unfused_run_exactly(self):
        # The one dispatch loop over the source stream is the reference
        # for fusion: same result, output, retired instruction count
        # (superinstructions retire two) and profile counts, whose keys
        # are source pcs on either stream.
        world = compile_source(self.LOOP)
        fused = vm_observation(world, "main", [(1000,)])
        with unfused_stream():
            unfused = vm_observation(world, "main", [(1000,)])
        assert fused == unfused
        assert fused[1] > 0

    def test_jump_into_the_middle_of_a_fused_pair(self):
        # Fusion leaves the second instruction of a pair in place, so a
        # branch into it must still work: pc 3/4 fuse into arith.arith
        # at 3, while the false edge of the br enters at 4 directly.
        from repro.core.primops import ArithKind

        add = bc.arith_fn(ArithKind.ADD, ct.I64)
        program = bc.VMProgram()
        fn = bc.VMFunction("f", 1, 1)
        r1, r2, r3, r4 = (fn.new_reg() for _ in range(4))
        fn.emit(bc.OP_CONST, r1, 10)
        fn.emit(bc.OP_CONST, r2, 100)
        fn.emit(bc.OP_BR, 0, 3, 4)
        fn.emit(bc.OP_ARITH, r3, add, r1, r1)
        fn.emit(bc.OP_ARITH, r4, add, r2, r2)
        fn.emit(bc.OP_RET, (r4,))
        program.add(fn)
        listing = fn.disassemble(fused=True)
        assert "arith.arith" in listing

        vm_taken = bc.VM(program)
        assert vm_taken.call(program, "f", 1) == 200
        assert vm_taken.executed == 6  # the fused pair retires two
        vm_skipped = bc.VM(program)
        assert vm_skipped.call(program, "f", 0) == 200
        assert vm_skipped.executed == 5

    def test_trap_inside_a_fused_pair_retires_what_the_source_does(self):
        # A trap in either half of a pair leaves VM.executed where the
        # source stream leaves it: the trapping instruction retired,
        # nothing after it.
        from repro.core.primops import ArithKind

        add = bc.arith_fn(ArithKind.ADD, ct.I64)
        div = bc.arith_fn(ArithKind.DIV, ct.I64)
        program = bc.VMProgram()
        fn = bc.VMFunction("f", 1, 1)
        r1, r2, r3, r4, r5 = (fn.new_reg() for _ in range(5))
        fn.emit(bc.OP_CONST, r1, 10)
        fn.emit(bc.OP_ARITH, r2, add, r1, r1)  # arith.arith whose second
        fn.emit(bc.OP_ARITH, r3, div, r1, 0)   # half divides by the arg
        fn.emit(bc.OP_LEA_CONST, r4, r3, 1)    # lea.const.load whose
        fn.emit(bc.OP_LOAD, r5, r4)            # load is out of bounds
        fn.emit(bc.OP_RET, (r5,))
        program.add(fn)
        listing = fn.disassemble(fused=True)
        assert "arith.arith" in listing and "lea.const.load" in listing

        def trap_at(arg):
            vm = bc.VM(program)
            with pytest.raises(bc.VMError):
                vm.call(program, "f", arg)
            return vm.executed

        fused = [trap_at(0), trap_at(1)]
        with unfused_stream():
            assert [trap_at(0), trap_at(1)] == fused == [3, 5]

    def test_step_limit_trips_identically(self):
        # For any budget, the fused and unfused streams must agree on
        # whether the step limit trips (the limit is only checked at
        # control-flow opcodes; fused handlers keep those checks), on
        # the retired count and on the profile counted up to the trip.
        world = compile_source(self.LOOP)
        steps = vm_observation(world, "main", [(200,)], profile=False)[1]
        for limit in (steps, steps // 2, steps // 7):
            fused = vm_observation(world, "main", [(200,)], max_steps=limit)
            with unfused_stream():
                unfused = vm_observation(world, "main", [(200,)],
                                         max_steps=limit)
            assert fused == unfused
            assert fused[:2] == vm_observation(
                world, "main", [(200,)], profile=False, max_steps=limit)


class TestCodegen:
    def _run(self, source, *args, entry="main"):
        world = compile_source(source)
        return compile_world(world).call(entry, *args)

    def test_signed_conversion_at_boundary(self):
        assert self._run("fn main(a: i64) -> i64 { 0 - a }", 7) == -7

    def test_parallel_move_swap(self):
        # two loop-carried variables swapped every iteration: the
        # classic phi-cycle needing a scratch register
        src = """
fn main(n: i64) -> i64 {
    let mut a = 1;
    let mut b = 2;
    for i in 0..n {
        let t = a;
        a = b;
        b = t;
    }
    a * 10 + b
}
"""
        assert self._run(src, 0) == 12
        assert self._run(src, 1) == 21
        assert self._run(src, 5) == 21

    def test_tail_recursion_constant_stack(self):
        # deep tail recursion must not exhaust anything
        src = """
fn count(n: i64, acc: i64) -> i64 {
    if n == 0 { acc } else { count(n - 1, acc + 1) }
}
fn main() -> i64 { count(200000, 0) }
"""
        assert self._run(src) == 200000

    def test_conditional_return(self):
        src = """
fn f(buf: &[i64], n: i64) -> () {
    if n <= 0 { return; }
    buf[0] = n;
}
fn main(n: i64) -> i64 {
    let b = new_buf_i64(1);
    f(b, n);
    b[0]
}
"""
        assert self._run(src, 5) == 5
        assert self._run(src, -3) == 0

    def test_non_cff_rejected(self):
        # returned closure with a *dynamic* environment value cannot be
        # eliminated if we skip the pipeline: codegen must refuse it.
        world = compile_source("""
fn make(n: i64) -> fn(i64) -> i64 { |x: i64| x + n }
fn main(a: i64) -> i64 { make(a)(1) }
""", optimize=False)
        with pytest.raises(CodegenError):
            compile_world(world)

    def test_match_lowering(self):
        # exercised via the world API: build a match jump directly
        from repro.core.world import World
        from tests.helpers import FN_I64

        world = World()
        f = world.continuation(FN_I64, "main")
        world.make_external(f)
        mem, x, ret = f.params
        default = world.basic_block((ct.MEM,), "default")
        one = world.basic_block((ct.MEM,), "one")
        two = world.basic_block((ct.MEM,), "two")
        match = world.match(ct.I64)
        arm1 = world.tuple_((world.literal(ct.I64, 1), one))
        arm2 = world.tuple_((world.literal(ct.I64, 2), two))
        f.jump(match, (mem, x, default, arm1, arm2))
        world.jump(default, ret, (default.params[0], world.literal(ct.I64, 0)))
        world.jump(one, ret, (one.params[0], world.literal(ct.I64, 100)))
        world.jump(two, ret, (two.params[0], world.literal(ct.I64, 200)))
        compiled = compile_world(world)
        assert compiled.call("main", 1) == 100
        assert compiled.call("main", 2) == 200
        assert compiled.call("main", 9) == 0

    def test_instruction_counter(self):
        world = compile_source("fn main() -> i64 { 41 + 1 }")
        compiled = compile_world(world)
        vm = bc.VM(compiled.program)
        vm.call(compiled.program, "main")
        assert vm.executed >= 1


class TestCEmitter:
    def test_emits_whole_suite(self):
        from repro.programs import ALL_PROGRAMS

        for program in ALL_PROGRAMS[:5]:
            text = emit_c(compile_source(program.source))
            assert "#include <stdint.h>" in text

    def test_structure_of_loop(self):
        text = emit_c(compile_source("""
fn main(n: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n { acc += i; }
    acc
}
"""))
        assert "int64_t main(int64_t" in text
        assert "goto" in text
        assert "return" in text

    def test_calls_and_recursion(self):
        text = emit_c(compile_source("""
fn fact(n: i64) -> i64 { if n <= 1 { 1 } else { n * fact(n - 1) } }
fn main(x: i64) -> i64 { fact(x) }
"""))
        assert "fact(" in text

    def test_print_becomes_printf(self):
        text = emit_c(compile_source(
            'fn main() -> i64 { print_i64(7); 0 }'
        ))
        assert "printf" in text
