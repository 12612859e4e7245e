"""Structured resource limits: one error family across every engine."""

from __future__ import annotations

import pytest

from repro.backend import bytecode as bc
from repro.backend.codegen import compile_world
from repro.backend.interp import Interpreter, InterpError, StepLimitExceeded
from repro.baselines.nested_cps import cps_convert_expr, evaluate
from repro.baselines.nested_cps.interp import (CPSRuntimeError,
                                               CPSStepLimitExceeded)
from repro.baselines.ssa import compile_source_ssa, run_ssa
from repro.core.limits import DeadlineExceeded, ResourceLimitError, deadline
from repro.frontend import compile_source
from repro.frontend.parser import MAX_NESTING_DEPTH, ParseError, parse

LOOP = """
fn main(n: i64) -> i64 {
    let mut acc = 0;
    for i in 0..n { acc += i; }
    acc
}
"""


def test_interp_step_limit_is_structured():
    world = compile_source(LOOP, optimize=False)
    with pytest.raises(StepLimitExceeded) as info:
        Interpreter(world, max_steps=50).call("main", 1000)
    err = info.value
    assert isinstance(err, InterpError)
    assert isinstance(err, ResourceLimitError)
    assert err.resource == "steps"
    assert err.limit == 50
    assert err.engine == "interp"


def test_vm_step_limit_plain_loop():
    world = compile_source(LOOP)
    compiled = compile_world(world, max_steps=30)
    with pytest.raises(bc.VMLimitError) as info:
        compiled.call("main", 100000)
    assert isinstance(info.value, bc.VMError)
    assert isinstance(info.value, ResourceLimitError)
    assert info.value.resource == "steps"
    assert info.value.engine == "vm"


def test_vm_step_limit_profiled_loop():
    """The instrumented dispatch loop enforces the same budget."""
    from repro.profile.collector import ProfileCollector

    world = compile_source(LOOP)
    compiled = compile_world(world, profile=ProfileCollector(),
                             max_steps=30)
    with pytest.raises(bc.VMLimitError):
        compiled.call("main", 100000)


def test_vm_step_limit_allows_completion():
    world = compile_source(LOOP)
    compiled = compile_world(world, max_steps=10_000_000)
    assert compiled.call("main", 10) == 45


def test_vm_heap_limit_is_structured():
    vm = bc.VM(heap_limit=100)
    with pytest.raises(bc.VMLimitError) as info:
        vm.alloc_words(1000)
    assert isinstance(info.value, bc.VMError)
    assert isinstance(info.value, ResourceLimitError)
    assert info.value.resource == "heap"
    assert info.value.limit == 100


def test_ssa_step_limit():
    module = compile_source_ssa(LOOP)
    with pytest.raises(bc.VMLimitError):
        run_ssa(module, "main", 100000, max_steps=30)
    assert run_ssa(module, "main", 10, max_steps=10_000_000) == 45


def test_cps_step_limit():
    term = cps_convert_expr(("+", ("*", 2, 3), ("-", 10, 4)))
    assert evaluate(term) == 12
    with pytest.raises(CPSStepLimitExceeded) as info:
        evaluate(term, max_steps=1)
    assert isinstance(info.value, CPSRuntimeError)
    assert isinstance(info.value, ResourceLimitError)
    assert info.value.engine == "nested-cps"


def test_resource_limit_error_message():
    err = ResourceLimitError("steps", 42, "demo")
    assert "steps" in str(err) and "42" in str(err) and "demo" in str(err)


def test_deadline_passes_every_except_exception():
    """A timeout ends the guarded region: no ``except Exception`` on the
    way (a trap handler, the oracle's compile guard) takes it for a
    failure of the code it interrupted."""
    import time

    absorbed = []
    with pytest.raises(DeadlineExceeded) as info:
        with deadline(0.05, what="unit test"):
            try:
                time.sleep(1.0)
            except Exception as exc:  # noqa: BLE001 — what it must pass
                absorbed.append(exc)
    assert absorbed == []
    assert not isinstance(info.value, (Exception, ResourceLimitError))
    assert info.value.seconds == 0.05
    assert "unit test" in str(info.value)


def test_deadline_noop_when_disabled():
    with deadline(None):
        pass
    with deadline(0):
        pass


# -- parser depth guard ------------------------------------------------------


def test_parser_rejects_pathological_expression_nesting():
    source = ("fn main(a: i64) -> i64 { "
              + "(" * (MAX_NESTING_DEPTH + 10)
              + "a"
              + ")" * (MAX_NESTING_DEPTH + 10)
              + " }")
    with pytest.raises(ParseError, match="nested deeper than"):
        parse(source)


def test_parser_rejects_pathological_unary_nesting():
    source = ("fn main(a: i64) -> i64 { "
              + "-" * (2 * MAX_NESTING_DEPTH + 10) + "a }")
    with pytest.raises(ParseError, match="nested deeper than"):
        parse(source)


def test_parser_rejects_pathological_block_nesting():
    source = ("fn main(a: i64) -> i64 "
              + "{ " * (MAX_NESTING_DEPTH + 10)
              + "a"
              + " }" * (MAX_NESTING_DEPTH + 10))
    with pytest.raises(ParseError, match="nested deeper than"):
        parse(source)


def test_parser_accepts_reasonable_nesting():
    depth = 50
    source = ("fn main(a: i64) -> i64 { "
              + "(" * depth + "a + 1" + ")" * depth + " }")
    world = compile_source(source, optimize=False)
    assert Interpreter(world).call("main", 41) == 42
