"""Fault-tolerant pipeline: rollback, quarantine, unrecoverable crashes."""

from __future__ import annotations

import json

import pytest

from repro.backend.interp import Interpreter
from repro.core.verify import verify
from repro.frontend import compile_source
from repro.fuzz.faults import run_fault_case
from repro.fuzz.inject import FaultInjector, FaultPlan, InjectedFault
from repro.programs.suite import by_name
from repro.transform.pipeline import (OptimizeOptions, PipelineCrash,
                                      optimize)

PROGRAM = by_name("compose")
STATIC_PASSES = ("partial_eval", "closure_elim", "inline", "lambda_drop",
                 "cleanup")
MODES = ("raise", "corrupt", "growth")
KIND_BY_MODE = {"raise": "exception", "corrupt": "verify",
                "growth": "growth"}


def _world():
    return compile_source(PROGRAM.source, optimize=False)


def _injected(mode: str, target: str):
    """Optimize with one injected fault; returns (world, injector, stats)."""
    world = _world()
    injector = FaultInjector(FaultPlan(mode, target=target))
    options = OptimizeOptions(
        verify_each_pass=True, growth_cap_factor=4.0, growth_cap_floor=64,
        pass_hook=injector)
    stats = optimize(world, options=options)
    return world, injector, stats


@pytest.mark.parametrize("target", STATIC_PASSES)
@pytest.mark.parametrize("mode", MODES)
def test_every_fault_on_every_pass_recovers(mode, target):
    """The acceptance matrix on one fast program (the full suite sweep
    runs in the fuzz fault campaign)."""
    result = run_fault_case(PROGRAM, target, mode)
    assert result.fired, result.describe()
    assert result.ok, result.describe()


@pytest.mark.parametrize("mode", MODES)
def test_incident_kind_is_classified(mode):
    _, injector, stats = _injected(mode, "inline")
    assert injector.fired
    assert stats.quarantined == ["inline"]
    assert stats.rollbacks == 1
    (incident,) = stats.incidents
    assert incident.phase == "inline"
    assert incident.kind == KIND_BY_MODE[mode]
    assert incident.as_dict()["kind"] == incident.kind


def test_quarantined_pass_is_skipped_in_later_rounds():
    _, injector, stats = _injected("raise", "partial_eval")
    assert injector.fired
    # partial_eval runs first in every round; after round 1's rollback
    # every later round must skip it.
    assert stats.skipped
    assert all(phase == "partial_eval" for phase in stats.skipped)
    # The phase log still carries one record per scheduled pass.
    assert stats.phases().count("partial_eval") == stats.rounds


def test_rolled_back_world_still_verifies_and_runs():
    world, injector, stats = _injected("corrupt", "closure_elim")
    assert injector.fired
    verify(world, full=True)
    expected = Interpreter(_world()).call(PROGRAM.entry,
                                          *PROGRAM.test_args)
    assert Interpreter(world).call(PROGRAM.entry,
                                   *PROGRAM.test_args) == expected


def test_strict_mode_propagates_the_fault():
    world = _world()
    injector = FaultInjector(FaultPlan("raise", target="inline"))
    with pytest.raises(InjectedFault):
        optimize(world, options=OptimizeOptions(strict=True,
                                                pass_hook=injector))


def test_strict_mode_takes_no_checkpoints():
    world = _world()
    stats = optimize(world, options=OptimizeOptions(strict=True))
    assert stats.checkpoints == 0
    assert stats.rollbacks == 0


def test_clean_run_records_no_incidents():
    world = _world()
    stats = optimize(world)
    assert stats.incidents == []
    assert stats.quarantined == []
    assert stats.skipped == []
    assert stats.checkpoints > 0


def test_unrecoverable_failure_raises_pipeline_crash(monkeypatch):
    """If rollback itself dies, optimize raises PipelineCrash: caused by
    the rollback's error, with the pass trace up to it in its message."""
    import repro.core.undo as undo_mod

    def broken_restore(self):
        raise RuntimeError("simulated rollback failure")

    # Phase checkpoints are undo logs; breaking their restore breaks
    # recovery without touching checkpoint-taking itself.
    monkeypatch.setattr(undo_mod.UndoLog, "restore", broken_restore)

    world = _world()
    injector = FaultInjector(FaultPlan("raise", target="inline"))
    with pytest.raises(PipelineCrash) as info:
        optimize(world, options=OptimizeOptions(pass_hook=injector))

    crash = info.value
    assert isinstance(crash.__cause__, RuntimeError)
    assert "simulated rollback failure" in str(crash.__cause__)
    trace = crash.trace
    assert trace["rounds"] == 1
    assert trace["phases"] == ["cleanup", "partial_eval", "cleanup",
                               "closure_elim", "cleanup"]
    assert trace["incidents"] == trace["quarantined"] == []
    assert trace["skipped"] == []
    assert trace["rollbacks"] == 0
    assert trace["checkpoints"] >= 1
    message = str(crash)
    assert "simulated rollback failure" in message
    assert json.loads(message.split("pass trace: ", 1)[1]) == trace

