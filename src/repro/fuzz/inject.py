"""Deliberate faults, for exercising the shrinker and the fault-tolerant
optimization pipeline.

Two kinds of damage live here:

* ``drop_one_argument`` — a *semantic* miscompile that every verifier
  accepts; only a differential oracle can catch it (the shrinker test's
  workload).
* ``FaultInjector`` — an operational fault harness.  Built as a
  ``OptimizeOptions.pass_hook`` callable, it fires once, on the Nth
  invocation of a chosen pass, one of three failure modes the
  pipeline's checkpoint/quarantine machinery must absorb:

  - ``raise``   — the pass body crashes (:class:`InjectedFault`);
  - ``corrupt`` — the IR is structurally damaged in a way
    ``verify(full)`` catches (an argument is chopped off a jump);
  - ``growth``  — the world balloons past the pipeline's growth cap.

  Two more modes act on the *process*, so nothing in-process can absorb
  them and they are deliberately left out of :data:`FAULT_MODES` (the
  fault campaign iterates that tuple): ``kill`` hard-kills it
  (``SIGKILL`` to self) and ``stall`` sleeps in the pass.  They exist
  for the compile service's crash-isolated worker pool, where the
  parent must survive a worker that dies mid-compile or overruns the
  request deadline.

``drop_one_argument`` is a mangler misuse: it picks a call site
``caller → callee(args)`` of an ordinary bodied continuation, mangles
the callee with one ``i64`` parameter *specialized to literal 0* (as if
the pass had proven the argument constant), and redirects the call site
to the specialized copy **without the dropped argument**.  The result
is perfectly well-formed IR — it passes the structural, use-list and
scope verifiers, and stays in control-flow form — but is semantically
wrong whenever the dropped argument was not actually 0 at run time.

That combination (type-correct, verifier-clean, output-divergent) is
exactly what only a *differential* oracle can catch, which is what the
shrinker test uses it for.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from ..core import types as ct
from ..core.defs import Continuation
from ..core.primops import Literal
from ..core.scope import Scope
from ..core.world import World
from ..transform.mangle import drop

# In-process faults the pipeline's isolation machinery must absorb.
# The fault campaign iterates exactly these.
FAULT_MODES = ("raise", "corrupt", "growth")
# ``stall`` and ``kill`` act on the process (see module docstring);
# valid for a FaultPlan, never part of the in-process campaign.
_PROCESS_MODES = FAULT_MODES + ("stall", "kill")


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultInjector` in ``raise`` mode."""


@dataclass
class FaultPlan:
    """Where and how a :class:`FaultInjector` strikes.

    ``target`` names a pass by its quarantine key (``"inline"`` matches
    both the ``inline`` phase and its per-round repeats; ``None``
    matches every pass).  ``nth`` delays the strike to the Nth matching
    invocation, so later rounds of an already-exercised pass can be hit.
    """

    mode: str
    target: str | None = None
    nth: int = 1
    stall_seconds: float = 2.0
    blowup: int = 8192

    def __post_init__(self):
        if self.mode not in _PROCESS_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; "
                             f"expected one of {_PROCESS_MODES}")


class FaultInjector:
    """``pass_hook`` callable injecting one fault per pipeline run.

    The pipeline calls the hook as ``hook(phase, world)`` after each
    pass body, inside that pass's fault-isolation envelope — so damage
    done here is attributed to (and rolled back with) the pass itself.
    ``fired`` records whether the fault actually triggered, and
    ``struck`` the phase label it hit.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fired = False
        self.struck: str | None = None
        self._matches = 0

    def __call__(self, phase: str, world: World) -> None:
        if self.fired:
            return
        key = phase.split("(", 1)[0]
        if self.plan.target is not None and key != self.plan.target:
            return
        self._matches += 1
        if self._matches < self.plan.nth:
            return
        self.fired = True
        self.struck = phase
        mode = self.plan.mode
        if mode == "raise":
            raise InjectedFault(f"injected crash in {phase}")
        if mode == "corrupt":
            corrupt_world(world)
        elif mode == "stall":
            time.sleep(self.plan.stall_seconds)
        elif mode == "growth":
            blow_up_world(world, self.plan.blowup)
        elif mode == "kill":
            # Process-fatal: simulate a segfaulting pass.  Only a
            # crash-isolated worker pool survives this one.
            os.kill(os.getpid(), signal.SIGKILL)


def corrupt_world(world: World) -> str | None:
    """Structurally damage *world* so ``verify(full)`` rejects it.

    Chops the last argument off the first bodied continuation that
    jumps with at least one argument, leaving a jump whose arity no
    longer matches its callee — the opposite of ``drop_one_argument``,
    which is careful to stay verifier-clean.  Returns a description;
    when no continuation carries an argument to chop it raises
    :class:`InjectedFault` instead, so the injection still registers as
    a fault the pipeline must absorb.
    """
    for cont in world.continuations():
        if cont.has_body() and len(cont.ops) >= 2:
            cont._set_ops(cont.ops[:-1])
            return f"chopped last argument of jump in {cont.unique_name()}"
    raise InjectedFault("corrupt: no jump with arguments to damage")


def blow_up_world(world: World, count: int) -> int:
    """Register *count* empty continuations, tripping the growth cap."""
    for index in range(count):
        world.continuation(ct.fn_type(()), f"blowup_{index}")
    return count


def drop_one_argument(world: World, *, target: str | None = None) -> str | None:
    """Break one call site; returns a description or ``None`` if no site.

    ``target`` restricts the damage to call sites whose callee has that
    name.  The first eligible site in deterministic world order is hit:
    the callee must be a bodied, non-intrinsic, non-external
    continuation and the argument must be an ``i64`` that is not
    already literally 0 (so the rewrite is guaranteed to be a change).
    """
    for caller in world.continuations():
        if not caller.has_body():
            continue
        callee = caller.callee
        if not isinstance(callee, Continuation):
            continue
        if (not callee.has_body() or callee.is_intrinsic()
                or callee.is_external):
            continue
        if target is not None and callee.name != target:
            continue
        for index, param in enumerate(callee.params):
            if param.type != ct.I64:
                continue
            arg = caller.arg(index)
            if isinstance(arg, Literal) and arg.value == 0:
                continue
            specialized = drop(Scope(callee),
                               {param: world.literal(ct.I64, 0)})
            new_args = caller.args[:index] + caller.args[index + 1:]
            caller.jump(specialized, new_args)
            return (f"dropped argument {index} of "
                    f"{callee.unique_name()} at call site "
                    f"{caller.unique_name()}")
    return None
