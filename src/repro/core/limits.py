"""Structured resource limits shared by every execution engine.

The repo has three ways to run a program (graph interpreter, bytecode
VM, nested-CPS baseline) plus the compiled-SSA baseline riding on the
VM.  Each historically raised its own flat error when a budget ran out,
which forced the fuzz oracle to pattern-match error strings.  This
module gives them a common, structured base:

* :class:`ResourceLimitError` — "a *configured* limit was hit", carrying
  ``resource`` (``"steps"``, ``"heap"``, ``"continuations"``, ...), the
  ``limit`` value and the ``engine`` that hit it.  Engine-specific
  subclasses multiply inherit from the engine's existing error type
  (e.g. ``class StepLimitExceeded(InterpError, ResourceLimitError)``) so
  every pre-existing ``except InterpError`` keeps working while new code
  can catch the whole family with one clause.
* :class:`DeadlineExceeded` plus the :func:`deadline` context manager —
  a preemptive wall-clock guard built on ``SIGALRM``/``setitimer``,
  for the fuzz campaign's case and shrink timeouts, which run one after
  the other (a deadline does not nest).  Off the main thread (or off
  Unix) it degrades to a no-op.
* :func:`trap_kind` — the one classifier from a trap exception to the
  kind name (``div-by-zero``, ``step-limit``, ...) every engine
  reports, so service replies and the fuzz oracle name traps alike.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager


class ResourceLimitError(Exception):
    """A configured resource limit was exceeded.

    Not a bug and not an engine crash: the program simply needed more
    ``resource`` than the caller allowed.  Differential oracles
    normalize this family to a trap, the same way they treat division
    by zero.
    """

    def __init__(self, resource: str, limit, engine: str,
                 message: str | None = None):
        self.resource = resource
        self.limit = limit
        self.engine = engine
        super().__init__(
            message
            or f"{engine}: {resource} limit exceeded (limit={limit})"
        )


def trap_kind(exc: BaseException) -> str:
    """Classify a trap exception into the cross-engine kind names."""
    if isinstance(exc, ResourceLimitError):
        resource = getattr(exc, "resource", "")
        return "step-limit" if resource == "steps" else "resource-limit"
    if "division" in str(exc):
        return "div-by-zero"
    return "other"


class DeadlineExceeded(BaseException):
    """A wall-clock deadline passed before the guarded region finished.

    A ``BaseException``, as ``KeyboardInterrupt`` is: it leaves the
    guarded region from wherever the signal lands, past every ``except
    Exception`` on the way (an engine's trap handler, the fuzz oracle's
    guard around a compile), so a timeout is never taken for a failure
    of the program under test.
    """

    def __init__(self, seconds: float, what: str = ""):
        self.seconds = seconds
        self.what = what
        where = f" in {what}" if what else ""
        super().__init__(f"deadline of {seconds:g}s exceeded{where}")


@contextmanager
def deadline(seconds: float | None, *, what: str = ""):
    """Raise :class:`DeadlineExceeded` if the body runs longer than *seconds*.

    ``seconds`` of ``None`` or ``<= 0`` disables the guard, and off the
    Unix main thread the body runs unguarded.  Uses ``ITIMER_REAL``; the
    ``SIGALRM`` handler is restored and the timer disarmed on exit, so
    deadlines run one after another, not nested.
    """
    if (not seconds or seconds <= 0 or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _fire(signum, frame):
        raise DeadlineExceeded(seconds, what)

    old_handler = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
