"""Raw execution counters filled in by a profiled VM.

The collector is the write side of the profiling story: three
``defaultdict(int)`` maps keyed by VM-level locations (function indices
and source pcs), incremented at control transfers by the VM's one
dispatch loop (:meth:`repro.backend.bytecode.VM._run`) when it is
handed the collector as ``VM(profile=...)``.
It deliberately knows nothing about the IR — resolving VM locations back
to stable Thorin continuation names is :class:`repro.profile.model.
Profile`'s job, via the ``sites`` metadata codegen attaches to every
:class:`~repro.backend.bytecode.VMFunction`.
"""

from __future__ import annotations

from collections import defaultdict


class ProfileCollector:
    """Counts function entries, call-site executions and taken edges.

    * ``entries[findex]`` — activations of function *findex* (both via
      the VM's public entry point and via call/tail-call);
    * ``calls[(findex, pc)]`` — executions of the call or tail-call
      instruction at ``pc`` in function ``findex``;
    * ``edges[(findex, src_pc, dst_pc)]`` — taken control-flow transfers
      (br/jmp/match).  Back-edges (``dst_pc <= src_pc``) measure loop
      iterations.
    """

    def __init__(self) -> None:
        self.entries: defaultdict[int, int] = defaultdict(int)
        self.calls: defaultdict[tuple[int, int], int] = defaultdict(int)
        self.edges: defaultdict[tuple[int, int, int], int] = defaultdict(int)

    def clear(self) -> None:
        self.entries.clear()
        self.calls.clear()
        self.edges.clear()

    def is_empty(self) -> bool:
        return not (self.entries or self.calls or self.edges)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ProfileCollector entries={sum(self.entries.values())} "
                f"calls={sum(self.calls.values())} "
                f"edges={sum(self.edges.values())}>")
