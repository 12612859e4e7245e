"""Profile-guided optimization: collection, storage, and the PGO driver.

See DESIGN.md §"Profile-guided optimization" and experiment F4.  The
subsystem splits into:

* :mod:`.collector` — raw VM-level counters (write side, filled at
  control transfers by the dispatch loop in :mod:`repro.backend.bytecode`);
* :mod:`.model` — the stable, JSON-serializable :class:`Profile`;
* :mod:`.driver` — the two-phase ``compile_profiled`` feedback loop.

The transforms that *consume* a profile live with the other passes in
:mod:`repro.transform.pgo`.
"""

from .collector import ProfileCollector
from .driver import collect_profile, compile_profiled, instrument
from .model import CallSiteProfile, EdgeProfile, LoopProfile, Profile

__all__ = [
    "CallSiteProfile",
    "EdgeProfile",
    "LoopProfile",
    "Profile",
    "ProfileCollector",
    "collect_profile",
    "compile_profiled",
    "instrument",
]
