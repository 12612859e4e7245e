"""The native execution tier: emitted C -> ``cc`` -> ``.so`` -> ctypes.

The paper's pipeline ends in LLVM-generated machine code; this package
closes the corresponding loop for the reproduction.  It hardens the C
emitter's output into compilable translation units
(:mod:`~repro.native.runtime`), drives the system C compiler with a
content-addressed object store (:mod:`~repro.native.driver`), executes
the result in-process under the engines' common observation contract
(:mod:`~repro.native.loader`), and tiers the serve daemon from
interpreter to VM to machine code (:mod:`~repro.native.tiering`).

The helpers here are the one-call conveniences the oracle and the
tests use::

    module = compile_native_world(world)          # temp .so, loaded
    run = module.run("main", (3, 4))              # NativeRun
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from ..core.world import World
from .driver import (DEFAULT_CC_FLAGS, DEFAULT_CC_TIMEOUT, NativeBuildError,
                     NativeStore, cc_version, compile_shared, find_cc,
                     native_available)
from .loader import (DEFAULT_FUEL, TRAP_KINDS, NativeModule, NativeRun,
                     NativeRunError)
from .runtime import RUNTIME_H, NativeEmitter, emit_native_c
from .tiering import TierDecision, TieringManager, TieringPolicy

__all__ = [
    "DEFAULT_CC_FLAGS", "DEFAULT_CC_TIMEOUT", "DEFAULT_FUEL", "RUNTIME_H",
    "TRAP_KINDS", "NativeBuildError", "NativeEmitter", "NativeModule",
    "NativeRun", "NativeRunError", "NativeStore", "TierDecision",
    "TieringManager", "TieringPolicy", "cc_version", "compile_native_world",
    "compile_shared", "emit_native_c", "find_cc", "native_available",
]


def compile_native_world(world: World, *, cc: str | None = None,
                         flags: tuple = DEFAULT_CC_FLAGS,
                         timeout: float = DEFAULT_CC_TIMEOUT,
                         store: NativeStore | None = None) -> NativeModule:
    """Emit, compile and load *world*; returns a ready NativeModule.

    With a *store*, the ``.so`` is content-addressed and reused across
    calls (``module.cached`` says whether this was a hit).  Without
    one, the object lands in a temp directory — since the module holds
    the ``dlopen`` mapping, the file itself may vanish afterwards.
    """
    c_source, entry_meta = emit_native_c(world)
    if store is not None:
        so_path, _key, cached = store.get_or_build(
            c_source, cc=cc, flags=flags, timeout=timeout)
        module = NativeModule(so_path, entry_meta)
        module.cached = cached
        return module
    with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
        so_path = compile_shared(c_source, Path(tmp) / "unit.so", cc=cc,
                                 flags=flags, timeout=timeout)
        module = NativeModule(so_path, entry_meta)
    module.cached = False
    return module
