"""The native compiler driver: system ``cc`` -> content-addressed ``.so``.

Discovery honours ``REPRO_CC`` then falls back to ``cc``/``gcc``/
``clang`` on PATH; :func:`native_available` is the single gate the
oracle, tests and the serve daemon all use.

Flag choices are semantic, not stylistic:

* ``-fwrapv`` — the IR's integers wrap (two's complement);
* ``-fno-builtin`` — keep the compiler from pattern-matching our
  arithmetic into library calls with different edge-case behaviour;
* ``-ffp-contract=off`` — gcc defaults to contracting ``a*b+c`` into
  fused multiply-add at ``-O2``, which changes f64 results by an ulp
  and would break bit-identity with the interpreter/VM (IEEE doubles,
  one rounding per operation).

:class:`NativeStore` mirrors the serve artifact cache's layout
(``objects/<k[:2]>/<k>.so``, atomic tmp+rename, shared-nothing-safe):
the key is a sha256 over the emitted C, the exact flag vector and the
``cc --version`` banner, so upgrading the system compiler or changing
flags can never serve a stale object.  A stored object counts only if
``dlopen`` accepts it: a truncated or foreign file is a miss, rebuilt
in its place.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from ..core.canonical import canonical_json

STORE_FORMAT = 1

DEFAULT_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-fwrapv", "-fno-builtin",
                    "-ffp-contract=off")

DEFAULT_CC_TIMEOUT = 60.0


class NativeBuildError(Exception):
    """A failed native build, with structured diagnostics."""

    def __init__(self, stage: str, message: str, *, command=None,
                 returncode=None, stderr: str = ""):
        self.stage = stage          # "no-cc" | "compile" | "timeout"
        self.command = list(command) if command else None
        self.returncode = returncode
        self.stderr = stderr
        super().__init__(message)

    def as_dict(self) -> dict:
        return {"stage": self.stage, "message": str(self),
                "command": self.command, "returncode": self.returncode,
                "stderr": self.stderr[:2000]}


def find_cc() -> str | None:
    """The C compiler to use, or ``None`` when the host has none."""
    env = os.environ.get("REPRO_CC")
    if env:
        return env if shutil.which(env) else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return name
    return None


def native_available() -> bool:
    return find_cc() is not None


@functools.lru_cache(maxsize=8)
def cc_version(cc: str) -> str:
    """First line of ``cc --version`` (part of the store key)."""
    try:
        probe = subprocess.run([cc, "--version"], capture_output=True,
                               text=True, timeout=10.0)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return (probe.stdout or probe.stderr).splitlines()[0] \
        if (probe.stdout or probe.stderr) else "unknown"


def compile_shared(c_source: str, out_path: str | Path, *,
                   cc: str | None = None,
                   flags: tuple = DEFAULT_CC_FLAGS,
                   timeout: float = DEFAULT_CC_TIMEOUT) -> Path:
    """Compile *c_source* into the shared object *out_path*.

    Raises :class:`NativeBuildError` with the compiler's stderr on any
    failure; the write is atomic (tmp + rename) so a concurrent builder
    of the same object can only race to identical bytes.
    """
    cc = cc or find_cc()
    if cc is None:
        raise NativeBuildError("no-cc", "no C compiler on PATH "
                               "(set REPRO_CC or install cc/gcc/clang)")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-native-",
                                     dir=out_path.parent) as tmp:
        cfile = Path(tmp) / "unit.c"
        sofile = Path(tmp) / "unit.so"
        cfile.write_text(c_source)
        command = [cc, *flags, str(cfile), "-o", str(sofile), "-lm"]
        try:
            built = subprocess.run(command, capture_output=True, text=True,
                                   timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise NativeBuildError(
                "timeout", f"{cc} exceeded the {timeout}s build budget",
                command=command) from exc
        except OSError as exc:
            raise NativeBuildError("compile", f"could not run {cc}: {exc}",
                                   command=command) from exc
        if built.returncode != 0:
            raise NativeBuildError(
                "compile",
                f"{cc} rejected the emission (exit {built.returncode}): "
                f"{built.stderr[:500]}",
                command=command, returncode=built.returncode,
                stderr=built.stderr)
        os.replace(sofile, out_path)
    return out_path


class NativeStore:
    """Content-addressed ``.so`` store beside the serve object store.

    Immutable once written: two builders of the same key race to
    identical bytes, so no locking is needed.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def key(self, c_source: str, *, cc: str,
            flags: tuple = DEFAULT_CC_FLAGS) -> str:
        material = {
            "format": STORE_FORMAT,
            "c_sha256": hashlib.sha256(
                c_source.encode("utf-8")).hexdigest(),
            "flags": list(flags),
            "cc_version": cc_version(cc),
        }
        return hashlib.sha256(
            canonical_json(material).encode("utf-8")).hexdigest()

    def object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.so"

    def get_or_build(self, c_source: str, *, cc: str | None = None,
                     flags: tuple = DEFAULT_CC_FLAGS,
                     timeout: float = DEFAULT_CC_TIMEOUT
                     ) -> tuple[Path, str, bool]:
        """``(so_path, key, cached)`` — building only on a store miss.

        A hit is an object ``dlopen`` accepts, so a damaged one is
        rebuilt (atomically, by :func:`compile_shared`) rather than
        handed to every run of the program.
        """
        cc = cc or find_cc()
        if cc is None:
            raise NativeBuildError("no-cc", "no C compiler on PATH")
        key = self.key(c_source, cc=cc, flags=flags)
        path = self.object_path(key)
        try:
            ctypes.CDLL(str(path))
        except OSError:  # missing, truncated or foreign: a miss
            compile_shared(c_source, path, cc=cc, flags=flags,
                           timeout=timeout)
            return path, key, False
        return path, key, True
