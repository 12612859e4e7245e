"""Each service process loads what it runs, and perfbench's imports hold.

The router derives keys and forwards lines; it must not load the
compiler.  The shard daemon imports the whole compiler before it forks
its worker seats, so a seat's jobs import nothing after the fork.  Both
are checked in a fresh interpreter (``sys.modules`` of this one holds
whatever earlier tests imported).

The last test walks ``perfbench/*.py`` and imports every ``repro`` name
the benchmark uses, so trimming a package root or renaming a function
cannot break the benchmark unnoticed.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import repro
from repro.core.canonical import canonical_json
from repro.native import find_cc
from repro.serve import cache
from repro.transform.pipeline import OptimizeOptions

SRC_DIR = Path(repro.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ROUTER_MODULES = ["repro", "repro.core", "repro.core.canonical",
                  "repro.serve", "repro.serve.cache", "repro.serve.metrics",
                  "repro.serve.protocol", "repro.serve.router"]


def _fresh(code: str, *args: str) -> dict:
    """Run *code* in a fresh interpreter; it prints one JSON line."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "repro" or m.startswith("repro."))
"""


def test_the_router_holds_no_compiler():
    found = _fresh(_LOADED + """
import repro.serve.router
router = loaded()
import repro.serve.__main__, repro.serve.fleet
print(json.dumps({"router": router, "fleet": loaded()}))
""")
    assert found["router"] == ROUTER_MODULES
    assert sorted(set(found["fleet"]) - set(found["router"])) == [
        "repro.serve.__main__", "repro.serve.fleet"]


_SEAT_JOBS = _LOADED + """
import repro.serve.server
from repro.serve.cache import run_cache_key
from repro.serve.worker import run_job

before = set(loaded())
src = ("fn main(n: i64) -> i64 { let mut s = 0; "
       "for i in 0..n { s += i * i; } s }")
run = {"op": "run", "source": src, "entry": "main", "args": [[5]],
       "options": {}}
key = run_cache_key(run)
jobs = {
    "static": {"op": "compile", "source": src, "opt": "static"},
    "pgo": {"op": "compile", "source": src, "opt": "pgo",
            "entry": "main", "train_args": [[4]]},
    "interp": {**run, "tier": "interp", "key": key},
    "vm": {**run, "tier": "vm", "key": key},
}
if sys.argv[1]:
    jobs["native-compile"] = {"op": "native-compile", "source": src,
                              "options": {}, "native_dir": sys.argv[1]}
imported = {}
for name, job in jobs.items():
    run_job(job)
    imported[name] = sorted(set(loaded()) - before)
print(json.dumps(imported))
"""


def test_a_seat_imports_nothing_after_the_fork(tmp_path):
    """A seat is forked from the shard daemon once it has imported
    :mod:`repro.serve.server`; every job kind runs on what that import
    loaded (a ``fault`` request alone may import the fault injector)."""
    native = find_cc() is not None
    found = _fresh(_SEAT_JOBS, str(tmp_path / "native") if native else "")
    expected = ["static", "pgo", "interp", "vm"]
    if native:
        expected.append("native-compile")
    assert found == {name: [] for name in expected}


def test_wire_defaults_are_the_pipeline_defaults():
    """The router keys requests from a literal table; it must equal the
    pipeline's own defaults, value and JSON spelling alike."""
    defaults = asdict(OptimizeOptions())
    del defaults["pass_hook"]
    assert canonical_json(cache._WIRE_DEFAULTS) == canonical_json(defaults)
    assert cache.WIRE_OPTIONS == frozenset(defaults)


def _perfbench_imports() -> list[tuple[str, str, str | None]]:
    """``(file, module, name)`` for every ``repro`` import in perfbench
    (``name`` is ``None`` for a plain ``import repro.x``)."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name, None)
                          for alias in node.names
                          if alias.name.split(".")[0] == "repro"]
            elif (isinstance(node, ast.ImportFrom) and not node.level
                  and node.module.split(".")[0] == "repro"):
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
    return found


def test_perfbench_imports_resolve():
    imports = _perfbench_imports()
    assert len(imports) >= 10, imports  # the walk found the benchmark
    for filename, module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from repro.serve import cache`` names a submodule.
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"perfbench/{filename}: from {module_name} "
                        f"import {name} does not resolve")
