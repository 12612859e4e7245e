"""The worker jobs: request dict in, result dict out.

This module is the *only* code the forked workers run.  The handlers
are deliberately plain synchronous functions over plain data (dicts
in, dicts out) so that :class:`repro.core.pool.ForkWorker` can ship
jobs and results over a pipe, and so that tests can call them
in-process to establish the byte-identity baseline the server is
checked against.

Three job kinds, dispatched on ``op``:

* ``compile`` — the original artifact build (below);
* ``run`` — execute an entry point at a server-chosen tier (graph
  interpreter, bytecode VM, or a native ``.so`` via ctypes) on each of
  the job's argument lists.  An ``interp`` or ``vm`` job carries
  ``key``, ``source``, ``options``, ``entry`` and ``args``; a
  ``native`` job only ``native`` (``so`` and ``entry_meta``), ``entry``
  and ``args``.  Each worker process keeps small per-tier caches (the
  world, the compiled VM image, the loaded ``.so``) so repeated
  requests for the same program skip recompilation; a cached image
  keeps no state between calls — every VM call starts from the
  program's initial heap with no output, and every native run frees
  the heap of the run before it;
* ``native-compile`` — emit hardened C for the statically optimized
  world and build it into the content-addressed native store.  Runs in
  the pool so a wedged or crashing system compiler takes down a
  disposable seat, never the server.

A compile request compiles in one of three modes:

* ``none``   — frontend only (construction-time folding still applies);
* ``static`` — the full optimization pipeline;
* ``pgo``    — static rounds, then profile-guided phases, driven either
  by a precollected ``profile`` or by training on ``entry`` ×
  ``train_args`` via :func:`repro.profile.driver.compile_profiled`.

Artifacts are all text/JSON: ``ir`` (printed Thorin IR), ``c`` (the C
emission), ``bytecode`` (the VM disassembly; ``None`` with a
``bytecode_error`` when the world is not in control-flow form, e.g. an
unoptimized higher-order program), and ``stats``
(:meth:`PipelineStats.as_dict`, keyed per phase for PGO).

``fault`` requests wire a :class:`repro.fuzz.inject.FaultInjector` into
the pipeline as ``pass_hook`` — including the process-fatal ``kill``
mode, which is what the server's crash-isolation test exercises.

Everything a job runs is imported here, at module level, so the shard
daemon holds the whole compiler before it forks its seats and every
seat inherits it: a seat's first job imports nothing.  Only a
``fault`` request imports :mod:`repro.fuzz.inject`, on use.
"""

from __future__ import annotations

import gc
from dataclasses import replace

from ..backend import bytecode as bc
from ..backend.c_emitter import emit_c
from ..backend.codegen import compile_world
from ..backend.interp import Interpreter, InterpError
from ..core import fold
from ..core.limits import ResourceLimitError, trap_kind
from ..core.printer import print_world
from ..frontend import compile_source
from ..native import NativeModule, NativeStore, emit_native_c
from ..profile.collector import ProfileCollector
from ..profile.driver import compile_profiled
from ..profile.model import Profile
from ..transform.pipeline import OptimizeOptions, optimize
from .cache import canonical_options


def _pipeline_options(request: dict) -> OptimizeOptions:
    """Request overrides -> OptimizeOptions.

    ``canonical_options`` admits only the fields the cache key covers;
    the operational ``pass_hook`` is applied afterwards, from a
    ``fault`` request.
    """
    overrides = request.get("options") or {}
    canonical_options(overrides)
    return OptimizeOptions(**overrides)


def _maybe_fault_hook(request: dict, options):
    fault = request.get("fault")
    if fault is None:
        return options
    from ..fuzz.inject import FaultInjector, FaultPlan

    plan = FaultPlan(mode=fault["mode"], target=fault.get("target"),
                     nth=int(fault.get("nth", 1)))
    return replace(options, pass_hook=FaultInjector(plan))


def _artifacts(world, stats_payload) -> dict:
    artifacts = {"ir": print_world(world), "stats": stats_payload}
    try:
        artifacts["c"] = emit_c(world)
    except Exception as exc:
        artifacts["c"] = None
        artifacts["c_error"] = f"{type(exc).__name__}: {exc}"
    try:
        artifacts["bytecode"] = compile_world(world).program.disassemble()
    except Exception as exc:
        artifacts["bytecode"] = None
        artifacts["bytecode_error"] = f"{type(exc).__name__}: {exc}"
    return artifacts


def compile_request(request: dict) -> dict:
    """Execute one validated compile request; returns the artifact dict.

    Raises on compiler errors — the worker pool translates exceptions
    into structured ``compile-error`` replies (and a dead process into
    ``worker-crash``).
    """
    opt = request.get("opt", "static")
    world = compile_source(request["source"], optimize=False)

    if opt == "none":
        return _artifacts(world, None)

    options = _maybe_fault_hook(request, _pipeline_options(request))
    if opt == "static":
        stats = optimize(world, options=options)
        return _artifacts(world, stats.as_dict())

    # opt == "pgo"
    profile_data = request.get("profile")
    if profile_data is not None:
        static_stats = optimize(world, options=options)
        pgo_stats = optimize(world, options=options,
                             profile=Profile.from_dict(profile_data))
        payload = {"static": static_stats.as_dict(),
                   "pgo": pgo_stats.as_dict()}
        return _artifacts(world, payload)

    entry = request["entry"]
    train_args = [tuple(args) for args in request["train_args"]]

    def workload(compiled):
        for args in train_args:
            compiled.call(entry, *args)

    _, _, stats = compile_profiled(world, workload, options=options)
    payload = {"static": stats["static"].as_dict(),
               "pgo": stats["pgo"].as_dict()}
    return _artifacts(world, payload)


# ---------------------------------------------------------------------------
# run + native-compile jobs (the native tier)
# ---------------------------------------------------------------------------

# Per-worker-process artifact caches, keyed by the server's run key (or
# .so path for loaded modules).  Workers are forked and long-lived, so
# the second request for a hot program skips the compile entirely.
_WORKER_CACHE_LIMIT = 16
_INTERP_WORLDS: dict = {}
_VM_IMAGES: dict = {}
_NATIVE_MODULES: dict = {}
# The caches whose miss builds a world.
_WORLD_CACHES = {"interp": _INTERP_WORLDS, "vm": _VM_IMAGES}


def _bounded_put(cache: dict, key, value) -> None:
    cache.pop(key, None)
    cache[key] = value
    while len(cache) > _WORKER_CACHE_LIMIT:
        cache.pop(next(iter(cache)))


def _run_interp_tier(request: dict) -> dict:
    key = request["key"]
    world = _INTERP_WORLDS.get(key)
    if world is None:
        world = compile_source(request["source"], optimize=False)
        _bounded_put(_INTERP_WORLDS, key, world)
    results = []
    for args in request["args"]:
        interp = Interpreter(world)
        try:
            value = interp.call(request["entry"], *args)
            results.append({"value": value, "trap": None,
                            "output": "".join(interp.output)})
        except (InterpError, fold.EvalError, ResourceLimitError) as exc:
            results.append({"value": None, "trap": trap_kind(exc),
                            "output": "".join(interp.output)})
    return {"results": results, "steps": 0}


def _run_vm_tier(request: dict) -> dict:
    key = request["key"]
    compiled = _VM_IMAGES.get(key)
    if compiled is None:
        world = compile_source(request["source"], optimize=False)
        optimize(world, options=_pipeline_options(request))
        compiled = compile_world(world)
        _bounded_put(_VM_IMAGES, key, compiled)
    results = []
    vm = compiled.vm
    before = vm.executed
    # The VM tier doubles as the PGO trainer: requests run with a
    # profile collector and ship their profile back so the server can
    # accumulate per-key training data — when the key turns hot, the
    # background native compile is profile-guided.  Profiling counts
    # only at control transfers of the fused dispatch stream.
    collector = ProfileCollector()
    vm.profile = collector
    try:
        for args in request["args"]:
            try:
                value = compiled.call(request["entry"], *args)
                results.append({"value": value, "trap": None,
                                "output": "".join(vm.output)})
            except (bc.VMError, ResourceLimitError) as exc:
                results.append({"value": None, "trap": trap_kind(exc),
                                "output": "".join(vm.output)})
            finally:
                # Every call starts from the program's initial heap, as
                # on the interpreter tier (a fresh Interpreter per call),
                # and the cached image holds no call's heap.
                vm.reset(compiled.program)
    finally:
        vm.profile = None
    reply = {"results": results, "steps": vm.executed - before}
    if not collector.is_empty():
        reply["profile"] = Profile.from_collector(
            collector, compiled.program).to_dict()
    return reply


def _run_native_tier(request: dict) -> dict:
    so_path = request["native"]["so"]
    module = _NATIVE_MODULES.get(so_path)
    if module is None:
        module = NativeModule(so_path, request["native"]["entry_meta"])
        _bounded_put(_NATIVE_MODULES, so_path, module)
    results = []
    for args in request["args"]:
        run = module.run(request["entry"], args)
        results.append({"value": run.result, "trap": run.trap,
                        "output": run.output})
    return {"results": results, "steps": 0}


def run_request(request: dict) -> dict:
    """Execute one validated run job at the tier the server chose."""
    tier = request["tier"]
    if tier == "interp":
        return _run_interp_tier(request)
    if tier == "vm":
        return _run_vm_tier(request)
    if tier == "native":
        return _run_native_tier(request)
    raise ValueError(f"unknown run tier {tier!r}")


def native_compile_request(request: dict) -> dict:
    """Build ``source`` into the content-addressed native store.

    With a ``profile`` (the VM tier's accumulated training data for
    this key), the static rounds are followed by a profile-guided
    round before the C emission — the native world the daemon tiers up
    to is PGO-specialized.  The profile's site labels name
    continuations of the statically optimized world; same source ×
    options reproduce that world byte-for-byte, so the labels resolve.
    The store content-addresses the C source, so PGO objects never
    collide with static ones.
    """
    world = compile_source(request["source"], optimize=False)
    options = _pipeline_options(request)
    optimize(world, options=options)
    profile_data = request.get("profile")
    if profile_data:
        optimize(world, options=options,
                 profile=Profile.from_dict(profile_data))
    c_source, entry_meta = emit_native_c(world)
    store = NativeStore(request["native_dir"])
    so_path, store_key, cached = store.get_or_build(
        c_source, timeout=request.get("cc_timeout", 60.0))
    return {"so": str(so_path), "entry_meta": entry_meta,
            "store_key": store_key, "cached": cached,
            "pgo": bool(profile_data)}


def run_job(request: dict) -> dict:
    """The pool handler: one job, dispatched on its ``op``.

    A world is cyclic (use lists), so the world a job built and dropped
    is garbage only the cyclic collector frees.  The seat collects after
    every job that built one — a compile, a native compile, an interp-
    or VM-tier cache miss — so its peak RSS is set by the largest job,
    not by where automatic collections happen to fall.  A native run
    builds none and is never followed by a collection.
    """
    op = request.get("op", "compile")
    if op == "run":
        cache = _WORLD_CACHES.get(request["tier"])
        built = cache is not None and request["key"] not in cache
        job = run_request
    else:
        built = True
        job = (native_compile_request if op == "native-compile"
               else compile_request)
    try:
        return job(request)
    finally:
        if built:
            gc.collect()
