"""The asyncio compile server.

The transport — pipelined NDJSON connections, reply tagging, SIGTERM
drain — is :class:`~repro.serve.protocol.LineServer`;
this module is what a shard does with each request.  The event loop
only parses, routes and replies; every compile and every run executes
in a forked worker (:class:`repro.core.pool.WorkerPool`), which the
loop drives like a socket (the job goes down the seat's socket, the
reply is read when it arrives, the deadline is a loop timer), so the
loop stays responsive while compiles grind and stays *alive* when a
job takes its whole process down.  A ``ping``, a ``stats`` and a cache
hit are answered in the event-loop pass that read them; a ``run`` is
submitted to the pool in that pass and answered in the pass that reads
the seat's reply, with no task in between.

Request flow, in order:

1. **cache** — a content-address hit (memory or disk) replies
   immediately; no worker, no queue, no task, and no JSON work on the
   artifacts: the cache holds their canonical text, which the reply
   splices verbatim (:class:`~repro.serve.protocol.RawJSON`).  A cold
   compile's reply splices the text its cache write produced.
2. **single-flight** — an identical request already compiling joins its
   leader instead of compiling twice and is answered with it; joiners
   are marked ``coalesced`` in the reply.
3. **admission** — at most ``max_pending`` compiles may be queued or
   running; beyond that the server sheds load with an ``overloaded``
   reply instead of buffering unboundedly.
4. **execute** — the job runs in a pool worker under the per-request
   deadline (a miss awaits ``WorkerPool.run`` as a task).  A worker
   death (segfault, injected ``kill``, deadline overrun) becomes a
   structured ``worker-crash`` reply, the seat respawns, and the
   server keeps serving.  A pipeline that could not recover
   (``PipelineCrash``) becomes a ``compile-error``.  Both replies carry
   ``crash_bundle``: the request, written under ``crash_dir`` by
   :meth:`CompileServer._write_crash_bundle`, the only bundle writer.
   A world is a deterministic function of its request, so the request
   replays the crash.  An exception the server itself did not expect
   answers the request, and every request coalesced on it,
   ``internal-error``.

Fault-injected requests bypass the cache in both directions: their
artifacts are not representative and must never be served to (or
poisoned by) clean requests.

``run`` requests take the tiered execution path instead, by callback
from start to end: validation, the run key, admission, the tier
decision, ``WorkerPool.submit`` — and the reply is written from the
job's ``done`` callback.  The
:class:`~repro.native.tiering.TieringManager` picks interp/VM/native
per program, and when a program turns hot the server launches one
background ``native-compile`` job through the same crash-isolated
pool.  A native-tier job carries only what the seat executes (the
``.so``, its ``entry_meta``, the entry and the argument lists); the
interp and VM tiers also ship the source, options and key, from which
the seat builds (and caches) the program on a miss.  VM-tier runs
execute instrumented and their profiles accumulate per key, so that
promotion job is profile-guided: the native world is specialized
around the paths this key's own requests actually took.  Native
failures of any kind — compiler error, build timeout, worker crash
while executing the ``.so`` — quarantine the program back to the VM (a
crashed native *run* is resubmitted on the VM from the same callback,
so the client still gets an answer).  ``.so`` objects are
content-addressed in ``<cache_dir>/native`` beside the artifact store,
so a restarted daemon re-promotes from a warm object cache.

SIGTERM/SIGINT drain cleanly: the listener closes, queued requests get
``shutting-down`` replies, the pool is torn down, ``run()`` returns.

In fleet mode (:mod:`repro.serve.fleet`) each shard is one of these
servers: ``shard_name`` tags ``ping``/``stats`` replies, ``port_file``
publishes the bound port for ``--port 0``, and ``cache_max_bytes``
bounds the shared object store with an mtime-LRU sweep.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .. import __version__
from ..core.pool import JobError, WorkerCrash, WorkerPool
from ..native import (TierDecision, TieringManager, TieringPolicy,
                      native_available)
from .cache import ArtifactCache, cache_key, run_cache_key
from .protocol import (LineServer, ProtocolError, RawJSON, error_reply,
                       validate_compile_request, validate_run_request)
from .worker import run_job

# Budget for one background native compile (pool deadline); the cc
# subprocess inside gets a tighter timeout so a wedged compiler
# surfaces as a structured error, not a worker kill.
NATIVE_COMPILE_TIMEOUT = 120.0


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 7767
    workers: int = 2
    cache_dir: str | None = "serve_cache"
    crash_dir: str = "crash_reports"
    # Identity in a fleet: echoed by ping/stats so routers and
    # operators can tell shards apart.  None = standalone daemon.
    shard_name: str | None = None
    # When set, the bound port is written here after the listener is
    # up (atomic write).  This is how the fleet manager discovers the
    # port of a shard started with port=0.
    port_file: str | None = None
    # Disk object-store budget; exceeding it triggers an mtime-LRU GC
    # sweep (see cache.ArtifactCache.gc).  None = unbounded.
    cache_max_bytes: int | None = None
    # Admission control: queued-or-running compiles beyond this are shed.
    max_pending: int = 32
    # Per-request wall-clock budget inside the worker; overruns kill
    # and respawn the seat (the request gets a worker-crash reply).
    request_timeout: float = 120.0
    # -- the native tier (run requests) --------------------------------
    # Master switch; native also turns itself off when no C compiler is
    # on PATH (requests then tier interp -> vm and stop there).
    native: bool = True
    # Where .so objects live; default <cache_dir>/native (or a temp
    # directory when the cache is disabled).
    native_dir: str | None = None
    # Run requests per program that mark it hot enough for a background
    # native compile (see native.tiering for the fixed thresholds).
    tier_hot_requests: int = 4


class CompileServer(LineServer):
    def __init__(self, config: ServerConfig | None = None):
        super().__init__(config or ServerConfig())
        self.cache = ArtifactCache(self.config.cache_dir,
                                   max_bytes=self.config.cache_max_bytes)
        self.pool: WorkerPool | None = None
        # Cache key -> the responders of requests that joined the
        # compile in flight for it.
        self._inflight: dict[str, list] = {}
        self._pending = 0
        self.tiering = TieringManager(TieringPolicy(
            enabled=self.config.native and native_available(),
            hot_requests=self.config.tier_hot_requests))
        if self.config.native_dir is not None:
            self.native_dir = self.config.native_dir
        elif self.config.cache_dir is not None:
            self.native_dir = str(Path(self.config.cache_dir) / "native")
        else:
            self.native_dir = tempfile.mkdtemp(prefix="repro-native-")
        self._promotions: dict[str, asyncio.Task] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self.pool = WorkerPool(run_job, size=self.config.workers)
        await super().start()

    async def stop(self) -> None:
        """Drain: queued requests get ``shutting-down`` replies, then the
        pool is torn down."""
        for task in list(self._promotions.values()):
            task.cancel()
        await super().stop()
        shutting_down = error_reply("shutting-down",
                                    "server is shutting down")
        for joiners in self._inflight.values():
            for respond in joiners:
                respond(shutting_down)
        self._inflight.clear()
        if self.pool is not None:
            self.pool.close()

    # -- request routing ----------------------------------------------------

    def dispatch(self, message: dict, respond) -> None:
        op = message["op"]
        if op == "ping":
            respond({"ok": True, "pong": True, "version": __version__,
                     "pid": os.getpid(), "shard": self.config.shard_name})
        elif op == "stats":
            respond(self._stats_reply())
        elif op == "compile":
            self._compile(message, respond)
        else:
            self._run(message, respond)

    def _stats_reply(self) -> dict:
        assert self.pool is not None
        return {
            "ok": True,
            "shard": self.config.shard_name,
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started, 3),
            "workers": self.pool.size,
            "worker_crashes": self.pool.crashes,
            "pending": self._pending,
            "inflight_keys": len(self._inflight),
            "cache": self.cache.stats(),
            "tiering": self.tiering.snapshot(),
            **self.metrics.snapshot(),
        }

    # -- the compile path ---------------------------------------------------

    def _compile(self, message: dict, respond) -> None:
        started = time.perf_counter()
        self.metrics.bump("compile_requests")
        request = validate_compile_request(message)
        try:
            key = cache_key(request)
        except ValueError as exc:  # unknown options field
            raise ProtocolError("bad-request", str(exc)) from exc

        cacheable = "fault" not in request
        if cacheable:
            hit = self.cache.get(key)
            if hit is not None:
                text, tier = hit
                self.metrics.bump("cache_hits")
                self.metrics.observe("compile_cached",
                                     time.perf_counter() - started)
                respond(self._ok(key, RawJSON(text), cached=tier))
                return
            self.metrics.bump("cache_misses")

            joiners = self._inflight.get(key)
            if joiners is not None:
                self.metrics.bump("coalesced")
                joiners.append(respond)
                return

        if self._pending >= self.config.max_pending:
            self.metrics.bump("shed")
            raise ProtocolError(
                "overloaded",
                f"{self._pending} compiles already pending "
                f"(max {self.config.max_pending}); retry later")

        if cacheable:
            self._inflight[key] = []
        self._pending += 1
        self.spawn(self._lead(request, key, started), respond)

    async def _lead(self, request: dict, key: str, started) -> dict:
        """Compile; every request that joined this key meanwhile is
        answered with the same reply (``internal-error`` when the
        compile path raised what it should not)."""
        reply = error_reply("shutting-down", "server is shutting down")
        try:
            reply = await self._execute(request, key, started)
        except Exception as exc:
            reply = self._fault(exc).as_reply()
        finally:
            self._pending -= 1
            # A fault request shares its key with its clean twin but
            # never leads the twin's joiners.
            joiners = (self._inflight.pop(key, ())
                       if "fault" not in request else ())
            if reply.get("ok"):
                joined = self._ok(key, reply["artifacts"], cached=False,
                                  coalesced=True)
            else:
                joined = reply
            for respond in joiners:
                respond(joined)
        return reply

    async def _execute(self, request: dict, key: str, started) -> dict:
        assert self.pool is not None
        try:
            artifacts = await self.pool.run(
                request, timeout=self.config.request_timeout)
        except JobError as exc:
            self.metrics.bump("compile_errors")
            return self._job_error_reply(exc, request)
        except WorkerCrash as exc:
            self.metrics.bump("worker_crashes")
            if "deadline" in exc.reason:
                self.metrics.bump("deadline_kills")
            bundle = self._write_crash_bundle(exc, request)
            return error_reply(
                "worker-crash", exc.reason, crash_bundle=bundle,
                exitcode=exc.exitcode)
        except RuntimeError as exc:  # pool closed during shutdown
            return error_reply("shutting-down", str(exc))

        self.metrics.record_compile(artifacts.get("stats"))
        if "fault" not in request:
            artifacts = RawJSON(self.cache.put(key, artifacts))
        self.metrics.observe("compile_cold", time.perf_counter() - started)
        return self._ok(key, artifacts, cached=False)

    # -- the tiered run path ------------------------------------------------

    def _run(self, message: dict, respond) -> None:
        started = time.perf_counter()
        self.metrics.bump("run_requests")
        request = validate_run_request(message)
        try:
            key = run_cache_key(request)
        except ValueError as exc:  # unknown options field
            raise ProtocolError("bad-request", str(exc)) from exc

        # Admission control first: a shed request is never served, so it
        # must not advance per-key hotness, per-tier stats, or launch a
        # background native compile.
        if self._pending >= self.config.max_pending:
            self.metrics.bump("shed")
            raise ProtocolError(
                "overloaded",
                f"{self._pending} requests already pending "
                f"(max {self.config.max_pending}); retry later")

        decision = self.tiering.decide(key)
        self.metrics.bump(f"run_tier_{decision.tier}")
        if decision.promote:
            self._start_promotion(key, request)

        self._pending += 1
        self._submit_run(request, key, decision, started, respond)

    def _submit_run(self, request: dict, key: str, decision: TierDecision,
                    started, respond) -> None:
        """Run *request* on *decision*'s tier; ``respond`` gets the reply
        from the pool's ``done`` callback."""
        assert self.pool is not None
        if decision.tier == "native":
            # The seat runs a cached .so: nothing else to ship.
            job = {"op": "run", "tier": "native",
                   "entry": request["entry"], "args": request["args"],
                   "native": {"so": decision.so_path,
                              "entry_meta": decision.entry_meta}}
        else:
            job = {"op": "run", "tier": decision.tier, "key": key,
                   "source": request["source"], "entry": request["entry"],
                   "args": request["args"], "options": request["options"]}

        def done(result, error) -> None:
            if isinstance(error, WorkerCrash) and decision.tier == "native":
                # A crashed native run quarantines the program and is
                # retried on the VM — the client still gets an answer.
                self.metrics.bump("worker_crashes")
                self.tiering.fallback(key, error.reason)
                self._submit_run(request, key, TierDecision("vm", False),
                                 started, respond)
                return
            self._pending -= 1
            respond(self._run_reply(request, key, decision, started,
                                    result, error))

        self.pool.submit(job, self.config.request_timeout, done)

    def _run_reply(self, request: dict, key: str, decision: TierDecision,
                   started, result, error) -> dict:
        if isinstance(error, JobError):
            self.metrics.bump("run_errors")
            return self._job_error_reply(error, request)
        if isinstance(error, WorkerCrash):
            self.metrics.bump("worker_crashes")
            if "deadline" in error.reason:
                self.metrics.bump("deadline_kills")
            bundle = self._write_crash_bundle(error, request)
            return error_reply(
                "worker-crash", error.reason, crash_bundle=bundle,
                exitcode=error.exitcode)
        if error is not None:  # pool closed during shutdown
            return error_reply("shutting-down", str(error))

        if decision.tier == "vm":
            self.tiering.note_steps(key, result.get("steps", 0))
            self.tiering.note_profile(key, result.get("profile"))
        self.metrics.observe("run", time.perf_counter() - started)
        return {"ok": True, "key": key, "tier": decision.tier,
                "native_state": self.tiering.state_of(key),
                "results": result["results"]}

    def _start_promotion(self, key: str, request: dict) -> None:
        if key in self._promotions:
            return
        job = {"op": "native-compile", "source": request["source"],
               "options": request["options"],
               "native_dir": self.native_dir,
               "cc_timeout": NATIVE_COMPILE_TIMEOUT * 0.8}
        # PGO: ship whatever training data the VM tier accumulated for
        # this key; the worker then runs a profile-guided round before
        # emitting C (absent profile => plain static native compile).
        profile = self.tiering.profile_of(key)
        if profile:
            job["profile"] = profile
        self._promotions[key] = asyncio.get_running_loop().create_task(
            self._promote(key, job))

    async def _promote(self, key: str, job: dict) -> None:
        assert self.pool is not None
        try:
            result = await self.pool.run(job, timeout=NATIVE_COMPILE_TIMEOUT)
        except JobError as exc:
            self.metrics.bump("native_compile_errors")
            self.tiering.quarantine(key, f"{exc.kind}: {exc.detail}")
            if exc.kind == "PipelineCrash":
                self._write_crash_bundle(exc, job)
        except WorkerCrash as exc:
            self.metrics.bump("native_compile_crashes")
            self.tiering.quarantine(key, exc.reason)
            self._write_crash_bundle(exc, job)
        except RuntimeError:
            pass  # pool closed during shutdown; nothing to record
        else:
            self.tiering.native_ready(key, result["so"],
                                      result["entry_meta"],
                                      cached=result["cached"],
                                      pgo=result.get("pgo", False))
        finally:
            self._promotions.pop(key, None)

    def _job_error_reply(self, error: JobError, request: dict) -> dict:
        extra = {}
        if error.kind == "PipelineCrash":
            extra["crash_bundle"] = self._write_crash_bundle(error, request)
        return error_reply("compile-error", f"{error.kind}: {error.detail}",
                           kind=error.kind, **extra)

    def _write_crash_bundle(self, error: JobError | WorkerCrash,
                            request: dict) -> str | None:
        """Write ``crash-NNNN-<kind>/`` under ``crash_dir``; its path.

        ``report.json`` holds the request verbatim with the error's
        kind, message, traceback (a :class:`JobError`'s, from the
        worker) and exit code (a :class:`WorkerCrash`'s), and
        ``repro.impala`` the request's source.  The index is taken by
        ``mkdir`` alone, so servers sharing ``crash_dir`` never race for
        one.  Best-effort: ``None`` when nothing could be written.
        """
        if isinstance(error, JobError):
            kind, message = error.kind, error.detail
        else:
            kind, message = type(error).__name__, error.reason
        report = {"error": {"kind": kind, "message": message,
                            "traceback": getattr(error, "trace", None),
                            "exitcode": getattr(error, "exitcode", None)},
                  "request": request}
        try:
            text = json.dumps(report, indent=2)
            root = Path(self.config.crash_dir)
            root.mkdir(parents=True, exist_ok=True)
            for index in itertools.count():
                bundle = root / f"crash-{index:04d}-{kind}"
                try:
                    bundle.mkdir()
                    break
                except FileExistsError:
                    continue
            (bundle / "repro.impala").write_text(request["source"])
            (bundle / "report.json").write_text(text)
            return str(bundle)
        except Exception:  # reporting is best-effort
            return None

    @staticmethod
    def _ok(key: str, artifacts: dict | RawJSON, *, cached,
            coalesced: bool = False) -> dict:
        return {"ok": True, "key": key, "cached": cached,
                "coalesced": coalesced, "artifacts": artifacts}


def run_server(config: ServerConfig) -> None:
    """Blocking entry point used by ``python -m repro.serve``."""
    if config.cache_dir is not None:
        Path(config.cache_dir).mkdir(parents=True, exist_ok=True)
    asyncio.run(CompileServer(config).run())
