"""The asyncio compile server.

One connection = one NDJSON request/reply stream, *pipelined*: every
incoming line is dispatched concurrently (replies may interleave in
completion order, serialized by a per-connection write lock), and a
``batch`` op carries many sub-requests on one line with sub-replies
streamed back as they finish plus a trailing summary.  The event loop
only parses, routes and replies; every compile runs in a forked worker
(:class:`repro.core.pool.WorkerPool`) reached through a small thread
executor, so the loop stays responsive while compiles grind and stays
*alive* when a compile takes its whole process down.

Request flow, in order:

1. **cache** — a content-address hit (memory or disk) replies
   immediately; no worker, no queue, and no JSON work on the
   artifacts: the cache holds their canonical text, which the reply
   splices verbatim (:class:`~repro.serve.protocol.RawJSON`).  A cold
   compile's reply splices the text its cache write produced.
2. **single-flight** — an identical request already compiling joins its
   in-flight future instead of compiling twice; joiners are marked
   ``coalesced`` in the reply.
3. **admission** — at most ``max_pending`` compiles may be queued or
   running; beyond that the server sheds load with an ``overloaded``
   reply instead of buffering unboundedly.
4. **execute** — the job runs in a pool worker under the per-request
   deadline.  A worker death (segfault, injected ``kill``, deadline
   overrun) becomes a structured ``worker-crash`` reply carrying the
   crash-bundle path, the seat respawns, and the server keeps serving.

Fault-injected requests bypass the cache in both directions: their
artifacts are not representative and must never be served to (or
poisoned by) clean requests.

``run`` requests take the tiered execution path instead: the
:class:`~repro.native.tiering.TieringManager` picks interp/VM/native
per program, and when a program turns hot the server launches one
background ``native-compile`` job through the same crash-isolated
pool.  VM-tier runs execute instrumented and their profiles accumulate
per key, so that promotion job is profile-guided: the native world is
specialized around the paths this key's own requests actually took.  Native failures of any kind — compiler error, build timeout,
worker crash while executing the ``.so`` — quarantine the program back
to the VM (a crashed native *run* is retried on the VM immediately, so
the client still gets an answer).  ``.so`` objects are
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
import concurrent.futures
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .. import __version__
from ..core.pool import JobError, WorkerCrash, WorkerPool
from ..native import (TierDecision, TieringManager, TieringPolicy,
                      native_available)
from .cache import ArtifactCache, cache_key, run_cache_key
from .metrics import Metrics
from .protocol import (MAX_LINE_BYTES, ProtocolError, RawJSON,
                       decode_line, encode_message, error_reply,
                       validate_batch_request, validate_compile_request,
                       validate_run_request)
from .worker import CompileHandler


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
    memory_cache_entries: int = 128
    # -- the native tier (run requests) --------------------------------
    # Master switch; native also turns itself off when no C compiler is
    # on PATH (requests then tier interp -> vm and stop there).
    native: bool = True
    # Where .so objects live; default <cache_dir>/native (or a temp
    # directory when the cache is disabled).
    native_dir: str | None = None
    # Tiering policy: requests served by the interpreter before the VM
    # takes over, and the request/step thresholds that mark a program
    # hot enough for a background native compile.
    tier_interp_runs: int = 2
    tier_hot_requests: int = 4
    tier_hot_steps: int = 100_000
    # Budget for one background native compile (pool deadline); the cc
    # subprocess inside gets a slightly tighter timeout so a wedged
    # compiler surfaces as a structured error, not a worker kill.
    native_compile_timeout: float = 120.0
    # Per-call block-entry budget for native runs; honest programs sit
    # far below it, and real hangs are killed by request_timeout anyway.
    native_fuel: int = 1 << 40


class CompileServer:
    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.metrics = Metrics()
        self.cache = ArtifactCache(self.config.cache_dir,
                                   self.config.memory_cache_entries,
                                   max_bytes=self.config.cache_max_bytes)
        self.pool: WorkerPool | None = None
        self._server: asyncio.base_events.Server | None = None
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._connections: set[asyncio.StreamWriter] = set()
        self._pending = 0
        self._stopping = asyncio.Event()
        self.started = time.time()
        self.tiering = TieringManager(TieringPolicy(
            enabled=self.config.native and native_available(),
            interp_runs=self.config.tier_interp_runs,
            hot_requests=self.config.tier_hot_requests,
            hot_steps=self.config.tier_hot_steps))
        if self.config.native_dir is not None:
            self.native_dir = self.config.native_dir
        elif self.config.cache_dir is not None:
            self.native_dir = str(Path(self.config.cache_dir) / "native")
        else:
            self.native_dir = tempfile.mkdtemp(prefix="repro-native-")
        self._promotions: dict[str, asyncio.Task] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self.pool = WorkerPool(CompileHandler(self.config.crash_dir),
                               size=self.config.workers)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers + 2,
            thread_name_prefix="serve-pool")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES + 2)
        if self.config.port_file:
            # Atomic: the fleet manager polls for this file and must
            # never read a half-written port number.
            target = Path(self.config.port_file)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(str(self.port))
            os.replace(tmp, target)

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self._stopping.set()
        for task in list(self._promotions.values()):
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for future in list(self._inflight.values()):
            if not future.done():
                future.set_result(error_reply(
                    "shutting-down", "server is shutting down"))
        self._inflight.clear()
        # Close accepted connections too: a process exit would close
        # these sockets anyway, but an in-process stop (tests, embedded
        # shards) must not leave peers blocked on a dead stream.
        for writer in list(self._connections):
            writer.close()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self.pool is not None:
            self.pool.close()

    async def run(self) -> None:
        """Start, install signal handlers, serve until SIGTERM/SIGINT."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._stopping.set)
        try:
            await self._stopping.wait()
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
            await self.stop()

    # -- connections --------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        # One connection may have many requests in flight: every line
        # becomes a task, replies are written (lock-serialized) as they
        # complete.  That is what makes a pooled router->shard
        # connection a pipeline instead of a turn-taking RPC channel —
        # a cold compile no longer blocks the cache hits queued behind
        # it.  Plain one-at-a-time clients see the old behavior.
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        self._connections.add(writer)
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line outgrew the stream limit; the framing is
                    # lost, so reply and drop the connection.
                    async with write_lock:
                        await self._send(writer, error_reply(
                            "oversized",
                            f"request line exceeds {MAX_LINE_BYTES} bytes"))
                    break
                if not line or not line.endswith(b"\n"):
                    break  # EOF (possibly mid-request): just drop it.
                if line.strip() == b"":
                    continue
                task = asyncio.create_task(
                    self._serve_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                # Drain in-flight replies before closing the stream; a
                # disconnect mid-compile still runs the job to
                # completion (the artifact lands in the cache) but the
                # write fails silently below.
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished mid-reply; nothing to salvage
        except asyncio.CancelledError:
            pass  # server shutdown with this connection still open
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            self.metrics.bump("requests_total")
            self.metrics.bump(f"errors_{exc.code}")
            await self._send_locked(writer, write_lock, exc.as_reply(None))
            return
        if message.get("op") == "batch":
            await self._serve_batch(message, writer, write_lock)
            return
        reply = await self._dispatch_message(message)
        await self._send_locked(writer, write_lock, reply)

    async def _serve_batch(self, message: dict,
                           writer: asyncio.StreamWriter,
                           write_lock: asyncio.Lock) -> None:
        """One batch line: fan out, stream sub-replies, close with a
        summary.  Sub-requests run concurrently; each reply leaves as
        soon as its sub-request finishes."""
        self.metrics.bump("requests_total")
        self.metrics.bump("batch_requests")
        batch_id = message.get("id")
        try:
            subs = validate_batch_request(message)
        except ProtocolError as exc:
            self.metrics.bump(f"errors_{exc.code}")
            await self._send_locked(writer, write_lock,
                                    exc.as_reply(batch_id))
            return

        async def one(sub: dict) -> bool:
            reply = await self._dispatch_message(sub)
            reply.setdefault("id", sub["id"])
            if batch_id is not None:
                reply["batch"] = batch_id
            await self._send_locked(writer, write_lock, reply)
            return bool(reply.get("ok"))

        oks = await asyncio.gather(*(one(sub) for sub in subs))
        summary = {"ok": True, "batch_complete": True,
                   "replies": len(oks), "failed": oks.count(False)}
        if batch_id is not None:
            summary["batch"] = batch_id
            summary["id"] = batch_id
        await self._send_locked(writer, write_lock, summary)

    async def _send_locked(self, writer: asyncio.StreamWriter,
                           write_lock: asyncio.Lock, reply: dict) -> None:
        try:
            async with write_lock:
                await self._send(writer, reply)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # peer vanished; the work itself already happened

    async def _send(self, writer: asyncio.StreamWriter,
                    reply: dict) -> None:
        writer.write(encode_message(reply))
        await writer.drain()

    # -- request routing ----------------------------------------------------

    async def _dispatch(self, line: bytes) -> dict:
        """Decode one wire line and dispatch it (non-batch ops)."""
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            self.metrics.bump("requests_total")
            self.metrics.bump(f"errors_{exc.code}")
            return exc.as_reply(None)
        return await self._dispatch_message(message)

    async def _dispatch_message(self, message: dict) -> dict:
        started = time.perf_counter()
        self.metrics.bump("requests_total")
        request_id = message.get("id")
        try:
            op = message.get("op")
            if op == "ping":
                return self._ping_reply(request_id)
            if op == "stats":
                return self._stats_reply(request_id)
            if op == "compile":
                return await self._compile(message, request_id, started)
            if op == "run":
                return await self._run(message, request_id, started)
            if op == "batch":
                raise ProtocolError("bad-request", "batches do not nest")
            raise ProtocolError("bad-request",
                                f"unknown op {op!r}; expected "
                                f"'compile', 'run', 'batch', 'stats' or "
                                f"'ping'")
        except ProtocolError as exc:
            self.metrics.bump(f"errors_{exc.code}")
            return exc.as_reply(request_id)
        finally:
            self.metrics.observe("request", time.perf_counter() - started)

    def _ping_reply(self, request_id) -> dict:
        reply = {"ok": True, "pong": True, "version": __version__,
                 "pid": os.getpid(), "shard": self.config.shard_name}
        if request_id is not None:
            reply["id"] = request_id
        return reply

    def _stats_reply(self, request_id) -> dict:
        assert self.pool is not None
        reply = {
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
        if request_id is not None:
            reply["id"] = request_id
        return reply

    # -- the compile path ---------------------------------------------------

    async def _compile(self, message: dict, request_id, started) -> dict:
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
                return self._ok(request_id, key, RawJSON(text), cached=tier)
            self.metrics.bump("cache_misses")

            inflight = self._inflight.get(key)
            if inflight is not None:
                self.metrics.bump("coalesced")
                reply = dict(await inflight)
                if reply.get("ok"):
                    reply = self._ok(request_id, key,
                                     reply["artifacts"], cached=False,
                                     coalesced=True)
                elif request_id is not None:
                    reply["id"] = request_id
                return reply

        if self._pending >= self.config.max_pending:
            self.metrics.bump("shed")
            raise ProtocolError(
                "overloaded",
                f"{self._pending} compiles already pending "
                f"(max {self.config.max_pending}); retry later")

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if cacheable:
            self._inflight[key] = future
        self._pending += 1
        try:
            reply = await self._execute(request, key, request_id, started)
        finally:
            self._pending -= 1
            if cacheable and self._inflight.get(key) is future:
                del self._inflight[key]
            if not future.done():
                future.set_result(reply)
        return reply

    async def _execute(self, request: dict, key: str, request_id,
                       started) -> dict:
        assert self.pool is not None and self._executor is not None
        loop = asyncio.get_running_loop()
        try:
            artifacts = await loop.run_in_executor(
                self._executor,
                lambda: self.pool.run(request,
                                      timeout=self.config.request_timeout))
        except JobError as exc:
            self.metrics.bump("compile_errors")
            return error_reply(
                "compile-error", f"{exc.kind}: {exc.detail}",
                request_id=request_id, kind=exc.kind)
        except WorkerCrash as exc:
            self.metrics.bump("worker_crashes")
            if "deadline" in exc.reason:
                self.metrics.bump("deadline_kills")
            bundle = self._write_crash_bundle(exc, request)
            return error_reply(
                "worker-crash", exc.reason, request_id=request_id,
                crash_bundle=bundle, exitcode=exc.exitcode)
        except RuntimeError as exc:  # pool closed during shutdown
            return error_reply("shutting-down", str(exc),
                               request_id=request_id)

        self._record_phase_timings(artifacts)
        if "fault" not in request:
            artifacts = RawJSON(self.cache.put(key, artifacts))
        self.metrics.observe("compile_cold", time.perf_counter() - started)
        return self._ok(request_id, key, artifacts, cached=False)

    # -- the tiered run path ------------------------------------------------

    async def _run(self, message: dict, request_id, started) -> dict:
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
        try:
            return await self._execute_run(request, key, decision,
                                           request_id, started)
        finally:
            self._pending -= 1

    async def _execute_run(self, request: dict, key: str,
                           decision: TierDecision, request_id,
                           started) -> dict:
        assert self.pool is not None and self._executor is not None
        loop = asyncio.get_running_loop()
        job = {"op": "run", "tier": decision.tier, "key": key,
               "source": request["source"], "entry": request["entry"],
               "args": request["args"], "options": request["options"]}
        if decision.tier == "native":
            job["native"] = {"so": decision.so_path,
                             "entry_meta": decision.entry_meta}
            job["fuel"] = self.config.native_fuel
        try:
            result = await loop.run_in_executor(
                self._executor,
                lambda: self.pool.run(job,
                                      timeout=self.config.request_timeout))
        except JobError as exc:
            self.metrics.bump("run_errors")
            return error_reply(
                "compile-error", f"{exc.kind}: {exc.detail}",
                request_id=request_id, kind=exc.kind)
        except WorkerCrash as exc:
            self.metrics.bump("worker_crashes")
            if decision.tier == "native":
                # A crashed native run quarantines the program and is
                # retried on the VM — the client still gets an answer.
                self.tiering.fallback(key, exc.reason)
                return await self._execute_run(
                    request, key, TierDecision("vm", False),
                    request_id, started)
            if "deadline" in exc.reason:
                self.metrics.bump("deadline_kills")
            bundle = self._write_crash_bundle(exc, request)
            return error_reply(
                "worker-crash", exc.reason, request_id=request_id,
                crash_bundle=bundle, exitcode=exc.exitcode)
        except RuntimeError as exc:  # pool closed during shutdown
            return error_reply("shutting-down", str(exc),
                               request_id=request_id)

        if decision.tier == "vm":
            self.tiering.note_steps(key, result.get("steps", 0))
            self.tiering.note_profile(key, result.get("profile"))
        self.metrics.observe("run", time.perf_counter() - started)
        reply = {"ok": True, "key": key, "tier": decision.tier,
                 "native_state": self.tiering.state_of(key),
                 "results": result["results"]}
        if request_id is not None:
            reply["id"] = request_id
        return reply

    def _start_promotion(self, key: str, request: dict) -> None:
        if key in self._promotions:
            return
        job = {"op": "native-compile", "source": request["source"],
               "options": request["options"],
               "native_dir": self.native_dir,
               "cc_timeout": max(1.0,
                                 self.config.native_compile_timeout * 0.8)}
        # PGO: ship whatever training data the VM tier accumulated for
        # this key; the worker then runs a profile-guided round before
        # emitting C (absent profile => plain static native compile).
        profile = self.tiering.profile_of(key)
        if profile:
            job["profile"] = profile
        self._promotions[key] = asyncio.get_running_loop().create_task(
            self._promote(key, job))

    async def _promote(self, key: str, job: dict) -> None:
        assert self.pool is not None and self._executor is not None
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._executor,
                lambda: self.pool.run(
                    job, timeout=self.config.native_compile_timeout))
        except JobError as exc:
            self.metrics.bump("native_compile_errors")
            self.tiering.quarantine(key, f"{exc.kind}: {exc.detail}")
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

    def _write_crash_bundle(self, crash: WorkerCrash,
                            request: dict) -> str | None:
        from ..transform.crashreport import write_worker_crash_report

        try:
            bundle = write_worker_crash_report(
                directory=self.config.crash_dir, error=crash,
                request=request,
                context={"server": f"{self.config.host}:{self.config.port}"})
            return str(bundle)
        except Exception:  # reporting is best-effort
            return None

    def _record_phase_timings(self, artifacts: dict) -> None:
        stats = artifacts.get("stats")
        if not isinstance(stats, dict):
            return
        if "timings" in stats:
            self.metrics.record_phase_timings(stats["timings"])
        else:  # PGO: one record per phase group
            for sub in stats.values():
                if isinstance(sub, dict):
                    self.metrics.record_phase_timings(sub.get("timings"))

    @staticmethod
    def _ok(request_id, key: str, artifacts: dict | RawJSON, *, cached,
            coalesced: bool = False) -> dict:
        reply = {"ok": True, "key": key, "cached": cached,
                 "coalesced": coalesced, "artifacts": artifacts}
        if request_id is not None:
            reply["id"] = request_id
        return reply


def run_server(config: ServerConfig) -> None:
    """Blocking entry point used by ``python -m repro.serve``."""
    if config.cache_dir is not None:
        Path(config.cache_dir).mkdir(parents=True, exist_ok=True)
    asyncio.run(CompileServer(config).run())
