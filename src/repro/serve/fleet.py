"""Fleet mode: N supervised shard daemons behind one router.

``python -m repro.serve --shards N`` lands here.  One process (this
one) runs the asyncio front-end :class:`~repro.serve.router.Router`
and supervises N shard subprocesses, each a full ``python -m
repro.serve`` daemon with its own fork pool, in-memory LRU and
tiering state.  All shards share one on-disk object store — safe
because entries are content-addressed and immutable — while the
consistent-hash router keeps each shard's *memory* tier hot by
always sending a key to the same shard.

Supervision contract:

* **spawn** — shards bind port 0 and report the real port through a
  ``--port-file``; the manager waits for the file, then for a ping.
* **restart-on-crash** — a shard that exits unexpectedly is taken out
  of the ring immediately and respawned with exponential backoff
  (``RESTART_BACKOFF_BASE * 2^failures``, capped); the backoff resets
  once the shard stays up for ``HEALTHY_RESET_SECONDS``.  In-flight
  requests on the dead shard are redispatched by the router, so a
  crash under load is invisible to clients.
* **drain** — SIGTERM/SIGINT stops the listener first (no new work),
  then SIGTERMs the shards staggered (``DRAIN_STAGGER_SECONDS``
  apart, so N fork pools don't tear down in lockstep), waits for each
  with a kill fallback, and exits 0.

The router's ``stats`` op reports the supervisor state too:
``fleet.restarts`` and a per-shard process table.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .protocol import wait_for_stop
from .router import Router, RouterConfig, ShardDown, ShardLink

RESTART_BACKOFF_BASE = 0.5
RESTART_BACKOFF_CAP = 10.0
HEALTHY_RESET_SECONDS = 30.0
DRAIN_STAGGER_SECONDS = 0.05
SPAWN_DEADLINE_SECONDS = 60.0


@dataclass
class FleetConfig:
    host: str = "127.0.0.1"
    port: int = 7767
    shards: int = 4
    workers_per_shard: int = 2
    cache_dir: str = "serve_cache"        # shared by every shard
    crash_dir: str = "crash_reports"      # one subdirectory per shard
    max_pending: int = 32                 # per shard
    request_timeout: float = 120.0
    native: bool = True
    cache_max_bytes: int | None = None
    health_interval: float = 2.0
    port_file: str | None = None          # router port discovery


class ShardProc:
    """One supervised shard: process handle + restart bookkeeping."""

    def __init__(self, name: str):
        self.name = name
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.failures = 0          # consecutive crashes (drives backoff)
        self.up_since = 0.0
        self.restarts = 0          # lifetime restarts, for stats


class Fleet:
    def __init__(self, config: FleetConfig | None = None):
        self.config = config or FleetConfig()
        self.shards = [ShardProc(f"shard-{i}")
                       for i in range(self.config.shards)]
        self.router = Router(RouterConfig(
            host=self.config.host, port=self.config.port,
            request_timeout=self.config.request_timeout + 60.0,
            health_interval=self.config.health_interval,
            port_file=self.config.port_file))
        self.router.extra_stats = self._supervisor_stats
        self._stopping = asyncio.Event()
        self._run_dir = Path(self.config.cache_dir) / "fleet"

    # -- shard lifecycle ----------------------------------------------------

    def _shard_command(self, shard: ShardProc, port_file: Path) -> list:
        cmd = [sys.executable, "-m", "repro.serve",
               "--host", self.config.host, "--port", "0",
               "--port-file", str(port_file),
               "--shard-name", shard.name,
               "--workers", str(self.config.workers_per_shard),
               "--cache-dir", self.config.cache_dir,
               "--crash-dir",
               str(Path(self.config.crash_dir) / shard.name),
               "--max-pending", str(self.config.max_pending),
               "--request-timeout", str(self.config.request_timeout)]
        if not self.config.native:
            cmd.append("--no-native")
        if self.config.cache_max_bytes is not None:
            cmd += ["--cache-max-bytes", str(self.config.cache_max_bytes)]
        return cmd

    async def _spawn(self, shard: ShardProc) -> None:
        """Start one shard and wait until it answers a ping."""
        port_file = self._run_dir / f"{shard.name}.port"
        port_file.unlink(missing_ok=True)
        port_file.parent.mkdir(parents=True, exist_ok=True)
        shard.proc = subprocess.Popen(
            self._shard_command(shard, port_file),
            env={**os.environ,
                 "PYTHONPATH": os.environ.get("PYTHONPATH", "")})
        deadline = time.monotonic() + SPAWN_DEADLINE_SECONDS
        while True:
            if shard.proc.poll() is not None:
                raise RuntimeError(
                    f"{shard.name} exited with {shard.proc.returncode} "
                    f"during startup")
            try:
                shard.port = int(port_file.read_text())
                break
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                shard.proc.kill()
                raise RuntimeError(f"{shard.name} did not report a port")
            await asyncio.sleep(0.05)
        # The port is bound before the file is written, so one ping
        # settles readiness.
        while True:
            probe = ShardLink(shard.name, self.config.host, shard.port,
                              conns=1, timeout=5.0)
            try:
                if (await probe.ping()).get("pong"):
                    break
            except (ShardDown, TimeoutError):
                pass
            finally:
                probe.close()
            if time.monotonic() > deadline:
                shard.proc.kill()
                raise RuntimeError(f"{shard.name} did not answer ping")
            await asyncio.sleep(0.1)
        shard.up_since = time.monotonic()
        self.router.add_shard(shard.name, self.config.host, shard.port)

    async def _supervise(self, shard: ShardProc) -> None:
        """Watch one shard; restart with backoff when it dies."""
        while not self._stopping.is_set():
            proc = shard.proc
            if proc is None or proc.poll() is not None:
                code = None if proc is None else proc.returncode
                self.router.note_shard_dead(shard.name)
                if self._stopping.is_set():
                    return
                if shard.up_since and (time.monotonic() - shard.up_since
                                       > HEALTHY_RESET_SECONDS):
                    shard.failures = 0
                delay = min(RESTART_BACKOFF_CAP,
                            RESTART_BACKOFF_BASE * (2 ** shard.failures))
                shard.failures += 1
                print(f"repro.serve.fleet: {shard.name} exited "
                      f"(code {code}); restarting in {delay:.1f}s",
                      flush=True)
                await asyncio.sleep(delay)
                if self._stopping.is_set():
                    return
                try:
                    await self._spawn(shard)
                except RuntimeError as exc:
                    print(f"repro.serve.fleet: {shard.name} respawn "
                          f"failed: {exc}", flush=True)
                    continue  # loop: back off harder and try again
                shard.restarts += 1
                print(f"repro.serve.fleet: {shard.name} back on port "
                      f"{shard.port} (pid {shard.proc.pid})", flush=True)
            await asyncio.sleep(0.2)

    def _supervisor_stats(self) -> dict:
        return {
            "restarts": sum(shard.restarts for shard in self.shards),
            "shard_procs": {
                shard.name: {
                    "pid": None if shard.proc is None else shard.proc.pid,
                    "port": shard.port,
                    "alive": (shard.proc is not None
                              and shard.proc.poll() is None),
                    "restarts": shard.restarts,
                } for shard in self.shards},
        }

    # -- fleet lifecycle ----------------------------------------------------

    async def start(self) -> None:
        Path(self.config.cache_dir).mkdir(parents=True, exist_ok=True)
        await asyncio.gather(*(self._spawn(shard)
                               for shard in self.shards))
        await self.router.start()
        self._supervisors = [asyncio.create_task(self._supervise(shard))
                             for shard in self.shards]

    @property
    def port(self) -> int:
        return self.router.port

    async def stop(self) -> None:
        """Drain: close the front door, then stagger shard SIGTERMs."""
        self._stopping.set()
        for task in getattr(self, "_supervisors", []):
            task.cancel()
        await self.router.stop()
        for shard in self.shards:
            if shard.proc is not None and shard.proc.poll() is None:
                shard.proc.send_signal(signal.SIGTERM)
                await asyncio.sleep(DRAIN_STAGGER_SECONDS)
        for shard in self.shards:
            if shard.proc is None:
                continue
            deadline = time.monotonic() + 15.0
            while (shard.proc.poll() is None
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.05)
            if shard.proc.poll() is None:
                shard.proc.kill()
                shard.proc.wait()

    async def run(self) -> None:
        await self.start()
        print(f"repro.serve.fleet: router on "
              f"{self.config.host}:{self.port}, "
              f"{len(self.shards)} shard(s): "
              + ", ".join(f"{s.name}@{s.port}" for s in self.shards),
              flush=True)
        try:
            await wait_for_stop(self._stopping)
        finally:
            await self.stop()


def run_fleet(config: FleetConfig) -> None:
    """Blocking entry point used by ``python -m repro.serve --shards N``."""
    asyncio.run(Fleet(config).run())
