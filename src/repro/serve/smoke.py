"""The service driver: ``python -m repro.serve.smoke --shards N``.

Boots ``python -m repro.serve --shards N`` as a subprocess — ``0`` is
one daemon, ``N > 0`` a fleet of N supervised shards behind a router —
pipelines one request mix down a connection and asserts the service
contract.  On both targets:

* every request of the mix gets one ``ok`` reply tagged with its id:
  compiles of every suite program at every optimization level, plus
  runs of the cheap programs;
* every distinct compile is byte-identical to an in-process
  :func:`repro.serve.worker.compile_request`, and every distinct run
  agrees with the graph interpreter;
* an injected worker ``kill`` yields a ``worker-crash`` reply whose
  crash bundle holds the request's source (in ``report.json`` and as
  ``repro.impala``), and the next request is served from the cache;
* SIGTERM produces a clean exit (status 0).

With ``N > 0`` one shard is SIGKILLed halfway through the mix: the
requests routed to it must be redispatched (still zero failed
replies), and the fleet's ``stats`` must then report a supervised
restart with all N shards live.

Exit status 0 = contract holds.  :func:`boot` is the same boot, wait
and teardown for the benchmarks and tests that need a live service.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from ..programs.suite import ALL_PROGRAMS
from .cache import run_cache_key
from .client import ServeClient
from .worker import compile_request, run_request

# Lines written ahead of their replies; the victim shard dies between
# two such slices of the mix.
PIPELINE_DEPTH = 20
BOOT_TIMEOUT_S = 120.0
# The run mix sticks to cheap programs: the interpreter tier runs them
# before the VM takes over, and the heavy ones would dominate a small
# box's time there.
RUN_PROGRAMS = ("pow", "ackermann", "nqueens", "sieve", "compose")
# The compared artifacts; ``stats`` carries wall-clock phase timings.
ARTIFACTS = ("ir", "c", "bytecode")


@dataclass
class Service:
    """A booted ``python -m repro.serve``: the process, its router or
    daemon port, and (after :func:`boot` exits) its exit status."""

    proc: subprocess.Popen
    port: int
    exit_code: int | None = None

    def client(self, timeout: float = 300.0) -> ServeClient:
        return ServeClient(port=self.port, timeout=timeout)


@contextlib.contextmanager
def boot(tmp, shards: int = 0, extra_args=()):
    """Run ``python -m repro.serve --shards N`` with its cache, crash
    reports and port file under *tmp*; yield a :class:`Service` once it
    listens.  On exit: SIGTERM, wait, SIGKILL after a timeout."""
    tmp = Path(tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    port_file = tmp / "port"
    port_file.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--shards", str(shards),
         "--port", "0", "--port-file", str(port_file),
         "--cache-dir", str(tmp / "cache"),
         "--crash-dir", str(tmp / "crashes"), *extra_args])
    try:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not port_file.exists():
            if proc.poll() is not None:
                raise RuntimeError(f"repro.serve exited with "
                                   f"{proc.returncode} during startup")
            if time.monotonic() > deadline:
                raise RuntimeError("repro.serve reported no port")
            time.sleep(0.1)
        service = Service(proc, int(port_file.read_text()))
        yield service
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    service.exit_code = proc.returncode


def _distinct_requests() -> list[dict]:
    """Every suite program at every optimization level, plus runs of
    :data:`RUN_PROGRAMS`."""
    pool: list[dict] = []
    for program in ALL_PROGRAMS:
        for opt in ("none", "static", "pgo"):
            request = {"op": "compile", "source": program.source,
                       "opt": opt}
            if opt == "pgo":
                request["entry"] = program.entry
                request["train_args"] = [list(program.test_args)]
            pool.append(request)
        if program.name in RUN_PROGRAMS:
            pool.append({"op": "run", "source": program.source,
                         "entry": program.entry,
                         "args": [list(program.test_args)]})
    return pool


def _direct(request: dict):
    """What the service must answer, computed in this process."""
    if request["op"] == "compile":
        artifacts = compile_request(dict(request))
        return {name: artifacts[name] for name in ARTIFACTS}
    job = {**request, "tier": "interp", "options": {},
           "key": run_cache_key({**request, "options": {}})}
    return run_request(job)["results"]


def _served(request: dict, reply: dict):
    if request["op"] == "compile":
        return {name: reply["artifacts"][name] for name in ARTIFACTS}
    return reply["results"]


def _stream(client: ServeClient, mix: list[dict], victim: int | None,
            failures: list[str]) -> dict:
    """Pipeline *mix*, :data:`PIPELINE_DEPTH` lines at a time, SIGKILLing
    *victim* halfway; returns the replies by their index in *mix*."""
    replies: dict = {}
    starts = range(0, len(mix), PIPELINE_DEPTH)
    for start in starts:
        if start == starts[len(starts) // 2] and victim is not None:
            os.kill(victim, signal.SIGKILL)
            print(f"SIGKILLed shard pid {victim} before request {start}",
                  flush=True)
        replies.update(client.pipelined(
            [{**request, "id": start + offset} for offset, request
             in enumerate(mix[start:start + PIPELINE_DEPTH])]))
    for index in range(len(mix)):
        if index not in replies:
            failures.append(f"request {index}: no reply carries its id")
    failed = {index: reply for index, reply in replies.items()
              if not reply.get("ok")}
    for index, reply in sorted(failed.items()):
        failures.append(f"request {index} failed: {reply.get('error')}")
    print(f"{len(replies)} replies, {len(failed)} failed", flush=True)
    return replies


def _check_identity(distinct: list[dict], replies: dict,
                    failures: list[str]) -> None:
    for index, request in enumerate(distinct):
        reply = replies.get(index, {})
        if reply.get("ok") and _served(request, reply) != _direct(request):
            failures.append(f"request {index} ({request['op']}, "
                            f"{request.get('opt', 'run')}) differs from "
                            f"the in-process answer")
    print(f"identity checked on {len(distinct)} distinct request(s)",
          flush=True)


def _bundle_problem(bundle: str | None, source: str) -> str | None:
    """Why the crash bundle at *bundle* does not replay *source*."""
    if not bundle:
        return "no bundle"
    try:
        report = json.loads((Path(bundle) / "report.json").read_text())
        replay = (Path(bundle) / "repro.impala").read_text()
    except (OSError, ValueError) as exc:
        return f"unreadable bundle ({exc})"
    if report.get("request", {}).get("source") != source:
        return "report.json does not hold the request's source"
    if replay != source:
        return "repro.impala is not the request's source"
    return None


def _check_worker_crash(client: ServeClient, failures: list[str]) -> None:
    source = ALL_PROGRAMS[0].source
    crash = client.compile(source + "\n", opt="static",
                           fault={"mode": "kill", "target": "inline"})
    error = crash.get("error") or {}
    if crash.get("ok") or error.get("code") != "worker-crash":
        failures.append(f"expected a worker-crash reply, got {crash}")
    elif problem := _bundle_problem(error.get("crash_bundle"),
                                    source + "\n"):
        failures.append(f"worker-crash reply: {problem}: {crash}")
    else:
        print(f"worker crash handled; bundle at {error['crash_bundle']}",
              flush=True)
    after = client.compile(source, opt="static")
    if not (after.get("ok") and after.get("cached")):
        failures.append(f"no cache hit after the worker crash: {after}")


def _check_restart(client: ServeClient, shards: int,
                   failures: list[str]) -> None:
    deadline = time.monotonic() + 60.0
    while True:
        stats = client.stats()
        restarts = stats["fleet"].get("restarts", 0)
        live = stats["router"]["shards_live"]
        if (restarts >= 1 and live == shards) or \
                time.monotonic() > deadline:
            break
        time.sleep(0.5)
    print(f"restarts={restarts} shards_live={live} redispatches="
          f"{stats['router']['counters'].get('redispatches', 0)}",
          flush=True)
    if restarts < 1:
        failures.append(f"fleet stats show no restart: {stats['fleet']}")
    if live != shards:
        failures.append(f"{live}/{shards} shards live after the restart "
                        f"window")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve.smoke")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="0 boots one daemon (default), N > 0 a fleet "
                             "of N shards with one SIGKILLed mid-run")
    parser.add_argument("--requests", type=int, default=50, metavar="N",
                        help="requests in the pipelined mix (default 50)")
    args = parser.parse_args(argv)

    failures: list[str] = []
    pool = _distinct_requests()
    mix = [pool[index % len(pool)] for index in range(args.requests)]
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        with boot(tmp, args.shards, ["--workers", "1", "--max-pending",
                                     "64", "--no-native"]) as service:
            with service.client() as client:
                victim = None
                if args.shards:
                    procs = client.stats()["fleet"]["shard_procs"]
                    victim = procs["shard-0"]["pid"]
                replies = _stream(client, mix, victim, failures)
                _check_identity(mix[:len(pool)], replies, failures)
                _check_worker_crash(client, failures)
                if args.shards:
                    _check_restart(client, args.shards, failures)
    if service.exit_code != 0:
        failures.append(f"exit status {service.exit_code} after SIGTERM "
                        f"(want 0)")
    else:
        print("clean SIGTERM shutdown")

    if failures:
        print("SMOKE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
