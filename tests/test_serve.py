"""Compile-service tests: protocol edges, caching, crash isolation.

One real :class:`~repro.serve.server.CompileServer` runs on an event
loop in a background thread for the whole module (module-scoped
fixture); tests talk to it over real sockets with the blocking
client.  Unit tests for the cache key and the worker pool need no
server and run standalone.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.canonical import canonical_json
from repro.serve import cache as cache_module
from repro.serve import smoke
from repro.serve.cache import ArtifactCache, cache_key, run_cache_key
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import (MAX_LINE_BYTES, RawJSON, encode_message,
                                  head_value, retag)
from repro.serve.server import CompileServer, ServerConfig
from repro.serve.worker import compile_request

SRC = "fn main(a: i64) -> i64 { a * a + 1 }"


class _ServerThread:
    """The server plus the loop thread that runs it."""

    def __init__(self, tmp_path):
        self.loop = asyncio.new_event_loop()
        self.server = CompileServer(ServerConfig(
            port=0, workers=2,
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes"),
            max_pending=8, request_timeout=60.0))
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(timeout=30.0), "server failed to start"
        self.port = self.server.port

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(timeout=30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)

    def client(self, **kw) -> ServeClient:
        return ServeClient(port=self.port, timeout=60.0, **kw)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    st = _ServerThread(tmp_path_factory.mktemp("serve"))
    yield st
    st.stop()


# ---------------------------------------------------------------------------
# happy path + caching
# ---------------------------------------------------------------------------


def test_compile_and_cache_roundtrip(served):
    with served.client() as client:
        cold = client.compile(SRC, opt="static", request_id="c1")
        assert cold["ok"] and cold["cached"] is False
        assert cold["id"] == "c1"
        art = cold["artifacts"]
        assert art["ir"] and art["c"] and art["bytecode"]
        assert art["stats"]["rounds"] >= 1
        assert art["stats"]["timings"]  # per-phase wall-clock present

        warm = client.compile(SRC, opt="static")
        assert warm["ok"] and warm["cached"] == "memory"
        assert warm["key"] == cold["key"]
        assert warm["artifacts"] == art


def test_disk_tier_survives_memory_eviction(served):
    with served.client() as client:
        reply = client.compile(SRC + " // disk", opt="static")
        assert reply["ok"]
        # Drop the in-memory tier; the object store must still hit.
        served.server.cache._memory.clear()
        again = client.compile(SRC + " // disk", opt="static")
        assert again["ok"] and again["cached"] == "disk"
        assert again["artifacts"] == reply["artifacts"]


def test_artifacts_match_direct_compile(served):
    """Served bytes == in-process compile, per level (acceptance S1)."""
    from repro.programs.suite import by_name

    program = by_name("pow")
    with served.client() as client:
        for opt in ("none", "static", "pgo"):
            request = {"op": "compile", "source": program.source,
                       "opt": opt}
            if opt == "pgo":
                request["entry"] = program.entry
                request["train_args"] = [list(program.test_args)]
            reply = client.request(request)
            assert reply["ok"], reply
            direct = compile_request(dict(request))
            for artifact in ("ir", "c", "bytecode"):
                assert reply["artifacts"][artifact] == direct[artifact], \
                    (program.name, opt, artifact)


def test_ping_and_stats(served):
    with served.client() as client:
        assert client.ping()["pong"] is True
        stats = client.stats()
        assert stats["ok"]
        assert stats["counters"]["requests_total"] >= 1
        assert "hit_rate" in stats["cache"]
        assert "request" in stats["latency"]
        # Phase timings aggregated from PipelineStats of past compiles.
        assert "inline" in stats["pipeline_phase_seconds"]


# ---------------------------------------------------------------------------
# protocol edges
# ---------------------------------------------------------------------------


def test_malformed_json_gets_structured_error(served):
    with served.client() as client:
        client.connect()
        client._sock.sendall(b"{definitely not json\n")
        reply = json.loads(client._read_line())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "malformed-json"
        # The connection survives a malformed line.
        assert client.ping()["ok"]


def test_non_object_json_rejected(served):
    with served.client() as client:
        client.connect()
        client._sock.sendall(b"[1, 2, 3]\n")
        reply = json.loads(client._read_line())
        assert reply["error"]["code"] == "malformed-json"


def test_oversized_request_is_shed(served):
    with served.client() as client:
        client.connect()
        blob = b'{"op": "compile", "source": "' + \
            b"x" * (MAX_LINE_BYTES + 1024) + b'"}\n'
        client._sock.sendall(blob)
        reply = json.loads(client._read_line())
        assert reply["error"]["code"] == "oversized"


def test_mid_request_disconnect_leaves_server_healthy(served):
    raw = socket.create_connection(("127.0.0.1", served.port), timeout=10)
    raw.sendall(b'{"op": "compile", "source": "fn main(')  # no newline
    raw.close()
    with served.client() as client:
        assert client.ping()["ok"]


def test_a_client_that_stops_reading_stops_being_read(served):
    """A client pipelines warm hits (~47 KB replies each) and reads
    nothing: once its replies back up, the server stops taking lines
    from it instead of buffering every reply."""
    from repro.programs.suite import by_name

    request = {"op": "compile", "source": by_name("nbody").source,
               "opt": "static"}
    sent = 2000
    with served.client() as client:
        assert client.request(request)["ok"]  # warm
        before = client.stats()["counters"]["requests_total"]
    line = encode_message(request)
    raw = socket.socket()
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
    raw.connect(("127.0.0.1", served.port))
    raw.settimeout(2.0)
    try:
        try:
            for _ in range(sent):
                raw.sendall(line)
        except socket.timeout:
            pass  # the server stopped reading: as intended
        # Let the server take whatever it is going to take.  Each
        # stats request counts itself.
        with served.client() as client:
            taken, previous, polls = None, -1, 0
            deadline = time.monotonic() + 20.0
            while taken != previous and time.monotonic() < deadline:
                previous = taken
                time.sleep(0.5)
                polls += 1
                taken = (client.stats()["counters"]["requests_total"]
                         - before - polls)
    finally:
        raw.close()
    assert taken < sent // 4, f"read {taken} of {sent} pipelined lines"


# Option names the wire refuses: the operational ``pass_hook``, three
# retired pipeline fields and a retired budget.
WIRE_REJECTED = ({"pass_hook": 1}, {"crash_dir": "/elsewhere"},
                 {"crash_context": {"origin": "client"}}, {"max_rounds": 2},
                 {"pass_deadline": 1.0})


def test_bad_requests(served):
    with served.client() as client:
        # unknown op
        assert client.request({"op": "nope"})["error"]["code"] == \
            "bad-request"
        # missing source
        assert client.request({"op": "compile"})["error"]["code"] == \
            "bad-request"
        # bad opt level
        reply = client.compile(SRC, opt="turbo")
        assert reply["error"]["code"] == "bad-request"
        # pgo without a workload or profile
        reply = client.compile(SRC, opt="pgo")
        assert reply["error"]["code"] == "bad-request"
        # unknown options field must not poison the cache key
        reply = client.compile(SRC, options={"warp_factor": 9})
        assert reply["error"]["code"] == "bad-request"
        assert "warp_factor" in reply["error"]["message"]
        # a retired option is unknown too, though its old value still
        # sits in every cache key
        reply = client.compile(SRC, options={"cache_analyses": False})
        assert reply["error"]["code"] == "bad-request"
        assert "cache_analyses" in reply["error"]["message"]
        # operational fields are the server's, and retired ones are gone:
        # neither a compile nor a run may name them
        for options in WIRE_REJECTED:
            (name,) = options
            for reply in (client.compile(SRC, options=options),
                          client.run(SRC, [[1]], options=options)):
                assert reply["error"]["code"] == "bad-request", name
                assert name in reply["error"]["message"]


def test_operational_options_cannot_poison_the_cache(served):
    """A ``pass_hook`` request is refused, so the plain request after it
    compiles clean artifacts.  Were the hook admitted, it would share
    the plain request's key (the key leaves operational fields out),
    fail every pass, and cache the unoptimized IR under that key."""
    source = ("fn sq(x: i64) -> i64 { x * x }\n"
              "fn main(a: i64) -> i64 { sq(a) + sq(a + 1) }")
    with served.client() as client:
        hooked = client.compile(source, options={"pass_hook": 1})
        plain = client.compile(source)
    assert plain["ok"], plain
    direct = compile_request({"op": "compile", "source": source,
                              "opt": "static", "options": {}})
    assert plain["artifacts"]["ir"] == direct["ir"]
    assert plain["artifacts"]["stats"]["incidents"] == []
    assert hooked["error"]["code"] == "bad-request"


def test_compile_error_is_not_a_crash(served):
    with served.client() as client:
        reply = client.compile("fn main(  broken")
        assert reply["error"]["code"] == "compile-error"
        assert reply["error"]["kind"] == "ParseError"
        assert "crash_bundle" not in reply["error"]
        assert client.ping()["ok"]


def test_smoke_driver_against_one_daemon():
    """The service driver against ``python -m repro.serve``: a pipelined
    mix with zero failures, byte identity with in-process compiles, a
    worker kill survived, and a clean SIGTERM exit."""
    assert smoke.main(["--shards", "0", "--requests", "12"]) == 0


# ---------------------------------------------------------------------------
# single-flight coalescing
# ---------------------------------------------------------------------------


async def _answer(server: CompileServer, line: bytes) -> bytes:
    """The one reply line *server* sends for *line*."""
    replies = []

    async def send(reply: bytes) -> None:
        replies.append(reply)

    await server.serve_line(line, send)
    (reply,) = replies
    return reply


def _slow_stub_handler(request):
    """Pool handler for the coalescing test: compiles take a while."""
    time.sleep(1.0)
    return {"ir": f"stub({request['source']})", "c": None,
            "bytecode": None, "stats": None}


def test_duplicate_inflight_requests_coalesce(tmp_path):
    """Two identical in-flight requests compile exactly once.

    Real compiles finish in tens of milliseconds — far too fast to
    overlap deterministically over sockets — so this drives the
    server's dispatch path directly with a deliberately slow worker.
    """
    from repro.core.pool import WorkerPool
    from repro.serve.protocol import encode_message

    async def scenario():
        server = CompileServer(ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes")))
        server.pool = WorkerPool(_slow_stub_handler, size=2)
        try:
            line = encode_message(
                {"op": "compile", "source": SRC, "opt": "static"})
            lead_task = asyncio.create_task(_answer(server, line))
            await asyncio.sleep(0.3)  # lead is now inside the worker
            assert len(server._inflight) == 1
            join = json.loads(await _answer(server, line))
            lead = json.loads(await lead_task)
            assert lead["ok"] and join["ok"]
            assert lead["key"] == join["key"]
            assert join["artifacts"] == lead["artifacts"]
            # Exactly one of them actually compiled.
            assert lead["coalesced"] is False
            assert join["coalesced"] is True
            assert server.metrics.counters["coalesced"] == 1
            # And the single result landed in the cache.
            warm = json.loads(await _answer(server, line))
            assert warm["cached"] == "memory"
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_an_unexpected_exception_answers_the_leader_and_its_joiners(
        tmp_path, monkeypatch):
    """An exception the compile path did not expect is answered
    ``internal-error``, with its type and text, to the compile and to
    the duplicate coalesced on it; neither is left waiting."""
    async def broken(self, request, key, started):
        raise ValueError("no room for the artifact")

    monkeypatch.setattr(CompileServer, "_execute", broken)
    line = encode_message({"op": "compile", "source": SRC, "opt": "static"})

    async def scenario():
        server = CompileServer(ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes")))
        try:
            replies = await asyncio.wait_for(asyncio.gather(
                _answer(server, line), _answer(server, line)), timeout=3.0)
            return replies, server
        finally:
            await server.stop()

    replies, server = asyncio.run(scenario())
    assert server.metrics.counters["coalesced"] == 1
    for reply in map(json.loads, replies):
        assert reply["error"] == {"code": "internal-error",
                                  "message": "ValueError: no room for the "
                                             "artifact"}
    assert server._pending == 0 and not server._inflight


def test_closing_the_pool_ends_a_job_in_flight_without_a_new_seat():
    """Shutdown with a compile in flight: the job ends with the pool's
    ``RuntimeError`` (a ``shutting-down`` reply) and its seat is reaped,
    not respawned."""
    from repro.core.pool import WorkerPool

    async def scenario():
        pool = WorkerPool(_slow_stub_handler, size=1)
        (seat,) = pool._workers
        pid = seat.pid
        job = asyncio.ensure_future(pool.run({"source": SRC}))
        await asyncio.sleep(0.3)  # the job is now inside the seat
        pool.close()
        with pytest.raises(RuntimeError, match="pool is closed"):
            await job
        return seat, pid

    seat, pid = asyncio.run(scenario())
    assert seat.pid == pid
    assert not seat.alive()


def _echo(request):
    """Pool handler that returns its job."""
    return request


def test_a_seat_killed_while_idle_is_replaced_without_a_crash():
    """A seat that dies between jobs is replaced: nothing spins on its
    EOF meanwhile, its child is reaped, and the next job succeeds with
    no ``WorkerCrash``."""
    from repro.core.pool import WorkerPool

    async def scenario():
        pool = WorkerPool(_echo, size=1)
        try:
            assert await pool.run({"n": 1}) == {"n": 1}
            (seat,) = pool._workers
            dead = seat.pid
            os.kill(dead, signal.SIGKILL)
            cpu = time.process_time()
            await asyncio.sleep(0.5)
            idle_cpu = time.process_time() - cpu
            result = await pool.run({"n": 2}, timeout=30.0)
            return dead, seat.pid, idle_cpu, result, pool.crashes
        finally:
            pool.close()

    dead, pid, idle_cpu, result, crashes = asyncio.run(scenario())
    assert result == {"n": 2}
    assert crashes == 0
    assert pid != dead
    assert idle_cpu < 0.25, f"{idle_cpu:.2f} s of CPU while idle"
    with pytest.raises(ChildProcessError):
        os.waitpid(dead, os.WNOHANG)  # reaped by the pool


def test_a_job_larger_than_the_socket_buffer_round_trips():
    """A multi-MB job and its multi-MB reply both cross the seat's
    socket pair, whose buffers are a few hundred KB."""
    from repro.core.pool import WorkerPool

    job = {"source": "x" * (6 << 20)}

    async def scenario():
        pool = WorkerPool(_echo, size=1)
        try:
            return await pool.run(job, timeout=60.0)
        finally:
            pool.close()

    assert asyncio.run(scenario()) == job


def test_jobs_queued_behind_busy_seats_end_shutting_down(tmp_path):
    """Closing the pool answers the job in flight and every job queued
    behind it — a compile and a run — with ``shutting-down``."""
    from repro.core.pool import WorkerPool

    lines = [encode_message({"op": "compile", "source": f"{SRC} // {i}",
                             "opt": "static"}) for i in range(2)]
    lines.append(encode_message({"op": "run", "source": SRC,
                                 "entry": "main", "args": [[1]]}))

    async def scenario():
        server = CompileServer(ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes"), native=False))
        server.pool = WorkerPool(_slow_stub_handler, size=1)
        answers = [asyncio.ensure_future(_answer(server, line))
                   for line in lines]
        await asyncio.sleep(0.3)  # the first compile is in the seat
        await server.stop()
        replies = [json.loads(await answer) for answer in answers]
        return replies, server._pending

    replies, pending = asyncio.run(scenario())
    assert [r["error"]["code"] for r in replies] == ["shutting-down"] * 3
    assert pending == 0


def test_more_concurrent_jobs_than_seats_are_each_answered_once(tmp_path):
    """Compiles and runs in flight at once, several times the seats:
    every request gets exactly one reply, the right one, within the
    time bound, and nothing is left pending."""
    compiles = [{"op": "compile", "source": f"{SRC}\n// stress {i}",
                 "opt": "static"} for i in range(10)]
    runs = [{"op": "run", "source": SRC, "entry": "main", "args": [[i]]}
            for i in range(14)]

    async def scenario():
        server = CompileServer(ServerConfig(
            port=0, workers=2, max_pending=64, native=False,
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes")))
        await server.start()
        try:
            replies = await asyncio.wait_for(asyncio.gather(*(
                _answer(server, encode_message(message))
                for message in compiles + runs)), timeout=120.0)
            return [json.loads(reply) for reply in replies], server._pending
        finally:
            await server.stop()

    replies, pending = asyncio.run(scenario())
    assert all(reply["ok"] for reply in replies), replies
    compiled, ran = replies[:len(compiles)], replies[len(compiles):]
    assert len({reply["key"] for reply in compiled}) == len(compiles)
    assert [reply["results"][0]["value"] for reply in ran] == \
        [i * i + 1 for i in range(len(runs))]
    assert {reply["tier"] for reply in ran} == {"interp", "vm"}
    assert pending == 0


def _native_seat_dies(request):
    """Pool handler whose seat dies on every native-tier run."""
    from repro.serve.worker import run_job

    if request.get("tier") == "native":
        os.kill(os.getpid(), signal.SIGKILL)
    return run_job(request)


def test_a_native_run_whose_seat_dies_is_answered_on_the_vm(tmp_path):
    """The seat running a native-tier request dies: the same request is
    answered from the VM, and the key is quarantined."""
    from repro.core.pool import WorkerPool
    from repro.serve.protocol import validate_run_request

    message = {"op": "run", "source": SRC, "entry": "main", "args": [[3]]}
    key = run_cache_key(validate_run_request(message))

    async def scenario():
        server = CompileServer(ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes"), native=False))
        server.pool = WorkerPool(_native_seat_dies, size=1)
        server.tiering.native_ready(
            key, str(tmp_path / "never-loaded.so"),
            {"main": {"params": ["i64"], "result": "i64",
                      "symbol": "repro_run_main"}}, cached=False)
        try:
            reply = json.loads(await _answer(server,
                                             encode_message(message)))
            return (reply, server.tiering.snapshot(),
                    dict(server.metrics.counters), server._pending)
        finally:
            await server.stop()

    reply, tiering, counters, pending = asyncio.run(scenario())
    assert reply["ok"], reply
    assert reply["tier"] == "vm"
    assert reply["native_state"] == "quarantined"
    assert reply["results"] == [{"value": 10, "trap": None, "output": ""}]
    assert tiering["native_fallbacks"] == 1
    assert tiering["native_states"]["quarantined"] == 1
    assert counters["worker_crashes"] == 1
    assert pending == 0


def _census_seat(request):
    """Pool handler that can also count the worlds its seat holds."""
    import gc

    from repro.core.world import World
    from repro.serve.worker import run_job

    if request.get("op") == "census":
        return sum(isinstance(o, World) for o in gc.get_objects())
    return run_job(request)


def test_a_seat_holds_no_world_after_a_compile_job():
    """The world a compile built is freed before the seat's next job,
    so dead worlds do not pile up in a long-lived seat."""
    from repro.core.pool import WorkerPool

    async def scenario():
        pool = WorkerPool(_census_seat, size=1)
        try:
            counts = [await pool.run({"op": "census"})]
            for i in range(5):
                await pool.run({"op": "compile", "opt": "static",
                                "source": f"{SRC}\n// census {i}"})
                counts.append(await pool.run({"op": "census"}))
            return counts
        finally:
            pool.close()

    counts = asyncio.run(scenario())
    assert counts == [counts[0]] * 6, counts


def test_every_vm_tier_call_starts_from_the_initial_heap():
    """The VM image a seat caches per key keeps no heap between calls:
    a program that allocates on every call never runs out of heap on
    a repeated request (the limit is lowered to keep this small)."""
    from repro.serve import worker
    from repro.serve.protocol import validate_run_request

    source = ("fn main(n: i64) -> i64 {\n"
              "    let buf = new_buf_i64(n);\n"
              "    buf[n - 1] = 7;\n"
              "    buf[n - 1]\n"
              "}")
    request = validate_run_request({"op": "run", "source": source,
                                    "args": [[200_000]]})
    job = {**request, "tier": "vm", "key": run_cache_key(request)}
    values = [worker.run_job(job)["results"][0]["value"]]
    compiled = worker._VM_IMAGES[job["key"]]
    compiled.vm.heap_limit = 1_000_000   # five calls' worth
    for _ in range(8):
        (result,) = worker.run_job(job)["results"]
        values.append(result["value"] if result["trap"] is None
                      else result["trap"])
    assert values == [7] * 9
    assert len(compiled.vm.heap) == 1 + len(compiled.program.data)


# ---------------------------------------------------------------------------
# crash isolation
# ---------------------------------------------------------------------------


def test_worker_kill_yields_bundle_and_server_survives(served):
    with served.client() as client:
        before = client.stats()["worker_crashes"]
        reply = client.compile(
            SRC + "\n// kill-test", opt="static",
            fault={"mode": "kill", "target": "inline"})
        assert reply["ok"] is False
        error = reply["error"]
        assert error["code"] == "worker-crash"
        assert error["exitcode"] == -9
        bundle = error["crash_bundle"]
        assert bundle and "WorkerCrash" in bundle
        report = json.loads(
            (__import__("pathlib").Path(bundle) / "report.json").read_text())
        assert report["request"]["source"].startswith("fn main")
        # The seat respawned; the very next compile works.
        after = client.compile(SRC, opt="static")
        assert after["ok"]
        assert client.stats()["worker_crashes"] == before + 1


def test_deadline_kill_answers_worker_crash_and_the_seat_serves_on(
        tmp_path):
    """A compile that overruns ``request_timeout`` gets a
    ``worker-crash`` reply naming its bundle; the seat it held is killed
    and respawned, and serves the next compile."""
    stall = {"op": "compile", "source": SRC, "opt": "static",
             "fault": {"mode": "stall", "target": "inline"}}

    async def scenario():
        server = CompileServer(ServerConfig(
            port=0, workers=1, request_timeout=0.5,
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes")))
        await server.start()
        try:
            stalled = json.loads(await _answer(server, encode_message(stall)))
            after = json.loads(await _answer(server, encode_message(
                {"op": "compile", "source": SRC, "opt": "static"})))
            return stalled, after, dict(server.metrics.counters)
        finally:
            await server.stop()

    stalled, after, counters = asyncio.run(scenario())
    error = stalled["error"]
    assert error["code"] == "worker-crash"
    assert "deadline exceeded" in error["message"]
    report = json.loads((Path(error["crash_bundle"]) / "report.json")
                        .read_text())
    assert report["request"]["fault"]["mode"] == "stall"
    assert counters["deadline_kills"] == 1
    assert after["ok"], after


def _live_children(pid: int) -> set[int]:
    """Pids of the live (non-zombie) children of *pid*, from /proc."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_text() \
                .rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.add(int(entry))
    return children


def _respawn_a_seat(service) -> int:
    """Kill one seat of a booted daemon with a fault; the new seat's pid."""
    seats = _live_children(service.proc.pid)
    with service.client() as client:
        reply = client.compile(SRC + "\n// respawn", opt="static",
                               fault={"mode": "kill", "target": "inline"})
    assert reply["error"]["code"] == "worker-crash"
    (respawned,) = _live_children(service.proc.pid) - seats
    return respawned


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_sigterm_to_a_respawned_seat_stops_only_that_seat(tmp_path):
    """A seat respawned after the daemon installed its signal handlers
    dies of SIGTERM like a seat forked at start; the daemon serves on."""
    with smoke.boot(tmp_path) as service:
        seat = _respawn_a_seat(service)
        os.kill(seat, signal.SIGTERM)
        deadline = time.monotonic() + 5.0
        while (seat in _live_children(service.proc.pid)
               and service.proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.05)
        time.sleep(0.5)  # a shutdown the signal started would show now
        assert service.proc.poll() is None, "the daemon shut down"
        assert seat not in _live_children(service.proc.pid)
        with service.client() as client:
            assert client.compile(SRC, opt="static")["ok"]
    assert service.exit_code == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_connection_open_at_a_respawn_closes_with_the_server(tmp_path):
    """A connection accepted before a seat respawns is not held open by
    the new seat: after the daemon answers its oversized line and
    closes it, the client sees the end of the stream."""
    with smoke.boot(tmp_path) as service:
        held = socket.create_connection(("127.0.0.1", service.port),
                                        timeout=10)
        stream = held.makefile("rb")
        try:
            held.sendall(encode_message({"op": "ping"}))
            assert json.loads(stream.readline())["pong"]
            _respawn_a_seat(service)
            held.sendall(b"x" * (MAX_LINE_BYTES + 16))
            reply = json.loads(stream.readline())
            assert reply["error"]["code"] == "oversized"
            held.settimeout(5.0)
            try:
                rest = stream.read()
            except ConnectionResetError:
                rest = b""
            except socket.timeout:
                pytest.fail("the connection stayed open after the server "
                            "closed it")
            assert rest == b""
        finally:
            stream.close()
            held.close()


def _unrecoverable_seat(request):
    """Pool handler whose seat cannot recover a failed pass: inlining
    raises, and so does rolling it back.  The seat is a forked child,
    so neither patch reaches the test process or another seat."""
    from repro.core.undo import UndoLog
    from repro.serve.worker import run_job
    from repro.transform import inliner

    def fail(*args, **kwargs):
        raise RuntimeError("simulated failure")

    inliner.inline_small_functions = fail
    UndoLog.restore = fail
    return run_job(request)


@pytest.mark.parametrize("request_", [
    {"op": "compile", "source": SRC, "opt": "static"},
    {"op": "run", "source": SRC, "entry": "main", "args": [[3]]},
], ids=["compile", "vm-run"])
def test_pipeline_crash_reply_names_its_bundle(tmp_path, monkeypatch,
                                               request_):
    """A compile, or a VM-tier run, whose pipeline cannot recover gets a
    ``compile-error`` of kind ``PipelineCrash`` naming one bundle under
    the server's ``crash_dir``: the request and its source replay it.
    The worker writes nothing where it runs."""
    from pathlib import Path

    from repro.core.pool import WorkerPool

    workdir = tmp_path / "workdir"
    workdir.mkdir()
    monkeypatch.chdir(workdir)   # the seat forks with this directory
    crashes = tmp_path / "crashes"
    # A run key is served by the interpreter twice, then by the VM.
    sends = 1 if request_["op"] == "compile" else 3

    async def scenario():
        server = CompileServer(ServerConfig(
            cache_dir=str(tmp_path / "cache"), crash_dir=str(crashes),
            native=False))
        server.pool = WorkerPool(_unrecoverable_seat, size=1)
        try:
            line = encode_message(request_)
            return [json.loads(await _answer(server, line))
                    for _ in range(sends)]
        finally:
            await server.stop()

    *interpreted, reply = asyncio.run(scenario())
    assert all(r["ok"] and r["tier"] == "interp" for r in interpreted)
    error = reply["error"]
    assert error["code"] == "compile-error"
    assert error["kind"] == "PipelineCrash"
    assert "pass trace" in error["message"]
    bundle = Path(error["crash_bundle"])
    assert list(crashes.iterdir()) == [bundle]
    assert bundle.name == "crash-0000-PipelineCrash"
    report = json.loads((bundle / "report.json").read_text())
    assert report["request"]["op"] == request_["op"]
    assert report["request"]["source"] == SRC
    assert report["error"]["kind"] == "PipelineCrash"
    assert "pass trace" in report["error"]["message"]
    assert "simulated failure" in report["error"]["traceback"]
    assert (bundle / "repro.impala").read_text() == SRC
    assert list(workdir.iterdir()) == []


def test_native_compile_pipeline_crash_leaves_its_bundle(tmp_path,
                                                         monkeypatch):
    """A background native compile whose pipeline cannot recover
    quarantines its key and leaves one bundle, the promotion job, under
    the server's ``crash_dir``; the worker writes nothing where it
    runs."""
    from repro.core.pool import WorkerPool
    from repro.native import native_available

    if not native_available():
        pytest.skip("no C compiler: the native tier is off")
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    monkeypatch.chdir(workdir)   # the seat forks with this directory
    crashes = tmp_path / "crashes"

    async def scenario():
        server = CompileServer(ServerConfig(
            cache_dir=str(tmp_path / "cache"), crash_dir=str(crashes),
            tier_hot_requests=1))
        server.pool = WorkerPool(_unrecoverable_seat, size=1)
        try:
            # The first run is served by the interpreter and marks the
            # key hot, which starts the native compile.
            reply = json.loads(await _answer(server, encode_message(
                {"op": "run", "source": SRC, "entry": "main",
                 "args": [[3]]})))
            await asyncio.gather(*server._promotions.values())
            return reply, server.tiering.state_of(reply["key"])
        finally:
            await server.stop()

    reply, state = asyncio.run(scenario())
    assert reply["ok"] and reply["tier"] == "interp"
    assert state == "quarantined"
    (bundle,) = crashes.iterdir()
    assert bundle.name == "crash-0000-PipelineCrash"
    report = json.loads((bundle / "report.json").read_text())
    assert report["request"]["op"] == "native-compile"
    assert report["request"]["source"] == SRC
    assert (bundle / "repro.impala").read_text() == SRC
    assert list(workdir.iterdir()) == []


def test_bundle_index_is_taken_by_mkdir(tmp_path, monkeypatch):
    """Servers sharing a ``crash_dir`` race for bundle indices: one
    that saw index 0 free while another took it still writes its
    bundle, at index 1."""
    from pathlib import Path

    from repro.core.pool import WorkerCrash

    crashes = tmp_path / "crashes"
    (crashes / "crash-0000-WorkerCrash").mkdir(parents=True)
    server = CompileServer(ServerConfig(
        cache_dir=str(tmp_path / "cache"), crash_dir=str(crashes)))
    monkeypatch.setattr(Path, "exists", lambda self, *a, **kw: False)
    bundle = server._write_crash_bundle(
        WorkerCrash("worker killed", exitcode=-9),
        {"op": "compile", "source": SRC, "opt": "static"})
    monkeypatch.undo()
    assert bundle == str(crashes / "crash-0001-WorkerCrash")
    assert (Path(bundle) / "repro.impala").read_text() == SRC


def test_fault_requests_bypass_the_cache(served):
    with served.client() as client:
        clean = client.compile(SRC + "\n// fault-cache", opt="static")
        assert clean["ok"] and clean["cached"] is False
        # An injected (recovered) fault compiles degraded artifacts;
        # they must not be served to clean requests.
        faulty = client.compile(
            SRC + "\n// fault-cache", opt="static",
            fault={"mode": "raise", "target": "inline"})
        assert faulty["ok"]
        assert faulty["artifacts"]["stats"]["rollbacks"] >= 1
        again = client.compile(SRC + "\n// fault-cache", opt="static")
        assert again["ok"] and again["artifacts"] == clean["artifacts"]


# ---------------------------------------------------------------------------
# unit: cache key and store
# ---------------------------------------------------------------------------


def test_cache_key_is_semantic():
    base = {"op": "compile", "source": SRC, "opt": "static", "options": {}}
    key = cache_key(base)
    assert key == cache_key({**base})
    assert key != cache_key({**base, "source": SRC + " "})
    assert key != cache_key({**base, "opt": "none"})
    assert key != cache_key({**base, "options": {"growth_cap_floor": 2048}})
    # Defaults spelled out == defaults omitted.
    assert key == cache_key({**base, "options": {"growth_cap_floor": 4096}})
    # A field the key does not cover (here the retired crash_dir) is
    # rejected, neither keyed nor silently dropped.
    with pytest.raises(ValueError, match="crash_dir"):
        cache_key({**base, "options": {"crash_dir": "/elsewhere"}})


def test_cache_key_pgo_profile_material():
    base = {"op": "compile", "source": SRC, "opt": "pgo",
            "options": {}, "entry": "main", "train_args": [[3]]}
    assert cache_key(base) != cache_key({**base, "train_args": [[4]]})
    assert cache_key(base) != cache_key(
        {**base, "opt": "static"})


# Digests of fixed requests, taken before canonical_options was
# memoized (the compile override's before the pipeline budgets left
# OptimizeOptions).  Existing on-disk stores are addressed by these; a
# change here re-addresses every stored artifact.
PINNED_KEYS = {
    "compile-default":
        "d6c55932d63f415ee74b8dc362fafd54a94d41fa0b13c3ac705e807f856f901b",
    "compile-override":
        "f8809ac9bf8ce196357418676c3e66227769f8f5d603bbc5292d3f53d6c1480f",
    "run-default":
        "ce39c52669a294f70a9874f1e38916439acfdc4e9df334f26ab781275c00f626",
    "run-override":
        "e0fa82e6ce98f7ee56ae5c8554813c79ee61e7b99d5b7ebf12ea37948e1f31c6",
}


def test_cache_keys_are_pinned():
    compile_base = {"op": "compile", "source": SRC, "opt": "static",
                    "options": {}}
    run_base = {"op": "run", "source": SRC, "entry": "main",
                "args": [[4]], "options": {}}
    for _ in range(2):  # the second round is served from the memo
        assert cache_key(compile_base) == PINNED_KEYS["compile-default"]
        assert cache_key({**compile_base,
                          "options": {"growth_cap_floor": 2048}}) \
            == PINNED_KEYS["compile-override"]
        assert run_cache_key(run_base) == PINNED_KEYS["run-default"]
        assert run_cache_key({**run_base, "options": {"mem_opt": False}}) \
            == PINNED_KEYS["run-override"]


def test_canonical_options_memo_is_bounded():
    memo = cache_module._canonical_options
    bound = cache_module.OPTIONS_MEMO_ENTRIES
    for floor in range(bound + 16):
        cache_module.canonical_options({"growth_cap_floor": 100 + floor})
    assert memo.cache_info().currsize == bound
    # Values that compare equal in Python but encode differently stay
    # distinct memo entries, as they are distinct cache keys.
    for one, other in (({"growth_cap_floor": 2},
                        {"growth_cap_floor": 2.0}),
                       ({"mem_opt": True}, {"mem_opt": 1})):
        assert canonical_json(cache_module.canonical_options(one)) \
            != canonical_json(cache_module.canonical_options(other))


def test_artifact_cache_lru_and_disk(tmp_path):
    cache = ArtifactCache(tmp_path / "store", memory_entries=2)
    for index in range(3):
        cache.put(f"k{index}", {"n": index})
    assert len(cache._memory) == 2  # k0 evicted from memory...
    entry, tier = cache.get("k0")  # the entry's canonical JSON text
    assert json.loads(entry) == {"n": 0}
    assert tier == "disk"  # ...but not from disk
    entry, tier = cache.get("k2")
    assert tier == "memory"
    assert cache.stats()["hit_rate"] == 1.0


# ---------------------------------------------------------------------------
# a corrupt disk object is a miss, never a reply
# ---------------------------------------------------------------------------


def _stub_handler(request):
    """Pool handler with deterministic artifacts, so two compiles of one
    request reply with identical bytes (real ones carry timings)."""
    return {"ir": f"stub({request['source']})", "c": "int x;",
            "bytecode": None, "stats": {"rounds": 1}}


@pytest.mark.parametrize("damage", ["truncate", "empty", "binary"])
def test_corrupt_disk_object_is_a_miss(tmp_path, damage):
    from repro.core.pool import WorkerPool

    async def scenario():
        server = CompileServer(ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes")))
        server.pool = WorkerPool(_stub_handler, size=1)
        try:
            line = encode_message({"op": "compile", "source": SRC,
                                   "opt": "static", "id": 3})
            clean = await _answer(server, line)
            key = json.loads(clean)["key"]
            path = server.cache._object_path(key)
            text = path.read_bytes()
            path.write_bytes({"truncate": text[:len(text) // 2],
                              "empty": b"",
                              "binary": b"\xff\xfe{"}[damage])
            server.cache._memory.clear()
            before = server.cache.stats()
            compiled = server.metrics.snapshot()["latency"][
                "compile_cold"]["count"]
            again = await _answer(server, line)
            after = server.cache.stats()
            assert after["misses"] == before["misses"] + 1
            assert after["hits_disk"] == before["hits_disk"]
            assert server.metrics.snapshot()["latency"]["compile_cold"][
                "count"] == compiled + 1
            assert again == clean
            # The recompile rewrote a whole object.
            assert path.read_bytes() == text
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_a_full_disk_still_answers_from_memory(tmp_path, monkeypatch):
    """The store refuses the object write (``ENOSPC`` after a partial
    write): the compile and the request coalesced on it are answered,
    the repeat is a memory hit, no temp file is left, and the failure
    is counted."""
    import errno

    from repro.core.pool import WorkerPool

    write_text = Path.write_text

    def full_disk(self, text, *args, **kwargs):
        if ".tmp." in self.name:
            write_text(self, text[:8], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_text(self, text, *args, **kwargs)

    async def scenario():
        server = CompileServer(ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            crash_dir=str(tmp_path / "crashes")))
        server.pool = WorkerPool(_slow_stub_handler, size=1)
        try:
            line = encode_message({"op": "compile", "source": SRC,
                                   "opt": "static"})
            lead = asyncio.create_task(_answer(server, line))
            await asyncio.sleep(0.3)  # the lead is inside the worker
            answered = await asyncio.wait_for(
                asyncio.gather(lead, _answer(server, line)), 20.0)
            answered.append(await _answer(server, line))
            return [json.loads(r) for r in answered], server.cache.stats()
        finally:
            await server.stop()

    monkeypatch.setattr(Path, "write_text", full_disk)
    (cold, joined, warm), stats = asyncio.run(scenario())
    monkeypatch.undo()
    assert cold["ok"] and cold["cached"] is False
    assert joined["ok"] and joined["coalesced"] is True
    assert warm["ok"] and warm["cached"] == "memory"
    assert joined["artifacts"] == warm["artifacts"] == cold["artifacts"]
    assert stats["disk_write_errors"] == 1
    assert [p.name for p in (tmp_path / "cache").rglob("*")
            if p.is_file()] == []


# ---------------------------------------------------------------------------
# the wire format: head members first, re-tagging without decoding
# ---------------------------------------------------------------------------


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=12)
_head_members = st.fixed_dictionaries({}, optional={
    "id": _json_values, "ok": st.booleans()})
_tags = st.fixed_dictionaries({}, optional={"id": _json_values})


@settings(max_examples=300, deadline=None)
@given(body=st.dictionaries(st.text(max_size=10), _json_values,
                            max_size=5),
       head=_head_members, raw=st.none() | _json_values, tags=_tags)
def test_retag_equals_encoding_the_retagged_reply(body, head, raw, tags):
    reply = {**body, **head}
    if raw is not None:
        # A pre-encoded member, as the cache hands artifacts over.
        reply["artifacts"] = RawJSON(canonical_json(raw))
    plain = {name: json.loads(value.text) if isinstance(value, RawJSON)
             else value for name, value in reply.items()}
    line = encode_message(reply)
    assert line == encode_message(plain)  # splicing == encoding
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert json.loads(line) == plain
    assert head_value(line, "ok") == plain.get("ok")

    retagged = retag(line, **tags)
    expected = {name: value for name, value in reply.items()
                if name != "id"}
    expected.update(tags)
    assert retagged == encode_message(expected)
    plain_expected = {name: value for name, value in plain.items()
                      if name != "id"}
    plain_expected.update(tags)
    assert json.loads(retagged) == plain_expected


def test_encode_message_head_order():
    line = encode_message({"key": "k", "ok": True, "cached": "memory",
                           "id": 7, "artifacts": RawJSON('{"ir":"x"}')})
    assert line == (b'{"id":7,"ok":true,"artifacts":{"ir":"x"},'
                    b'"cached":"memory","key":"k"}\n')


# ---------------------------------------------------------------------------
# the client's line reader, against a socketpair standing in for a server
# ---------------------------------------------------------------------------


def _paired_client():
    ours, theirs = socket.socketpair()
    client = ServeClient()
    client._sock = ours
    return client, theirs


def test_client_reads_many_lines_from_one_chunk():
    client, server_end = _paired_client()
    replies = [{"ok": True, "id": index, "pad": "x" * index}
               for index in range(200)]
    server_end.sendall(b"".join(encode_message(r) for r in replies))
    try:
        for reply in replies:
            assert json.loads(client._read_line()) == reply
        server_end.close()
        with pytest.raises(ServeClientError, match="closed the connection"):
            client._read_line()
    finally:
        client.close()


def test_client_reassembles_a_line_from_tiny_chunks():
    client, server_end = _paired_client()
    line = encode_message({"ok": True, "id": "split", "body": "y" * 3000})

    def trickle():
        for start in range(0, len(line), 7):
            server_end.sendall(line[start:start + 7])
            time.sleep(0.0002)
        server_end.sendall(encode_message({"ok": True, "id": "next"}))

    writer = threading.Thread(target=trickle)
    writer.start()
    try:
        assert client._read_line() + b"\n" == line
        assert json.loads(client._read_line())["id"] == "next"
    finally:
        writer.join()
        server_end.close()
        client.close()


def test_pipelined_reads_while_it_writes():
    """A pipeline larger than the socket buffers both ways: the peer
    answers each line before it reads the next, so a client that wrote
    every line before reading any reply would wait on it forever."""
    client, server_end = _paired_client()
    client._sock.settimeout(30.0)
    pad = "p" * 65536
    count = 64

    def answer_each_line():
        with server_end.makefile("rb") as lines:
            for _ in range(count):
                request = json.loads(lines.readline())
                server_end.sendall(encode_message(
                    {"ok": True, "id": request["id"], "pad": pad}))

    peer = threading.Thread(target=answer_each_line, daemon=True)
    peer.start()
    try:
        replies = client.pipelined(
            [{"op": "ping", "id": index, "pad": pad}
             for index in range(count)])
    finally:
        client.close()
        peer.join(timeout=30.0)
        server_end.close()
    assert not peer.is_alive()
    assert sorted(replies) == list(range(count))


def test_client_refuses_an_oversized_line():
    client, server_end = _paired_client()

    def flood():
        try:
            server_end.sendall(b"z" * (MAX_LINE_BYTES + 256 * 1024))
        except OSError:
            pass  # the client hung up, as it should

    writer = threading.Thread(target=flood)
    writer.start()
    try:
        with pytest.raises(ServeClientError, match="line limit"):
            client._read_line()
    finally:
        client.close()
        writer.join()
        server_end.close()

