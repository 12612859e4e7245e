"""Fleet-mode tests: hash ring, router, redispatch, pipelining, aggregation.

Two in-process shard servers (the same :class:`_ServerThread` pattern
as test_serve) sit behind an in-process :class:`Router` on its own
loop thread; tests talk to the router — and, for the direct/routed
comparisons, straight to a shard — over real sockets with the
blocking client.  One subprocess test runs the service driver
(:mod:`repro.serve.smoke`) against the real fleet manager
(``python -m repro.serve --shards 2``) through a SIGKILL + supervised
restart.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import threading
import time

import pytest

from repro import __version__
from repro.serve.cache import cache_key, run_cache_key
from repro.serve.client import ServeClient, backoff_delay
from repro.serve import smoke
from repro.serve.protocol import encode_message
from repro.serve.router import HashRing, Router, RouterConfig, ShardAddr
from repro.serve.server import CompileServer, ServerConfig

SRC = "fn main(a: i64) -> i64 { a * a + 1 }"


# ---------------------------------------------------------------------------
# the consistent-hash ring
# ---------------------------------------------------------------------------


def _keys(n: int) -> list[str]:
    return [cache_key({"source": f"fn main() -> i64 {{ {i} }}",
                       "opt": "static", "options": {}})
            for i in range(n)]


def test_ring_is_deterministic():
    a, b = HashRing(), HashRing()
    for name in ("s0", "s1", "s2", "s3"):
        a.add(name)
        b.add(name)
    keys = _keys(200)
    assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]
    # Insertion order must not matter either.
    c = HashRing()
    for name in ("s3", "s1", "s0", "s2"):
        c.add(name)
    assert [a.lookup(k) for k in keys] == [c.lookup(k) for k in keys]


def test_ring_balance():
    ring = HashRing()
    for index in range(4):
        ring.add(f"s{index}")
    counts = collections.Counter(ring.lookup(k) for k in _keys(2000))
    assert set(counts) == {"s0", "s1", "s2", "s3"}
    # sha256 points x 96 replicas: every shard within [10%, 45%].
    for shard, count in counts.items():
        assert 200 <= count <= 900, (shard, count)


def test_ring_minimal_movement():
    """Removing a shard moves only its own keys; re-adding restores."""
    ring = HashRing()
    for index in range(4):
        ring.add(f"s{index}")
    keys = _keys(1000)
    before = {k: ring.lookup(k) for k in keys}
    ring.remove("s2")
    after = {k: ring.lookup(k) for k in keys}
    for key in keys:
        if before[key] != "s2":
            assert after[key] == before[key], "a surviving key moved"
        else:
            assert after[key] != "s2"
    ring.add("s2")
    assert {k: ring.lookup(k) for k in keys} == before


def test_ring_empty_and_single():
    ring = HashRing()
    assert ring.lookup("anything") is None
    ring.add("only")
    assert all(ring.lookup(k) == "only" for k in _keys(50))
    ring.remove("only")
    assert ring.lookup("anything") is None


def test_backoff_delay_bounded():
    import random
    rng = random.Random(7)
    for attempt in range(10):
        delay = backoff_delay(attempt, base=0.05, cap=2.0, rng=rng)
        assert 0 < delay < 3.0
    # Grows with attempt (modulo jitter): compare medians.
    early = sorted(backoff_delay(0, rng=rng) for _ in range(50))[25]
    late = sorted(backoff_delay(6, rng=rng) for _ in range(50))[25]
    assert late > early


# ---------------------------------------------------------------------------
# in-process fleet: two shard servers + a router
# ---------------------------------------------------------------------------


class _ServerThread:
    def __init__(self, tmp_path, name: str):
        self.loop = asyncio.new_event_loop()
        self.server = CompileServer(ServerConfig(
            port=0, workers=1, shard_name=name,
            cache_dir=str(tmp_path / "cache"),       # shared store
            crash_dir=str(tmp_path / "crashes" / name),
            max_pending=8, request_timeout=60.0))
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(timeout=30.0), "shard failed to start"
        self.port = self.server.port

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(timeout=30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)


class _RouterThread:
    def __init__(self, shards: list[tuple[str, int]]):
        self.loop = asyncio.new_event_loop()
        # Huge health interval: membership changes in these tests come
        # from requests hitting dead shards (the redispatch path) and
        # from explicit add_shard calls, never from the prober.
        self.router = Router(RouterConfig(
            port=0, health_interval=3600.0,
            shards=[ShardAddr(name, "127.0.0.1", port)
                    for name, port in shards]))
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.router.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(timeout=30.0), "router failed to start"
        self.port = self.router.port

    def add_shard(self, name: str, port: int):
        self.loop.call_soon_threadsafe(
            self.router.add_shard, name, "127.0.0.1", port)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.router.stop(), self.loop).result(timeout=30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)


class _Fleet:
    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.shards = {name: _ServerThread(tmp_path, name)
                       for name in ("shard-a", "shard-b")}
        self.router = _RouterThread(
            [(name, shard.port) for name, shard in self.shards.items()])

    def client(self, **kw) -> ServeClient:
        return ServeClient(port=self.router.port, timeout=60.0, **kw)

    def shard_client(self, name: str) -> ServeClient:
        return ServeClient(port=self.shards[name].port, timeout=60.0)

    def stop(self):
        self.router.stop()
        for shard in self.shards.values():
            shard.stop()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    f = _Fleet(tmp_path_factory.mktemp("fleet"))
    yield f
    f.stop()


def test_router_ping_identity(fleet):
    with fleet.client() as client:
        ping = client.ping()
        assert ping["pong"] and ping["role"] == "router"
        assert ping["version"] == __version__
        assert ping["shards_live"] == 2
    # Shards tell themselves apart (satellite: version/pid/shard).
    pids = {}
    for name in fleet.shards:
        with fleet.shard_client(name) as client:
            ping = client.ping()
            assert ping["shard"] == name
            assert ping["version"] == __version__
            assert isinstance(ping["pid"], int)
            pids[name] = ping["pid"]
    assert len(set(pids.values())) == 1  # in-process shards share a pid


def test_routed_compile_key_affinity(fleet):
    """Identical requests land on one shard; repeats hit its memory."""
    with fleet.client() as client:
        cold = client.compile(SRC, opt="static", request_id="rc1")
        assert cold["ok"] and cold["cached"] is False
        assert cold["id"] == "rc1"
        warm = client.compile(SRC, opt="static")
        assert warm["ok"] and warm["cached"] == "memory"
        assert warm["artifacts"] == cold["artifacts"]
    # Exactly one shard compiled it (fleet-wide single-flight basis).
    compiles = [fleet.shards[name].server.metrics.counters.get(
        "compile_requests", 0) for name in fleet.shards]
    assert sum(1 for count in compiles if count > 0) >= 1
    key = cold["key"]
    owner = fleet.router.router.ring.lookup(key)
    assert owner in fleet.shards


def test_routed_artifacts_match_direct(fleet):
    """Routed bytes == direct shard bytes == in-process compile."""
    from repro.serve.worker import compile_request

    source = SRC + " // routed-identity"
    request = {"op": "compile", "source": source, "opt": "static"}
    with fleet.client() as client:
        routed = client.request(dict(request))
    assert routed["ok"]
    direct = compile_request(dict(request))
    for artifact in ("ir", "c", "bytecode"):
        assert routed["artifacts"][artifact] == direct[artifact]


def _line(client: ServeClient, message: dict) -> bytes:
    """Send *message*; return its raw reply line."""
    client.connect()
    client._sock.sendall(encode_message(message))
    return client._read_line()


def test_routed_reply_lines_match_direct(fleet):
    """A routed reply is the owning shard's reply line, byte for byte,
    with only the id rewritten."""
    source = SRC + " // routed-lines"
    compile_msg = {"op": "compile", "source": source, "opt": "static"}
    key = cache_key(compile_msg)
    owner = fleet.router.router.ring.lookup(key)
    with fleet.client() as routed, fleet.shard_client(owner) as direct:
        # A cold compile: the routed line splices the text the shard's
        # cache write produced, so only the cache outcome tells it from
        # the direct memory hit that follows.
        cold = _line(routed, {**compile_msg, "id": "cold"})
        hit = _line(direct, {**compile_msg, "id": "cold"})
        assert json.loads(cold)["cached"] is False
        assert json.loads(hit)["cached"] == "memory"
        assert cold.replace(b'"cached":false,', b'"cached":"memory",', 1) \
            == hit

        # A memory hit, with a structured id.
        message = {**compile_msg, "id": {"n": 1, "tag": "hit"}}
        assert _line(routed, message) == _line(direct, message)

        # A bad request: the router answers itself, in the same bytes.
        message = {**compile_msg, "options": {"warp_factor": 9}, "id": 5}
        assert _line(routed, message) == _line(direct, message)

        # A run: two fresh requests both land on the interpreter tier.
        run_msg = {"op": "run", "source": source, "entry": "main",
                   "args": [[6]], "id": "run"}
        run_owner = fleet.router.router.ring.lookup(run_cache_key(run_msg))
        with fleet.shard_client(run_owner) as run_direct:
            routed_run = _line(routed, run_msg)
            assert _line(run_direct, run_msg) == routed_run
        assert json.loads(routed_run)["tier"] == "interp"


def test_routed_run_request(fleet):
    with fleet.client() as client:
        reply = client.run(SRC, [[4]])
        assert reply["ok"], reply
        assert reply["results"][0]["value"] == 17
        assert reply["tier"] in ("interp", "vm", "native")


def test_bad_request_direct_and_routed(fleet):
    """An option name outside the five the cache key covers — unknown,
    operational (the server's to set) or retired — gets a structured
    bad-request on both paths, never a connection drop."""
    for options in ({"warp_factor": 9}, {"pass_hook": 1},
                    {"crash_dir": "/elsewhere"},
                    {"crash_context": {"origin": "client"}},
                    {"max_rounds": 2}, {"pass_deadline": 1.0}):
        (name,) = options
        checks = [
            lambda c: c.compile(SRC, options=options),
            lambda c: c.run(SRC, [[1]], options=options),
        ]
        for make in checks:
            for client_factory in (fleet.client,
                                   lambda: fleet.shard_client("shard-a")):
                with client_factory() as client:
                    reply = make(client)
                    assert reply["ok"] is False
                    assert reply["error"]["code"] == "bad-request"
                    assert name in reply["error"]["message"]
                    # Connection survived the error.
                    assert client.ping()["ok"]


def test_router_rejects_malformed_and_unknown(fleet):
    with fleet.client() as client:
        client.connect()
        client._sock.sendall(b"{nope\n")
        reply = json.loads(client._read_line())
        assert reply["error"]["code"] == "malformed-json"
        assert client.request({"op": "warp"})["error"]["code"] == \
            "bad-request"
        # The retired batch op is an unknown op like any other.
        reply = client.request({"op": "batch", "id": "b",
                                "requests": [{"op": "ping"}]})
        assert reply["id"] == "b"
        assert reply["error"]["code"] == "bad-request"
        assert "unknown op 'batch'" in reply["error"]["message"]


def test_pipelined_lines_are_answered_one_each(fleet):
    """Lines pipelined down one router connection are answered one
    reply per line, in completion order, each tagged with its own id."""
    requests = [
        {"op": "ping", "id": "ping"},
        {"op": "compile", "source": SRC + " // pipelined-0", "id": 0},
        {"op": "compile", "source": SRC + " // pipelined-1", "id": "named"},
        {"op": "compile", "source": "fn broken(", "id": "bad"},
        {"op": "nope", "id": 4},
    ]
    with fleet.client() as client:
        replies = client.pipelined(requests)
        assert client.ping()["pong"]  # no reply left over on the line
    assert sorted(map(str, replies)) == ["0", "4", "bad", "named", "ping"]
    assert replies["ping"]["pong"]
    assert replies[0]["ok"] and replies["named"]["ok"]
    assert replies[0]["key"] != replies["named"]["key"]
    assert replies["bad"]["error"]["code"] == "compile-error"
    assert replies[4]["error"]["code"] == "bad-request"


def test_fleet_stats_aggregate(fleet):
    with fleet.client() as client:
        stats = client.stats()
    assert stats["ok"] and stats["role"] == "router"
    assert stats["router"]["shards_live"] == 2
    assert set(stats["shards"]) == set(fleet.shards)
    fleet_view = stats["fleet"]
    assert fleet_view["shards_reporting"] == 2
    assert fleet_view["workers"] == 2  # 1 worker x 2 shards
    total = sum(s["counters"].get("requests_total", 0)
                for s in stats["shards"].values() if s.get("ok"))
    assert fleet_view["counters"]["requests_total"] == total
    assert "hit_rate" in fleet_view["cache"]
    assert fleet_view["cache"]["disk_write_errors"] == 0


def _rollback_counters(stats: dict) -> tuple[int, int]:
    return (stats["counters"].get("pipeline_rollbacks", 0),
            stats["counters"].get("pipeline_quarantines", 0))


def test_recovered_compiles_are_counted(fleet):
    """A compile that rolled a failed pass back still replies ``ok``;
    the shard's counters say so, directly and summed by the router,
    counting both optimize rounds of a PGO compile."""
    fault = {"mode": "raise", "target": "inline"}
    with fleet.shard_client("shard-a") as direct:
        before = _rollback_counters(direct.stats())
        reply = direct.compile(SRC + " // recovered", fault=fault)
        after = _rollback_counters(direct.stats())
    assert reply["ok"] and reply["artifacts"]["stats"]["rollbacks"] == 1
    assert after == (before[0] + 1, before[1] + 1)

    with fleet.client() as routed:
        before = _rollback_counters(routed.stats()["fleet"])
        reply = routed.compile(SRC + " // recovered", opt="pgo",
                               entry="main", train_args=[[3]], fault=fault)
        after = _rollback_counters(routed.stats()["fleet"])
    assert reply["ok"]
    records = reply["artifacts"]["stats"].values()
    expected = (sum(record["rollbacks"] for record in records),
                sum(len(record["quarantined"]) for record in records))
    assert expected[0] >= 1
    assert after == (before[0] + expected[0], before[1] + expected[1])


def test_dead_shard_redispatch_and_revival(fleet):
    """Killing a shard yields zero failed requests; the survivor takes
    its keys; re-adding restores two-shard routing."""
    victim_name = "shard-b"
    fleet.shards[victim_name].stop()
    with fleet.client() as client:
        failures = []
        for index in range(12):
            reply = client.compile(
                f"fn main(a: i64) -> i64 {{ a + {index} }} // redispatch")
            if not reply.get("ok"):
                failures.append(reply)
        assert not failures, failures
        stats = client.stats()
    assert stats["router"]["shards_live"] == 1
    counters = stats["router"]["counters"]
    assert counters.get("redispatches", 0) >= 1
    assert counters.get("shard_down_events", 0) >= 1

    # Revive: a fresh shard process under the same name, new port.
    replacement = _ServerThread(fleet.tmp_path, victim_name)
    fleet.shards[victim_name] = replacement
    fleet.router.add_shard(victim_name, replacement.port)
    with fleet.client() as client:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.ping()["shards_live"] == 2:
                break
            time.sleep(0.1)
        ping = client.ping()
        assert ping["shards_live"] == 2
        reply = client.compile(SRC + " // after-revival")
        assert reply["ok"]


def test_a_shard_that_sits_on_requests_times_them_out():
    """A shard that reads requests and never answers: each forwarded
    request is answered ``unavailable`` once the link timeout passes,
    one after another as their deadlines come up."""
    async def scenario():
        async def mute(reader, writer):
            await reader.read()  # never replies
            writer.close()

        shard = await asyncio.start_server(mute, "127.0.0.1", 0)
        router = Router(RouterConfig(
            port=0, request_timeout=0.3, health_interval=3600.0,
            shards=[ShardAddr("mute", "127.0.0.1",
                              shard.sockets[0].getsockname()[1])]))
        started = time.monotonic()
        answered = []

        async def send(reply: bytes) -> None:
            answered.append((time.monotonic() - started,
                             json.loads(reply)))

        def ask(index: int):
            line = encode_message({"op": "compile", "id": index,
                                   "source": f"{SRC} // {index}"})
            return router.serve_line(line, send)

        first = asyncio.ensure_future(ask(0))
        await asyncio.sleep(0.15)
        await asyncio.gather(first, ask(1))
        router._drop_link("mute")
        shard.close()
        await shard.wait_closed()
        return answered, router.metrics.counters

    answered, counters = asyncio.run(scenario())
    assert [reply["id"] for _, reply in answered] == [0, 1]
    for elapsed, reply in answered:
        assert reply["error"]["code"] == "unavailable"
        assert "did not answer within 0.3s" in reply["error"]["message"]
    assert 0.3 <= answered[0][0] < answered[1][0] < 2.0
    assert answered[1][0] >= 0.45
    assert counters["shard_timeouts"] == 2


def test_a_half_closed_shard_link_ends_in_a_reply():
    """A shard that reads one request and shuts its write side: the
    router takes it out of the ring and redispatches the request to the
    next live shard, or answers ``unavailable`` once none is left.
    Neither waits for the link timeout (300 s by default)."""
    async def half_close(reader, writer):
        await reader.readline()
        writer.write_eof()  # reading stays open
        await reader.read()
        writer.close()

    async def echo(reader, writer):
        while line := await reader.readline():
            writer.write(encode_message(
                {"ok": True, "id": json.loads(line)["id"],
                 "shard": "echo"}))
        writer.close()

    async def ask(names: list[str]) -> tuple[dict, dict, float]:
        servers = {name: await asyncio.start_server(
            {"half": half_close, "echo": echo}[name], "127.0.0.1", 0)
            for name in names}
        router = Router(RouterConfig(port=0, health_interval=3600.0,
                                     shards=[
            ShardAddr(name, "127.0.0.1",
                      server.sockets[0].getsockname()[1])
            for name, server in servers.items()]))
        # A source whose key the ring gives to the half-closing shard.
        source = next(f"{SRC} // {index}" for index in range(1000)
                      if router.ring.lookup(cache_key(
                          {"source": f"{SRC} // {index}",
                           "opt": "static", "options": {}})) == "half")
        replies = []

        async def send(reply: bytes) -> None:
            replies.append(json.loads(reply))

        started = time.monotonic()
        await asyncio.wait_for(router.serve_line(encode_message(
            {"op": "compile", "id": 7, "source": source}), send), 10.0)
        elapsed = time.monotonic() - started
        for name in names:
            router._drop_link(name)
        for server in servers.values():
            server.close()
            await server.wait_closed()
        (reply,) = replies
        return reply, router.metrics.counters, elapsed

    async def scenario():
        return await ask(["half", "echo"]), await ask(["half"])

    (redispatched, counters, elapsed), (alone, _, alone_elapsed) = \
        asyncio.run(scenario())
    assert redispatched == {"ok": True, "id": 7, "shard": "echo"}
    assert counters["redispatches"] == 1
    assert counters["shard_down_events"] == 1
    assert alone["error"]["code"] == "unavailable"
    assert alone["id"] == 7
    assert max(elapsed, alone_elapsed) < 5.0


# ---------------------------------------------------------------------------
# the real fleet manager (subprocess): SIGKILL -> supervised restart
# ---------------------------------------------------------------------------


def test_fleet_manager_restart_and_drain():
    """The service driver against ``python -m repro.serve --shards 2``:
    a shard SIGKILLed mid-run costs zero failed replies, is restarted
    by the supervisor, and SIGTERM drains the fleet to exit 0."""
    assert smoke.main(["--shards", "2", "--requests", "24"]) == 0


@pytest.mark.parametrize("flags", [["--native-dir", "objects"],
                                   ["--hot-requests", "2"],
                                   ["--cache-dir", "none"]],
                         ids=lambda flags: flags[0])
def test_fleet_mode_rejects_flags_its_shards_would_drop(flags, capsys):
    from repro.serve.__main__ import main

    assert main(["--shards", "2", *flags]) == 2
    assert flags[0] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# disk-cache eviction (satellite: --cache-max-bytes)
# ---------------------------------------------------------------------------


def test_cache_gc_mtime_lru(tmp_path):
    from repro.serve.cache import ArtifactCache

    cache = ArtifactCache(tmp_path / "store", memory_entries=4,
                          max_bytes=None)
    payload = {"blob": "x" * 2000}
    for index in range(10):
        cache.put(f"k{index:02d}", dict(payload, n=index))
    # Backdate the first half so they are the LRU victims.
    old = time.time() - 3600
    for index in range(5):
        path = cache._object_path(f"k{index:02d}")
        os.utime(path, (old, old))
    # Touch k00 via a hit: it must survive the sweep.
    cache._memory.clear()
    assert cache.get("k00") is not None
    usage = cache.disk_usage()
    swept = cache.gc(max_bytes=usage - 1)  # force an over-budget sweep
    assert swept["evicted"] >= 1
    assert cache.evictions == swept["evicted"]
    assert cache.stats()["evictions"] >= 1
    # The touched entry survived; some backdated sibling did not.
    assert cache._object_path("k00").exists()
    assert not all(cache._object_path(f"k{i:02d}").exists()
                   for i in range(1, 5))
    # A miss on an evicted key is a miss, not an error.
    cache._memory.clear()
    victims = [f"k{i:02d}" for i in range(1, 5)
               if not cache._object_path(f"k{i:02d}").exists()]
    assert cache.get(victims[0]) is None


def test_cache_gc_triggered_by_puts(tmp_path):
    from repro.serve.cache import ArtifactCache

    cache = ArtifactCache(tmp_path / "store", memory_entries=4,
                          max_bytes=4000)
    for index in range(40):
        cache.put(f"key-{index:03d}", {"blob": "y" * 1000, "n": index})
    assert cache.gc_sweeps >= 1
    assert cache.evictions > 0
    # Usage may overshoot between periodic sweeps; an explicit sweep
    # brings it under the low watermark.
    cache.gc()
    assert cache.disk_usage() <= 4000 * 0.8


def test_client_retries_overloaded(fleet, monkeypatch):
    """Bounded backoff+jitter on overloaded replies (satellite 1)."""
    shard = fleet.shards["shard-a"].server
    original = shard.config.max_pending
    # Force every compile into the shed path on both shards.
    for server_thread in fleet.shards.values():
        server_thread.server.config.max_pending = 0
    sleeps = []
    monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
    try:
        with fleet.client(retry_attempts=3, retry_base=0.01) as client:
            reply = client.compile(SRC + " // retry-test")
        assert reply["ok"] is False
        assert reply["error"]["code"] == "overloaded"
        assert client.retries == 3
        assert len(sleeps) == 3
        assert sleeps == sorted(sleeps) or max(sleeps) <= 0.1
        # Opt-out: no retries, first overloaded reply surfaces.
        with fleet.client(retry_overloaded=False) as client:
            reply = client.compile(SRC + " // retry-test")
            assert reply["error"]["code"] == "overloaded"
            assert client.retries == 0
    finally:
        for server_thread in fleet.shards.values():
            server_thread.server.config.max_pending = original
