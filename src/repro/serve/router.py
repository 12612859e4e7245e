"""Fleet front-end: consistent-hash routing over compile shards.

The router terminates client connections, speaks the same NDJSON
protocol as a single daemon, and forwards each request to one of N
shard servers.  The routing key is the request's *cache key* — the
same sha256 the shard itself derives (:mod:`repro.serve.cache`) — so
a given compile or run always lands on the same shard.  That gives
the fleet three properties for free:

* **hot in-memory LRUs** — a shard only ever sees its own key range,
  so its memory cache tier stays dense instead of N-way diluted;
* **fleet-wide single-flight** — identical concurrent requests meet
  on one shard and coalesce there; no cross-shard duplicate compiles;
* **deterministic artifacts** — any shard computes the same bytes
  (compiles are pure functions of the key material), so rebalancing
  is always safe.

Key affinity is a consistent hash (:class:`HashRing`, sha256 points,
``REPLICAS`` virtual nodes per shard): when a shard dies only its arc
of the ring moves, the rest of the key space keeps its warm shard.
In-flight requests on a dying shard raise :class:`ShardDown`
internally and are *redispatched* to the next live shard — safe
because requests are pure — so a shard SIGKILL under load produces
zero client-visible failures.

The client side (listening, pipelined lines, reply tags, SIGTERM
drain) is the shard server's own
:class:`~repro.serve.protocol.LineServer`; every line is routed on its
own, so the lines a client pipelines down one connection fan out
across the fleet.

Router->shard transport is a small pool of *pipelined* connections
per shard (:class:`ShardLink`): many requests in flight per
connection, tagged with router-assigned ids and matched to replies by
id (the shard serves one connection's lines concurrently).  Each
connection is an :class:`asyncio.Protocol` whose reply lines resolve
the callback registered under their id, so a forwarded request costs
no task, future or timeout wrapper: the client line is read, checked
and written to the shard in one event-loop pass, and the shard's reply
is re-tagged and written to the client in the pass that reads it.

Replies are forwarded, not rebuilt: a link hands back the shard's
reply line undecoded, and the router rewrites only its head — the
router id becomes the client's ``id`` — with
:func:`~repro.serve.protocol.retag`, copying the rest, cached
artifacts included, byte for byte.

``ping``/``stats`` are answered by the router itself; ``stats``
aggregates — router counters, per-shard introspection, fleet-wide
sums.  A health loop pings shards: live ones that stop answering are
removed from the ring, known-but-down ones that answer again are
re-added (the fleet manager also drives both transitions directly
when it observes a shard process exit or restart).

Standalone use against already-running daemons::

    python -m repro.serve.router --port 7767 \\
        --shard a=127.0.0.1:7768 --shard b=127.0.0.1:7769
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import hashlib
import itertools
import os
import sys
import time
from dataclasses import dataclass, field

from .. import __version__
from .cache import cache_key, run_cache_key
from .protocol import (MAX_LINE_BYTES, LineServer, ProtocolError,
                       decode_line, encode_message, head_value,
                       validate_compile_request, validate_run_request)

# Virtual nodes per shard on the ring.  96 points x sha256 keeps the
# per-shard share of the key space within a few percent of uniform for
# small fleets while add/remove stays O(replicas log n).
REPLICAS = 96


class ShardDown(Exception):
    """The shard died (or its connection did) before replying."""


class HashRing:
    """Consistent hashing: key -> shard, minimal movement on change.

    Each shard contributes ``replicas`` points at
    ``sha256(f"{name}#{i}")``; a key maps to the first point clockwise
    from ``sha256(key)``.  Removing a shard moves only the keys on its
    own arcs; every other key keeps its (warm) shard.
    """

    def __init__(self, replicas: int = REPLICAS):
        self.replicas = replicas
        self._points: list[int] = []      # sorted hash positions
        self._owners: list[str] = []      # shard name per position
        self._members: set[str] = set()

    @staticmethod
    def _hash(material: str) -> int:
        return int.from_bytes(
            hashlib.sha256(material.encode("utf-8")).digest()[:8], "big")

    @property
    def members(self) -> frozenset:
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def add(self, name: str) -> None:
        if name in self._members:
            return
        self._members.add(name)
        for replica in range(self.replicas):
            point = self._hash(f"{name}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, name)

    def remove(self, name: str) -> None:
        if name not in self._members:
            return
        self._members.discard(name)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != name]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def lookup(self, key: str) -> str | None:
        """The shard owning *key*, or ``None`` on an empty ring."""
        if not self._points:
            return None
        index = bisect.bisect(self._points, self._hash(key))
        if index == len(self._points):
            index = 0  # wrap: past the last point -> first point
        return self._owners[index]


# ---------------------------------------------------------------------------
# pooled, pipelined shard connections
# ---------------------------------------------------------------------------


class _LinkConn(asyncio.Protocol):
    """One pipelined connection of a :class:`ShardLink`.

    ``pending`` maps each router id in flight to its callback and
    deadline, in send order; lines sent before the connection is up
    queue in ``queued``.  One timer per connection, armed for the
    oldest deadline, expires requests the shard sits on.
    """

    def __init__(self, link: ShardLink):
        self.link = link
        self.transport: asyncio.Transport | None = None
        self.queued: list[bytes] = []
        self.pending: dict[str, tuple] = {}
        self.buffer = bytearray()
        self.timer: asyncio.TimerHandle | None = None
        self.connecting: asyncio.Task | None = None
        self.dead = False

    def send(self, rid: str, line: bytes, callback) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.link.timeout
        self.pending[rid] = (callback, deadline)
        if self.timer is None:
            self.timer = loop.call_at(deadline, self._expire)
        if self.transport is None:
            self.queued.append(line)
        else:
            self.transport.write(line)

    def connection_made(self, transport) -> None:
        self.transport = transport
        transport.write(b"".join(self.queued))
        self.queued = []

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        start = 0
        while (end := buffer.find(b"\n", start)) >= 0:
            line = bytes(buffer[start:end + 1])
            start = end + 1
            rid = head_value(line, "id")
            entry = (self.pending.pop(rid, None)
                     if isinstance(rid, str) else None)
            if entry is not None:
                entry[0](line, None)
        del buffer[:start]
        if len(buffer) > MAX_LINE_BYTES + 1:
            self.link._kill(self, "reply line over the size limit")

    def connection_lost(self, exc) -> None:
        # A line still in the buffer was cut short: never forwarded.
        self.link._kill(self, "connection lost")

    def _expire(self) -> None:
        now = asyncio.get_running_loop().time()
        while self.pending:
            rid, (callback, deadline) = next(iter(self.pending.items()))
            if deadline > now:
                self.timer = asyncio.get_running_loop().call_at(
                    deadline, self._expire)
                return
            del self.pending[rid]
            callback(None, TimeoutError(
                f"shard {self.link.name} did not answer within "
                f"{self.link.timeout}s"))
        self.timer = None


class ShardLink:
    """The router's transport to one shard: a small connection pool.

    Requests are tagged with router ids (``r<N>``) before they go on
    the wire and matched back by that id, read from the head of each
    reply line without decoding the rest, so any number can be in
    flight per connection.  Connections are opened lazily (requests
    sent meanwhile queue on the connection) and round-robined; any
    transport failure — including a line cut short by the shard's death
    — fails *all* pending requests on that connection with
    :class:`ShardDown` (the router then redispatches them — requests
    are pure).
    """

    _rids = itertools.count()

    def __init__(self, name: str, host: str, port: int, *,
                 conns: int = 2, timeout: float = 300.0):
        self.name = name
        self.host = host
        self.port = port
        self.max_conns = max(1, conns)
        self.timeout = timeout
        self._conns: list[_LinkConn] = []
        self._next = 0
        self.closed = False

    def send(self, message: dict, callback) -> None:
        """Forward one message; ``callback(line, None)`` receives the
        shard's reply line, undecoded, or ``callback(None, error)`` a
        :class:`ShardDown` (any transport failure) or a
        :class:`TimeoutError` (the shard sat on the request past the
        link timeout).

        The wire carries a router id in place of the caller's ``id``,
        and the line comes back tagged with it: the caller re-tags it
        (:func:`~repro.serve.protocol.retag`).
        """
        if self.closed:
            callback(None, ShardDown(f"link to {self.name} is closed"))
            return
        rid = f"r{next(self._rids)}"
        self._pick().send(rid, encode_message({**message, "id": rid}),
                          callback)

    async def call(self, message: dict) -> dict:
        """:meth:`send`, awaited, for the router's own use: the reply
        decoded, the link's id dropped; a failure is raised."""
        future = asyncio.get_running_loop().create_future()

        def settle(line, error):
            if not future.done():
                if error is None:
                    future.set_result(line)
                else:
                    future.set_exception(error)

        self.send(message, settle)
        reply = decode_line(await future)
        reply.pop("id", None)
        return reply

    async def ping(self) -> dict:
        return await self.call({"op": "ping"})

    def _pick(self) -> _LinkConn:
        if len(self._conns) < self.max_conns:
            conn = _LinkConn(self)
            conn.connecting = asyncio.get_running_loop().create_task(
                self._connect(conn))
            self._conns.append(conn)
        self._next = (self._next + 1) % len(self._conns)
        return self._conns[self._next]

    async def _connect(self, conn: _LinkConn) -> None:
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(loop.create_connection(
                lambda: conn, self.host, self.port), timeout=10.0)
            error = None
        except (OSError, asyncio.TimeoutError) as exc:
            error = exc
        conn.connecting = None
        if error is not None:
            self._kill(conn, f"connect to {self.name} failed: {error}")

    def _kill(self, conn: _LinkConn, reason: str) -> None:
        if conn.dead:
            return
        conn.dead = True
        if conn in self._conns:
            self._conns.remove(conn)
        if conn.timer is not None:
            conn.timer.cancel()
        if conn.connecting is not None:
            conn.connecting.cancel()
        if conn.transport is not None:
            conn.transport.close()
        pending, conn.pending = conn.pending, {}
        for callback, _ in pending.values():
            callback(None, ShardDown(f"shard {self.name}: {reason}"))

    def close(self) -> None:
        self.closed = True
        for conn in list(self._conns):
            self._kill(conn, "link closed")


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------


@dataclass
class ShardAddr:
    name: str
    host: str
    port: int


@dataclass
class RouterConfig:
    host: str = "127.0.0.1"
    port: int = 7767
    shards: list = field(default_factory=list)  # list[ShardAddr]
    # Router->shard budget per request; generous (the shard enforces
    # its own request_timeout) so only a wedged shard trips it.
    request_timeout: float = 300.0
    # Health loop cadence; large values effectively disable it (the
    # fleet manager drives membership directly in that case).
    health_interval: float = 2.0
    port_file: str | None = None


class Router(LineServer):
    def __init__(self, config: RouterConfig | None = None):
        super().__init__(config or RouterConfig())
        self.ring = HashRing()
        self._addrs: dict[str, ShardAddr] = {}
        self._links: dict[str, ShardLink] = {}
        self._health: dict[str, dict] = {}  # last ping identity per shard
        self._health_task: asyncio.Task | None = None
        # The fleet manager plugs in extra stats (restarts, shard
        # process table) through this hook.
        self.extra_stats = None
        for addr in self.config.shards:
            self.add_shard(addr.name, addr.host, addr.port)

    # -- membership ---------------------------------------------------------

    def add_shard(self, name: str, host: str, port: int) -> None:
        """(Re-)register a shard and put it in rotation.

        Safe to call with a live shard (no-op) or with a restarted
        shard on a new port (link is replaced).  Links connect lazily,
        so this is synchronous and callable from supervisor code.
        """
        addr = self._addrs.get(name)
        if addr is not None and (addr.host, addr.port) != (host, port):
            self._drop_link(name)
        self._addrs[name] = ShardAddr(name, host, port)
        if name not in self._links:
            self._links[name] = ShardLink(
                name, host, port, timeout=self.config.request_timeout)
        if name not in self.ring:
            self.ring.add(name)
            self.metrics.bump("shard_up_events")

    def note_shard_dead(self, name: str) -> None:
        """Take a shard out of rotation (supervisor or failed request)."""
        if name in self.ring:
            self.ring.remove(name)
            self.metrics.bump("shard_down_events")
        self._drop_link(name)

    def _drop_link(self, name: str) -> None:
        link = self._links.pop(name, None)
        if link is not None:
            link.close()

    def _link_for(self, name: str) -> ShardLink:
        link = self._links.get(name)
        if link is None:
            addr = self._addrs[name]
            link = self._links[name] = ShardLink(
                name, addr.host, addr.port,
                timeout=self.config.request_timeout)
        return link

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self.config.health_interval > 0:
            self._health_task = asyncio.create_task(self._health_loop())

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
        await super().stop()
        for name in list(self._links):
            self._drop_link(name)

    # -- health -------------------------------------------------------------

    async def _health_loop(self) -> None:
        while not self._stopping.is_set():
            await asyncio.sleep(self.config.health_interval)
            for name in list(self._addrs):
                await self._health_check(name)

    async def _health_check(self, name: str) -> None:
        """Ping one shard; drive ring membership from the answer."""
        addr = self._addrs.get(name)
        if addr is None:
            return
        in_ring = name in self.ring
        try:
            if in_ring:
                reply = await asyncio.wait_for(
                    self._link_for(name).ping(), timeout=5.0)
            else:
                # Down shard: probe on a throwaway link so a dead
                # address can't wedge the pooled path.
                probe = ShardLink(name, addr.host, addr.port, conns=1,
                                  timeout=5.0)
                try:
                    reply = await asyncio.wait_for(probe.ping(),
                                                   timeout=5.0)
                finally:
                    probe.close()
        except (ShardDown, asyncio.TimeoutError):
            if in_ring:
                self.note_shard_dead(name)
            return
        if reply.get("pong"):
            self._health[name] = {
                "version": reply.get("version"),
                "pid": reply.get("pid"),
                "shard": reply.get("shard"),
                "checked_at": round(time.time(), 3)}
            if not in_ring:
                self.add_shard(name, addr.host, addr.port)

    # -- routing ------------------------------------------------------------

    def dispatch(self, message: dict, respond) -> None:
        """``ping``/``stats`` are answered here; ``compile``/``run``
        come back as the owning shard's reply line."""
        op = message["op"]
        if op == "ping":
            respond(self._ping_reply())
        elif op == "stats":
            self.spawn(self._stats_reply(), respond)
        else:
            self._forward(self._routing_key(message), message, respond,
                          len(self.ring) + 1)

    def _routing_key(self, message: dict) -> str:
        """The shard-affinity key: exactly the shard's own cache key.

        Validation happens here, *before* any shard sees the request —
        a malformed request (unknown op, bad options field, ...) gets
        the same structured ``bad-request`` reply routed clients would
        get from a direct connection.
        """
        if message.get("op") == "compile":
            request = validate_compile_request(message)
            derive = cache_key
        else:
            request = validate_run_request(message)
            derive = run_cache_key
        try:
            return derive(request)
        except ValueError as exc:  # an option outside WIRE_OPTIONS
            raise ProtocolError("bad-request", str(exc)) from exc

    def _forward(self, key: str, message: dict, respond,
                 attempts: int) -> None:
        """Route by ring and forward; ``respond`` gets the owning
        shard's reply line.  A shard that dies first is taken out of
        the ring and the request redispatched.

        Every attempt re-consults the ring, so after a failure the key
        lands on the next live shard.  Attempts are bounded by the
        fleet size: once every shard has failed us the ring is empty
        and the request is answered ``unavailable``.
        """
        name = self.ring.lookup(key) if attempts else None
        if name is None:
            respond(ProtocolError("unavailable", "no live shard available"))
            return

        def reply(line: bytes | None, error: Exception | None) -> None:
            if error is None:
                self.metrics.bump("routed")
                respond(line)
            elif isinstance(error, TimeoutError):
                self.metrics.bump("shard_timeouts")
                respond(ProtocolError("unavailable", str(error)))
            elif self._stopping.is_set():
                # stop() is closing the links: open no new ones.
                respond(ProtocolError("shutting-down",
                                      "router is shutting down"))
            else:
                self.note_shard_dead(name)
                self.metrics.bump("redispatches")
                self._forward(key, message, respond, attempts - 1)

        self._link_for(name).send(message, reply)

    # -- introspection ------------------------------------------------------

    def _ping_reply(self) -> dict:
        return {"ok": True, "pong": True, "role": "router",
                "version": __version__, "pid": os.getpid(),
                "shards_live": len(self.ring),
                "shards_known": len(self._addrs)}

    async def _stats_reply(self) -> dict:
        """Fleet-wide stats: router counters + per-shard introspection
        merged into fleet totals."""
        names = sorted(self.ring.members)

        async def shard_stats(name: str):
            try:
                return name, await asyncio.wait_for(
                    self._link_for(name).call({"op": "stats"}),
                    timeout=10.0)
            except (ShardDown, asyncio.TimeoutError, ProtocolError) as exc:
                return name, {"ok": False, "error": str(exc)}

        gathered = await asyncio.gather(*(shard_stats(n) for n in names))
        shards = dict(gathered)
        reply = {
            "ok": True,
            "role": "router",
            "router": {
                "uptime_s": round(time.time() - self.started, 3),
                "shards_live": len(self.ring),
                "shards_known": len(self._addrs),
                "health": dict(self._health),
                **self.metrics.snapshot(),
            },
            "shards": shards,
            "fleet": _merge_fleet(shards),
        }
        if self.extra_stats is not None:
            try:
                reply["fleet"].update(self.extra_stats())
            except Exception:
                pass  # introspection must never take a request down
        return reply


def _merge_fleet(shards: dict[str, dict]) -> dict:
    """Sum per-shard stats into one fleet view."""
    fleet = {"shards_reporting": 0, "workers": 0, "worker_crashes": 0,
             "pending": 0, "counters": {}, "cache": {
                 "hits_memory": 0, "hits_disk": 0, "misses": 0,
                 "memory_entries": 0, "evictions": 0, "evicted_bytes": 0,
                 "gc_sweeps": 0, "disk_write_errors": 0}}
    for stats in shards.values():
        if not stats.get("ok"):
            continue
        fleet["shards_reporting"] += 1
        for key in ("workers", "worker_crashes", "pending"):
            fleet[key] += stats.get(key, 0)
        for name, value in (stats.get("counters") or {}).items():
            if isinstance(value, (int, float)):
                fleet["counters"][name] = \
                    fleet["counters"].get(name, 0) + value
        cache = stats.get("cache") or {}
        for name in fleet["cache"]:
            value = cache.get(name, 0)
            if isinstance(value, (int, float)):
                fleet["cache"][name] += value
    hits = fleet["cache"]["hits_memory"] + fleet["cache"]["hits_disk"]
    lookups = hits + fleet["cache"]["misses"]
    fleet["cache"]["hit_rate"] = \
        0.0 if not lookups else round(hits / lookups, 4)
    return fleet


# ---------------------------------------------------------------------------
# standalone entry point: python -m repro.serve.router
# ---------------------------------------------------------------------------


def _parse_shard(spec: str, index: int) -> ShardAddr:
    """``name=host:port`` or ``host:port`` (auto-named s<index>)."""
    name, sep, rest = spec.partition("=")
    if not sep:
        name, rest = f"s{index}", spec
    host, sep, port = rest.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"shard spec {spec!r} is not [name=]host:port")
    return ShardAddr(name, host or "127.0.0.1", int(port))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.router",
        description="consistent-hash front-end router over running "
                    "compile daemons")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7767)
    parser.add_argument("--shard", action="append", default=[],
                        metavar="[NAME=]HOST:PORT", required=False,
                        help="a shard daemon to route to (repeatable)")
    parser.add_argument("--request-timeout", type=float, default=300.0,
                        metavar="S")
    parser.add_argument("--health-interval", type=float, default=2.0,
                        metavar="S")
    parser.add_argument("--port-file", default=None)
    args = parser.parse_args(argv)
    if not args.shard:
        parser.error("at least one --shard is required")
    shards = [_parse_shard(spec, index)
              for index, spec in enumerate(args.shard)]
    config = RouterConfig(
        host=args.host, port=args.port, shards=shards,
        request_timeout=args.request_timeout,
        health_interval=args.health_interval,
        port_file=args.port_file)
    print(f"repro.serve.router on {config.host}:{config.port} -> "
          f"{', '.join(f'{s.name}@{s.host}:{s.port}' for s in shards)}",
          flush=True)
    asyncio.run(Router(config).run())
    print("repro.serve.router: clean shutdown", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
