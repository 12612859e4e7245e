"""Wire format for the compile service: newline-delimited JSON.

One request or reply per line, UTF-8, ``\\n`` terminated.  Chosen over
a binary framing because every peer the repo cares about (tests, CI,
the bench driver, `nc` at a terminal) can speak it with no library.

Requests
--------

``{"op": "compile", "source": ..., "opt": "none"|"static"|"pgo", ...}``
    Compile ``source`` and return artifacts.  Optional fields:
    ``entry`` + ``train_args`` (PGO training workload), ``profile`` (a
    precollected profile JSON, skips training), ``options`` (overrides
    for the :class:`~repro.transform.pipeline.OptimizeOptions` fields
    the cache key covers, :data:`~repro.serve.cache.WIRE_OPTIONS`),
    ``fault`` (test-only fault injection: ``{"mode", "target", "nth"}``),
    ``id`` (opaque, echoed in the reply).

``{"op": "run", "source": ..., "entry": ..., "args": [[...], ...]}``
    *Execute* ``source``'s ``entry`` on each argument list and return
    the observations.  The server picks the execution tier (graph
    interpreter, bytecode VM, or — once the tiering manager marks the
    program hot and a background native compile lands — machine code
    from a cached ``.so``); the reply carries ``tier`` and
    ``native_state`` so clients can watch promotion happen.  Optional:
    ``options`` (pipeline overrides, as for compile), ``id``.

``{"op": "stats"}``
    Introspection: counters, latency histograms, cache rates,
    aggregated per-phase pipeline timings, per-tier execution counters
    (``tiering``).  Fleet routers aggregate: per-shard stats plus
    router counters and fleet-wide sums.

``{"op": "ping"}``
    Liveness probe; replies ``{"ok": true, "pong": true, "version":
    ..., "pid": ..., "shard": ...}`` so routers and operators can tell
    shards apart.

Replies
-------

Success: ``{"ok": true, "id": ..., ...}`` — compile replies add
``key`` (the content address), ``cached`` (``"memory"``, ``"disk"`` or
``false``), ``coalesced`` and ``artifacts``.  Run replies add ``key``,
``tier`` (``"interp"``/``"vm"``/``"native"``), ``native_state`` and
``results`` (one ``{"value", "trap", "output"}`` per argument list).

Failure: ``{"ok": false, "error": {"code": ..., "message": ...}}`` with
``code`` one of :data:`ERROR_CODES`.  ``compile-error`` adds ``kind``
(the worker's exception class).  ``worker-crash`` errors, and a
``compile-error`` of kind ``PipelineCrash`` (a compile or a VM-tier run
whose pipeline could not recover), add ``crash_bundle``: the directory
under the server's ``crash_dir`` holding the request (``report.json``,
with the error) and its source (``repro.impala``), which replay the
crash.  ``internal-error`` answers an exception the server did not
expect; its message is the exception's type and text.

A client pipelines by writing many lines before it reads: each line
is answered on its own, in completion order, and the ``id`` says which
reply is whose (:meth:`~repro.serve.client.ServeClient.pipelined`).

Member order
------------

:func:`encode_message` is the only wire encoder.  It writes compact
ASCII JSON with the *head* members first, ``id`` then ``ok`` (each
only when present), and every other member after them in sorted key
order; nested objects have sorted keys too.
A value wrapped in :class:`RawJSON` is already in that canonical form
(the artifact cache keeps its entries as such text) and is spliced
verbatim instead of being encoded again.

Because the tag a hop may change (``id``) leads the line, a hop
re-tags a reply with :func:`retag`, which parses only the head
and copies the rest of the line byte for byte.  The fleet router
forwards every shard reply this way, so a cached artifact is encoded
once, when it enters the cache, and never decoded on its way to the
client.  The result is byte-identical to encoding the re-tagged reply
from scratch.

Transport
---------

:class:`LineServer` is the one server side of this protocol: the shard
daemon (:class:`~repro.serve.server.CompileServer`) and the fleet
router (:class:`~repro.serve.router.Router`) both subclass it and only
supply :meth:`LineServer.dispatch`.  It listens, publishes the bound
port, serves every line of a connection concurrently, tags replies
and drains on SIGTERM/SIGINT.  Each connection is an
:class:`asyncio.Protocol`: a request that need not wait (a ``ping``, a
shard's cache hit, a router forward, whose reply arrives by callback)
is answered in the event-loop pass that read it, with no task, future
or lock; the others run as tasks.  A connection whose peer stops
reading its replies stops being read, and one that ends (EOF, or a
line over :data:`MAX_LINE_BYTES`) closes once its replies are written.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from pathlib import Path

from .metrics import Metrics

# Hard ceiling on one request/reply line.  Artifacts for the suite
# programs are tens of KiB; 8 MiB leaves room without letting a rogue
# client buffer the server into the ground.
MAX_LINE_BYTES = 8 * 1024 * 1024

OPT_LEVELS = ("none", "static", "pgo")

OPS = ("compile", "run", "stats", "ping")

ERROR_CODES = (
    "malformed-json",   # the line was not a JSON object
    "oversized",        # the line exceeded MAX_LINE_BYTES
    "bad-request",      # JSON fine, contents invalid (op, opt, fields)
    "compile-error",    # the compiler rejected the program (worker fine)
    "worker-crash",     # the worker process died or hung; bundle written
    "overloaded",       # admission control shed the request
    "unavailable",      # fleet router: no live shard could take this
    "shutting-down",    # server received SIGTERM mid-request
    "internal-error",   # an exception the server did not expect
)


class ProtocolError(Exception):
    """A request that could not be accepted; maps onto an error reply."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        self.code = code
        super().__init__(message)

    def as_reply(self) -> dict:
        return error_reply(self.code, str(self))


# Members a line leads with, in this order; a hop may rewrite TAGS.
HEAD = ("id", "ok")
TAGS = ("id",)

_ENCODE = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
_DECODER = json.JSONDecoder()


class RawJSON:
    """A JSON value already encoded the way :func:`encode_message`
    encodes values (compact, sorted keys, ASCII); spliced verbatim."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __eq__(self, other) -> bool:
        return isinstance(other, RawJSON) and other.text == self.text


def _encode(value) -> str:
    return value.text if type(value) is RawJSON else _ENCODE(value)


def encode_message(message: dict) -> bytes:
    """One reply/request as a wire line: head members first, the rest
    sorted, :class:`RawJSON` values spliced, newline-terminated."""
    members = [f'"{name}":{_encode(message[name])}'
               for name in HEAD if name in message]
    members += [f"{_ENCODE(name)}:{_encode(value)}"
                for name, value in sorted(message.items())
                if name not in HEAD]
    return ("{" + ",".join(members) + "}\n").encode("utf-8")


def _head(text: str):
    """``(name, value, end)`` for each head member leading *text*."""
    pos = 1
    for name in HEAD:
        prefix = f'"{name}":'
        if text.startswith(prefix, pos):
            value, end = _DECODER.raw_decode(text, pos + len(prefix))
            yield name, value, end
            pos = end + 1  # past the comma (or the closing brace)


def head_value(line: bytes, name: str):
    """The head member *name* of a wire line (``None`` when absent),
    without decoding the rest of the line."""
    for member, value, _ in _head(line.decode("utf-8")):
        if member == name:
            return value
    return None


def retag(line: bytes, **tags) -> bytes:
    """*line* with its ``id`` member replaced by *tags*.

    Only the head is parsed; everything after the old tags is copied
    as is.  Equals ``encode_message`` of the decoded line with the same
    members replaced (a tag left out of *tags* is dropped).
    """
    text = line.decode("utf-8")
    start = 1
    for name, _, end in _head(text):
        if name not in TAGS:
            break
        start = end + (text[end] == ",")
    members = [f'"{name}":{_encode(tags[name])}'
               for name in TAGS if name in tags]
    rest = text[start:]
    if members and not rest.startswith("}"):
        members.append("")  # the comma before the first kept member
    return ("{" + ",".join(members) + rest).encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on bad input."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "oversized",
            f"request line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte limit")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("malformed-json",
                            f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("malformed-json",
                            "request must be a JSON object")
    return message


def error_reply(code: str, message: str, **extra) -> dict:
    assert code in ERROR_CODES, code
    return {"ok": False, "error": {"code": code, "message": message,
                                   **extra}}


def validate_compile_request(request: dict) -> dict:
    """Check a compile request's shape; returns the normalized request.

    Raises :class:`ProtocolError("bad-request")` with a message naming
    the offending field — the client sees exactly what to fix.
    """
    source = request.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("bad-request",
                            "'source' must be a non-empty string")
    opt = request.get("opt", "static")
    if opt not in OPT_LEVELS:
        raise ProtocolError(
            "bad-request", f"'opt' must be one of {OPT_LEVELS}, got {opt!r}")
    options = request.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError("bad-request", "'options' must be an object")
    normalized = {"op": "compile", "source": source, "opt": opt,
                  "options": options}
    if opt == "pgo":
        profile = request.get("profile")
        if profile is not None:
            if not isinstance(profile, dict):
                raise ProtocolError("bad-request",
                                    "'profile' must be an object")
            normalized["profile"] = profile
        else:
            entry = request.get("entry")
            train_args = request.get("train_args")
            if not isinstance(entry, str):
                raise ProtocolError(
                    "bad-request",
                    "pgo requests need 'entry' (and 'train_args') or a "
                    "precollected 'profile'")
            if not (isinstance(train_args, list)
                    and all(isinstance(a, list) for a in train_args)):
                raise ProtocolError(
                    "bad-request",
                    "'train_args' must be a list of argument lists")
            normalized["entry"] = entry
            normalized["train_args"] = train_args
    fault = request.get("fault")
    if fault is not None:
        if not (isinstance(fault, dict) and isinstance(fault.get("mode"),
                                                       str)):
            raise ProtocolError("bad-request",
                                "'fault' must be an object with a 'mode'")
        normalized["fault"] = fault
    return normalized


def validate_run_request(request: dict) -> dict:
    """Check a run request's shape; returns the normalized request."""
    source = request.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("bad-request",
                            "'source' must be a non-empty string")
    entry = request.get("entry", "main")
    if not isinstance(entry, str) or not entry:
        raise ProtocolError("bad-request", "'entry' must be a string")
    args = request.get("args")
    if not (isinstance(args, list) and args
            and all(isinstance(a, list) for a in args)):
        raise ProtocolError(
            "bad-request",
            "'args' must be a non-empty list of argument lists")
    for arg_set in args:
        for value in arg_set:
            if not isinstance(value, (bool, int, float)):
                raise ProtocolError(
                    "bad-request",
                    f"arguments must be numbers or booleans, "
                    f"got {type(value).__name__}")
    options = request.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError("bad-request", "'options' must be an object")
    return {"op": "run", "source": source, "entry": entry, "args": args,
            "options": options}


async def wait_for_stop(stopping: asyncio.Event) -> None:
    """Wait until *stopping* is set, by a ``stop()`` call or by
    SIGTERM/SIGINT (the handlers are removed again on return)."""
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stopping.set)
    try:
        await stopping.wait()
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)


class LineServer:
    """The asyncio server side of the wire protocol.

    One connection is one NDJSON stream, *pipelined*: every line is
    dispatched as soon as it is read and its reply is written as it
    completes, so a cold compile does not block the cache hits queued
    behind it on the same connection (a router->shard link is a
    pipeline, not a turn-taking RPC channel).

    Subclasses implement :meth:`dispatch` for the ``compile``, ``run``,
    ``stats`` and ``ping`` ops.  Request counters, error replies, the
    ``request`` latency histogram and the ``id`` tag are handled here,
    once, for both.

    *config* is read for ``host``, ``port`` and ``port_file``.
    """

    def __init__(self, config):
        self.config = config
        self.metrics = Metrics()
        self.started = time.time()
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._stopping = asyncio.Event()

    def dispatch(self, message: dict, respond) -> None:
        """Answer one request whose ``op`` is in :data:`OPS`.

        Call ``respond`` once, now or later, with a reply object, a
        reply line encoded elsewhere (a shard's, which is re-tagged
        rather than re-encoded) or a :class:`ProtocolError`; a request
        that must wait hands a coroutine to :meth:`spawn`.  Raising
        :class:`ProtocolError` here is an error reply too, and any other
        exception is answered ``internal-error``."""
        raise NotImplementedError

    def spawn(self, work, respond) -> None:
        """Run the coroutine *work* as a task; ``respond`` gets what it
        returns, or the :class:`ProtocolError` it raises; any other
        exception is answered ``internal-error``."""
        async def run():
            try:
                result = await work
            except ProtocolError as exc:
                result = exc
            except Exception as exc:  # a server fault: answer, never hang
                result = self._fault(exc)
            respond(result)

        task = asyncio.get_running_loop().create_task(run())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Listen; with ``port_file`` set, publish the bound port there."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
        if self.config.port_file:
            # Atomic: supervisors poll for this file and must never read
            # a half-written port number.
            target = Path(self.config.port_file)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(str(self.port))
            os.replace(tmp, target)

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and close every accepted connection."""
        self._stopping.set()
        if self._server is not None:
            self._server.close()
        # A process exit would close these sockets anyway, but an
        # in-process stop (tests, the fleet manager's router) must not
        # leave peers blocked on a dead stream.
        for connection in list(self._connections):
            connection.transport.close()
        if self._server is not None:
            await self._server.wait_closed()

    async def run(self) -> None:
        """Start, serve until SIGTERM/SIGINT, stop."""
        await self.start()
        try:
            await wait_for_stop(self._stopping)
        finally:
            await self.stop()

    # -- requests -----------------------------------------------------------

    async def serve_line(self, line: bytes, send) -> None:
        """Answer one request line in process: the coroutine function
        *send* receives its reply line once it is ready."""
        replied = asyncio.get_running_loop().create_future()
        self._serve(line, replied.set_result)
        await send(await replied)

    def _serve(self, line: bytes, respond) -> None:
        """Answer one request line; ``respond`` gets its reply line,
        tagged with the request's ``id``, now or later."""
        started = time.perf_counter()
        self.metrics.bump("requests_total")
        tags = {}

        def reply(result) -> None:
            if isinstance(result, ProtocolError):
                self.metrics.bump(f"errors_{result.code}")
                result = result.as_reply()
            self.metrics.observe("request", time.perf_counter() - started)
            if isinstance(result, bytes):
                respond(retag(result, **tags))
            else:
                respond(encode_message({**result, **tags}))

        try:
            message = decode_line(line)
            if message.get("id") is not None:
                tags["id"] = message["id"]
            op = message.get("op")
            if op not in OPS:
                raise ProtocolError(
                    "bad-request", f"unknown op {op!r}; expected 'compile', "
                                   f"'run', 'stats' or 'ping'")
            self.dispatch(message, reply)
        except ProtocolError as exc:
            reply(exc)
        except Exception as exc:  # a server fault: answer, never hang
            reply(self._fault(exc))

    @staticmethod
    def _fault(exc: Exception) -> ProtocolError:
        """Log an exception the server did not expect, traceback and
        all; returns the ``internal-error`` that answers it."""
        asyncio.get_running_loop().call_exception_handler({
            "message": "unexpected exception answering a request",
            "exception": exc})
        return ProtocolError("internal-error", f"{type(exc).__name__}: {exc}")


class _Connection(asyncio.Protocol):
    """One accepted connection of a :class:`LineServer`.

    Lines are served as ``data_received`` splits them off.  While the
    transport's write buffer is over its high-water mark (the peer is
    not reading its replies) no further line is taken and the socket is
    not read, so a client that pipelines without reading holds the
    server to a bounded buffer.  EOF, or a line over
    :data:`MAX_LINE_BYTES` (answered ``oversized``: the framing is
    lost), ends the connection; it closes once every line taken has
    been answered.
    """

    def __init__(self, server: LineServer):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.scanned = 0      # buffer prefix known to hold no newline
        self.inflight = 0     # lines taken and not yet answered
        self.paused = False   # the transport's write buffer is full
        self.ending = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._take_lines()

    def eof_received(self) -> bool:
        self.ending = True
        self._take_lines()
        return True  # half-open: the replies still have to go out

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self._take_lines()
        if not (self.paused or self.ending):
            self.transport.resume_reading()

    def _take_lines(self) -> None:
        buffer = self.buffer
        while not self.paused:
            end = buffer.find(b"\n", self.scanned)
            if end < 0:
                if len(buffer) > MAX_LINE_BYTES:
                    self._oversized()
                elif self.ending:
                    buffer.clear()  # EOF mid-request: drop the fragment
                self.scanned = len(buffer)
                break
            if end > MAX_LINE_BYTES:
                self._oversized()
                break
            line = bytes(buffer[:end + 1])
            del buffer[:end + 1]
            self.scanned = 0
            if line.strip():
                self.inflight += 1
                self.server._serve(line, self._answer)
        self._close_if_done()

    def _oversized(self) -> None:
        self.buffer.clear()
        self.ending = True
        self.transport.pause_reading()
        self._send(encode_message(error_reply(
            "oversized", f"request line exceeds {MAX_LINE_BYTES} bytes")))

    def _send(self, line: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(line)

    def _answer(self, line: bytes) -> None:
        self._send(line)
        self.inflight -= 1
        self._close_if_done()

    def _close_if_done(self) -> None:
        if self.ending and not self.inflight and not self.buffer:
            self.transport.close()  # flushes the replies, then closes
