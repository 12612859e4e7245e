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

``{"op": "batch", "requests": [{...}, ...]}``
    One line carrying many sub-requests (``compile``/``run``/``ping``/
    ``stats``; batches do not nest).  Sub-replies are *streamed back as
    they complete*, each tagged with the sub-request's ``id`` (its index
    in ``requests`` when absent) plus the batch's own ``id`` under
    ``batch``; a final summary line ``{"ok": true, "batch_complete":
    true, "replies": N, "failed": M}`` closes the batch.  Sub-requests
    execute concurrently — a batch is the protocol's pipelining
    primitive, and the fleet router fans its sub-requests out across
    shards by cache-key affinity.

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
crash.

Member order
------------

:func:`encode_message` is the only wire encoder.  It writes compact
ASCII JSON with the *head* members first, in the order ``id``,
``batch``, ``ok`` (each only when present), and every other member
after them in sorted key order; nested objects have sorted keys too.
A value wrapped in :class:`RawJSON` is already in that canonical form
(the artifact cache keeps its entries as such text) and is spliced
verbatim instead of being encoded again.

Because the tags a hop may change (``id`` and ``batch``) lead the line,
a hop re-tags a reply with :func:`retag`, which parses only the head
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
port, serves every line of a connection concurrently, fans batches
out, tags replies and drains on SIGTERM/SIGINT.
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

# Sub-requests one batch line may carry.  Big enough that one
# connection can ship a corpus, small enough that a single line cannot
# fan out into unbounded concurrent work.
MAX_BATCH_REQUESTS = 1024

OPT_LEVELS = ("none", "static", "pgo")

OPS = ("compile", "run", "batch", "stats", "ping")

ERROR_CODES = (
    "malformed-json",   # the line was not a JSON object
    "oversized",        # the line exceeded MAX_LINE_BYTES
    "bad-request",      # JSON fine, contents invalid (op, opt, fields)
    "compile-error",    # the compiler rejected the program (worker fine)
    "worker-crash",     # the worker process died or hung; bundle written
    "overloaded",       # admission control shed the request
    "unavailable",      # fleet router: no live shard could take this
    "shutting-down",    # server received SIGTERM mid-request
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
HEAD = ("id", "batch", "ok")
TAGS = ("id", "batch")

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
    """*line* with its ``id``/``batch`` members replaced by *tags*.

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


def validate_batch_request(request: dict) -> list[dict]:
    """Check a batch envelope; returns its sub-requests, ids assigned.

    Each sub-request must be a JSON object and must not itself be a
    batch.  Sub-requests without an ``id`` get their index, so every
    streamed sub-reply is attributable.  Deeper validation (source,
    opt, options) happens when each sub-request is dispatched — a bad
    sub-request yields a structured error *reply* for its id, never a
    failed batch.
    """
    subs = request.get("requests")
    if not (isinstance(subs, list) and subs):
        raise ProtocolError("bad-request",
                            "'requests' must be a non-empty list")
    if len(subs) > MAX_BATCH_REQUESTS:
        raise ProtocolError(
            "bad-request",
            f"batch of {len(subs)} exceeds {MAX_BATCH_REQUESTS} "
            f"sub-requests")
    out = []
    for index, sub in enumerate(subs):
        if not isinstance(sub, dict):
            raise ProtocolError(
                "bad-request",
                f"batch sub-request {index} is not an object")
        if sub.get("op") == "batch":
            raise ProtocolError("bad-request", "batches do not nest")
        sub = dict(sub)
        sub.setdefault("id", index)
        out.append(sub)
    return out


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

    One connection is one NDJSON stream, *pipelined*: every line becomes
    a task and its replies are written, under a per-connection lock, as
    they complete.  That is what makes a pooled router->shard
    connection a pipeline instead of a turn-taking RPC channel: a cold
    compile does not block the cache hits queued behind it.  A ``batch``
    line fans its sub-requests out concurrently, streams each sub-reply
    as it finishes and closes with a summary line.

    Subclasses implement :meth:`dispatch` for the ``compile``, ``run``,
    ``stats`` and ``ping`` ops.  Request counters, error replies, the
    ``request`` latency histogram and the ``id``/``batch`` tags are
    handled here, once, for both.

    *config* is read for ``host``, ``port`` and ``port_file``.
    """

    def __init__(self, config):
        self.config = config
        self.metrics = Metrics()
        self.started = time.time()
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._stopping = asyncio.Event()

    async def dispatch(self, message: dict) -> dict | bytes:
        """The reply to one non-batch request whose ``op`` is in
        :data:`OPS`: a reply object, or a reply line encoded elsewhere
        (a shard's), which is re-tagged rather than re-encoded.  Raise
        :class:`ProtocolError` for an error reply."""
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Listen; with ``port_file`` set, publish the bound port there."""
        self._server = await asyncio.start_server(
            self._connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES + 2)
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
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()

    async def run(self) -> None:
        """Start, serve until SIGTERM/SIGINT, stop."""
        await self.start()
        try:
            await wait_for_stop(self._stopping)
        finally:
            await self.stop()

    # -- connections --------------------------------------------------------

    async def _connection(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()

        async def send(line: bytes) -> None:
            try:
                async with write_lock:
                    writer.write(line)
                    await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # peer vanished; the work itself already happened

        tasks: set[asyncio.Task] = set()
        self._connections.add(writer)
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line outgrew the stream limit; the framing is
                    # lost, so reply and drop the connection.
                    await send(encode_message(error_reply(
                        "oversized",
                        f"request line exceeds {MAX_LINE_BYTES} bytes")))
                    break
                if not line.endswith(b"\n"):
                    break  # EOF (possibly mid-request): just drop it.
                if line.strip():
                    task = asyncio.create_task(self.serve_line(line, send))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
            # Drain in-flight replies before closing the stream; a
            # disconnect mid-compile still runs the job to completion
            # (the artifact lands in the cache) but its write fails.
            await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished mid-reply; nothing to salvage
        except asyncio.CancelledError:
            # Shutdown with this connection still open.  Nothing awaits
            # this task, and asyncio's stream callback (3.11) reports a
            # cancelled handler as an error, so it ends here.
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def serve_line(self, line: bytes, send) -> None:
        """Answer one request line.  Each reply line is passed to the
        coroutine function *send*: one reply, or a batch's sub-replies
        in completion order followed by its summary."""
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            self.metrics.bump("requests_total")
            self.metrics.bump(f"errors_{exc.code}")
            await send(encode_message(exc.as_reply()))
            return
        request_id = message.get("id")
        tags = {} if request_id is None else {"id": request_id}
        if message.get("op") != "batch":
            await send(await self._reply(message, tags))
            return

        self.metrics.bump("requests_total")
        self.metrics.bump("batch_requests")
        try:
            subs = validate_batch_request(message)
        except ProtocolError as exc:
            self.metrics.bump(f"errors_{exc.code}")
            await send(encode_message({**exc.as_reply(), **tags}))
            return

        async def one(sub: dict) -> bool:
            sub_tags = {"id": sub["id"]}
            if request_id is not None:
                sub_tags["batch"] = request_id
            reply = await self._reply(sub, sub_tags)
            await send(reply)
            return head_value(reply, "ok") is True

        oks = await asyncio.gather(*(one(sub) for sub in subs))
        summary = {"ok": True, "batch_complete": True,
                   "replies": len(oks), "failed": oks.count(False)}
        if request_id is not None:
            summary["batch"] = summary["id"] = request_id
        await send(encode_message(summary))

    async def _reply(self, message: dict, tags: dict) -> bytes:
        """One non-batch request's reply line, tagged with *tags*."""
        started = time.perf_counter()
        self.metrics.bump("requests_total")
        try:
            op = message.get("op")
            if op == "batch":
                raise ProtocolError("bad-request", "batches do not nest")
            if op not in OPS:
                raise ProtocolError(
                    "bad-request", f"unknown op {op!r}; expected 'compile', "
                                   f"'run', 'batch', 'stats' or 'ping'")
            reply = await self.dispatch(message)
        except ProtocolError as exc:
            self.metrics.bump(f"errors_{exc.code}")
            reply = exc.as_reply()
        finally:
            self.metrics.observe("request", time.perf_counter() - started)
        if isinstance(reply, bytes):
            return retag(reply, **tags)
        return encode_message({**reply, **tags})
