"""Blocking client for the compile service.

Synchronous on purpose: tests, benchmarks and shell scripts want a
plain request/reply call, not an event loop.  One socket, line-framed
JSON both ways; safe to reuse across requests, not across threads.

    with ServeClient("127.0.0.1", 7767) as client:
        reply = client.compile(source, opt="static")
        assert reply["ok"]
        print(reply["artifacts"]["ir"])

An ``overloaded`` error reply means the server shed the request under
admission control and said "retry later" — so the client does, with
bounded exponential backoff plus jitter (:func:`backoff_delay`; opt
out with ``retry_overloaded=False``).  Works against a single daemon
and a fleet router alike; :meth:`ServeClient.pipelined` sends many
requests down the connection before it reads their replies.
"""

from __future__ import annotations

import contextlib
import json
import random
import socket
import threading
import time

from .protocol import MAX_LINE_BYTES, encode_message

# Bounded-retry defaults for overloaded replies: 5 attempts spanning
# roughly 50ms..800ms of backoff (plus jitter) — long enough to ride
# out a load spike, short enough that a truly saturated fleet still
# surfaces the overloaded error to the caller.
RETRY_ATTEMPTS = 5
RETRY_BASE = 0.05
RETRY_CAP = 2.0


def backoff_delay(attempt: int, base: float = RETRY_BASE,
                  cap: float = RETRY_CAP, rng=random) -> float:
    """Exponential backoff with jitter for retry *attempt* (0-based).

    ``min(cap, base * 2**attempt)`` scaled by a uniform factor in
    [0.5, 1.5) so a thundering herd of shed clients decorrelates.
    Shared by the blocking client and the S2 async load generator.
    """
    return min(cap, base * (2 ** attempt)) * (0.5 + rng.random())


class ServeClientError(Exception):
    """Transport-level failure (connection, framing) — not an error reply."""


class ServeClient:
    def __init__(self, host: str = "127.0.0.1", port: int = 7767, *,
                 timeout: float | None = 60.0,
                 retry_overloaded: bool = True,
                 retry_attempts: int = RETRY_ATTEMPTS,
                 retry_base: float = RETRY_BASE,
                 retry_cap: float = RETRY_CAP):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_overloaded = retry_overloaded
        self.retry_attempts = retry_attempts
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.retries = 0  # overloaded replies retried, for telemetry
        self._sock: socket.socket | None = None
        # Received bytes not yet returned as lines, and how far into
        # them the newline search has already looked.
        self._buffer = bytearray()
        self._scanned = 0

    def connect(self) -> "ServeClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buffer = bytearray()
                self._scanned = 0

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- wire ---------------------------------------------------------------

    def request(self, message: dict) -> dict:
        """Send one request object; block for its reply object.

        Overloaded replies are retried with bounded backoff unless the
        client was built with ``retry_overloaded=False``; the last
        overloaded reply is returned when the budget runs out.
        """
        attempts = self.retry_attempts if self.retry_overloaded else 0
        for attempt in range(attempts + 1):
            reply = self._request_once(message)
            if (reply.get("ok")
                    or reply.get("error", {}).get("code") != "overloaded"
                    or attempt == attempts):
                return reply
            self.retries += 1
            time.sleep(backoff_delay(attempt, self.retry_base,
                                     self.retry_cap))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, message: dict) -> dict:
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(encode_message(message))
            line = self._read_line()
        except OSError as exc:
            self.close()
            raise ServeClientError(f"transport failure: {exc}") from exc
        return self._decode(line)

    @staticmethod
    def _decode(line: bytes) -> dict:
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServeClientError(
                f"server sent a non-JSON reply: {line[:200]!r}") from exc

    def _read_line(self) -> bytes:
        """The next reply line, without its newline.

        Each received byte is scanned once, and taking a line off the
        front of the buffer does not copy the lines behind it, so a
        long pipelined stream costs linear time.
        """
        while (end := self._buffer.find(b"\n", self._scanned)) < 0:
            self._scanned = len(self._buffer)
            if self._scanned > MAX_LINE_BYTES:
                raise ServeClientError("reply exceeded the line limit")
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ServeClientError("server closed the connection")
            self._buffer += chunk
        line = bytes(self._buffer[:end])
        del self._buffer[:end + 1]
        self._scanned = 0
        return line

    # -- convenience --------------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def compile(self, source: str, *, opt: str = "static",
                entry: str | None = None,
                train_args: list | None = None,
                options: dict | None = None,
                profile: dict | None = None,
                fault: dict | None = None,
                request_id=None) -> dict:
        message: dict = {"op": "compile", "source": source, "opt": opt}
        if entry is not None:
            message["entry"] = entry
        if train_args is not None:
            message["train_args"] = [list(a) for a in train_args]
        if options:
            message["options"] = options
        if profile is not None:
            message["profile"] = profile
        if fault is not None:
            message["fault"] = fault
        if request_id is not None:
            message["id"] = request_id
        return self.request(message)

    def run(self, source: str, args: list, *, entry: str = "main",
            options: dict | None = None, request_id=None) -> dict:
        """Execute *entry* on each argument list; the server picks the
        tier (and promotes hot programs to native behind the scenes)."""
        message: dict = {"op": "run", "source": source, "entry": entry,
                         "args": [list(a) for a in args]}
        if options:
            message["options"] = options
        if request_id is not None:
            message["id"] = request_id
        return self.request(message)

    # -- pipelining ---------------------------------------------------------

    def pipelined(self, messages: list[dict]) -> dict:
        """Send each of *messages* as its own line without waiting, read
        one reply per line, and return the replies keyed by ``id``.

        The server answers the lines concurrently, in completion order,
        so give every message its own ``id``.  A helper thread writes
        while this one reads, so a long pipeline cannot stall both ends
        on full socket buffers.  ``overloaded`` replies come back as
        they are: the caller decides what to resend.
        """
        self.connect()
        sock = self._sock
        payload = b"".join(encode_message(message) for message in messages)

        def write() -> None:
            with contextlib.suppress(OSError):  # the reads report it
                sock.sendall(payload)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        lines: list[bytes] = []
        try:
            for _ in messages:
                lines.append(self._read_line())
        except OSError as exc:
            raise ServeClientError(f"transport failure: {exc}") from exc
        finally:
            if len(lines) < len(messages):
                self.close()  # the replies still due go with it
            writer.join()
        return {reply.get("id"): reply for reply in map(self._decode, lines)}
