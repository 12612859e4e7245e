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
and a fleet router alike; ``batch``/``batch_iter`` speak the batch op
and consume the streamed sub-replies.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Iterator

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
        long ``batch_iter`` stream costs linear time.
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

    # -- the batch op -------------------------------------------------------

    def batch_iter(self, requests: list, *,
                   request_id=None) -> Iterator[dict]:
        """Send one batch line; yield sub-replies as they stream back.

        The final summary line (``batch_complete``) is yielded last.
        Sub-replies arrive in *completion* order, each tagged with its
        sub-request's ``id`` (index when the sub-request had none).
        No automatic overloaded retry here — sub-replies are per-id,
        so callers decide which sub-requests to resend.
        """
        message: dict = {"op": "batch",
                         "requests": [dict(r) for r in requests]}
        if request_id is not None:
            message["id"] = request_id
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(encode_message(message))
            while True:
                reply = self._decode(self._read_line())
                yield reply
                if reply.get("batch_complete"):
                    return  # the summary line closes the stream
                if not reply.get("ok") and "batch" not in reply and \
                        reply.get("id") == request_id:
                    # The batch envelope itself was rejected (one error
                    # reply, no sub-replies follow).  Sub errors carry
                    # a "batch" tag or a sub id and don't match here.
                    return
        except OSError as exc:
            self.close()
            raise ServeClientError(f"transport failure: {exc}") from exc

    def batch(self, requests: list, *,
              request_id=None) -> tuple[dict, dict]:
        """Send a batch; return ``(replies_by_id, summary)``."""
        replies: dict = {}
        summary: dict = {}
        for reply in self.batch_iter(requests, request_id=request_id):
            if reply.get("batch_complete"):
                summary = reply
            else:
                replies[reply.get("id")] = reply
        return replies, summary
