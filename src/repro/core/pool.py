"""Fork-based process pools shared by the fuzzer and the compile server.

Two tools live here:

* :func:`map_cases` — the fuzz CLI's one-shot fan-out: lazily map a
  function over a case stream on N forked processes, results in
  submission order.  Extracted from ``fuzz/cli.py`` so the serve smoke
  driver and benchmarks can reuse it.
* :class:`WorkerPool` / :class:`ForkWorker` — *persistent* crash-
  isolated workers for the compile service, awaited on the server's
  event loop.  Each worker is a forked child on a socket pair: the job
  is written to it, the reply is read as it arrives (``add_reader``),
  and the deadline is a loop timer.  A job that crashes the child
  (segfault, ``SIGKILL`` fault injection, runaway recursion) or
  overruns its deadline surfaces as a structured :class:`WorkerCrash`
  in the parent while the seat respawns, so one poisoned request never
  takes the server down.

Fork (not spawn) is deliberate in both cases: children inherit the
loaded modules and the handler closure, so there is no re-import or
re-pickle cost per seat, and handlers may close over rich objects.  A
seat keeps nothing else of its parent: it closes every descriptor but
its end of the pair and stdio (the server's listener and connections
included), and restores the default SIGTERM/SIGINT dispositions and no
signal wakeup fd, so a seat forked after the server installed its
signal handlers is as clean as one forked before.  POSIX-only, like
the rest of the fuzz tooling.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import traceback

# Every message on a seat's socket: an 8-byte length, then the pickle.
_HEADER = struct.Struct("!Q")


def map_cases(worker, cases, jobs):
    """Lazily map *worker* over *cases*, in order, on *jobs* processes.

    ``jobs <= 1`` degrades to plain in-process ``map``.  Parallel runs
    use a fork-context pool (workers inherit the loaded modules; no
    re-import cost per task) and ``imap`` so results come back in
    submission order — the campaign report stays deterministic.
    """
    if jobs <= 1:
        yield from map(worker, cases)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=jobs) as pool:
        yield from pool.imap(worker, cases, chunksize=1)


class WorkerCrash(Exception):
    """A forked worker died (or hung past its deadline) mid-job.

    Distinct from an *error result*: the handler never got to reply.
    Carries enough for the caller to write a crash bundle — the job
    that killed the worker and how the death was observed.
    """

    def __init__(self, reason: str, job=None, exitcode: int | None = None):
        self.reason = reason
        self.job = job
        self.exitcode = exitcode
        super().__init__(reason)


class JobError(Exception):
    """The handler raised inside the worker; the worker itself survived.

    ``kind`` is the original exception class name, ``detail`` its
    message, and ``trace`` the formatted traceback from the child.
    """

    def __init__(self, kind: str, detail: str, trace: str):
        self.kind = kind
        self.detail = detail
        self.trace = trace
        super().__init__(f"{kind}: {detail}")


def _frame(message) -> bytes:
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


def _recv_exactly(sock: socket.socket, size: int) -> bytes | None:
    chunks = []
    while size:
        chunk = sock.recv(min(size, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _seat_main(sock: socket.socket, handler) -> None:
    """Worker main: serve jobs off *sock* until EOF.

    The parent holds the only other end of the pair (every seat closes
    every descriptor it inherited), so EOF arrives when the parent
    closes the seat or dies, however it dies.
    """
    while True:
        header = _recv_exactly(sock, _HEADER.size)
        if header is None:
            return
        body = _recv_exactly(sock, _HEADER.unpack(header)[0])
        if body is None:
            return
        try:
            reply = _frame(("ok", handler(pickle.loads(body))))
        except BaseException as exc:  # noqa: BLE001 — child must not die
            reply = _frame(("error", (type(exc).__name__, str(exc),
                                      traceback.format_exc())))
        sock.sendall(reply)


def _fork_seat(handler) -> tuple[int, socket.socket]:
    """Fork one seat; returns its pid and the parent's end of its pair."""
    ours, theirs = socket.socketpair()
    pid = os.fork()
    if pid == 0:  # the seat
        status = 0
        try:
            keep = theirs.fileno()
            os.closerange(3, keep)
            os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
            signal.set_wakeup_fd(-1)
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, signal.SIG_DFL)
            _seat_main(theirs, handler)
        except BaseException:  # noqa: BLE001
            status = 1  # never unwind into the parent's stack
        finally:
            os._exit(status)
    theirs.close()
    ours.setblocking(False)
    return pid, ours


# How a job ended when the handler did not reply.
_EOF, _DEADLINE, _CLOSED = object(), object(), object()


class ForkWorker:
    """One persistent forked worker on a socket pair.

    ``await run(job, timeout)`` writes the job, reads the reply on the
    running loop and translates every way the child can fail into a
    structured exception.  One job at a time — :class:`WorkerPool`
    hands a seat to one caller at a time.
    """

    def __init__(self, handler):
        self._handler = handler
        self._closed = False
        self._spawn()

    def _spawn(self) -> None:
        self.pid, self._sock = _fork_seat(self._handler)
        self._exitcode: int | None = None
        self._buffer = bytearray()
        self._outcome: asyncio.Future | None = None
        self._loop = None

    def alive(self) -> bool:
        if self._exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self._exitcode = os.waitstatus_to_exitcode(status)
        return self._exitcode is None

    async def run(self, job, timeout: float | None = None):
        """Execute *job* in the child; return the handler's result.

        Raises :class:`JobError` if the handler raised (worker fine),
        :class:`WorkerCrash` if the child died or blew *timeout* — in
        both crash cases the seat is killed and respawned before the
        exception propagates, so the worker is immediately reusable —
        and ``RuntimeError`` if the seat was closed meanwhile.
        """
        if not self.alive():
            self._respawn()
        self._loop = loop = asyncio.get_running_loop()
        self._outcome = outcome = loop.create_future()
        timer = None
        try:
            await loop.sock_sendall(self._sock, _frame(job))
            loop.add_reader(self._sock, self._readable)
            if timeout is not None:
                timer = loop.call_later(timeout, self._settle, _DEADLINE)
            result = await outcome
        except ConnectionError:
            self._respawn()
            raise WorkerCrash("worker pipe closed before submit", job=job)
        except asyncio.CancelledError:
            self._respawn()  # the job's reply is no longer wanted
            raise
        finally:
            if timer is not None:
                timer.cancel()
            self._unwatch()
        if result is _CLOSED:
            raise RuntimeError("pool is closed")
        if result is _DEADLINE or result is _EOF:
            exitcode = self._respawn()
            reason = (f"worker deadline exceeded ({timeout:g}s); killed"
                      if result is _DEADLINE else
                      f"worker died mid-job (exitcode={exitcode})")
            raise WorkerCrash(reason, job=job, exitcode=exitcode)
        status, payload = result
        if status == "ok":
            return payload
        kind, detail, trace = payload
        raise JobError(kind, detail, trace)

    def _readable(self) -> None:
        try:
            while True:
                chunk = self._sock.recv(1 << 20)
                if not chunk:
                    self._settle(_EOF)
                    return
                self._buffer += chunk
        except BlockingIOError:
            pass
        except ConnectionError:
            self._settle(_EOF)
            return
        if len(self._buffer) < _HEADER.size:
            return
        size = _HEADER.unpack_from(self._buffer)[0]
        if len(self._buffer) >= _HEADER.size + size:
            body = bytes(self._buffer[_HEADER.size:])
            self._buffer.clear()
            self._settle(pickle.loads(body))

    def _settle(self, result) -> None:
        if self._outcome is not None and not self._outcome.done():
            self._outcome.set_result(result)

    def _unwatch(self) -> None:
        """Stop reading the pair (before it closes: the loop's selector
        must never hold a closed descriptor)."""
        if self._outcome is not None:
            self._outcome = None
            self._loop.remove_reader(self._sock)

    def _stop(self) -> int | None:
        """Close the pair, kill the child if it still runs, reap it;
        its exit code."""
        self._unwatch()
        self._sock.close()
        if self._exitcode is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _, status = os.waitpid(self.pid, 0)
            self._exitcode = os.waitstatus_to_exitcode(status)
        return self._exitcode

    def _respawn(self) -> int | None:
        """Replace the child with a fresh one (none once closed); the
        old one's exit code."""
        exitcode = self._stop()
        if not self._closed:
            self._spawn()
        return exitcode

    def close(self) -> None:
        """Stop the child for good; a job in flight ends with
        ``RuntimeError``."""
        self._closed = True
        self._settle(_CLOSED)
        self._stop()


class WorkerPool:
    """A fixed set of :class:`ForkWorker` seats, handed out on the loop.

    ``await run(job, timeout)`` waits for a free seat (bounded by the
    caller's own admission control — the server sheds load *before*
    reaching here), runs the job, and returns the seat even when the
    job crashed it (the seat respawned itself).  Callers share one
    event loop; a seat freed by one job goes straight to the oldest
    waiter.
    """

    def __init__(self, handler, size: int = 2):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._workers = [ForkWorker(handler) for _ in range(size)]
        self._idle = list(self._workers)
        self._waiters: list[asyncio.Future] = []
        self._closed = False
        self.crashes = 0

    @property
    def size(self) -> int:
        return len(self._workers)

    async def run(self, job, timeout: float | None = None):
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._idle:
            worker = self._idle.pop()
        else:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            worker = await waiter
        try:
            return await worker.run(job, timeout=timeout)
        except WorkerCrash:
            self.crashes += 1
            raise
        finally:
            self._release(worker)

    def _release(self, worker: ForkWorker) -> None:
        if self._closed:
            return
        while self._waiters:
            waiter = self._waiters.pop(0)
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._idle.append(worker)

    def close(self) -> None:
        self._closed = True
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_exception(RuntimeError("pool is closed"))
        self._waiters = []
        for worker in self._workers:
            worker.close()
        self._workers, self._idle = [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
