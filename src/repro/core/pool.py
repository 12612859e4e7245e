"""Fork-based process pools shared by the fuzzer and the compile server.

Two tools live here:

* :func:`map_cases` — the fuzz CLI's one-shot fan-out: lazily map a
  function over a case stream on N forked processes, results in
  submission order.  Extracted from ``fuzz/cli.py`` so the serve smoke
  driver and benchmarks can reuse it.
* :class:`WorkerPool` / :class:`ForkWorker` — *persistent* crash-
  isolated workers (seats) for the compile service, driven by the
  server's event loop.  Each seat is a forked child on a socket pair
  whose parent end is registered with the loop once, for the seat's
  life.  ``WorkerPool.submit(job, timeout, done)`` is the one job path:
  the job is written with one non-blocking ``send`` (the loop writes any
  remainder), the seat reads it with one ``recv`` in the common case,
  and whatever ends the job — the reply, EOF, the deadline timer or
  :meth:`WorkerPool.close` — calls ``done(result, error)`` once.  A job
  that crashes the child (segfault, ``SIGKILL`` fault injection,
  runaway recursion) or overruns its deadline ends with a structured
  :class:`WorkerCrash` after the seat has respawned, so one poisoned
  request never takes the server down; a seat that dies while idle is
  replaced as soon as its EOF is read.  ``await pool.run(job)`` is the
  same path for callers that read better as a coroutine.

Fork (not spawn) is deliberate in both cases: children inherit the
loaded modules and the handler closure, so there is no re-import or
re-pickle cost per seat, and handlers may close over rich objects.  A
seat keeps nothing else of its parent: it closes every descriptor but
its end of the pair and stdio (the server's listener and connections
included), and restores the default SIGTERM/SIGINT dispositions and no
signal wakeup fd, so a seat forked after the server installed its
signal handlers is as clean as one forked before.  It then freezes the
heap it inherited (``gc.freeze``), so the collections its jobs run
never walk the parent's objects.  POSIX-only, like the rest of the fuzz
tooling.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import traceback
from collections import deque

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


# Bytes one recv asks for: a whole job or reply in the common case.
_READ = 1 << 16


def _frame_end(buffer) -> int | None:
    """Where the first frame in *buffer* ends, once its header is in."""
    if len(buffer) < _HEADER.size:
        return None
    return _HEADER.size + _HEADER.unpack_from(buffer)[0]


def _seat_main(sock: socket.socket, handler) -> None:
    """Worker main: serve jobs off *sock* until EOF.

    The parent holds the only other end of the pair (every seat closes
    every descriptor it inherited), so EOF arrives when the parent
    closes the seat or dies, however it dies.
    """
    buffer = bytearray()
    while True:
        end = _frame_end(buffer)
        while end is None or len(buffer) < end:
            chunk = sock.recv(_READ)
            if not chunk:
                return
            buffer += chunk
            end = _frame_end(buffer)
        job = pickle.loads(buffer[_HEADER.size:end])
        del buffer[:end]
        try:
            reply = _frame(("ok", handler(job)))
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
            gc.freeze()
            _seat_main(theirs, handler)
        except BaseException:  # noqa: BLE001
            status = 1  # never unwind into the parent's stack
        finally:
            os._exit(status)
    theirs.close()
    ours.setblocking(False)
    return pid, ours


class ForkWorker:
    """One persistent forked worker (a *seat*) on a socket pair.

    The parent's end is registered with *loop* when the seat is forked
    and unregistered when it is stopped, so a job adds and removes no
    reader.  :meth:`start` writes a job; the reply, EOF, the deadline
    timer or :meth:`close` ends it: the seat first calls
    ``free(seat, error)`` (the pool's hand-back) and then
    ``done(result, error)``.  EOF while no job runs is a seat that died
    idle: it is replaced on the spot.  One job at a time —
    :class:`WorkerPool` hands a seat to one job at a time.
    """

    def __init__(self, handler, loop: asyncio.AbstractEventLoop, free):
        self._handler = handler
        self._loop = loop
        self._free = free
        self._closed = False
        # The job in flight: what ``done`` is told, and its deadline.
        self._job = self._done = self._timer = None
        self._unsent: memoryview | None = None  # the job's unwritten tail
        self._spawn()

    def _spawn(self) -> None:
        self.pid, self._sock = _fork_seat(self._handler)
        self._fd = self._sock.fileno()
        self._exitcode: int | None = None
        self._buffer = bytearray()
        self._loop.add_reader(self._fd, self._readable)

    def alive(self) -> bool:
        if self._exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self._exitcode = os.waitstatus_to_exitcode(status)
        return self._exitcode is None

    def start(self, job, timeout: float | None, done) -> None:
        """Write *job* to the seat; ``done(result, error)`` ends it.

        *error* is ``None`` (the handler returned *result*), a
        :class:`JobError` (the handler raised; the seat is fine), a
        :class:`WorkerCrash` (the seat died or blew *timeout*, and has
        already respawned) or ``RuntimeError`` (the seat was closed).
        """
        self._job, self._done = job, done
        if timeout is not None:
            self._timer = self._loop.call_later(timeout, self._expire,
                                                timeout)
        frame = _frame(job)
        try:
            sent = self._sock.send(frame)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            exitcode = self._respawn()
            self._end(None, WorkerCrash("worker pipe closed before submit",
                                        job=job, exitcode=exitcode))
            return
        if sent < len(frame):
            self._unsent = memoryview(frame)[sent:]
            self._loop.add_writer(self._fd, self._writable)

    def _writable(self) -> None:
        try:
            sent = self._sock.send(self._unsent)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            sent = len(self._unsent)  # the seat is gone; EOF follows
        self._unsent = self._unsent[sent:]
        if not self._unsent:
            self._unsent = None
            self._loop.remove_writer(self._fd)

    def _readable(self) -> None:
        try:
            chunk = self._sock.recv(_READ)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            job = self._job
            exitcode = self._respawn()
            if job is not None:
                self._end(None, WorkerCrash(
                    f"worker died mid-job (exitcode={exitcode})",
                    job=job, exitcode=exitcode))
            return
        buffer = self._buffer
        buffer += chunk
        end = _frame_end(buffer)
        if end is None or len(buffer) < end:
            return
        status, payload = pickle.loads(buffer[_HEADER.size:end])
        buffer.clear()
        if status == "ok":
            self._end(payload, None)
        else:
            self._end(None, JobError(*payload))

    def _expire(self, timeout: float) -> None:
        self._timer = None
        job = self._job
        exitcode = self._respawn()
        self._end(None, WorkerCrash(
            f"worker deadline exceeded ({timeout:g}s); killed",
            job=job, exitcode=exitcode))

    def _end(self, result, error) -> None:
        """End the job in flight: hand the seat back, then ``done``."""
        done = self._done
        self._job = self._done = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._free(self, error)
        done(result, error)

    def _stop(self) -> int | None:
        """Unregister and close the pair, kill the child if it still
        runs, reap it; its exit code.  (The loop's selector must never
        hold a closed descriptor.)"""
        self._loop.remove_reader(self._fd)
        if self._unsent is not None:
            self._unsent = None
            self._loop.remove_writer(self._fd)
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
        old one's exit code.  A job in flight stays for the caller to
        end."""
        exitcode = self._stop()
        if not self._closed:
            self._spawn()
        return exitcode

    def close(self) -> None:
        """Stop the child for good; a job in flight ends with
        ``RuntimeError``."""
        self._closed = True
        self._stop()
        if self._done is not None:
            self._end(None, RuntimeError("pool is closed"))


class WorkerPool:
    """A fixed set of :class:`ForkWorker` seats on the running loop.

    ``submit(job, timeout, done)`` starts the job on a free seat, or
    queues it for the next seat freed (bounded by the caller's own
    admission control — the server sheds load *before* reaching here);
    a seat is handed back when its job ends, even when the job crashed
    it (the seat respawned itself), and goes straight to the oldest
    queued job.  ``done(result, error)`` is called exactly once, from a
    loop callback (or from ``submit`` itself when the pool is closed).
    Create the pool on the loop that will drive it.
    """

    def __init__(self, handler, size: int = 2):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        loop = asyncio.get_running_loop()
        self._workers = [ForkWorker(handler, loop, self._free)
                         for _ in range(size)]
        self._idle = list(self._workers)
        self._queue: deque = deque()
        self._closed = False
        self.crashes = 0

    @property
    def size(self) -> int:
        return len(self._workers)

    def submit(self, job, timeout: float | None, done) -> None:
        """Run *job* on a seat under *timeout*; see the class docstring
        and :meth:`ForkWorker.start` for how ``done`` is called."""
        if self._closed:
            done(None, RuntimeError("pool is closed"))
        elif self._idle:
            self._idle.pop().start(job, timeout, done)
        else:
            self._queue.append((job, timeout, done))

    async def run(self, job, timeout: float | None = None):
        """:meth:`submit`, awaited: the handler's result, or the error
        that ended the job raised."""
        future = asyncio.get_running_loop().create_future()

        def done(result, error) -> None:
            if future.cancelled():
                return
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)

        self.submit(job, timeout, done)
        return await future

    def _free(self, worker: ForkWorker, error) -> None:
        if isinstance(error, WorkerCrash):
            self.crashes += 1
        if self._closed:
            return
        if self._queue:
            worker.start(*self._queue.popleft())
        else:
            self._idle.append(worker)

    def close(self) -> None:
        """Stop every seat; queued jobs and jobs in flight end with
        ``RuntimeError``."""
        self._closed = True
        queued, self._queue = self._queue, deque()
        for _job, _timeout, done in queued:
            done(None, RuntimeError("pool is closed"))
        for worker in self._workers:
            worker.close()
        self._workers, self._idle = [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
