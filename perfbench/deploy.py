"""The deployment under test: one router in front of one shard.

Both are started from the checkout's ``src`` with default options in
fresh directories under ``perfbench/out``, each in its own process
group, so :meth:`Deployment.close` can take down a daemon together with
the pool workers and ``cc`` processes it forked.  Every exit path of the
benchmark goes through ``close``.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PORT_POLL_S = 0.002
BOOT_TIMEOUT_S = 60.0
CLK_TCK = os.sysconf("SC_CLK_TCK")
PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in each daemon before exec: the kernel SIGKILLs it when the
    benchmark dies, even when the benchmark itself was SIGKILLed."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                            signal.SIGKILL)


class DeploymentError(RuntimeError):
    """A daemon died or never became ready."""


def proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return text.rsplit(")", 1)[1].split()


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process (0 once it is gone)."""
    fields = proc_stat(pid)
    if fields is None:
        return 0.0
    # fields[0] is the state (stat field 3); utime/stime are 14 and 15.
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def children_of(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = proc_stat(int(entry))
            if fields is not None and int(fields[1]) == pid:
                out.append(int(entry))
    return sorted(out)


def group_members(pgids: set[int]) -> list[int]:
    """Live (non-zombie) processes in any of the process groups."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = proc_stat(int(entry))
            if (fields is not None and fields[0] != "Z"
                    and int(fields[2]) in pgids):
                out.append(int(entry))
    return out


class Deployment:
    """Router + one shard; ports, pids and an unconditional teardown."""

    def __init__(self, out: Path, src: Path):
        self.src = src
        out.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="deploy-", dir=out))
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir()
        self.procs: list[subprocess.Popen] = []
        self.shard_port: int | None = None
        self.router_port: int | None = None
        self._logs: list = []

    # -- boot ---------------------------------------------------------------

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(self.tmp)  # cc's scratch files stay here too
        return env

    def _spawn(self, name: str, argv: list[str]) -> subprocess.Popen:
        log = open(self.dir / f"{name}.log", "wb")
        self._logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=self.dir, env=self._env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True, preexec_fn=_die_with_parent)
        self.procs.append(proc)
        return proc

    def _wait_port(self, proc: subprocess.Popen, port_file: Path) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not port_file.exists():
            if proc.poll() is not None:
                raise DeploymentError(
                    f"{proc.args[2]} exited with {proc.returncode} "
                    f"before listening; see {self.dir}")
            if time.monotonic() > deadline:
                raise DeploymentError(f"{proc.args[2]} never listened")
            time.sleep(PORT_POLL_S)
        return int(port_file.read_text())

    def boot_shard(self) -> int:
        port_file = self.dir / "shard.port"
        proc = self._spawn("shard", [
            "-m", "repro.serve", "--port", "0",
            "--port-file", str(port_file),
            "--cache-dir", str(self.dir / "cache"),
            "--crash-dir", str(self.dir / "crash")])
        self.shard_port = self._wait_port(proc, port_file)
        return self.shard_port

    def boot_router(self) -> int:
        port_file = self.dir / "router.port"
        proc = self._spawn("router", [
            "-m", "repro.serve.router", "--port", "0",
            "--port-file", str(port_file),
            "--shard", f"s0=127.0.0.1:{self.shard_port}"])
        self.router_port = self._wait_port(proc, port_file)
        return self.router_port

    # -- introspection ------------------------------------------------------

    @property
    def shard_pid(self) -> int:
        return self.procs[0].pid

    @property
    def router_pid(self) -> int:
        return self.procs[1].pid

    def worker_pids(self) -> list[int]:
        return children_of(self.shard_pid)

    def cpu(self) -> dict[str, float]:
        """CPU seconds so far of the router, the shard and its workers."""
        return {"router": cpu_seconds(self.router_pid),
                "shard": cpu_seconds(self.shard_pid),
                "workers": sum(cpu_seconds(p) for p in self.worker_pids())}

    def peak_rss_mb(self) -> float:
        pids = [self.router_pid, self.shard_pid, *self.worker_pids()]
        return sum(vm_hwm_kb(pid) for pid in pids) / 1024.0

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Kill every process group, wait for all of them, remove the
        directory.  Safe to call more than once and from any state."""
        pgids = {proc.pid for proc in self.procs}
        for pgid in pgids:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        # Forked pool workers and cc are reparented away from us once
        # their daemon dies; wait for them through /proc.
        deadline = time.monotonic() + 10.0
        while pgids and time.monotonic() < deadline:
            members = group_members(pgids)
            if not members:
                break
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.01)
        self.procs = []
        for log in self._logs:
            log.close()
        self._logs = []
        shutil.rmtree(self.dir, ignore_errors=True)
