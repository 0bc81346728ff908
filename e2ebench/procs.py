"""Hermetic child processes and HTTP for the benchmark.

Every child gets its own cache, runs and working directory under
``.e2ebench_tmp/`` in the checkout, an environment without any
``REPRO_*`` setting it could inherit (fault plans, pass debugging, a
shared cache), and a timeout.  Children are reaped with ``os.wait4`` so
their own CPU time and peak memory come from the kernel's rusage.
"""

from __future__ import annotations

import http.client
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".e2ebench_tmp"
PYCACHE = TMP_ROOT / "pycache"
LAUNCHER = BENCH_DIR / "launcher.py"

#: Upper bound on any one CLI invocation or HTTP request.
OP_TIMEOUT_S = 120.0

#: Upper bound on a server becoming ready, and on its drain at SIGTERM.
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: ``perf_counter()`` time by which every wait ends, so that a hung or
#: slow program still lets a run finish in time; set by ``run.py``.
HARD_DEADLINE = float("inf")


def wait_s(limit: float) -> float:
    """``limit``, cut to what is left before :data:`HARD_DEADLINE`."""
    return max(0.0, min(limit, HARD_DEADLINE - time.perf_counter()))


class Sandbox:
    """A private cache/runs/cwd tree, removed on exit."""

    def __enter__(self) -> "Sandbox":
        TMP_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=TMP_ROOT))
        self.cwd = self.path / "cwd"
        self.cwd.mkdir()
        self.generation = 0
        self.fresh()
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh(self) -> None:
        """Point later children at empty cache and runs directories."""
        self.generation += 1
        self.cache = self.path / f"cache{self.generation}"
        self.runs = self.path / f"runs{self.generation}"

    def file(self, name: str) -> Path:
        return self.path / name

    def env(self) -> dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        # Bytecode is cached, as in an ordinary install, whatever the
        # caller's setting; it goes under TMP_ROOT, not into src/.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(self.cache)
        env["REPRO_RUNS_DIR"] = str(self.runs)
        return env


def repro_command(argv: list[str], spans_path: Path | None) -> list[str]:
    """``python -m repro ARGV``, or the traced launcher around it."""
    if spans_path is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(LAUNCHER), str(spans_path), *argv]


@dataclass
class Exit:
    """A reaped child: exit code, lifetime and kernel-reported usage."""

    code: int
    start: float
    end: float
    cpu_s: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _exit_of(proc: subprocess.Popen, start: float, status: int,
             usage) -> Exit:
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, start, time.perf_counter(),
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def reap(proc: subprocess.Popen, start: float,
         timeout_s: float) -> tuple[Exit, bytes]:
    """Read ``proc``'s stdout (if piped) and wait for it, killing it
    after ``timeout_s``; returns its exit and output."""
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        out = b""
        if proc.stdout is not None:
            with proc.stdout:
                out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    return _exit_of(proc, start, status, usage), out


def _poll(proc: subprocess.Popen, start: float) -> Exit | None:
    """The child's exit if it has already ended, without blocking."""
    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    return _exit_of(proc, start, status, usage) if pid else None


def start(sandbox: Sandbox, command: list[str]) -> subprocess.Popen:
    """Start ``command`` in ``sandbox`` with its stdout piped."""
    with open(sandbox.file("stderr.log"), "ab") as stderr:
        return subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=stderr, cwd=sandbox.cwd,
                                env=sandbox.env())


def run_cli(sandbox: Sandbox, argv: list[str],
            spans_path: Path | None = None) -> tuple[Exit, bytes]:
    """Run one CLI command to completion; returns (exit, stdout)."""
    begun = time.perf_counter()
    proc = start(sandbox, repro_command(argv, spans_path))
    return reap(proc, begun, wait_s(OP_TIMEOUT_S))


def compile_bytecode() -> None:
    """Fill the bytecode cache, so that no timed child compiles."""
    with Sandbox() as sandbox:
        begun = time.perf_counter()
        proc = start(sandbox, [sys.executable, "-m", "compileall", "-q",
                               str(SRC)])
        reap(proc, begun, wait_s(OP_TIMEOUT_S))


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """``repro serve --workers 2`` on a port chosen in advance.

    Readiness is the first ``200`` from ``/readyz``: the server's own
    "listening" line is block-buffered under a pipe, so it is not used.
    """

    def __init__(self, sandbox: Sandbox, spans_path: Path | None = None):
        self.port = free_port()
        argv = ["serve", "--port", str(self.port), "--workers", "2"]
        with open(sandbox.file("server.log"), "ab") as log:
            self.start = time.perf_counter()
            self.proc = subprocess.Popen(
                repro_command(argv, spans_path), stdout=log, stderr=log,
                cwd=sandbox.cwd, env=sandbox.env())
        self.exit: Exit | None = None
        try:
            self.ready_s = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> float:
        deadline = self.start + wait_s(READY_TIMEOUT_S)
        while time.perf_counter() < deadline:
            self.exit = _poll(self.proc, self.start)
            if self.exit is not None:
                raise RuntimeError(f"server exited with {self.exit.code} "
                                   "before it was ready")
            client = self.connect(timeout=1.0)
            status, _, _ = client.request("GET", "/readyz")
            client.close()
            if status == 200:
                return time.perf_counter() - self.start
            time.sleep(0.005)
        raise RuntimeError("server not ready within "
                           f"{READY_TIMEOUT_S:.0f}s")

    def connect(self, timeout: float = OP_TIMEOUT_S) -> "Client":
        return Client(self.port, timeout)

    def cpu_s(self) -> float:
        """User + system CPU the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> Exit:
        """SIGTERM (graceful drain), killing after a timeout; idempotent."""
        if self.exit is None:
            self.proc.send_signal(signal.SIGTERM)
            # Past the hard deadline the drain still gets a second.
            self.exit, _ = reap(self.proc, self.start,
                                 max(1.0, wait_s(STOP_TIMEOUT_S)))
        return self.exit


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int, timeout: float):
        self.timeout = timeout
        self.conn = http.client.HTTPConnection("127.0.0.1", port)

    def request(self, method: str, path: str, body: bytes | None = None
                ) -> tuple[int | str, bytes, float]:
        """(status, body, latency in seconds).  A transport failure
        (refused, reset, timeout) returns its description as the status
        and costs :data:`OP_TIMEOUT_S`; the next request reconnects."""
        self.conn.timeout = wait_s(self.timeout)
        if self.conn.sock is not None:
            self.conn.sock.settimeout(self.conn.timeout)
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=body)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.conn.close()
            return f"{type(error).__name__}: {error}", b"", OP_TIMEOUT_S
        return response.status, data, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()
