"""Server child processes: spawn, wait until ready, measure, stop.

A reader thread drains the child's stdout the whole time (a full pipe
would stall the server) and hands announce lines to
:meth:`Server.wait_ready`.  Each server runs in its own session, so a
terminal's signals reach only the benchmark, which then stops it.
"""

from __future__ import annotations

import os
import queue
import re
import subprocess
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.wire import Connection

_LISTEN_RE = re.compile(r"esd serve: listening on (?P<host>[\w.\-]+):(?P<port>\d+)")

READY_TIMEOUT = 120.0
STOP_TIMEOUT = 15.0


class ServerError(RuntimeError):
    """A server child failed to start or to exit."""


class Server:
    """One ``esd serve`` process."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: str) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,
            start_new_session=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.tail: deque = deque(maxlen=40)
        self._reader = threading.Thread(target=self._read, name="server-stdout", daemon=True)
        self._reader.start()
        self.address: Optional[Tuple[str, int]] = None
        self.ready_s: Optional[float] = None
        self.ready_cpu_s: Optional[float] = None  #: CPU seconds used by then

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.tail.append(line.rstrip("\n"))
            self.lines.put(line)
        self.lines.put(None)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = READY_TIMEOUT) -> float:
        """Block until the announce line and a ping reply; return seconds since spawn."""
        deadline = self.started + timeout
        while self.address is None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ServerError(f"server not ready after {timeout}s: {self.output()}")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise ServerError(f"server exited before ready: {self.output()}")
            match = _LISTEN_RE.search(line)
            if match:
                self.address = (match.group("host"), int(match.group("port")))
        with Connection(*self.address) as conn:
            conn.call({"op": "ping"})
        self.ready_s = time.perf_counter() - self.started
        self.ready_cpu_s = self.cpu_seconds()
        return self.ready_s

    def output(self) -> str:
        return " | ".join(self.tail)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError(f"no VmHWM for pid {self.pid}")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def thread_cpu_seconds(self) -> float:
        """CPU time of the server's live threads, to the nanosecond.

        Finer than :meth:`cpu_seconds`, whose clock ticks are too coarse
        for a sweep of a few tens of milliseconds, but it loses the time
        of threads that have exited.
        """
        total = 0
        for tid in os.listdir(f"/proc/{self.pid}/task"):
            try:
                with open(f"/proc/{self.pid}/task/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except (OSError, IndexError, ValueError):
                continue  # the thread exited meanwhile
        return total / 1e9

    def kill(self) -> None:
        """SIGKILL the server and reap it (a crash, for recovery runs)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self) -> None:
        """Ask the server to shut down (SIGTERM); kill it if it does not."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise ServerError(f"server {self.pid} did not exit") from exc
        self._reader.join(timeout=STOP_TIMEOUT)
        self.proc.stdout.close()


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def leftover_segments(pids: Sequence[int]) -> List[str]:
    """``/dev/shm/esd-<pid>-*`` segments created by any of ``pids``."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    prefixes = tuple(f"esd-{pid}-" for pid in pids)
    return sorted(entry for entry in entries if prefixes and entry.startswith(prefixes))
