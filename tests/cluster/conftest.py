"""Leak guard for every cluster test.

Cluster tests start writers, replicas, routers and child processes,
each with threads, sockets and possibly shared-memory segments.  The
autouse fixture below records this process's live threads, open file
descriptors and ``/dev/shm/esd-*`` entries before each test, and after
it waits (bounded polling, no sleep) until all three are back at that
baseline -- a node that does not release what it took fails the test
that started it, not some later one.
"""

import os
import threading

import pytest

from tests.conftest import wait_until

_FD_DIR = "/proc/self/fd"
_SHM_DIR = "/dev/shm"


def _open_fds() -> int:
    return len(os.listdir(_FD_DIR)) if os.path.isdir(_FD_DIR) else 0


def _shm_segments() -> set:
    if not os.path.isdir(_SHM_DIR):
        return set()
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("esd-")}


def _leaks(threads: set, fds: int, segments: set) -> list:
    found = []
    extra_threads = set(threading.enumerate()) - threads
    if extra_threads:
        found.append(
            f"threads {sorted(thread.name for thread in extra_threads)}"
        )
    open_fds = _open_fds()
    if open_fds > fds:
        found.append(f"{open_fds - fds} file descriptor(s)")
    extra_segments = _shm_segments() - segments
    if extra_segments:
        found.append(f"shm segments {sorted(extra_segments)}")
    return found


@pytest.fixture(autouse=True)
def no_leaked_resources():
    baseline = (set(threading.enumerate()), _open_fds(), _shm_segments())
    yield
    try:
        wait_until(
            lambda: not _leaks(*baseline),
            timeout=10.0,
            message="threads, fds and shm segments back at baseline",
        )
    except pytest.fail.Exception:
        pytest.fail(f"cluster test leaked: {'; '.join(_leaks(*baseline))}")
