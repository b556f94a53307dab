"""Request coalescing: single-flight for concurrent top-k cache misses.

Under concurrent load many clients ask for the same ``(metric, k, τ)``
at the same graph version.  The batcher keys every request by the full
cache key ``(metric, k, τ, version)`` and turns concurrent identical
misses into one computation:

* the first caller on a key becomes the **leader** and runs
  ``execute(key)`` at once -- there is no timer;
* every caller that submits the same key while the leader is still
  running (a **follower**) parks on the key's event and wakes with the
  shared result;
* callers on different keys never wait for each other.

Keying on the version is what keeps reads fresh: a request that read a
newer version after a committed write never joins a flight started for
an older one.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Tuple

from repro.obs.trace import TRACER


def _per_waiter_error(exc: BaseException) -> BaseException:
    """A fresh exception instance for one waiter to raise.

    A failed computation is observed by *every* waiter concurrently;
    raising the one shared instance from each waiter thread made the
    threads race on ``exc.__traceback__`` (every ``raise`` rewrites it),
    so a traceback captured in one thread could show frames from
    another.  Each waiter gets its own copy instead, chained to the
    original via ``__cause__`` so nothing about the root failure is lost.
    """
    try:
        copy = type(exc)(*exc.args)
    except Exception:
        # Exotic constructor signature: fall back to a plain wrapper.
        copy = RuntimeError(f"{type(exc).__name__}: {exc}")
    copy.__cause__ = exc
    return copy


class _Flight:
    """One in-progress computation and the callers awaiting it."""

    __slots__ = ("event", "result", "error", "waiters")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.waiters = 0


class TopKBatcher:
    """Single-flight coalescer; see module docstring.

    ``execute`` receives one key and returns its result.
    """

    def __init__(self, execute: Callable[[Hashable], Any]) -> None:
        self._execute = execute
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, _Flight] = {}
        # accounting
        self.batches = 0
        self.requests = 0
        self.coalesced = 0
        self.largest_batch = 0

    def submit(self, key: Hashable, timeout: float = 60.0) -> Tuple[Any, int]:
        """Submit ``key``; return ``(result, batch_requests)``.

        ``batch_requests`` is the number of requests answered by the
        computation this key rode in (1 = no coalescing happened).
        """
        with self._lock:
            flight = self._flights.get(key)
            lead = flight is None
            if lead:
                flight = _Flight()
                self._flights[key] = flight
            flight.waiters += 1
            self.requests += 1
        with TRACER.span(
            "batcher.submit", role="leader" if lead else "follower"
        ) as span:
            if lead:
                self._run(key, flight)
            if not flight.event.wait(timeout):
                raise TimeoutError(f"batched query timed out after {timeout}s")
            if flight.error is not None:
                raise _per_waiter_error(flight.error)
            span.set(batch_requests=flight.result[1])
            return flight.result

    def _run(self, key: Hashable, flight: _Flight) -> None:
        try:
            result = self._execute(key)
        except BaseException as exc:  # propagate to every waiter
            flight.error = exc
        with self._lock:
            # Closing the flight: later submits of this key start anew.
            del self._flights[key]
            batch_requests = flight.waiters
            self.batches += 1
            self.coalesced += batch_requests - 1
            self.largest_batch = max(self.largest_batch, batch_requests)
        if flight.error is None:
            flight.result = (result, batch_requests)
        flight.event.set()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "requests": self.requests,
                "batches": self.batches,
                "coalesced": self.coalesced,
                "largest_batch": self.largest_batch,
            }
