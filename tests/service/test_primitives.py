"""Unit tests for the serving-layer building blocks."""

import sys
import threading
import time

import pytest

from tests.conftest import wait_until

from repro.service.batcher import TopKBatcher
from repro.service.cache import ResultCache
from repro.service.metrics import MetricsRegistry, percentile
from repro.service.rwlock import RWLock


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # all three readers hold the lock at once

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        log = []

        def writer(tag):
            with lock.write_locked():
                log.append(f"{tag}-in")
                time.sleep(0.02)
                log.append(f"{tag}-out")

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        # Critical sections never interleave: in/out strictly alternate.
        for i in range(0, len(log), 2):
            assert log[i].endswith("-in") and log[i + 1].endswith("-out")
            assert log[i].split("-")[0] == log[i + 1].split("-")[0]

    def test_write_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_waiting = threading.Event()
        order = []

        def writer():
            writer_waiting.set()
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            with lock.read_locked():
                order.append("reader")

        w = threading.Thread(target=writer)
        w.start()
        writer_waiting.wait(timeout=5)
        time.sleep(0.05)  # let the writer actually block on the lock
        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.05)
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert order[0] == "writer"  # the late reader queued behind the writer

    def test_unbalanced_release_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestResultCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(("a", 0), 1)
        cache.put(("b", 0), 2)
        assert cache.get(("a", 0)) == (True, 1)  # refreshes 'a'
        cache.put(("c", 0), 3)  # evicts 'b', the LRU entry
        assert cache.get(("b", 0)) == (False, None)
        assert cache.get(("a", 0)) == (True, 1)
        assert cache.get(("c", 0)) == (True, 3)
        assert cache.evictions == 1
        assert cache.hits == 3 and cache.misses == 1

    def test_purge_stale_drops_old_versions_only(self):
        cache = ResultCache(capacity=8)
        cache.put((10, 2, 0), "v0")
        cache.put((10, 2, 1), "v1")
        cache.put((50, 3, 1), "v1b")
        assert cache.purge_stale(1) == 1
        assert cache.get((10, 2, 0)) == (False, None)
        assert cache.get((10, 2, 1)) == (True, "v1")
        assert cache.get((50, 3, 1)) == (True, "v1b")

    def test_hit_rate(self):
        cache = ResultCache(capacity=2)
        assert cache.hit_rate == 0.0
        cache.put("x", 1)
        cache.get("x")
        cache.get("y")
        assert cache.hit_rate == 0.5

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_purge_stale_rejects_schema_violating_keys(self):
        """Regression: a non-``(..., version)`` key used to be silently
        skipped by ``purge_stale`` and retained forever; it is a caller
        bug and must fail loudly instead."""
        cache = ResultCache(capacity=8)
        cache.put((10, 2, 3), "fine")
        cache.put("just-a-string", "schema violation")
        with pytest.raises(ValueError, match="tuple schema"):
            cache.purge_stale(4)

    def test_purge_stale_rejects_bool_version_component(self):
        # bool is an int subtype but never a graph version.
        cache = ResultCache(capacity=8)
        cache.put((10, 2, True), "x")
        with pytest.raises(ValueError, match="tuple schema"):
            cache.purge_stale(1)

    def test_stats_snapshot_is_internally_consistent(self):
        cache = ResultCache(capacity=4)
        cache.put((1, 1, 0), "a")
        cache.get((1, 1, 0))
        cache.get((9, 9, 0))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1 and stats["capacity"] == 4

    def test_stats_consistent_under_concurrent_load(self):
        """Regression: ``stats()``/``hit_rate`` used to read the counters
        field-by-field outside ``_lock``, so a snapshot could report a
        hit rate computed from different counter values than the ones in
        the same snapshot.  Every snapshot must now satisfy
        ``hit_rate == round(hits / (hits + misses), 4)`` exactly."""
        import random

        cache = ResultCache(capacity=32)
        stop = threading.Event()

        def hammer(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                key = (rng.randrange(12), 2, 0)
                hit, _ = cache.get(key)
                if not hit:
                    cache.put(key, "payload")

        workers = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(4)
        ]
        for t in workers:
            t.start()
        try:
            for _ in range(300):
                stats = cache.stats()
                total = stats["hits"] + stats["misses"]
                if total:
                    assert stats["hit_rate"] == round(
                        stats["hits"] / total, 4
                    )
                assert cache.hit_rate <= 1.0
        finally:
            stop.set()
            for t in workers:
                t.join(timeout=5)
        assert not any(t.is_alive() for t in workers)


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.0) == 1
        assert percentile(samples, 1.0) == 100
        assert percentile(samples, 0.5) == 51  # nearest rank on 100 samples
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(samples, 1.5)

    def test_timed_records_errors_and_latency(self):
        registry = MetricsRegistry()
        with registry.timed("op"):
            pass
        with pytest.raises(RuntimeError):
            with registry.timed("op"):
                raise RuntimeError("boom")
        snapshot = registry.snapshot()
        assert snapshot["endpoints"]["op"]["requests"] == 2
        assert snapshot["endpoints"]["op"]["errors"] == 1
        assert snapshot["endpoints"]["op"]["p99_ms"] >= 0

    def test_counters(self):
        registry = MetricsRegistry()
        registry.incr("rejected", 3)
        registry.incr("rejected")
        assert registry.snapshot()["counters"] == {"rejected": 4}


class TestPercentileBoundaries:
    """Regression for the ceil-based nearest rank: ``round()`` (banker's
    rounding) under-reported the tail -- p99 over a full 100-sample
    window returned the 99th-worst sample instead of the worst."""

    def test_single_sample_is_every_percentile(self):
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert percentile([42], fraction) == 42

    def test_p99_over_100_samples_is_the_maximum(self):
        samples = list(range(1, 101))
        # ceil(0.99 * 99) = 99 -> the worst sample; round() gave 98 -> 99.
        assert percentile(samples, 0.99) == 100

    def test_boundary_fractions_over_100_samples(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.0) == 1
        assert percentile(samples, 0.5) == 51
        assert percentile(samples, 1.0) == 100

    def test_two_samples_round_up(self):
        assert percentile([1, 2], 0.5) == 2  # ceil(0.5 * 1) = 1
        assert percentile([1, 2], 0.99) == 2
        assert percentile([1, 2], 0.0) == 1

    def test_never_below_true_quantile(self):
        """Ceil rounding means at least ``fraction`` of the samples are
        <= the reported value, for every window size."""
        for n in (1, 2, 3, 7, 100, 101):
            samples = list(range(n))
            for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
                value = percentile(samples, fraction)
                at_or_below = sum(1 for s in samples if s <= value)
                assert at_or_below / n >= fraction

    def test_unsorted_input_handled(self):
        assert percentile([5, 1, 9, 3], 1.0) == 9
        assert percentile([5, 1, 9, 3], 0.0) == 1


class TestTopKBatcher:
    def test_single_flight_shares_one_execution(self):
        calls = []
        entered = threading.Event()
        release = threading.Event()

        def execute(key):
            calls.append(key)
            entered.set()
            release.wait(timeout=5)
            return f"result-{key}"

        batcher = TopKBatcher(execute)
        results = [None] * 6

        def submit(i):
            results[i] = batcher.submit((10, 2))

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
        threads[0].start()
        assert entered.wait(timeout=5)  # the leader is computing
        for t in threads[1:]:
            t.start()
        # Every follower has joined the in-flight computation.
        wait_until(
            lambda: batcher.stats()["requests"] == 6,
            interval=0.001, message="followers to join",
        )
        release.set()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        assert calls == [(10, 2)]  # six submits, one execution
        assert all(value == ("result-(10, 2)", 6) for value in results)
        stats = batcher.stats()
        assert (stats["batches"], stats["coalesced"]) == (1, 5)
        assert stats["largest_batch"] == 6
        # The flight closed with its result: the next submit computes anew.
        assert batcher.submit((10, 2)) == ("result-(10, 2)", 1)
        assert len(calls) == 2

    def test_distinct_keys_compute_independently(self):
        entered = threading.Event()
        release = threading.Event()

        def execute(key):
            if key == (10, 2):
                entered.set()
                release.wait(timeout=5)
            return key[0] * key[1]

        batcher = TopKBatcher(execute)
        out = {}
        blocked = threading.Thread(
            target=lambda: out.update({(10, 2): batcher.submit((10, 2))})
        )
        blocked.start()
        assert entered.wait(timeout=5)
        # A different key never waits behind the blocked computation.
        assert batcher.submit((50, 3)) == (150, 1)
        assert not release.is_set() and blocked.is_alive()
        release.set()
        blocked.join(timeout=5)
        assert not blocked.is_alive()
        assert out[(10, 2)] == (20, 1)
        stats = batcher.stats()
        assert (stats["batches"], stats["coalesced"]) == (2, 0)

    def test_stress_accounting_survives_thread_interleaving(self):
        """More threads than cores, tiny switch interval: every submit is
        answered with its own key's result and the counters add up."""
        keys = [("esd", k, 2, 0) for k in (1, 2, 3)]
        batcher = TopKBatcher(lambda key: key[1] * 10)
        errors = []

        def hammer(i):
            for j in range(200):
                key = keys[(i + j) % len(keys)]
                result, answered = batcher.submit(key)
                if result != key[1] * 10 or answered < 1:
                    errors.append((key, result, answered))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        stats = batcher.stats()
        assert stats["requests"] == 8 * 200
        assert stats["batches"] + stats["coalesced"] == stats["requests"]
        assert batcher._flights == {}  # every flight closed

    def test_execute_failure_propagates_to_all_waiters(self):
        def execute(key):
            raise RuntimeError("index on fire")

        batcher = TopKBatcher(execute)
        with pytest.raises(RuntimeError, match="index on fire"):
            batcher.submit((10, 2))
        # A failed flight is closed too: the key is free again.
        with pytest.raises(RuntimeError, match="index on fire"):
            batcher.submit((10, 2))
        assert batcher.stats()["batches"] == 2
