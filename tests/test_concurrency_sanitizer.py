"""The dynamic half of the lock discipline: CheckedLock + guarded attributes.

Direct CheckedLock behaviour needs no environment — the class enforces its
invariants whenever instantiated.  Guard *descriptors* install at import time
under ``REPRO_SANITIZE=1``, so those paths run in a subprocess.
"""

import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.lint.core import parse_file
from repro.lint.guarded import collect_guards
from repro.utils.concurrency import (
    CheckedLock,
    LockOrderError,
    LockUsageError,
    SingleFlight,
    guard_specs,
    make_lock,
    sanitize_enabled,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestCheckedLock:
    def test_acquire_release_and_held(self):
        lock = CheckedLock("t")
        assert not lock.held() and not lock.locked()
        with lock:
            assert lock.held() and lock.locked()
        assert not lock.held() and not lock.locked()

    def test_held_is_per_thread(self):
        lock = CheckedLock("t")
        seen = []
        with lock:
            t = threading.Thread(target=lambda: seen.append(lock.held()))
            t.start()
            t.join()
        assert seen == [False]

    def test_self_deadlock_is_reported_not_hung(self):
        lock = CheckedLock("t")
        with lock:
            with pytest.raises(LockOrderError, match="self-deadlock"):
                lock.acquire()

    def test_abba_inversion_is_reported_on_second_order(self):
        a = CheckedLock("A")
        b = CheckedLock("B")
        with a:
            with b:  # establishes A -> B
                pass
        with b:
            with pytest.raises(LockOrderError, match="lock-order inversion"):
                a.acquire()  # B -> A: the seeded inversion

    def test_consistent_order_never_trips(self):
        a = CheckedLock("A")
        b = CheckedLock("B")
        for _ in range(3):
            with a:
                with b:
                    pass

    def test_release_without_hold(self):
        lock = CheckedLock("t")
        with pytest.raises(LockUsageError, match="does not hold"):
            lock.release()

    def test_nonblocking_acquire(self):
        lock = CheckedLock("t")
        grabbed = threading.Event()
        done = threading.Event()

        def holder():
            with lock:
                grabbed.set()
                done.wait(5)

        t = threading.Thread(target=holder)
        t.start()
        assert grabbed.wait(5)
        assert lock.acquire(blocking=False) is False
        assert not lock.held()
        done.set()
        t.join()


class TestMakeLock:
    def test_plain_lock_when_sanitizer_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        assert not isinstance(make_lock("x"), CheckedLock)

    def test_checked_lock_when_sanitizer_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        lock = make_lock("x")
        assert isinstance(lock, CheckedLock) and lock.name == "x"


class TestSingleFlight:
    """The one coalescing mechanism both caches load through."""

    @staticmethod
    def _blocked_owner(pool, flights, key, outcome):
        """Start an owner for ``key`` parked inside its load; returns
        (future, release): ``release.set()`` lets it return ``outcome()``."""
        entered, release = threading.Event(), threading.Event()

        def load():
            entered.set()
            assert release.wait(5)
            return outcome()

        future = pool.submit(flights.run, key, load)
        assert entered.wait(5)
        return future, release

    def test_owner_and_waiter_share_the_identical_value(self, submit_parked):
        flights = SingleFlight()
        value = object()
        calls = []
        with ThreadPoolExecutor(max_workers=2) as pool:
            owner, release = self._blocked_owner(
                pool, flights, "k", lambda: calls.append(1) or value)
            waiter = submit_parked(pool, flights.run, "k",
                                   lambda: calls.append(2))
            release.set()
            got_owner, got_waiter = owner.result(5), waiter.result(5)
        assert got_owner[0] is value and got_owner[1] is True
        assert got_waiter[0] is value and got_waiter[1] is False
        assert calls == [1]

    def test_owner_exception_reaches_the_waiter_then_key_reloads(
            self, submit_parked):
        flights = SingleFlight()

        def fail():
            raise ValueError("corrupt tile: synthetic")

        with ThreadPoolExecutor(max_workers=2) as pool:
            owner, release = self._blocked_owner(pool, flights, "k", fail)
            waiter = submit_parked(pool, flights.run, "k", lambda: "not run")
            release.set()
            for future in (owner, waiter):
                with pytest.raises(ValueError, match="synthetic"):
                    future.result(5)
        # Nothing outlives the failed load: the next caller owns a new one.
        assert flights.run("k", lambda: "fresh") == ("fresh", True)

    def test_a_blocked_key_does_not_block_another_key(self):
        flights = SingleFlight()
        with ThreadPoolExecutor(max_workers=2) as pool:
            owner, release = self._blocked_owner(pool, flights, "a",
                                                 lambda: "a")
            try:
                other = pool.submit(flights.run, "b", lambda: "b")
                assert other.result(5) == ("b", True)  # "a" is still loading
                assert not owner.done()
            finally:
                release.set()
            assert owner.result(5) == ("a", True)


class TestSpecsMatchStaticAnnotations:
    """guard_specs() (dynamic) must agree with `# guarded by:` (static)."""

    def _static_guards(self, rel):
        ctx, errors = parse_file(REPO_ROOT / rel)
        assert not errors
        _, class_guards, diags = collect_guards(ctx)
        assert not diags
        # {class: {attr: lock}} -> {class: {lock: sorted attrs}}
        inverted = {}
        for cls, guards in class_guards.items():
            by_lock = inverted.setdefault(cls, {})
            for attr, lock in guards.items():
                by_lock.setdefault(lock, []).append(attr)
        return {cls: {lock: tuple(sorted(attrs))
                      for lock, attrs in by_lock.items()}
                for cls, by_lock in inverted.items()}

    def test_store_and_cache_specs_agree(self):
        import repro.store.aserver  # noqa: F401  (registers specs on import)
        import repro.store.cache  # noqa: F401
        import repro.store.ingest  # noqa: F401
        import repro.store.manifest  # noqa: F401
        import repro.store.server  # noqa: F401
        import repro.store.store  # noqa: F401

        registered = {
            name.rsplit(".", 1)[-1]: {lock: tuple(sorted(attrs))
                                      for lock, attrs in spec.items()}
            for name, spec in guard_specs().items()
            if name.startswith("repro.store.")
        }
        static = {}
        for rel in ("store.py", "cache.py", "manifest.py", "ingest.py",
                    "server.py", "aserver.py"):
            static.update(self._static_guards(f"src/repro/store/{rel}"))
        assert registered == static
        assert {"ArchiveStore", "_Entry", "TileCache", "StoreManifest",
                "IngestManager", "RouteMetrics"} <= set(registered)

    def test_source_and_counter_specs_agree(self):
        import repro.sources.http  # noqa: F401  (registers specs on import)
        import repro.sources.spill  # noqa: F401

        modules = {"repro.sources.http": "src/repro/sources/http.py",
                   "repro.sources.spill": "src/repro/sources/spill.py",
                   "repro.utils.concurrency": "src/repro/utils/concurrency.py"}
        registered = {
            name.rsplit(".", 1)[-1]: {lock: tuple(sorted(attrs))
                                      for lock, attrs in spec.items()}
            for name, spec in guard_specs().items()
            if name.rsplit(".", 1)[0] in modules
        }
        static = {}
        for rel in modules.values():
            static.update(self._static_guards(rel))
        assert registered == static
        assert set(registered) == {"HttpByteSource", "CachingByteSource",
                                   "Counters", "SingleFlight"}


def _run_sanitized(body: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
             "REPRO_SANITIZE": "1"})


class TestGuardDescriptors:
    def test_unlocked_access_raises_and_locked_access_works(self):
        proc = _run_sanitized("""
            import numpy as np
            from repro.store.cache import TileCache
            from repro.utils.concurrency import GuardedAccessError

            cache = TileCache(max_bytes=1 << 20)  # __init__ writes are exempt
            try:
                cache._entries
            except GuardedAccessError as exc:
                assert "TileCache._entries" in str(exc), exc
            else:
                raise SystemExit("unlocked read did not raise")
            with cache._lock:
                assert len(cache._entries) == 0
            tile = np.arange(16, dtype=np.float32)
            cache.put(("k", 0), tile)
            np.testing.assert_array_equal(cache.get(("k", 0)), tile)
            print("OK")
        """)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout

    def test_store_roundtrip_under_sanitizer(self):
        proc = _run_sanitized("""
            import numpy as np
            import repro
            from repro.store import ArchiveStore

            rng = np.random.default_rng(0)
            data = rng.standard_normal((4, 32, 32)).astype(np.float32)
            blob = repro.compress_chunked(data, codec="sz21", bound=1e-2,
                                          chunk_size=2048)
            with ArchiveStore(cache_bytes=1 << 20) as store:
                store.add("k", blob)
                region = store.read_region("k", tuple(
                    slice(0, n) for n in data.shape))
                assert region.shape == data.shape
                span = float(data.max() - data.min())
                assert np.max(np.abs(region - data)) <= 1e-2 * span + 1e-6
                stats = store.stats()
                assert stats["archives"] == 1
                store.remove("k")
            print("OK")
        """)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout

    def test_seeded_inversion_is_flagged_under_sanitizer(self):
        proc = _run_sanitized("""
            from repro.utils.concurrency import LockOrderError, make_lock

            a = make_lock("store-lock")
            b = make_lock("pin-lock")
            with a:
                with b:
                    pass
            try:
                with b:
                    with a:
                        pass
            except LockOrderError as exc:
                assert "lock-order inversion" in str(exc), exc
                print("OK")
            else:
                raise SystemExit("inversion not detected")
        """)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout

    def test_guards_are_zero_cost_when_disabled(self):
        if sanitize_enabled():
            pytest.skip("suite running with REPRO_SANITIZE=1")
        from repro.store.cache import TileCache

        assert not isinstance(TileCache.__dict__.get("_entries"), property)
        cache = TileCache(max_bytes=1 << 20)
        assert cache._entries == {} or len(cache._entries) == 0
