"""ArchiveStore + TileCache: thread safety, caching contract, stress harness.

Acceptance (ISSUE 5): N threads hammering one store over mixed overlapping
regions produce results bit-identical to cold single-threaded
``repro.read_region``, and the store's decode counter proves each tile
decodes at most once per cache residency (single-flight loading).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro import api
from repro.encoding import container
from repro.store import ArchiveStore, TileCache

CODEC = "szinterp"
BOUND = 1e-3
SIDE, TILE = 48, 16  # 3x3x3 = 27 tiles


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(7)
    return rng.standard_normal((SIDE, SIDE, SIDE)).cumsum(axis=0)


@pytest.fixture(scope="module")
def grid_blob(field):
    return api.compress_chunked(field, codec=CODEC, bound=BOUND,
                                chunk_shape=(TILE, TILE, TILE))


@pytest.fixture()
def grid_path(grid_blob, tmp_path):
    path = tmp_path / "grid.rpra"
    path.write_bytes(grid_blob)
    return str(path)


# Mixed, mutually overlapping regions: tile-interior, cross-boundary, slab,
# plane, corner, empty — together they revisit tiles from many requests.
REGIONS = [
    (slice(2, 14), slice(2, 14), slice(2, 14)),
    (slice(12, 20), slice(12, 20), slice(12, 20)),
    (slice(0, 32), slice(0, 16), slice(0, 16)),
    (slice(8, 24), slice(0, SIDE), slice(0, 8)),
    (slice(0, SIDE), slice(16, 17), slice(0, SIDE)),
    (slice(SIDE - 16, SIDE), slice(SIDE - 16, SIDE), slice(SIDE - 16, SIDE)),
    (slice(5, 5), slice(0, SIDE), slice(0, SIDE)),  # empty
]


def _distinct_tiles(path, regions):
    index = repro.read_header(path)
    return {i for r in regions
            for i in index.region_tiles(api.normalize_region(r, index.shape))}


# ---------------------------------------------------------------------------
# TileCache unit behaviour
# ---------------------------------------------------------------------------

class TestTileCache:
    def test_lru_eviction_by_bytes(self):
        cache = TileCache(max_bytes=3 * 80)  # three 10-float64 arrays
        arrs = {k: np.full(10, k, dtype=np.float64) for k in range(4)}
        for k in range(3):
            cache.put(k, arrs[k])
        assert len(cache) == 3 and cache.nbytes == 240
        cache.get(0)           # 0 becomes most recently used
        cache.put(3, arrs[3])  # evicts 1 (least recently used), not 0
        assert 0 in cache and 3 in cache and 1 not in cache
        assert cache.evictions == 1 and cache.nbytes == 240

    def test_oversized_entry_served_but_not_cached(self):
        cache = TileCache(max_bytes=8)
        big = np.zeros(100)
        got = cache.get_or_load("k", lambda: big)
        assert np.array_equal(got, big)
        assert cache.loads == 1                      # the loader did run...
        assert len(cache) == 0 and cache.nbytes == 0  # ...nothing resident

    def test_zero_budget_caches_nothing(self):
        cache = TileCache(max_bytes=0)
        calls = []
        for _ in range(2):
            cache.get_or_load("k", lambda: (calls.append(1), np.ones(4))[1])
        assert len(calls) == 2 and len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            TileCache(max_bytes=-1)

    def test_entries_are_frozen(self):
        cache = TileCache()
        arr = cache.get_or_load("k", lambda: np.ones(4))
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2.0

    def test_single_flight_under_contention(self):
        """Two threads racing on one key run the loader exactly once."""
        cache = TileCache()
        loader_entered = threading.Event()
        release_loader = threading.Event()
        loads = []

        def loader():
            loads.append(threading.get_ident())
            loader_entered.set()
            assert release_loader.wait(5)
            return np.arange(8.0)

        with ThreadPoolExecutor(max_workers=2) as pool:
            f1 = pool.submit(cache.get_or_load, "k", loader)
            assert loader_entered.wait(5)       # owner is inside the loader
            f2 = pool.submit(cache.get_or_load, "k", loader)
            release_loader.set()
            a1, a2 = f1.result(5), f2.result(5)
        assert len(loads) == 1                  # one decode, shared result
        assert a1 is a2
        assert cache.loads == 1 and cache.hits >= 1

    def test_failed_load_not_cached_and_propagates_to_waiters(self):
        cache = TileCache()
        loader_entered = threading.Event()
        release_loader = threading.Event()

        def failing():
            loader_entered.set()
            assert release_loader.wait(5)
            raise ValueError("corrupt archive: synthetic")

        with ThreadPoolExecutor(max_workers=2) as pool:
            f1 = pool.submit(cache.get_or_load, "k", failing)
            assert loader_entered.wait(5)
            f2 = pool.submit(cache.get_or_load, "k", failing)
            release_loader.set()
            for f in (f1, f2):
                with pytest.raises(ValueError, match="corrupt"):
                    f.result(5)
        # The key is clean again: a subsequent good load succeeds.
        got = cache.get_or_load("k", lambda: np.ones(2))
        assert np.array_equal(got, np.ones(2)) and "k" in cache

    def test_stats_snapshot(self):
        cache = TileCache()
        cache.get_or_load("a", lambda: np.ones(4))
        cache.get_or_load("a", lambda: np.ones(4))
        stats = cache.stats()
        assert stats["loads"] == 1 and stats["hits"] == 1
        assert stats["misses"] == 1 and stats["entries"] == 1
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_get_resident_is_all_or_nothing(self):
        cache = TileCache(max_bytes=3 * 80)
        arrs = {k: np.full(10, k, dtype=np.float64) for k in range(4)}
        for k in range(3):
            cache.put(k, arrs[k])
        assert cache.get_resident([0, 3]) is None  # 3 missing: nothing counted
        assert cache.hits == 0 and cache.misses == 0
        got = cache.get_resident([1, 0])
        assert [a[0] for a in got] == [1, 0] and cache.hits == 2
        cache.put(3, arrs[3])  # 2 is now least recently used, not 0 or 1
        assert 2 not in cache and 0 in cache and 1 in cache

    def test_get_resident_never_waits_on_an_inflight_load(self):
        cache = TileCache()
        entered, release = threading.Event(), threading.Event()

        def loader():
            entered.set()
            assert release.wait(5)
            return np.ones(4)

        with ThreadPoolExecutor(max_workers=1) as pool:
            owner = pool.submit(cache.get_or_load, "k", loader)
            assert entered.wait(5)
            assert cache.get_resident(["k"]) is None  # in flight != resident
            release.set()
            owner.result(5)
        assert cache.get_resident(["k"]) is not None
        assert cache.misses == 1 and cache.loads == 1 and cache.hits == 1


# ---------------------------------------------------------------------------
# ArchiveStore behaviour
# ---------------------------------------------------------------------------

class TestArchiveStore:
    def test_reads_bit_identical_to_cold_path(self, grid_path):
        with ArchiveStore() as store:
            store.add("g", grid_path)
            for region in REGIONS:
                want = repro.read_region(grid_path, region)
                got = store.read_region("g", region)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), region

    def test_string_regions_and_out(self, grid_path):
        with ArchiveStore() as store:
            store.add("g", grid_path)
            want = repro.read_region(grid_path, "10:20,0:48,5:9")
            got = store.read_region("g", "10:20,0:48,5:9")
            assert np.array_equal(got, want)
            out = np.empty(want.shape, dtype=np.float64)
            assert store.read_region("g", "10:20,0:48,5:9", out=out) is out
            assert np.array_equal(out, want)
            with pytest.raises(ValueError, match="out has shape"):
                store.read_region("g", "10:20,0:48,5:9",
                                  out=np.empty((1, 1, 1)))

    def test_header_parsed_once_per_add(self, grid_path, monkeypatch):
        parses = []
        real = container.parse_front

        def counting(front):
            parses.append(1)
            return real(front)

        monkeypatch.setattr(container, "parse_front", counting)
        with ArchiveStore() as store:
            store.add("g", grid_path)
            assert len(parses) == 1
            for region in REGIONS[:4]:
                store.read_region("g", region)
            assert len(parses) == 1  # reads never re-parse the header

    def test_tiles_decode_once_across_repeats(self, grid_path):
        with ArchiveStore() as store:
            store.add("g", grid_path)
            for _ in range(3):
                for region in REGIONS:
                    store.read_region("g", region)
            distinct = _distinct_tiles(grid_path, REGIONS)
            assert store.stats()["tile_decodes"] == len(distinct)

    def test_read_resident_only_when_every_tile_is_cached(self, grid_path):
        with ArchiveStore() as store:
            store.add("g", grid_path)
            cold = store.stats()
            # Cold, then partly resident: declined with no counter moved.
            assert store.read_resident("g", REGIONS[1], 1 << 20) is None
            store.read_region("g", REGIONS[0])
            before = store.stats()
            assert store.read_resident("g", REGIONS[1], 1 << 20) is None
            assert store.stats() == before
            assert before["tile_decodes"] > cold["tile_decodes"]
            for region in REGIONS:
                want, want_info = store.read_region_with_info("g", region)
                stats = store.stats()
                got, info = store.read_resident("g", region, 1 << 20)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert info == want_info
                after = store.stats()
                assert after["tile_decodes"] == stats["tile_decodes"]
                assert after["region_reads"] == stats["region_reads"] + 1
            # Over the byte budget: declined even though resident.
            nbytes = 12 * 12 * 12 * 8
            assert store.read_resident("g", REGIONS[0], nbytes - 1) is None
            assert store.read_resident("g", REGIONS[0], nbytes) is not None
            with pytest.raises(KeyError):
                store.read_resident("nope", REGIONS[0], 1 << 20)
            with pytest.raises(ValueError, match="4 axes"):
                store.read_resident("g", "0:2,0:2,0:2,0:2", 1 << 20)

    def test_read_regions_batched_dedupes(self, grid_path):
        with ArchiveStore() as store:
            store.add("g", grid_path)
            results = store.read_regions("g", list(REGIONS))
            for region, got in zip(REGIONS, results):
                assert np.array_equal(got, repro.read_region(grid_path, region))
            distinct = _distinct_tiles(grid_path, REGIONS)
            assert store.stats()["tile_decodes"] == len(distinct)
            # Accepts string specs too, preserving order.
            a, b = store.read_regions("g", ["0:4,0:4,0:4", "4:8,:,:"])
            assert a.shape == (4, 4, 4) and b.shape == (4, SIDE, SIDE)

    def test_bytes_source_and_v1_v2_archives(self, field, grid_blob):
        v1 = api.compress(field[:8, :8, :8], codec=CODEC, bound=BOUND)
        v2 = api.compress_chunked(field, codec=CODEC, bound=BOUND,
                                  chunk_size=SIDE * SIDE * 4)
        with ArchiveStore() as store:
            store.add("grid", grid_blob)   # bytes source, no file involved
            store.add("v1", v1)
            store.add("v2", v2)
            region = (slice(2, 7), slice(0, 8), slice(1, 3))
            assert np.array_equal(store.read_region("grid", region),
                                  repro.read_region(grid_blob, region))
            assert np.array_equal(store.read_region("v1", region),
                                  repro.read_region(v1, region))
            assert np.array_equal(store.read_region("v2", region),
                                  repro.read_region(v2, region))
            # v1 has one logical tile: repeats decode it exactly once.
            store.read_region("v1", (slice(0, 3),))
            assert store.info("v1").shape == (8, 8, 8)

    def test_empty_region_shape_and_dtype(self, grid_path):
        with ArchiveStore() as store:
            store.add("g", grid_path)
            got = store.read_region("g", (slice(5, 5),))
            assert got.shape == (0, SIDE, SIDE)
            assert got.dtype == np.float64
            assert store.stats()["tile_decodes"] == 0

    def test_key_management(self, grid_path):
        store = ArchiveStore()
        store.add("g", grid_path)
        with pytest.raises(ValueError, match="already registered"):
            store.add("g", grid_path)
        with pytest.raises(ValueError, match="non-empty string"):
            store.add("", grid_path)
        with pytest.raises(ValueError, match="must not contain '/'"):
            store.add("a/b", grid_path)
        with pytest.raises(KeyError, match="no archive registered"):
            store.read_region("nope", (slice(0, 1),))
        with pytest.raises(KeyError, match="no archive registered"):
            store.remove("nope")
        assert store.keys() == ("g",)
        store.remove("g")
        assert store.keys() == ()
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.add("g", grid_path)
        with pytest.raises(ValueError, match="closed"):
            store.read_region("g", (slice(0, 1),))

    def test_remove_purges_cached_tiles(self, grid_path):
        cache = TileCache()
        with ArchiveStore(cache=cache) as store:
            store.add("g", grid_path)
            store.read_region("g", REGIONS[2])
            assert len(cache) > 0 and cache.nbytes > 0
            store.remove("g")
            # The dead archive's tiles free immediately, not by slow eviction.
            assert len(cache) == 0 and cache.nbytes == 0

    def test_close_purges_cached_tiles_per_store(self, grid_blob):
        cache = TileCache()
        s1, s2 = ArchiveStore(cache=cache), ArchiveStore(cache=cache)
        s1.add("x", grid_blob)
        s2.add("x", grid_blob)
        s1.read_region("x", REGIONS[0])
        s2.read_region("x", REGIONS[0])
        before = len(cache)
        s1.close()
        assert 0 < len(cache) < before  # s1's tiles gone, s2's intact
        want = repro.read_region(grid_blob, REGIONS[0])
        assert np.array_equal(s2.read_region("x", REGIONS[0]), want)
        s2.close()
        assert len(cache) == 0

    def test_add_rejects_junk_before_registering(self, tmp_path):
        bad = tmp_path / "junk.rpra"
        bad.write_bytes(b"not an archive at all")
        store = ArchiveStore()
        with pytest.raises(ValueError, match="corrupt archive"):
            store.add("bad", str(bad))
        assert store.keys() == ()  # nothing half-registered
        with pytest.raises(TypeError, match="bytes or a path"):
            store.add("bad", 12345)

    def test_shared_cache_no_cross_archive_aliasing(self, field):
        """Two archives with identical content in one cache stay distinct."""
        a = api.compress_chunked(field, codec=CODEC, bound=BOUND,
                                 chunk_shape=(TILE, TILE, TILE))
        cache = TileCache()
        with ArchiveStore(cache=cache) as s1, ArchiveStore(cache=cache) as s2:
            s1.add("x", a)
            s2.add("x", a)
            region = (slice(0, 8), slice(0, 8), slice(0, 8))
            r1 = s1.read_region("x", region)
            r2 = s2.read_region("x", region)
            assert np.array_equal(r1, r2)
            # Same bytes, but entry-scoped keys: two residencies, two decodes.
            assert cache.loads == 2

    def test_small_cache_still_correct_under_eviction(self, grid_path, field):
        # Budget of ~2 tiles: constant eviction churn, results still exact.
        with ArchiveStore(cache_bytes=2 * TILE ** 3 * 8) as store:
            store.add("g", grid_path)
            for region in REGIONS:
                got = store.read_region("g", region)
                assert np.array_equal(got, repro.read_region(grid_path, region))
            stats = store.stats()
            assert stats["evictions"] > 0  # the budget actually bit
            assert stats["tile_decodes"] > len(_distinct_tiles(grid_path,
                                                               REGIONS))


# ---------------------------------------------------------------------------
# The acceptance stress test
# ---------------------------------------------------------------------------

class TestConcurrencyStress:
    N_THREADS = 8
    ROUNDS = 3

    def test_hammering_threads_bit_identical_and_single_decode(self, grid_path):
        """N threads x mixed overlapping regions == cold reads, decode-counted.

        Every thread walks the region set several times from a different
        starting offset, so at any moment different threads want overlapping
        tile sets — the worst case for double-decode and torn-read bugs.
        With a cache comfortably larger than the working set, the proof
        obligation is exact: total tile decodes == distinct tiles touched.
        """
        cold = [repro.read_region(grid_path, r) for r in REGIONS]
        with ArchiveStore() as store:
            store.add("g", grid_path)
            errors = []

            def worker(k: int):
                try:
                    for round_ in range(self.ROUNDS):
                        order = list(range(len(REGIONS)))
                        offset = (k + round_) % len(REGIONS)
                        order = order[offset:] + order[:offset]
                        for j in order:
                            got = store.read_region("g", REGIONS[j])
                            if not np.array_equal(got, cold[j]):
                                errors.append(
                                    f"thread {k} region {j} diverged")
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(f"thread {k} raised {exc!r}")

            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(self.N_THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "stress worker deadlocked"
            assert not errors, errors

            distinct = _distinct_tiles(grid_path, REGIONS)
            stats = store.stats()
            # The decode-counter proof: 8 threads x 3 rounds x 7 regions hit
            # every tile many times, but each decoded at most once while
            # cache-resident (here: exactly once, nothing was evicted).
            assert stats["evictions"] == 0
            assert stats["tile_decodes"] == len(distinct)
            assert stats["region_reads"] == (self.N_THREADS * self.ROUNDS
                                             * len(REGIONS))

    def test_concurrent_batched_reads(self, grid_path):
        cold = [repro.read_region(grid_path, r) for r in REGIONS]
        with ArchiveStore() as store:
            store.add("g", grid_path)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(store.read_regions, "g", list(REGIONS))
                           for _ in range(4)]
                for f in futures:
                    for want, got in zip(cold, f.result(timeout=120)):
                        assert np.array_equal(got, want)
            assert store.stats()["tile_decodes"] == len(
                _distinct_tiles(grid_path, REGIONS))

    def test_remove_while_reading_defers_handle_close(self, grid_path):
        """remove() during an in-flight read must not yank the fd away."""
        with ArchiveStore() as store:
            store.add("g", grid_path)
            entry = store._entry("g")
            entry.unpin()
            real_read = entry.handle.read_at
            started, release = threading.Event(), threading.Event()

            def slow_read(offset, length):
                started.set()
                assert release.wait(10)
                return real_read(offset, length)

            entry.handle.read_at = slow_read
            result = {}

            def reader():
                result["arr"] = store.read_region("g", REGIONS[0])

            t = threading.Thread(target=reader)
            t.start()
            assert started.wait(10)          # reader is inside the tile I/O
            store.remove("g")                # retire mid-read: close deferred
            release.set()
            t.join(timeout=30)
            assert not t.is_alive()
            assert np.array_equal(result["arr"],
                                  repro.read_region(grid_path, REGIONS[0]))
            # The last unpin really did close the descriptor...
            assert entry.handle._fd == -1
            # ...and the key is gone for new reads.
            with pytest.raises(KeyError, match="no archive registered"):
                store.read_region("g", REGIONS[0])

    def test_concurrent_adds_and_reads(self, grid_blob):
        """Registering archives while other threads read stays consistent."""
        with ArchiveStore() as store:
            store.add("k0", grid_blob)
            want = repro.read_region(grid_blob, REGIONS[0])

            def reader():
                for _ in range(10):
                    assert np.array_equal(
                        store.read_region("k0", REGIONS[0]), want)

            def adder(k):
                store.add(f"extra{k}", grid_blob)

            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = ([pool.submit(reader) for _ in range(3)]
                           + [pool.submit(adder, k) for k in range(3)])
                for f in futures:
                    f.result(timeout=120)
            assert store.keys() == ("extra0", "extra1", "extra2", "k0")


# ---------------------------------------------------------------------------
# Threaded in-store tile decode (read_region(decode_workers=N))
# ---------------------------------------------------------------------------

class TestThreadedDecode:
    """``decode_workers > 1`` fans independent tile decodes over a bounded
    pool; everything observable — bytes, dtype, counters, failure scope —
    must match the serial path exactly."""

    def test_workers_bit_identical_and_single_decode(self, grid_path):
        cold = [repro.read_region(grid_path, r) for r in REGIONS]
        for workers in (2, 4, 7):
            with ArchiveStore() as store:
                store.add("g", grid_path)
                for j, region in enumerate(REGIONS):
                    got = store.read_region("g", region,
                                            decode_workers=workers)
                    assert got.dtype == cold[j].dtype
                    assert np.array_equal(got, cold[j]), (workers, region)
                stats = store.stats()
                # Single-flight holds under the pool: the 27-tile sweep
                # decodes each distinct tile exactly once per residency.
                assert stats["evictions"] == 0
                assert stats["tile_decodes"] == len(
                    _distinct_tiles(grid_path, REGIONS))
                assert stats["region_reads"] == len(REGIONS)

    def test_batched_and_out_paths_with_workers(self, grid_path):
        cold = [repro.read_region(grid_path, r) for r in REGIONS]
        with ArchiveStore() as store:
            store.add("g", grid_path)
            results = store.read_regions("g", list(REGIONS), decode_workers=4)
            for want, got in zip(cold, results):
                assert np.array_equal(got, want)
            assert store.stats()["tile_decodes"] == len(
                _distinct_tiles(grid_path, REGIONS))
            out = np.empty(cold[0].shape, dtype=cold[0].dtype)
            assert store.read_region("g", REGIONS[0], out=out,
                                     decode_workers=3) is out
            assert np.array_equal(out, cold[0])

    def test_invalid_worker_count_rejected(self, grid_path):
        with ArchiveStore() as store:
            store.add("g", grid_path)
            with pytest.raises(ValueError, match="decode_workers"):
                store.read_region("g", REGIONS[0], decode_workers=0)
            with pytest.raises(ValueError, match="decode_workers"):
                store.read_regions("g", [REGIONS[1]], decode_workers=-1)

    def test_hammering_threads_each_with_worker_pools(self, grid_path):
        """N caller threads x per-call decode pools: nested parallelism is
        the worst case for the single-flight cache — decode counts must
        still collapse to one per distinct tile."""
        cold = [repro.read_region(grid_path, r) for r in REGIONS]
        with ArchiveStore() as store:
            store.add("g", grid_path)
            errors = []

            def worker(k: int):
                try:
                    for round_ in range(2):
                        for j, region in enumerate(REGIONS):
                            workers = 1 + (k + j + round_) % 4
                            got = store.read_region(
                                "g", region, decode_workers=workers)
                            if not np.array_equal(got, cold[j]):
                                errors.append(
                                    f"thread {k} region {j} diverged")
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(f"thread {k} raised {exc!r}")

            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "threaded-decode worker deadlocked"
            assert not errors, errors
            stats = store.stats()
            assert stats["evictions"] == 0
            assert stats["tile_decodes"] == len(
                _distinct_tiles(grid_path, REGIONS))
            assert stats["region_reads"] == 6 * 2 * len(REGIONS)

    def _corrupt_tile(self, path: str, tile: int):
        """Flip one byte inside tile ``tile``'s blob; return its slices."""
        index = repro.read_header(path)
        offset = (index.data_start + index.offsets[tile]
                  + index.lengths[tile] // 2)
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0xFF]))
        return index.tile_slices(tile)

    def test_corrupt_tile_failure_scoped_under_workers(self, grid_path):
        victim = 13  # the interior (1,1,1) tile
        self._corrupt_tile(grid_path, victim)
        whole = (slice(0, SIDE), slice(0, SIDE), slice(0, SIDE))
        good = (slice(0, 8), slice(0, 8), slice(0, 8))
        with ArchiveStore() as store:
            store.add("g", grid_path)
            # A pooled multi-tile read crossing the victim raises the same
            # scoped error as the serial path...
            with pytest.raises(ValueError, match="checksum mismatch"):
                store.read_region("g", whole, decode_workers=4)
            # ...the failure is not cached (it fails again, identically)...
            with pytest.raises(ValueError, match="checksum mismatch"):
                store.read_region("g", whole, decode_workers=4)
            # ...and regions avoiding the victim keep serving bit-identical
            # results, including the healthy siblings decoded by the failed
            # pooled read (now cache-resident).
            assert np.array_equal(
                store.read_region("g", good, decode_workers=4),
                repro.read_region(grid_path, good))
            for region in REGIONS[:1] + REGIONS[3:]:
                if victim in _distinct_tiles(grid_path, [region]):
                    continue
                assert np.array_equal(
                    store.read_region("g", region, decode_workers=3),
                    repro.read_region(grid_path, region)), region

    def test_earliest_failing_tile_raised_deterministically(self, grid_path):
        """With several corrupt tiles in one pooled read, the error raised is
        the lowest-numbered failing tile's — same as serial iteration."""
        slices_a = self._corrupt_tile(grid_path, 4)
        self._corrupt_tile(grid_path, 22)
        whole = (slice(0, SIDE), slice(0, SIDE), slice(0, SIDE))
        serial_msg = pooled_msg = None
        with ArchiveStore() as store:
            store.add("g", grid_path)
            try:
                store.read_region("g", whole)
            except ValueError as exc:
                serial_msg = str(exc)
        with ArchiveStore() as store:
            store.add("g", grid_path)
            for _ in range(3):  # pool scheduling must not reorder the raise
                try:
                    store.read_region("g", whole, decode_workers=4)
                except ValueError as exc:
                    pooled_msg = str(exc)
                assert pooled_msg == serial_msg
            # Tile 4's region is the one that fails on a direct read too.
            with pytest.raises(ValueError, match="checksum mismatch"):
                store.read_region("g", tuple(
                    slice(s.start + 1, s.stop - 1) for s in slices_a),
                    decode_workers=2)

    def test_failed_batch_counts_and_raises_earliest_stored_tile(
            self, grid_path):
        """A read that fails in decode still counts its regions, and a batch
        raises its earliest failing tile in storage order, not in the order
        its regions name the tiles."""
        self._corrupt_tile(grid_path, 4)
        last = self._corrupt_tile(grid_path, 22)  # listed first below
        whole = (slice(0, SIDE), slice(0, SIDE), slice(0, SIDE))
        for workers in (1, 4):
            with ArchiveStore() as store:
                store.add("g", grid_path)
                with pytest.raises(ValueError, match="tile 4 checksum"):
                    store.read_regions("g", [last, whole],
                                       decode_workers=workers)
                assert store.stats()["region_reads"] == 2
