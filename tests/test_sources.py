"""The ByteSource seam: HTTP range reads, retry/backoff, spill cache, node-to-node reads.

Acceptance (ISSUE 10): ``repro.read_region(url, region)`` and an
``ArchiveStore`` entry backed by :class:`HttpByteSource` return bytes
bit-identical to local decode of the same archive, under injected transient
faults, with only O(header + region tiles) bytes fetched.

Everything runs against an in-process stdlib range server with a fault
queue — no external network.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro import api
from repro.encoding.container import FRONT_PREFIX
from repro.sources import (
    BytesByteSource,
    CachingByteSource,
    FileByteSource,
    HttpByteSource,
    HttpSourceError,
    RetryPolicy,
    is_url,
    open_source,
)
from repro.sources.http import parse_content_range
from repro.store import ArchiveStore, make_server

BOUND = 1e-3
CODEC = "szinterp"
SIDE, TILE = 32, 8  # 4x4 = 16 tiles


def fast_retry(attempts: int = 4) -> RetryPolicy:
    return RetryPolicy(attempts, sleep=lambda _s: None)


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(11)
    return rng.standard_normal((SIDE, SIDE)).cumsum(axis=0)


@pytest.fixture(scope="module")
def grid_blob(field):
    return api.compress_chunked(field, codec=CODEC, bound=BOUND,
                                chunk_shape=(TILE, TILE))


@pytest.fixture(scope="module")
def chunked_blob(field):
    return api.compress_chunked(field, codec=CODEC, bound=BOUND,
                                chunk_size=TILE * SIDE)


@pytest.fixture(scope="module")
def v1_blob(field):
    return repro.compress(field, codec=CODEC, bound=BOUND)


REGION = (slice(3, 13), slice(5, 21))  # crosses tile boundaries both ways


# ---------------------------------------------------------------------------
# The in-process range server with fault injection
# ---------------------------------------------------------------------------

class _RangeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        server = self.server
        with server.lock:
            server.requests.append((self.path, self.headers.get("Range")))
            fault = server.faults.pop(0) if server.faults else None
        blob = server.files.get(self.path)
        if blob is None:
            self._send_status(404, b"not here")
            return
        if fault == "503":
            self._send_status(503, b"try later")
            return
        if fault == "drop":
            # Die before any response bytes: the client sees a reset/EOF.
            self.close_connection = True
            self.connection.close()
            return
        range_header = self.headers.get("Range")
        if range_header is None or fault == "ignore_range":
            self._send_body(200, blob, {"ETag": '"range-fixture"'})
            return
        try:
            spec = range_header.split("=", 1)[1]
            start_text, end_text = spec.split("-", 1)
            start = int(start_text)
            end = int(end_text) if end_text else len(blob) - 1
        except (IndexError, ValueError):
            self._send_status(400, b"bad range")
            return
        end = min(end, len(blob) - 1)
        if start >= len(blob):
            self._send_status(
                416, b"", {"Content-Range": f"bytes */{len(blob)}"})
            return
        body = blob[start:end + 1]
        headers = {"Content-Range": f"bytes {start}-{end}/{len(blob)}",
                   "ETag": '"range-fixture"'}
        if fault == "bad_content_range":
            headers["Content-Range"] = \
                f"bytes {start + 1}-{end + 1}/{len(blob)}"
        if fault == "short_body":
            # Promise the full range, deliver half, kill the connection.
            self._send_body(206, body, headers, truncate=len(body) // 2)
            self.close_connection = True
            self.connection.close()
            return
        self._send_body(206, body, headers)

    def _send_status(self, code: int, message: bytes, headers=None) -> None:
        self.send_response(code)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(message)))
        self.end_headers()
        self.wfile.write(message)

    def _send_body(self, code: int, body: bytes, headers=None,
                   truncate=None) -> None:
        self.send_response(code)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body if truncate is None else body[:truncate])
        self.wfile.flush()

    def log_message(self, fmt, *args) -> None:
        pass


class RangeServer:
    """An in-process HTTP range server with a FIFO fault-injection queue."""

    def __init__(self) -> None:
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _RangeHandler)
        self.httpd.daemon_threads = True
        self.httpd.files = {}
        self.httpd.faults = []
        self.httpd.requests = []
        self.httpd.lock = threading.Lock()
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.base = f"http://{host}:{port}"

    def publish(self, path: str, blob: bytes) -> str:
        with self.httpd.lock:
            self.httpd.files[path] = bytes(blob)
        return self.base + path

    def inject(self, *faults: str) -> None:
        with self.httpd.lock:
            self.httpd.faults.extend(faults)

    def reset(self) -> None:
        with self.httpd.lock:
            self.httpd.faults.clear()
            self.httpd.requests.clear()

    @property
    def request_count(self) -> int:
        with self.httpd.lock:
            return len(self.httpd.requests)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)


@pytest.fixture(scope="module")
def range_server():
    server = RangeServer()
    yield server
    server.close()


@pytest.fixture()
def served(range_server, grid_blob):
    url = range_server.publish("/grid.rpra", grid_blob)
    range_server.reset()
    return url


# ---------------------------------------------------------------------------
# Local sources: dispatch, close(), short-read loop, truncation
# ---------------------------------------------------------------------------

class TestLocalSources:
    def test_open_source_dispatch(self, tmp_path, grid_blob, served):
        path = tmp_path / "a.rpra"
        path.write_bytes(grid_blob)
        assert isinstance(open_source(grid_blob), BytesByteSource)
        assert isinstance(open_source(str(path)), FileByteSource)
        assert isinstance(open_source(path), FileByteSource)
        with open_source(served) as src:
            assert isinstance(src, HttpByteSource)
        existing = BytesByteSource(grid_blob)
        assert open_source(existing) is existing
        with pytest.raises(TypeError, match="bytes or a path"):
            open_source(12345)

    def test_is_url(self):
        assert is_url("http://x/y.rpra") and is_url("https://x/y")
        assert not is_url("/data/http/file.rpra") and not is_url(b"http://")

    def test_file_reader_has_close(self, tmp_path, grid_blob):
        """Regression: the file reader leaked handles for non-with callers."""
        path = tmp_path / "a.rpra"
        path.write_bytes(grid_blob)
        reader = FileByteSource(str(path))
        assert reader.read_at(0, 4) == grid_blob[:4]
        reader.close()
        reader.close()  # idempotent
        with pytest.raises(OSError):
            reader.read_at(0, 4)

    def test_file_reader_short_read_loop(self, tmp_path, grid_blob,
                                         monkeypatch):
        """Regression: one os.pread may return short; the loop must refill."""
        path = tmp_path / "a.rpra"
        path.write_bytes(grid_blob)
        import os as _os
        real_pread = _os.pread
        calls = []

        def dribble(fd, length, offset):
            calls.append(length)
            return real_pread(fd, min(length, 7), offset)

        monkeypatch.setattr("repro.sources.base.os.pread", dribble)
        with FileByteSource(str(path)) as src:
            assert src.read_at(0, 100) == grid_blob[:100]
        assert len(calls) > 1  # the loop actually refilled

    def test_file_reader_is_thread_safe(self, tmp_path, grid_blob):
        path = tmp_path / "a.rpra"
        path.write_bytes(grid_blob)
        with FileByteSource(str(path)) as src:
            def read(seed):
                offset = (seed * 97) % (len(grid_blob) - 64)
                return offset, src.read_at(offset, 64)
            with ThreadPoolExecutor(8) as pool:
                for offset, got in pool.map(read, range(64)):
                    assert got == grid_blob[offset:offset + 64]

    def test_bytes_read_counter_still_works(self, tmp_path, grid_blob):
        path = tmp_path / "a.rpra"
        path.write_bytes(grid_blob)
        with api.open_reader(str(path)) as reader:
            reader.read_at(0, 10)
            reader.read_at(100, 20)
            assert reader.bytes_read == 30

    @pytest.mark.parametrize("cut", [0, 1, 3, 5, FRONT_PREFIX - 1])
    def test_truncated_prefix_bytes(self, grid_blob, cut):
        with pytest.raises(ValueError, match="corrupt archive"):
            api.load_index(api.open_reader(grid_blob[:cut]))

    @pytest.mark.parametrize("cut", [0, 1, 5, FRONT_PREFIX - 1])
    def test_truncated_prefix_file(self, tmp_path, grid_blob, cut):
        path = tmp_path / f"cut{cut}.rpra"
        path.write_bytes(grid_blob[:cut])
        with api.open_reader(str(path)) as reader:
            with pytest.raises(ValueError, match="corrupt archive"):
                api.load_index(reader)

    @pytest.mark.parametrize("cut", [0, 2, 6, FRONT_PREFIX - 1])
    def test_truncated_prefix_http(self, range_server, grid_blob, cut):
        url = range_server.publish(f"/cut{cut}.rpra", grid_blob[:cut])
        with HttpByteSource(url, retry=fast_retry()) as src:
            with pytest.raises(ValueError, match="corrupt archive"):
                api.load_index(src)

    def test_truncated_mid_header(self, grid_blob):
        # Inside the JSON header (past the fixed prefix): still a clean error.
        with pytest.raises(ValueError, match="corrupt archive"):
            api.load_index(api.open_reader(grid_blob[:FRONT_PREFIX + 3]))


# ---------------------------------------------------------------------------
# HttpByteSource against the fixture server
# ---------------------------------------------------------------------------

class TestHttpByteSource:
    def test_read_region_bit_identical(self, served, grid_blob, field):
        remote = repro.read_region(served, REGION)
        local = repro.read_region(grid_blob, REGION)
        assert remote.dtype == local.dtype
        assert np.array_equal(remote, local)

    def test_v1_and_v2_archives(self, range_server, v1_blob, chunked_blob):
        for name, blob in (("/v1.rpra", v1_blob), ("/v2.rpra", chunked_blob)):
            url = range_server.publish(name, blob)
            assert np.array_equal(repro.read_region(url, REGION),
                                  repro.read_region(blob, REGION))

    def test_o_header_plus_tiles_io(self, served, grid_blob, range_server):
        """Only the front matter + intersecting tiles travel the wire."""
        index = repro.read_header(grid_blob)
        tiles = index.region_tiles(api.normalize_region(REGION, index.shape))
        with HttpByteSource(served, retry=fast_retry()) as src:
            arr = repro.read_region(src, REGION)
        stats = src.stats()
        # prefix + header json + one request per tile (no coalescing yet),
        # plus at most one 1-byte size probe
        assert 2 + len(tiles) <= stats["range_requests"] <= 3 + len(tiles)
        assert stats["retried"] == 0
        tile_bytes = sum(index.lengths[i] for i in tiles)
        header_bytes = index.data_start
        assert stats["bytes_fetched"] <= \
            header_bytes + tile_bytes + FRONT_PREFIX + 1
        assert stats["bytes_fetched"] < len(grid_blob) // 2
        assert np.array_equal(arr, repro.read_region(grid_blob, REGION))

    def test_503_then_succeed(self, served, grid_blob, range_server):
        range_server.inject("503")
        with HttpByteSource(served, retry=fast_retry()) as src:
            assert np.array_equal(repro.read_region(src, REGION),
                                  repro.read_region(grid_blob, REGION))
            assert src.stats()["retried"] == 1

    def test_drop_before_response(self, served, grid_blob, range_server):
        range_server.inject("drop", "503")
        with HttpByteSource(served, retry=fast_retry()) as src:
            assert np.array_equal(repro.read_region(src, REGION),
                                  repro.read_region(grid_blob, REGION))
            assert src.stats()["retried"] == 2

    def test_drop_mid_body(self, served, grid_blob, range_server):
        range_server.inject("short_body")
        with HttpByteSource(served, retry=fast_retry()) as src:
            assert np.array_equal(repro.read_region(src, REGION),
                                  repro.read_region(grid_blob, REGION))
            assert src.stats()["retried"] == 1

    def test_retries_exhausted(self, served, range_server):
        policy = fast_retry(3)
        range_server.inject(*["503"] * 3)
        with HttpByteSource(served, retry=policy) as src:
            with pytest.raises(HttpSourceError, match="after 3 attempts"):
                src.read_at(0, 16)
            assert src.stats()["retried"] == 2  # attempts - 1

    def test_wrong_content_range_is_permanent(self, served, range_server):
        range_server.inject("bad_content_range")
        with HttpByteSource(served, retry=fast_retry()) as src:
            with pytest.raises(HttpSourceError, match="Content-Range"):
                src.read_at(0, 16)
            assert src.stats()["retried"] == 0  # not retried: permanent

    def test_200_fallback_refused(self, served, range_server):
        """A server ignoring Range must NOT trigger a silent full download."""
        range_server.reset()
        range_server.inject("ignore_range")
        with HttpByteSource(served, retry=fast_retry()) as src:
            with pytest.raises(HttpSourceError,
                               match="ignored Range|whole archive"):
                src.read_at(0, 16)
        assert range_server.request_count == 1  # gave up immediately

    def test_read_past_eof_and_416(self, served, grid_blob):
        with HttpByteSource(served, retry=fast_retry()) as src:
            assert src.read_at(len(grid_blob) + 10, 4) == b""
            assert src.size == len(grid_blob)  # learned from the 416
            assert src.read_at(0, 0) == b""

    def test_read_all_roundtrip(self, served, grid_blob):
        with HttpByteSource(served, retry=fast_retry()) as src:
            assert src.read_all() == grid_blob

    def test_content_token_stable(self, served):
        with HttpByteSource(served) as a, HttpByteSource(served) as b:
            assert a.content_token == b.content_token

    def test_closed_source_rejects_reads(self, served):
        src = HttpByteSource(served)
        src.close()
        with pytest.raises(ValueError, match="closed"):
            src.read_at(0, 4)

    def test_bad_urls_rejected(self):
        with pytest.raises(ValueError, match="unsupported archive URL"):
            HttpByteSource("ftp://host/x.rpra")

    def test_parse_content_range(self):
        assert parse_content_range("bytes 0-9/100") == (0, 9, 100)
        assert parse_content_range("bytes 5-5/*") == (5, 5, None)
        for bad in ("bytes */100", "items 0-9/10", "bytes 9-5/10",
                    "bytes 0-10/10", "garbage"):
            with pytest.raises(HttpSourceError):
                parse_content_range(bad)

    def test_retry_policy_backoff_shape(self):
        policy = RetryPolicy(5, base_delay=0.1, max_delay=0.4, jitter=0.0,
                             sleep=lambda _s: None)
        assert [policy.delay(i) for i in range(4)] == [0.1, 0.2, 0.4, 0.4]
        jittered = RetryPolicy(3, base_delay=1.0, jitter=0.5)
        for _ in range(50):
            assert 0.5 <= jittered.delay(0) <= 1.0
        with pytest.raises(ValueError):
            RetryPolicy(0)


# ---------------------------------------------------------------------------
# CachingByteSource: spill hits, persistence, eviction, single-flight
# ---------------------------------------------------------------------------

class TestSpillCache:
    def test_cold_then_warm(self, served, grid_blob, tmp_path, range_server):
        with CachingByteSource(HttpByteSource(served, retry=fast_retry()),
                               tmp_path / "spill") as src:
            first = repro.read_region(src, REGION)
            after_cold = src.stats()
            assert after_cold["spill_misses"] > 0
            requests_cold = after_cold["range_requests"]
            second = repro.read_region(src, REGION)
            warm = src.stats()
        assert np.array_equal(first, second)
        assert np.array_equal(first, repro.read_region(grid_blob, REGION))
        assert warm["range_requests"] == requests_cold  # no new HTTP traffic
        assert warm["spill_hits"] >= after_cold["spill_misses"]

    def test_persists_across_instances(self, served, tmp_path, grid_blob):
        spill = tmp_path / "spill"
        with CachingByteSource(HttpByteSource(served, retry=fast_retry()),
                               spill) as src:
            repro.read_region(src, REGION)
        with CachingByteSource(HttpByteSource(served, retry=fast_retry()),
                               spill) as src:
            arr = repro.read_region(src, REGION)
            stats = src.stats()
        assert np.array_equal(arr, repro.read_region(grid_blob, REGION))
        # Tile ranges came back from disk; only the probe that resolves the
        # content token (plus the header reads) touched the network.
        assert stats["spill_hits"] > 0
        assert stats["spill_misses"] == 0

    def test_lru_eviction_under_budget(self, tmp_path, grid_blob):
        src = CachingByteSource(BytesByteSource(grid_blob),
                                tmp_path / "spill", max_bytes=64)
        for offset in range(0, 256, 32):
            src.read_at(offset, 32)
        stats = src.stats()
        assert stats["spill_evictions"] >= 6
        assert stats["spill_nbytes"] <= 64
        files = list((tmp_path / "spill").iterdir())
        assert len(files) <= 2

    def test_single_flight(self, served, tmp_path):
        inner = HttpByteSource(served, retry=fast_retry())
        src = CachingByteSource(inner, tmp_path / "spill")
        src.read_at(0, 1)  # resolve size/token before the stampede
        base = inner.stats()["range_requests"]
        barrier = threading.Barrier(8)

        def hammer(_i):
            barrier.wait()
            return src.read_at(4096, 512)

        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(hammer, range(8)))
        assert len({bytes(r) for r in results}) == 1
        assert inner.stats()["range_requests"] == base + 1  # one fetch total
        src.close()

    def test_vanished_file_refetches(self, tmp_path, grid_blob):
        spill = tmp_path / "spill"
        src = CachingByteSource(BytesByteSource(grid_blob), spill)
        first = src.read_at(10, 50)
        for spilled in spill.iterdir():
            spilled.unlink()  # external cleanup under our feet
        assert src.read_at(10, 50) == first
        assert src.stats()["spill_misses"] == 2

    def test_truncated_file_refetches(self, tmp_path, grid_blob):
        spill = tmp_path / "spill"
        src = CachingByteSource(BytesByteSource(grid_blob), spill)
        first = src.read_at(10, 50)
        for spilled in spill.iterdir():
            with open(spilled, "r+b") as f:
                f.truncate(20)  # damaged under our feet: a short file
        assert src.read_at(10, 50) == first
        assert src.stats()["spill_misses"] == 2

    def test_truncated_file_is_not_adopted_on_restart(self, tmp_path,
                                                      grid_blob):
        spill = tmp_path / "spill"
        first = CachingByteSource(BytesByteSource(grid_blob), spill)
        want = first.read_at(10, 50)
        for spilled in spill.iterdir():
            with open(spilled, "r+b") as f:
                f.truncate(20)  # damaged while no process held it
        second = CachingByteSource(BytesByteSource(grid_blob), spill)
        assert second.read_at(10, 50) == want
        stats = second.stats()
        assert (stats["spill_hits"], stats["spill_misses"]) == (0, 1)
        assert stats["spill_nbytes"] == 50
        assert [p.stat().st_size for p in spill.iterdir()] == [50]

    def test_failed_fetch_reaches_every_coalesced_reader(
            self, tmp_path, grid_blob, submit_parked):
        entered, release = threading.Event(), threading.Event()

        class Failing(BytesByteSource):
            calls = 0

            def read_at(self, offset, length):
                Failing.calls += 1
                if Failing.calls > 1:  # the origin has recovered
                    return super().read_at(offset, length)
                entered.set()
                assert release.wait(5)
                raise HttpSourceError("origin down: synthetic")

        spill = tmp_path / "spill"
        src = CachingByteSource(Failing(grid_blob), spill)
        with ThreadPoolExecutor(2) as pool:
            owner = pool.submit(src.read_at, 100, 64)
            assert entered.wait(5)
            waiter = submit_parked(pool, src.read_at, 100, 64)
            release.set()
            for future in (owner, waiter):
                with pytest.raises(HttpSourceError, match="synthetic"):
                    future.result(5)
        assert Failing.calls == 1
        assert list(spill.iterdir()) == []  # nothing spilled, nothing kept
        assert src.read_at(100, 64) == grid_blob[100:164]  # cold, then kept
        assert Failing.calls == 2 and src.stats()["spill_misses"] == 2
        assert len(list(spill.iterdir())) == 1

    def test_requires_token(self, tmp_path):
        class Tokenless:
            size = 4

            def read_at(self, offset, length):
                return b"abcd"[offset:offset + length]

            def read_all(self):
                return b"abcd"

            def close(self):
                pass

        src = CachingByteSource(Tokenless(), tmp_path / "spill")
        with pytest.raises(ValueError, match="content_token"):
            src.read_at(0, 2)
        with_token = CachingByteSource(Tokenless(), tmp_path / "spill",
                                       token="explicit")
        assert with_token.read_at(0, 2) == b"ab"


# ---------------------------------------------------------------------------
# Store + server integration: URLs end to end, /archive route, one node fronting another
# ---------------------------------------------------------------------------

class TestStoreIntegration:
    def test_store_add_url(self, served, grid_blob):
        with ArchiveStore() as store:
            store.add("remote", served)
            local = repro.read_region(grid_blob, REGION)
            assert np.array_equal(store.read_region("remote", REGION), local)
            remote = store.remote_stats()
            assert remote["sources"] == 1
            assert 0 < remote["bytes_fetched"] < len(grid_blob)

    def test_store_url_with_spill(self, served, grid_blob, tmp_path):
        local = repro.read_region(grid_blob, REGION)
        # cache_bytes=0 forces every read through the byte source, so the
        # second pass must be served by the disk spill, not the tile LRU.
        with ArchiveStore(cache_bytes=0, spill_dir=tmp_path / "spill") as store:
            store.add("remote", served)
            assert np.array_equal(store.read_region("remote", REGION), local)
            cold = store.remote_stats()
            assert np.array_equal(store.read_region("remote", REGION), local)
            warm = store.remote_stats()
        assert warm["range_requests"] == cold["range_requests"]
        assert warm["spill_hits"] > cold["spill_hits"]

    def test_store_faulty_url_still_bit_identical(self, served, grid_blob,
                                                  range_server):
        source = HttpByteSource(served, retry=fast_retry())
        with ArchiveStore(cache_bytes=0) as store:
            store.add("remote", source)
            range_server.inject("503", "short_body")
            arr = store.read_region("remote", REGION)
            assert np.array_equal(arr, repro.read_region(grid_blob, REGION))
            assert store.remote_stats()["retried"] == 2

    def test_archive_route_serves_ranges(self, grid_blob):
        with ArchiveStore() as store:
            store.add("k", grid_blob)
            server = make_server(store, server="threaded")
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                url = f"{server.url}/v1/k/archive"
                with HttpByteSource(url, retry=fast_retry()) as src:
                    assert src.size == len(grid_blob)
                    assert src.read_at(10, 64) == grid_blob[10:74]
                    assert src.read_at(len(grid_blob) + 5, 4) == b""
                    assert np.array_equal(
                        repro.read_region(src, REGION),
                        repro.read_region(grid_blob, REGION))
            finally:
                server.shutdown()
                server.server_close()

    def test_one_node_fronts_another(self, grid_blob):
        """Node B serves node A's archive via the /archive byte source."""
        with ArchiveStore() as store_a, ArchiveStore() as store_b:
            store_a.add("k", grid_blob)
            server_a = make_server(store_a, server="threaded")
            thread = threading.Thread(target=server_a.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                store_b.add("k", f"{server_a.url}/v1/k/archive")
                assert np.array_equal(
                    store_b.read_region("k", REGION),
                    repro.read_region(grid_blob, REGION))
                assert store_b.remote_stats()["sources"] == 1
            finally:
                server_a.shutdown()
                server_a.server_close()


# ---------------------------------------------------------------------------
# Client retry/backoff (satellite: push_field / delete_key)
# ---------------------------------------------------------------------------

class TestClientRetry:
    def test_delete_retries_transient_5xx(self, monkeypatch):
        from repro.store import client

        calls = []

        class _Resp:
            def __init__(self, status):
                self.status = status
                self.reason = "x"

            def read(self):
                return b'{"deleted": "k", "generation": 3}' \
                    if self.status == 200 else b'{"error": "busy"}'

        class _Conn:
            def __init__(self):
                self.n = len(calls)

            def request(self, *a, **k):
                calls.append(a)

            def getresponse(self):
                return _Resp(503 if len(calls) == 1 else 200)

            def close(self):
                pass

        monkeypatch.setattr(client, "_connect",
                            lambda url, timeout: (_Conn(), ""))
        payload = client.delete_key("http://x", "k", retry=fast_retry())
        assert payload["deleted"] == "k"
        assert len(calls) == 2  # one 503, one success

    def test_delete_does_not_retry_permanent(self, monkeypatch):
        from repro.store import client

        calls = []

        class _Resp:
            status, reason = 401, "nope"

            def read(self):
                return b'{"error": "token required"}'

        class _Conn:
            def request(self, *a, **k):
                calls.append(a)

            def getresponse(self):
                return _Resp()

            def close(self):
                pass

        monkeypatch.setattr(client, "_connect",
                            lambda url, timeout: (_Conn(), ""))
        with pytest.raises(client.PushError, match="401"):
            client.delete_key("http://x", "k", retry=fast_retry())
        assert len(calls) == 1

    def test_delete_retries_connection_error(self, monkeypatch):
        from repro.store import client

        attempts = []
        real_connect = client._connect

        class _Conn:
            def request(self, *a, **k):
                raise ConnectionResetError("boom")

            def close(self):
                pass

        class _OkConn:
            def request(self, *a, **k):
                pass

            def getresponse(self):
                class _R:
                    status, reason = 200, "OK"

                    def read(self):
                        return b'{"deleted": "k", "generation": 1}'
                return _R()

            def close(self):
                pass

        def flaky(url, timeout):
            attempts.append(1)
            return (_Conn() if len(attempts) == 1 else _OkConn()), ""

        monkeypatch.setattr(client, "_connect", flaky)
        payload = client.delete_key("http://x", "k", retry=fast_retry())
        assert payload["deleted"] == "k"
        assert len(attempts) == 2

    def test_delete_exhausts_attempts(self, monkeypatch):
        from repro.store import client

        class _Conn:
            def request(self, *a, **k):
                raise ConnectionResetError("boom")

            def close(self):
                pass

        monkeypatch.setattr(client, "_connect",
                            lambda url, timeout: (_Conn(), ""))
        with pytest.raises(OSError, match="after 2 attempts"):
            client.delete_key("http://x", "k", retry=fast_retry(2))

    def test_push_retries_connect_only(self, monkeypatch):
        """Connection establishment retries; nothing after body bytes does."""
        from repro.store import client

        connects = []

        class _FailConn:
            def connect(self):
                raise ConnectionRefusedError("not yet")

            def close(self):
                pass

        monkeypatch.setattr(
            client, "_connect",
            lambda url, timeout: (connects.append(1) or _FailConn(), ""))
        field = np.zeros((4, 4), dtype=np.float32)
        with pytest.raises(OSError, match="cannot connect"):
            client.push_field("http://x", "k", field, retry=fast_retry(3))
        assert len(connects) == 3

    def test_push_body_fault_not_retried(self, monkeypatch):
        from repro.store import client

        requests = []

        class _Conn:
            def connect(self):
                pass

            def request(self, *a, **k):
                requests.append(1)
                raise OSError("mid-body failure")

            def close(self):
                pass

        monkeypatch.setattr(client, "_connect",
                            lambda url, timeout: (_Conn(), ""))
        field = np.zeros((4, 4), dtype=np.float32)
        with pytest.raises(OSError, match="mid-body"):
            client.push_field("http://x", "k", field, retry=fast_retry(4))
        assert len(requests) == 1  # never replayed after first body byte
