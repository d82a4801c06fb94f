"""One counter mechanism: ``Counters`` and the views built on it.

The tile cache, the store and the byte sources all count through
:class:`repro.utils.concurrency.Counters`; ``stats()``, ``remote_stats()``,
``bytes_read``, ``/healthz`` and ``/metrics`` are read-only views of it.  The
fixed point is what those views report: ``test_views_report_the_pinned_values``
runs one scripted sequence of reads and compares every view, key for key and
value for value, with numbers recorded before the counters moved onto
``Counters``.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.sources import BytesByteSource, CachingByteSource, FileByteSource, HttpByteSource
from repro.store import ArchiveStore, make_server
from repro.utils.concurrency import Counters

SIDE, TILE = 32, 8  # 4 x 4 tiles of 512 float64 bytes each


class TestCounters:
    def test_add_and_snapshot(self):
        counters = Counters(("a", "b"))
        counters.add("a")
        counters.add("b", 5)
        counters.add("a", 2)
        assert counters.snapshot() == {"a": 3, "b": 5}

    def test_snapshot_is_a_copy(self):
        counters = Counters(("a",))
        snap = counters.snapshot()
        counters.add("a")
        assert snap == {"a": 0}

    def test_undeclared_name_raises(self):
        counters = Counters(("a",))
        with pytest.raises(KeyError):
            counters.add("typo")
        assert counters.snapshot() == {"a": 0}

    def test_no_increment_is_lost_across_threads(self):
        counters = Counters(("n",))

        def bump(_):
            for _ in range(2000):
                counters.add("n")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid read-modify-write
        try:
            with ThreadPoolExecutor(8) as pool:
                list(pool.map(bump, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert counters.snapshot() == {"n": 8 * 2000}


# ---------------------------------------------------------------------------
# The fixed point: every view, after one scripted sequence
# ---------------------------------------------------------------------------

def _serve(store, kind):
    server = make_server(store, server=kind)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _get(conn, target):
    conn.request("GET", target)
    resp = conn.getresponse()
    return resp.status, resp.read()


def _scripted_views(tmp_path):
    """Run the script, return every counter view by name.

    File key ``f``: a cold read, the same region warm, a partly resident
    one, a batch, and a cold read that evicts.  URL key ``u`` (another
    node's ``/archive`` route) through the disk spill: cold, then
    spill-warm.  Then ``/healthz`` and ``/metrics`` after two more reads
    over HTTP, a local-only store, and the four byte sources on their own.
    """
    rng = np.random.default_rng(7)
    field = rng.standard_normal((SIDE, SIDE)).cumsum(axis=0)
    blob = repro.compress_chunked(field, codec="szinterp", bound=1e-3,
                                  chunk_shape=(TILE, TILE))
    path = tmp_path / "f.rpra"
    path.write_bytes(blob)
    views = {}

    origin = ArchiveStore()
    origin.add("k", blob)
    origin_server, origin_thread = _serve(origin, "threaded")
    url = f"{origin_server.url}/v1/k/archive"
    try:
        # 6 tiles fit: the full-field read below evicts.
        with ArchiveStore(cache_bytes=6 * TILE * TILE * 8,
                          spill_dir=tmp_path / "spill") as store:
            store.add("f", str(path))
            store.read_region("f", "0:8,0:16")              # cold: 2 tiles
            store.read_region("f", "0:8,0:16")              # warm
            store.read_region("f", "4:12,0:16")             # partly resident
            store.read_regions("f", ["0:8,0:8", "8:16,8:16"])
            store.add("u", url)
            store.read_region("u", "0:16,0:8")
            store.read_region("u", "0:16,0:8")              # tile-cache warm
            store.cache.clear()
            store.read_region("u", "0:16,0:8")              # spill-warm
            store.read_region("f", ":,:")                   # evicts
            views["cache.stats"] = store.cache.stats()
            views["cache.attrs"] = {name: getattr(store.cache, name)
                                    for name in ("hits", "misses", "loads",
                                                 "evictions")}
            views["store.stats"] = store.stats()
            views["store.remote_stats"] = store.remote_stats()

            server, thread = _serve(store, "selectors")
            conn = http.client.HTTPConnection(*server.server_address,
                                              timeout=30)
            try:
                assert _get(conn, "/v1/f/region?r=16:24,0:8")[0] == 200
                assert _get(conn, "/v1/f/region?r=16:24,0:8")[0] == 200
                assert _get(conn, "/v1/f/region?r=bogus")[0] == 400
                views["healthz"] = json.loads(_get(conn, "/healthz")[1])
                metrics = json.loads(_get(conn, "/metrics")[1])
            finally:
                conn.close()
                _stop(server, thread)
            # Latency figures vary run to run; the counts do not.
            metrics["routes"] = {
                route: {"requests": row["requests"], "errors": row["errors"]}
                for route, row in metrics["routes"].items()}
            views["metrics"] = metrics

        with ArchiveStore() as local:
            local.add("f", str(path))
            local.read_region("f", "0:8,0:8")
            views["local.remote_stats"] = local.remote_stats()

        with HttpByteSource(url) as http_src:
            repro.read_region(http_src, "8:24,8:16")
            views["http.stats"] = http_src.stats()
        with CachingByteSource(HttpByteSource(url),
                               tmp_path / "spill2") as spill_src:
            repro.read_region(spill_src, "8:24,8:16")
            repro.read_region(spill_src, "8:24,8:16")
            views["spill.stats"] = spill_src.stats()
        with FileByteSource(str(path)) as file_src:
            repro.read_region(file_src, "8:24,8:16")
            views["file.bytes_read"] = file_src.bytes_read
        bytes_src = BytesByteSource(blob)
        repro.read_region(bytes_src, "8:24,8:16")
        bytes_src.read_all()
        views["bytes.bytes_read"] = bytes_src.bytes_read
    finally:
        _stop(origin_server, origin_thread)
        origin.close()
    return views


def test_views_report_the_pinned_values(tmp_path):
    assert _scripted_views(tmp_path) == PINNED


_CACHE = {"entries": 6, "max_bytes": 3072, "nbytes": 3072}
_REMOTE = {"sources": 1, "range_requests": 5, "retried": 0,
           "bytes_fetched": 1973, "spill_hits": 2, "spill_misses": 4,
           "spill_evictions": 0, "spill_bytes_written": 1972}
_HTTP = {"range_requests": 5, "retried": 0, "bytes_fetched": 1987}

#: What the views reported for this script before the move to ``Counters``.
PINNED = {
    "cache.stats": {**_CACHE, "hits": 8, "misses": 24, "loads": 24,
                    "evictions": 12},
    "cache.attrs": {"hits": 8, "misses": 24, "loads": 24, "evictions": 12},
    "store.stats": {**_CACHE, "hits": 8, "misses": 24, "loads": 24,
                    "evictions": 12, "tile_decodes": 24, "region_reads": 9,
                    "archives": 2},
    "store.remote_stats": _REMOTE,
    # Two HTTP region reads later: one cold tile (pool), one warm (inline).
    "healthz": {"status": "ok", "archives": ["f", "u"],
                "stats": {**_CACHE, "hits": 9, "misses": 25, "loads": 25,
                          "evictions": 13, "tile_decodes": 25,
                          "region_reads": 11, "archives": 2}},
    "metrics": {"cache": {**_CACHE, "hits": 9, "misses": 25, "loads": 25,
                          "evictions": 13},
                "tile_decodes": 25, "region_reads": 11, "archives": 2,
                "routes": {"region": {"requests": 3, "errors": 1},
                           "healthz": {"requests": 1, "errors": 0}},
                "writable": False, "remote": _REMOTE},
    "local.remote_stats": dict.fromkeys(_REMOTE, 0),
    "http.stats": _HTTP,
    "spill.stats": {**_HTTP, "spill_hits": 4, "spill_misses": 4,
                    "spill_evictions": 0, "spill_bytes_written": 1986,
                    "spill_nbytes": 1986, "spill_entries": 4},
    "file.bytes_read": 1986,
    "bytes.bytes_read": 13670,
}
