"""The `repro serve` HTTP endpoint: e2e correctness, errors, corruption scope.

Acceptance (ISSUE 5): an end-to-end test starts ``repro serve`` (the real CLI
subprocess), fetches a region over HTTP and matches ``repro.read_region``
bit-for-bit.  Corruption tests pin the failure scope: a bad tile CRC turns
into an error response on the affected region only, while other regions of
the same archive keep serving.
"""

from __future__ import annotations

import io
import json
import logging
import re
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.store import ArchiveStore, make_server

SRC = Path(__file__).resolve().parents[1] / "src"
CODEC = "szinterp"
BOUND = 1e-3
SIDE, TILE = 48, 16


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(11)
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


@pytest.fixture(params=["threaded", "selectors"])
def server(grid_path, request):
    """An in-process server on an OS-assigned free port, both front ends.

    Every test in this module runs against the threaded fallback AND the
    selectors event loop: the endpoint contract must not depend on the
    transport.
    """
    store = ArchiveStore()
    store.add("field", grid_path)
    srv = make_server(store, server=request.param)  # port=0: never collides
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        store.close()
        thread.join(timeout=10)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _get_error(url: str):
    try:
        urllib.request.urlopen(url, timeout=30)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError(f"{url} unexpectedly succeeded")


def _fetch_region(base: str, key: str, spec: str) -> np.ndarray:
    status, headers, body = _get(f"{base}/v1/{key}/region?r={spec}")
    assert status == 200
    shape = tuple(int(s) for s in headers["X-Repro-Shape"].split(","))
    meta = json.loads(headers["X-Repro-Header"])
    assert meta["shape"] == list(shape) and meta["order"] == "C"
    arr = np.frombuffer(body, dtype=np.dtype(headers["X-Repro-Dtype"]))
    return arr.reshape(shape)


# ---------------------------------------------------------------------------
# In-process endpoint behaviour
# ---------------------------------------------------------------------------

class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200 and payload["status"] == "ok"
        assert payload["archives"] == ["field"]
        assert "hits" in payload["stats"] and "tile_decodes" in payload["stats"]

    def test_info(self, server):
        status, _, body = _get(server.url + "/v1/field/info")
        info = json.loads(body)
        assert status == 200
        assert info["codec"] == CODEC and info["version"] == 3
        assert info["shape"] == [SIDE, SIDE, SIDE]
        assert info["chunk_shape"] == [TILE, TILE, TILE]
        assert info["n_tiles"] == 27

    def test_region_bit_identical_to_read_region(self, server, grid_path):
        for spec in ["10:20,0:64,5:9", "0:48,16:17,:", "30", "2:14,2:14,2:14"]:
            got = _fetch_region(server.url, "field", spec)
            want = repro.read_region(grid_path, spec)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), spec

    def test_empty_region_zero_bytes(self, server):
        status, headers, body = _get(server.url + "/v1/field/region?r=5:5,:,:")
        assert status == 200 and body == b""
        assert headers["X-Repro-Shape"] == f"0,{SIDE},{SIDE}"

    def test_unknown_key_404(self, server):
        code, payload = _get_error(server.url + "/v1/nope/info")
        assert code == 404 and "nope" in payload["error"]
        code, _ = _get_error(server.url + "/v1/nope/region?r=0:1")
        assert code == 404

    def test_unknown_route_404(self, server):
        assert _get_error(server.url + "/v2/field/region?r=0:1")[0] == 404
        assert _get_error(server.url + "/")[0] == 404

    def test_bad_region_400(self, server):
        for spec in ["bogus", "0:10:2,:,:", "-3:5,:,:", "1:2:3:4", "0:1,:,:,:"]:
            code, payload = _get_error(
                server.url + f"/v1/field/region?r={spec}")
            assert code == 400, spec
            assert payload["error"]

    def test_missing_region_param_400(self, server):
        code, payload = _get_error(server.url + "/v1/field/region")
        assert code == 400 and "r=" in payload["error"]

    def test_concurrent_http_reads_consistent(self, server, grid_path):
        specs = ["0:20,0:20,0:20", "10:30,10:30,10:30", "0:48,0:16,0:16"]
        want = {s: repro.read_region(grid_path, s) for s in specs}
        errors = []

        def client(spec):
            try:
                for _ in range(5):
                    if not np.array_equal(_fetch_region(server.url, "field",
                                                        spec), want[spec]):
                        errors.append(f"diverged on {spec}")
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=client, args=(s,))
                   for s in specs * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors


# ---------------------------------------------------------------------------
# Corruption scope: the affected region only
# ---------------------------------------------------------------------------

class TestCorruptionScope:
    def _corrupt_tile(self, path: str, tile: int) -> tuple:
        """Flip one byte inside tile ``tile``'s blob; return its field slices."""
        index = repro.read_header(path)
        offset = index.data_start + index.offsets[tile] + index.lengths[tile] // 2
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0xFF]))
        return index.tile_slices(tile)

    def test_bad_tile_errors_only_its_regions(self, grid_path):
        store = ArchiveStore()
        store.add("field", grid_path)
        srv = make_server(store)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            # Corrupt an interior tile *after* the store opened (the header
            # is long parsed; the CRC check runs on every cold tile read).
            victim = 13
            vs = self._corrupt_tile(grid_path, victim)
            bad_spec = ",".join(f"{s.start + 1}:{s.stop - 1}" for s in vs)
            good_spec = "0:8,0:8,0:8"  # tile 0, far from the victim

            code, payload = _get_error(
                srv.url + f"/v1/field/region?r={bad_spec}")
            assert code == 500
            assert "checksum mismatch" in payload["error"]

            # ... while other regions of the same archive keep serving:
            got = _fetch_region(srv.url, "field", good_spec)
            assert np.array_equal(got, repro.read_region(grid_path, good_spec))

            # The failure was not cached: the bad region fails again (same
            # scoped error), and the server is still healthy.
            assert _get_error(
                srv.url + f"/v1/field/region?r={bad_spec}")[0] == 500
            status, _, body = _get(srv.url + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"

            # A full-field request crosses the bad tile: also a scoped 500.
            assert _get_error(srv.url + "/v1/field/region?r=:,:,:")[0] == 500
        finally:
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)

    def test_cached_tile_survives_later_disk_corruption(self, grid_path):
        """A tile decoded before the byte flip keeps serving from cache."""
        with ArchiveStore() as store:
            store.add("field", grid_path)
            spec = "2:14,2:14,2:14"  # inside tile 0
            before = store.read_region("field", spec)
            self._corrupt_tile(grid_path, 0)
            after = store.read_region("field", spec)   # cache hit, no I/O
            assert np.array_equal(before, after)
            with pytest.raises(ValueError, match="checksum mismatch"):
                # An uncached region of the bad tile's *file bytes* fails
                # once eviction or a fresh store forces a re-read.
                fresh = ArchiveStore()
                try:
                    fresh.add("f", grid_path)
                    fresh.read_region("f", spec)
                finally:
                    fresh.close()


# ---------------------------------------------------------------------------
# The CLI subprocess end-to-end acceptance test
# ---------------------------------------------------------------------------

class TestCliServe:
    def test_serve_subprocess_bit_identical(self, grid_path):
        """`python -m repro serve` + HTTP fetch == repro.read_region, bitwise."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", f"field={grid_path}",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        try:
            base = None
            for _ in range(50):
                line = proc.stdout.readline()
                assert line, (f"serve exited early: "
                              f"{proc.stderr.read() if proc.poll() is not None else ''}")
                m = re.search(r"serving 1 archive\(s\) on (http://[\w.:]+)",
                              line)
                if m:
                    base = m.group(1)
                    break
            assert base, "serve never printed its URL"

            spec = "10:20,0:64,5:9"
            got = _fetch_region(base, "field", spec)
            want = repro.read_region(grid_path, spec)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

            info = json.loads(_get(base + "/v1/field/info")[2])
            assert info["codec"] == CODEC and info["n_tiles"] == 27
        finally:
            proc.terminate()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()

    def test_serve_rejects_missing_archive(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             str(tmp_path / "absent.rpra"), "--port", "0"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode != 0
        assert "absent.rpra" in proc.stderr

    def test_serve_parser_bare_path_key_is_stem(self, grid_path):
        """A bare PATH argument serves under the file-stem key."""
        from repro.cli import build_parser
        args = build_parser().parse_args(["serve", grid_path, "--port", "0"])
        assert args.archives == [grid_path]
        assert args.cache_mb == 256.0

    def test_serve_bare_filename_with_equals_not_split(self, grid_blob,
                                                       tmp_path):
        """An existing file named like KEY=PATH is served as a bare path."""
        path = tmp_path / "run=3.rpra"
        path.write_bytes(grid_blob)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        try:
            base = None
            for _ in range(50):
                line = proc.stdout.readline()
                assert line, "serve exited early"
                m = re.search(r"on (http://[\w.:]+)", line)
                if m:
                    base = m.group(1)
                    break
            # The key is the file stem ("run=3"), not the '='-split halves.
            info = json.loads(_get(base + "/v1/run%3D3/info")[2])
            assert info["shape"] == [SIDE, SIDE, SIDE]
        finally:
            proc.terminate()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()


# ---------------------------------------------------------------------------
# Conditional GET, batched regions, latency histograms (both front ends)
# ---------------------------------------------------------------------------

def _open_conn(server):
    import http.client

    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


class TestConditionalGet:
    def test_info_304_on_matching_etag(self, server):
        conn = _open_conn(server)
        try:
            conn.request("GET", "/v1/field/info")
            resp = conn.getresponse()
            etag = resp.getheader("ETag")
            generation = resp.getheader("X-Repro-Generation")
            resp.read()
            assert resp.status == 200 and etag and generation == "1"
            conn.request("GET", "/v1/field/info",
                         headers={"If-None-Match": etag})
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 304 and body == b""
            assert resp.getheader("ETag") == etag
            assert resp.getheader("X-Repro-Generation") == "1"
        finally:
            conn.close()

    def test_region_304_skips_body(self, server):
        conn = _open_conn(server)
        try:
            conn.request("GET", "/v1/field/region?r=0:4,0:4,0:4")
            resp = conn.getresponse()
            etag = resp.getheader("ETag")
            body = resp.read()
            assert resp.status == 200 and len(body) > 0 and etag
            for inm in (etag, f'W/{etag}', f'"zzz", {etag}', "*"):
                conn.request("GET", "/v1/field/region?r=0:4,0:4,0:4",
                             headers={"If-None-Match": inm})
                resp = conn.getresponse()
                assert resp.status == 304 and resp.read() == b"", inm
        finally:
            conn.close()

    def test_stale_etag_gets_fresh_body(self, server):
        conn = _open_conn(server)
        try:
            conn.request("GET", "/v1/field/region?r=0:4,0:4,0:4",
                         headers={"If-None-Match": '"deadbeef"'})
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 200 and len(body) == 4 * 4 * 4 * 8
        finally:
            conn.close()

    def test_conditional_get_unknown_key_404(self, server):
        conn = _open_conn(server)
        try:
            conn.request("GET", "/v1/nope/region?r=0:1",
                         headers={"If-None-Match": '"x"'})
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404
        finally:
            conn.close()


class TestBatchedRegions:
    SPECS = ["0:4,0:4,0:4", "10:20,0:8,4:9", "30"]

    def _post(self, server, payload: bytes):
        conn = _open_conn(server)
        try:
            conn.request("POST", "/v1/field/regions", body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()

    def test_batch_matches_single_region_reads(self, server, grid_path):
        payload = json.dumps({"regions": self.SPECS}).encode()
        status, headers, body = self._post(server, payload)
        assert status == 200
        meta = json.loads(headers["X-Repro-Header"])
        assert meta["count"] == len(self.SPECS) == int(headers["X-Repro-Count"])
        assert meta["generation"] == 1 and headers.get("ETag")
        for spec, part in zip(self.SPECS, meta["regions"]):
            got = np.frombuffer(
                body[part["offset"]:part["offset"] + part["nbytes"]],
                dtype=np.dtype(part["dtype"])).reshape(part["shape"])
            assert np.array_equal(got, repro.read_region(grid_path, spec)), spec
        assert len(body) == sum(p["nbytes"] for p in meta["regions"])

    def test_bare_list_body_accepted(self, server):
        status, headers, body = self._post(
            server, json.dumps(["0:2,0:2,0:2"]).encode())
        assert status == 200 and len(body) == 2 * 2 * 2 * 8

    def test_bad_batches_400(self, server):
        for payload in (b"not json", b"{}", b"[]", b'{"regions": [1, 2]}',
                        b'{"regions": "0:1"}'):
            status, _, body = self._post(server, payload)
            assert status == 400, payload
            assert "error" in json.loads(body)

    def test_bad_region_spec_400_unknown_key_404(self, server):
        status, _, _ = self._post(
            server, json.dumps({"regions": ["bogus"]}).encode())
        assert status == 400
        conn = _open_conn(server)
        try:
            conn.request("POST", "/v1/nope/regions",
                         body=json.dumps(["0:1"]).encode())
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404
        finally:
            conn.close()

    def test_oversized_batch_rejected(self, server):
        many = json.dumps({"regions": ["0:1,0:1,0:1"] * 2000}).encode()
        status, _, _ = self._post(server, many)
        assert status == 400


class TestLatencyHistograms:
    def test_metrics_report_quantiles(self, server):
        for _ in range(3):
            _get(server.url + "/v1/field/region?r=0:4,0:4,0:4")
        _get_error(server.url + "/v1/field/region?r=bogus")
        doc = json.loads(_get(server.url + "/metrics")[2])
        region = doc["routes"]["region"]
        assert region["requests"] == 4 and region["errors"] == 1
        assert sum(region["buckets"]) == 4
        assert region["p50_ms"] > 0 and region["p99_ms"] >= region["p50_ms"]


# ---------------------------------------------------------------------------
# What both front ends share below the routes: socket options, the access
# log, and the fault -> status mapping
# ---------------------------------------------------------------------------

class TestFrontEndParity:
    def test_accepted_connections_disable_nagle(self, server, monkeypatch):
        """Head and body leave as two segments: with Nagle on, every small
        keep-alive read would wait out the client's delayed ACK."""
        import socket

        from repro.store.server import StoreRequestHandler

        seen = []
        real_handle = StoreRequestHandler.handle

        def recording_handle(handler):
            seen.append(handler.connection.getsockopt(socket.IPPROTO_TCP,
                                                      socket.TCP_NODELAY))
            real_handle(handler)

        monkeypatch.setattr(StoreRequestHandler, "handle", recording_handle)
        conn = _open_conn(server)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            # The selectors front end keeps its connections in ``_conns``.
            seen += [c.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                     for c in list(getattr(server, "_conns", ()))]
        finally:
            conn.close()
        assert seen and all(seen)

    def test_access_log_line_per_request(self, server, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            _get(server.url + "/v1/field/info")
            _get_error(server.url + "/v1/nope/info")
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "repro.serve"]
        assert len(lines) == 2
        assert re.fullmatch(r"GET /v1/field/info 200 [1-9]\d* \d+\.\d{3}", lines[0])
        assert re.fullmatch(r"GET /v1/nope/info 404 [1-9]\d* \d+\.\d{3}", lines[1])

    def test_access_log_is_silent_by_default(self, server, caplog):
        _get(server.url + "/healthz")
        assert not [r for r in caplog.records if r.name == "repro.serve"]

    @pytest.mark.parametrize("kind", ["threaded", "selectors"])
    def test_not_quiet_prints_the_access_log_to_stderr(self, kind, capsys):
        from repro.store.server import ACCESS_LOG

        store = ArchiveStore()
        try:
            srv = make_server(store, server=kind, quiet=False)
            thread = threading.Thread(target=srv.serve_forever, daemon=True)
            thread.start()
            try:
                _get(srv.url + "/healthz")
            finally:
                srv.shutdown()
                srv.server_close()
                thread.join(timeout=10)
            assert re.search(r"^GET /healthz 200 \d+ \d+\.\d{3}$",
                             capsys.readouterr().err, re.MULTILINE)
        finally:
            store.close()
            for handler in list(ACCESS_LOG.handlers):
                ACCESS_LOG.removeHandler(handler)
            ACCESS_LOG.setLevel(logging.NOTSET)

    def test_closed_store_is_503_on_every_read_route(self, grid_path):
        from repro.store.server import Request, StoreApp
        from repro.store.store import StoreClosedError

        store = ArchiveStore()
        store.add("field", grid_path)
        app = StoreApp(store)
        store.close()
        with pytest.raises(StoreClosedError, match="store is closed"):
            store.entry_info("field")
        body = json.dumps({"regions": ["0:1,0:1,0:1"]}).encode()
        requests = [
            Request("GET", "/v1/field/info", {}, None),
            Request("GET", "/v1/field/info", {"if-none-match": '"x"'}, None),
            Request("GET", "/v1/field/region?r=0:1,0:1,0:1", {}, None),
            Request("GET", "/v1/field/region?r=0:1,0:1,0:1",
                    {"if-none-match": '"x"'}, None),
            Request("GET", "/v1/field/archive", {"range": "bytes=0-9"}, None),
            Request("POST", "/v1/field/regions",
                    {"content-length": str(len(body))}, io.BytesIO(body)),
        ]
        for request in requests:
            response = app.handle(request)
            assert response.status == 503, request.target
            assert json.loads(response.body) == {"error": "store is closed"}
            assert not response.close
