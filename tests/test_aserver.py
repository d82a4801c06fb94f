"""The selectors front end: framing, backpressure, guards, write path.

`test_store_server.py` already runs the whole endpoint contract against both
front ends; this module covers what only shows up at the transport level —
keep-alive framing across bodied requests and 4xx-with-unread-body uploads,
stalled, cut-off and ``Expect: 100-continue`` bodies, the one codec's answers
to hostile heads and framing (smuggled requests, unread GET bodies, bad or
split oversize heads, trickled heads, a route that raises), the
replace-vs-read metadata race the atomic read path fixes, per-connection
read timeouts, the max-connections guard — plus the client-side bugfixes
(URL base path, non-finite range, 0-d sources).
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.store import ArchiveStore, IngestManager, make_server
from repro.store import store as store_module
from repro.store.server import _MAX_HEADER_BYTES
from repro.store.client import PushError, delete_key, push_field
from repro.store.server import BodyReader, Request, StoreApp

CODEC = "szinterp"
SIDE, TILE = 32, 16


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(23)
    return rng.standard_normal((SIDE, SIDE, SIDE)).cumsum(axis=0)


@pytest.fixture(scope="module")
def grid_blob(field):
    return api.compress_chunked(field, codec=CODEC, bound=1e-3,
                                chunk_shape=(TILE, TILE, TILE))


@pytest.fixture()
def grid_path(grid_blob, tmp_path):
    path = tmp_path / "grid.rpra"
    path.write_bytes(grid_blob)
    return str(path)


def _start(store, **kwargs):
    srv = make_server(store, server=kwargs.pop("server", "selectors"),
                      **kwargs)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


@pytest.fixture(params=["threaded", "selectors"])
def server(grid_path, request):
    store = ArchiveStore()
    store.add("field", grid_path)
    srv, thread = _start(store, server=request.param)
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        store.close()
        thread.join(timeout=10)


def _read_response(f):
    """Parse one HTTP response off a buffered socket file."""
    status_line = f.readline()
    assert status_line, "connection closed before a response arrived"
    parts = status_line.split(None, 2)
    status = int(parts[1])
    headers = {}
    while True:
        raw = f.readline().strip()
        if not raw:
            break
        name, _, value = raw.partition(b":")
        headers[name.decode().lower()] = value.decode().strip()
    length = int(headers.get("content-length", "0"))
    body = f.read(length) if length else b""
    return status, headers, body


# ---------------------------------------------------------------------------
# Keep-alive framing (both front ends)
# ---------------------------------------------------------------------------

class TestKeepAliveFraming:
    def test_pipelined_gets_one_connection(self, server):
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            n = 4
            s.sendall(b"GET /v1/field/info HTTP/1.1\r\nHost: t\r\n\r\n" * n)
            generations = set()
            for _ in range(n):
                status, headers, body = _read_response(f)
                assert status == 200
                generations.add(json.loads(body)["generation"])
            assert generations == {1}

    def test_batched_post_then_pipelined_get(self, server):
        """A fully-read body hands unconsumed pipelined bytes to the next
        request — the leftover path of the async body channel."""
        payload = json.dumps({"regions": ["0:2,0:2,0:2"]}).encode()
        post = (b"POST /v1/field/regions HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + str(len(payload)).encode() +
                b"\r\n\r\n" + payload)
        get = b"GET /v1/field/info HTTP/1.1\r\nHost: t\r\n\r\n"
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(post + get)  # glued: the GET rides behind the body
            status, _, body = _read_response(f)
            assert status == 200 and len(body) == 2 * 2 * 2 * 8
            status, _, body = _read_response(f)
            assert status == 200 and json.loads(body)["key"] == "field"

    def test_aborted_upload_4xx_closes_instead_of_desync(self, server):
        """A 4xx answered with the declared body unread MUST close the
        connection: the pipelined request behind the body is never
        misparsed as a request (it would be body bytes)."""
        upload = (b"POST /v1/field HTTP/1.1\r\nHost: t\r\n"
                  b"Content-Length: 1000000\r\n\r\n" + b"x" * 128)
        get = b"GET /v1/field/info HTTP/1.1\r\nHost: t\r\n\r\n"
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(upload + get)
            status, headers, body = _read_response(f)
            # Read-only server: 405, connection-closing by contract.
            assert status == 405
            assert headers.get("connection") == "close"
            assert "read-only" in json.loads(body)["error"]
            # The glued GET must never be answered; the socket just ends.
            assert f.read() == b""

    def test_expect_100_continue_before_the_body(self, server):
        """The client sends only the head, reads ``100 Continue``, and only
        then sends the body — and gets the final answer."""
        payload = json.dumps({"regions": ["0:2,0:2,0:2"]}).encode()
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(b"POST /v1/field/regions HTTP/1.1\r\nHost: t\r\n"
                      b"Expect: 100-continue\r\nContent-Length: "
                      + str(len(payload)).encode() + b"\r\n\r\n")
            assert f.readline().split(None, 2)[:2] == [b"HTTP/1.1", b"100"]
            assert f.readline() == b"\r\n"
            s.sendall(payload)
            status, _, body = _read_response(f)
            assert status == 200 and len(body) == 2 * 2 * 2 * 8

    def test_request_then_4xx_then_fresh_connection(self, server):
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(b"GET /v1/field/info HTTP/1.1\r\nHost: t\r\n\r\n")
            assert _read_response(f)[0] == 200
            s.sendall(b"POST /v1/field HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: 10\r\n\r\n")
            status, headers, _ = _read_response(f)
            assert status == 405 and headers.get("connection") == "close"
        # The server stays healthy for new connections.
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert _read_response(f)[0] == 200


# ---------------------------------------------------------------------------
# Upload bodies: one reader, one answer (both front ends)
# ---------------------------------------------------------------------------

@pytest.fixture(params=["threaded", "selectors"])
def writable_server(grid_path, tmp_path, request):
    """A writable server with a one-second read timeout."""
    store = ArchiveStore()
    store.add("field", grid_path)
    manager = IngestManager(tmp_path / "root", store)
    srv, thread = _start(store, server=request.param, ingest=manager,
                         read_timeout=1.0)
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        store.close()
        thread.join(timeout=10)


#: Heads of a 100-byte upload to each body-reading route.
_UPLOAD_HEADS = {
    "regions": b"POST /v1/field/regions HTTP/1.1\r\nHost: t\r\n",
    "ingest": (b"POST /v1/up HTTP/1.1\r\nHost: t\r\nX-Repro-Shape: 25\r\n"
               b"X-Repro-Dtype: float32\r\nX-Repro-Bound: 1e-3\r\n"
               b"X-Repro-Bound-Mode: abs\r\n"),
}


class TestUploadBodies:
    @pytest.mark.parametrize("route", sorted(_UPLOAD_HEADS))
    def test_stalled_body_is_a_400_and_others_are_served(
            self, writable_server, route):
        start = time.monotonic()
        with socket.create_connection(writable_server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(_UPLOAD_HEADS[route]
                      + b"Content-Length: 100\r\n\r\n" + b"x" * 13)
            # The stalled upload holds no one up: another client is served.
            assert _fetch(writable_server.url, "/v1/field/info")[0] == 200
            status, headers, body = _read_response(f)
            elapsed = time.monotonic() - start
        assert status == 400 and headers.get("connection") == "close"
        assert json.loads(body)["error"].startswith(
            "corrupt upload body: timed out")
        assert elapsed < 2.5

    @pytest.mark.parametrize("route", sorted(_UPLOAD_HEADS))
    def test_half_closed_body_is_a_400(self, writable_server, route):
        with socket.create_connection(writable_server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(_UPLOAD_HEADS[route]
                      + b"Content-Length: 100\r\n\r\n" + b"x" * 13)
            s.shutdown(socket.SHUT_WR)
            status, headers, body = _read_response(f)
        assert status == 400 and headers.get("connection") == "close"
        assert "truncated 87 bytes" in json.loads(body)["error"]

    def test_chunked_upload_then_pipelined_get(self, writable_server):
        """A chunked body's reader stops at the terminating chunk: the GET
        glued behind it is the next request."""
        data = np.arange(16, dtype=np.float32).tobytes()
        chunked = b"".join(b"%x\r\n%s\r\n" % (len(piece), piece)
                           for piece in (data[:24], data[24:])) + b"0\r\n\r\n"
        post = (b"POST /v1/up HTTP/1.1\r\nHost: t\r\nX-Repro-Shape: 4,4\r\n"
                b"X-Repro-Dtype: float32\r\nX-Repro-Bound: 1e-3\r\n"
                b"X-Repro-Bound-Mode: abs\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n" + chunked)
        get = b"GET /v1/up/info HTTP/1.1\r\nHost: t\r\n\r\n"
        with socket.create_connection(writable_server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(post + get)
            status, _, body = _read_response(f)
            assert status == 201 and json.loads(body)["created"]
            status, _, body = _read_response(f)
            assert status == 200 and json.loads(body)["shape"] == [4, 4]


def test_peer_gone_before_100_continue_reads_as_eof():
    """A client that closes before the interim ``100 Continue`` ends the body
    the way EOF does: the failed send is no ``BrokenPipeError`` for the route
    to log and answer with a 500 nobody reads."""
    ours, peer = socket.socketpair()
    peer.close()
    with ours:
        reader = BodyReader(ours, 1.0, {"expect": "100-continue"})
        assert reader.read(10) == b""


# ---------------------------------------------------------------------------
# One HTTP/1.1 codec: hostile heads and framing get one answer (both front
# ends)
# ---------------------------------------------------------------------------

#: Heads refused before any route runs, with the JSON answer both give.
_BAD_HEADS = {
    "request-line": (b"NONSENSE\r\n\r\n", 400,
                     "malformed request line 'NONSENSE'"),
    "http2": (b"GET / HTTP/2.0\r\n\r\n", 505,
              "unsupported protocol 'HTTP/2.0'"),
    "patch": (b"PATCH /v1/field HTTP/1.1\r\nHost: t\r\n\r\n", 501,
              "unsupported method 'PATCH'"),
    "head": (b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 501,
             "unsupported method 'HEAD'"),
    "options": (b"OPTIONS * HTTP/1.1\r\nHost: t\r\n\r\n", 501,
                "unsupported method 'OPTIONS'"),
    "no-colon": (b"GET /healthz HTTP/1.1\r\nHost: t\r\nNoColon\r\n\r\n",
                 400, "malformed header line 'NoColon'"),
}


def _closed(sock):
    """Whether the peer has closed ``sock`` (waits up to its timeout)."""
    try:
        return sock.recv(1024) == b""
    except socket.timeout:
        return False
    except OSError:
        return True


class TestOneCodec:
    def test_content_length_beside_chunked_is_one_400_then_eof(self, server):
        """RFC 7230 §3.3.3: no framing can be trusted, so nothing behind the
        head — here a smuggled GET — is ever answered."""
        smuggled = b"GET /v1/field/info HTTP/1.1\r\nHost: t\r\n\r\n"
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(b"POST /v1/field/regions HTTP/1.1\r\nHost: t\r\n"
                      b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n"
                      b"\r\n0\r\n\r\n" + smuggled)
            status, headers, body = _read_response(f)
            assert status == 400 and headers.get("connection") == "close"
            assert json.loads(body)["error"].startswith(
                "corrupt request framing")
            assert f.read() == b""

    def test_unread_get_body_closes_the_connection(self, server):
        inner = b"GET /v1/field/info HTTP/1.1\r\nHost: t\r\n\r\n"
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(b"GET /v1/field/region?r=0:2,0:2,0:2 HTTP/1.1\r\n"
                      b"Host: t\r\nContent-Length: %d\r\n\r\n" % len(inner)
                      + inner)
            status, headers, body = _read_response(f)
            assert status == 200 and len(body) == 2 * 2 * 2 * 8
            assert headers.get("connection") == "close"
            assert f.read() == b""

    @pytest.mark.parametrize("case", sorted(_BAD_HEADS))
    def test_bad_head_gets_the_same_json_answer(self, server, case):
        raw, want_status, want_error = _BAD_HEADS[case]
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            s.sendall(raw)
            status, headers, body = _read_response(s.makefile("rb"))
        assert status == want_status
        assert headers.get("connection") == "close"
        assert headers.get("content-type") == "application/json"
        assert json.loads(body) == {"error": want_error}

    def test_oversized_head_in_two_sends_is_431(self, server):
        """The cap holds whether or not the head's end arrived with it."""
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            s.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 30000)
            time.sleep(0.05)
            s.sendall(b"a" * 40000 + b"\r\n\r\n")
            status, headers, body = _read_response(s.makefile("rb"))
        assert status == 431 and headers.get("connection") == "close"
        assert json.loads(body) == {
            "error": "request header section too large"}

    def test_a_route_that_raises_is_a_500_that_closes(self, server,
                                                      monkeypatch):
        def broken(self, key):
            raise RuntimeError("synthetic route fault")

        monkeypatch.setattr(ArchiveStore, "entry_info", broken)
        with socket.create_connection(server.server_address[:2],
                                      timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(b"GET /v1/field/info HTTP/1.1\r\nHost: t\r\n\r\n")
            status, headers, body = _read_response(f)
            assert status == 500 and headers.get("connection") == "close"
            assert json.loads(body) == {
                "error": "internal error: RuntimeError('synthetic route "
                         "fault')"}
            assert f.read() == b""

    def test_a_trickled_head_is_dropped_and_others_are_served(
            self, writable_server):
        """Slowloris: every byte arrives well inside the read timeout, but
        the head must be whole within the timeout of its first byte."""
        start = time.monotonic()
        served = False
        with socket.create_connection(writable_server.server_address[:2],
                                      timeout=0.25) as s:
            s.sendall(b"GET /v1/field/info HTTP/1.1\r\nX-Slow: ")
            while time.monotonic() - start < 6:
                if _closed(s):
                    break
                if not served:  # the trickle holds no one up
                    served = _fetch(writable_server.url,
                                    "/v1/field/info")[0] == 200
                try:
                    s.sendall(b"a")
                except OSError:
                    break
            elapsed = time.monotonic() - start
        assert served
        assert elapsed < 2.5  # read_timeout=1.0


# ---------------------------------------------------------------------------
# Replace-vs-read metadata atomicity (the PR's headline read-path bugfix)
# ---------------------------------------------------------------------------

class TestReplaceVsReadMetadata:
    def test_headers_always_describe_the_body(self, field, tmp_path):
        """Hammer reads while the key flips between archives of different
        dtypes: every response's shape/dtype header must describe the body
        that actually shipped (the old ``info()``-then-read pattern could
        pair generation-N headers with a generation-M body)."""
        f32 = tmp_path / "a32.rpra"
        f64 = tmp_path / "a64.rpra"
        f32.write_bytes(api.compress_chunked(
            field.astype(np.float32), codec=CODEC, bound=1e-3,
            chunk_shape=(TILE, TILE, TILE)))
        f64.write_bytes(api.compress_chunked(
            field, codec=CODEC, bound=1e-3,
            chunk_shape=(TILE, TILE, TILE)))
        store = ArchiveStore()
        store.add("field", str(f32))
        app = StoreApp(store)
        stop = threading.Event()
        flips = 0

        def flipper():
            nonlocal flips
            paths = [str(f64), str(f32)]
            while not stop.is_set():
                store.replace("field", paths[flips % 2])
                flips += 1

        errors = []

        def reader():
            import io
            while not stop.is_set():
                req = Request("GET", "/v1/field/region?r=0:4,0:4,0:4",
                              {}, io.BytesIO(b""))
                resp = app.handle(req)
                if resp.status != 200:
                    errors.append(f"status {resp.status}")
                    continue
                meta = json.loads(resp.headers["X-Repro-Header"])
                dtype = np.dtype(resp.headers["X-Repro-Dtype"])
                if meta["dtype"] != str(dtype):
                    errors.append("header dtype mismatch")
                expected = int(np.prod(meta["shape"])) * dtype.itemsize
                if len(resp.body) != expected:
                    errors.append(
                        f"body {len(resp.body)}B contradicts advertised "
                        f"{meta['shape']}/{dtype} ({expected}B)")

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=flipper))
        for t in threads:
            t.start()
        time.sleep(1.0)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        store.close()
        assert flips > 10, "replace thread never got going"
        assert not errors, errors[:5]


# ---------------------------------------------------------------------------
# Async-only transport guards
# ---------------------------------------------------------------------------

class TestAsyncGuards:
    def test_read_timeout_drops_idle_connection(self, grid_path):
        store = ArchiveStore()
        store.add("field", grid_path)
        srv, thread = _start(store, read_timeout=0.5)
        try:
            with socket.create_connection(srv.server_address,
                                          timeout=30) as s:
                s.sendall(b"GET /v1/field")  # a stalled partial request
                s.settimeout(10)
                assert s.recv(1024) == b""  # dropped by the timeout scan
        finally:
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)

    def test_server_close_wakes_a_worker_blocked_on_a_body(self, grid_path):
        """With no read timeout only server_close can free a worker blocked
        on a stalled body: it shuts the lent socket down (the client sees
        EOF), lets the worker finish, then closes the socket."""
        store = ArchiveStore()
        store.add("field", grid_path)
        srv, thread = _start(store)
        try:
            with socket.create_connection(srv.server_address,
                                          timeout=30) as s:
                s.sendall(b"POST /v1/field/regions HTTP/1.1\r\nHost: t\r\n"
                          b"Content-Length: 100\r\n\r\n")
                deadline = time.monotonic() + 10
                lent = []
                while not lent and time.monotonic() < deadline:
                    lent = [c.reader.sock for c in list(srv._conns)
                            if c.reader is not None]
                    time.sleep(0.01)
                assert lent, "the bodied request never reached a worker"
                srv.shutdown()
                srv.server_close()
                s.settimeout(10)
                assert s.recv(1024) == b""
                assert lent[0].fileno() == -1
        finally:
            store.close()
            thread.join(timeout=10)

    def test_max_connections_guard_503(self, grid_path):
        store = ArchiveStore()
        store.add("field", grid_path)
        srv, thread = _start(store, max_connections=4)
        held = []
        try:
            for _ in range(4):
                held.append(socket.create_connection(srv.server_address,
                                                     timeout=30))
            # Give the loop a beat to adopt all four.
            deadline = time.monotonic() + 5
            while len(srv._conns) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            with socket.create_connection(srv.server_address,
                                          timeout=30) as extra:
                f = extra.makefile("rb")
                status, headers, body = _read_response(f)
                assert status == 503
                assert headers.get("connection") == "close"
                assert "connection limit" in json.loads(body)["error"]
            # Releasing one slot restores service.
            held.pop().close()
            deadline = time.monotonic() + 5
            while len(srv._conns) > 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            with socket.create_connection(srv.server_address,
                                          timeout=30) as s:
                f = s.makefile("rb")
                s.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert _read_response(f)[0] == 200
        finally:
            for sock in held:
                sock.close()
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)

    def test_oversized_request_head_431(self, grid_path):
        store = ArchiveStore()
        store.add("field", grid_path)
        srv, thread = _start(store)
        try:
            with socket.create_connection(srv.server_address,
                                          timeout=30) as s:
                f = s.makefile("rb")
                s.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: "
                          + b"a" * (_MAX_HEADER_BYTES + 1))
                status, headers, body = _read_response(f)
                assert status == 431
                assert headers.get("connection") == "close"
                assert "too large" in json.loads(body)["error"]
                assert f.read() == b""
        finally:
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)

    def test_malformed_request_line_400(self, grid_path):
        store = ArchiveStore()
        store.add("field", grid_path)
        srv, thread = _start(store)
        try:
            with socket.create_connection(srv.server_address,
                                          timeout=30) as s:
                f = s.makefile("rb")
                s.sendall(b"NONSENSE\r\n\r\n")
                status, headers, _ = _read_response(f)
                assert status == 400
                assert headers.get("connection") == "close"
            with socket.create_connection(srv.server_address,
                                          timeout=30) as s:
                f = s.makefile("rb")
                s.sendall(b"PATCH /v1/field HTTP/1.1\r\nHost: t\r\n\r\n")
                assert _read_response(f)[0] == 501
        finally:
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)


# ---------------------------------------------------------------------------
# Resident region reads answered by the loop thread itself
# ---------------------------------------------------------------------------

def _region_get(spec):
    return f"GET /v1/field/region?r={spec} HTTP/1.1\r\n\r\n".encode()


@pytest.fixture()
def loop_server(grid_path):
    """A one-worker selectors server plus the thread running its loop."""
    store = ArchiveStore()
    store.add("field", grid_path)
    srv, thread = _start(store, workers=1)
    try:
        yield srv, thread
    finally:
        srv.shutdown()
        srv.server_close()
        store.close()
        thread.join(timeout=10)


class TestLoopAnsweredReads:
    def test_pipelined_resident_gets_do_not_recurse(self, loop_server):
        """1 500 pipelined resident GETs in one ``sendall``: the loop answers
        them all, in order, without a stack frame per request, and without
        a single trip through the worker pool."""
        srv, _ = loop_server
        n = 1500
        with socket.create_connection(srv.server_address, timeout=30) as s:
            f = s.makefile("rb")
            s.sendall(_region_get("0:32,0:2,0:2"))  # warms tiles 0 and 4
            assert _read_response(f)[0] == 200
            pooled = []
            real_run = srv._run_handler
            srv._run_handler = lambda *a: (pooled.append(1), real_run(*a))
            answers = []

            def reader():
                for _ in range(n):
                    status, headers, _ = _read_response(f)
                    if status != 200:  # e.g. a 500 that closes the socket
                        answers.append((status, None))
                        return
                    meta = json.loads(headers["x-repro-header"])
                    answers.append((status, meta["region"][0]))

            thread = threading.Thread(target=reader)
            thread.start()
            s.sendall(b"".join(_region_get(f"{i % 32}:{i % 32 + 1},0:2,0:2")
                               for i in range(n)))
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert answers == [(200, [i % 32, i % 32 + 1]) for i in range(n)]
        assert not pooled
        status, _, _ = _fetch(srv.url, "/v1/field/region?r=0:2,0:2,0:2")
        assert status == 200  # the loop survived and serves a fresh connection

    def test_resident_read_answered_while_the_worker_is_blocked(
            self, loop_server, grid_path, monkeypatch):
        """The only worker sits in a cold tile load; a resident GET on
        another connection is still answered, then the cold read finishes
        with the right bytes."""
        srv, _ = loop_server
        real = store_module._decode_parsed_tile
        armed, entered, release = (threading.Event() for _ in range(3))

        def blocking_decode(*args, **kwargs):
            if armed.is_set():
                entered.set()
                release.wait(60)
            return real(*args, **kwargs)

        monkeypatch.setattr(store_module, "_decode_parsed_tile",
                            blocking_decode)
        warm = "/v1/field/region?r=0:8,0:8,0:8"
        try:
            assert _fetch(srv.url, warm)[0] == 200
            armed.set()
            with socket.create_connection(srv.server_address,
                                          timeout=30) as cold:
                cold.sendall(_region_get("16:24,16:24,16:24"))
                assert entered.wait(30)
                status, _, body = _fetch(srv.url, warm)
                assert status == 200 and len(body) == 8 * 8 * 8 * 8
                assert not release.is_set()  # answered before the load ends
                release.set()
                status, _, body = _read_response(cold.makefile("rb"))
            want = repro.read_region(grid_path, "16:24,16:24,16:24")
            assert status == 200 and body == want.tobytes()
        finally:
            release.set()

    def test_no_tile_load_runs_on_the_loop_thread(self, loop_server,
                                                  monkeypatch):
        srv, loop_thread = loop_server
        real = store_module._decode_parsed_tile
        loaders = []

        def recording_decode(*args, **kwargs):
            loaders.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(store_module, "_decode_parsed_tile",
                            recording_decode)
        for spec in ("0:8,0:8,0:8", "0:8,0:8,0:8", "0:8,0:8,8:24",
                     "0:8,0:8,8:24", "0:32,0:32,0:32", "4:28,4:28,4:28"):
            assert _fetch(srv.url, f"/v1/field/region?r={spec}")[0] == 200
        assert len(loaders) == 8  # every tile loaded once, none twice
        assert loop_thread.ident not in loaders


def test_front_ends_agree_on_a_cold_warm_partial_script(grid_path, caplog):
    """One request script, both front ends: identical bodies, headers,
    counters and access log — a failed residency lookup counts no miss,
    the pool path then counts it exactly once."""
    script = [("/v1/field/region?r=0:8,0:8,0:8", {}),     # cold
              ("/v1/field/region?r=0:8,0:8,0:8", {}),     # warm
              ("/v1/field/region?r=0:8,0:8,8:24", {}),    # partly resident
              ("/v1/field/region?r=0:8,0:8,0:8", None),   # If-None-Match
              ("/v1/field/region?r=bogus", {}),
              ("/v1/nope/region?r=0:1,0:1,0:1", {})]
    runs = []
    for kind in ("threaded", "selectors"):
        store = ArchiveStore()
        store.add("field", grid_path)
        srv, thread = _start(store, server=kind)
        caplog.clear()
        conn = http.client.HTTPConnection(*srv.server_address, timeout=30)
        answers = []
        etag = ""
        try:
            with caplog.at_level(logging.INFO, logger="repro.serve"):
                for target, headers in script:
                    conn.request("GET", target, headers={"If-None-Match": etag}
                                 if headers is None else headers)
                    resp = conn.getresponse()
                    got = {k.lower(): v for k, v in resp.getheaders()
                           if k.lower() != "date"}
                    answers.append((resp.status, got, resp.read()))
                    etag = etag or got["etag"]
                conn.request("GET", "/metrics")
                doc = json.loads(conn.getresponse().read())
        finally:
            conn.close()
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)
        log = [r.getMessage().rsplit(" ", 1)[0] for r in caplog.records
               if r.name == "repro.serve"]
        counters = {**{k: doc["cache"][k] for k in ("hits", "misses", "loads")},
                    "tile_decodes": doc["tile_decodes"],
                    "region_reads": doc["region_reads"],
                    "routes": {route: row["requests"]
                               for route, row in doc["routes"].items()}}
        runs.append((answers, counters, log))
    threaded, loop = runs
    assert [status for status, _, _ in loop[0]] == [200, 200, 200, 304, 400,
                                                    404]
    assert loop[0] == threaded[0]
    assert loop[1] == threaded[1] == {
        "hits": 2, "misses": 2, "loads": 2, "tile_decodes": 2,
        "region_reads": 3, "routes": {"region": 6}}
    # One access-log line per request; /metrics' own size varies with its
    # latency figures, the script's lines match to the byte count.
    assert loop[2][:-1] == threaded[2][:-1] and len(loop[2]) == len(script) + 1
    assert loop[2][-1].startswith("GET /metrics 200 ")


def test_a_failed_inline_answer_is_recorded_once(grid_path, monkeypatch,
                                                 caplog):
    """A warm region GET whose inline attempt raises is answered by the
    pool, and counted and logged there only: one request, no error."""
    store = ArchiveStore()
    store.add("field", grid_path)
    srv, thread = _start(store)
    target = "/v1/field/region?r=0:8,0:8,0:8"

    def broken(*args, **kwargs):
        raise RuntimeError("inline read failed")

    try:
        assert _fetch(srv.url, target)[0] == 200  # warms every tile
        monkeypatch.setattr(ArchiveStore, "read_resident", broken)
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            status, _, body = _fetch(srv.url, target)
        region = json.loads(_fetch(srv.url, "/metrics")[2])["routes"]["region"]
    finally:
        srv.shutdown()
        srv.server_close()
        store.close()
        thread.join(timeout=10)
    assert status == 200
    assert body == repro.read_region(grid_path, "0:8,0:8,0:8").tobytes()
    assert (region["requests"], region["errors"]) == (2, 0)
    log = [r.getMessage().split(" ")[:3] for r in caplog.records
           if r.name == "repro.serve"]
    assert log == [["GET", target, "200"]]


# ---------------------------------------------------------------------------
# Write path over the selectors front end (chunked upload, lent socket)
# ---------------------------------------------------------------------------

class TestAsyncWritePath:
    def test_push_replace_delete_roundtrip(self, tmp_path, field):
        store = ArchiveStore()
        manager = IngestManager(tmp_path / "root", store)
        srv, thread = _start(store, ingest=manager)
        try:
            out = push_field(srv.url, "f", field.astype(np.float32),
                             bound=1e-3, codec=CODEC)
            assert out["status"] == 201 and out["generation"] == 1
            status, headers, body = _fetch(srv.url,
                                           "/v1/f/region?r=0:4,0:4,0:4")
            assert status == 200
            got = np.frombuffer(body, dtype=headers["x-repro-dtype"])
            assert got.shape == (4 * 4 * 4,)
            # Replace: generation bumps, the ETag flips.
            etag1 = _fetch(srv.url, "/v1/f/info")[1]["etag"]
            out = push_field(srv.url, "f", field.astype(np.float32),
                             bound=1e-4, codec=CODEC)
            assert out["status"] == 200 and out["generation"] == 2
            status, headers, body = _fetch(srv.url, "/v1/f/info")
            assert json.loads(body)["generation"] == 2
            assert headers["etag"] != etag1
            out = delete_key(srv.url, "f")
            assert out["deleted"] == "f"
            assert _fetch(srv.url, "/v1/f/info")[0] == 404
        finally:
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)

    def test_auth_denied_mid_stream_push(self, tmp_path, field):
        """A 401 while the chunked body is still streaming: the client must
        surface the status (not EPIPE), and the server must stay healthy."""
        store = ArchiveStore()
        manager = IngestManager(tmp_path / "root", store)
        manager.manifest.set_auth("*", "sesame")
        srv, thread = _start(store, ingest=manager)
        try:
            with pytest.raises(PushError) as err:
                push_field(srv.url, "f", field.astype(np.float32),
                           bound=1e-3, codec=CODEC)
            assert err.value.status == 401
            out = push_field(srv.url, "f", field.astype(np.float32),
                             bound=1e-3, codec=CODEC, token="sesame")
            assert out["status"] == 201
        finally:
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)


def _fetch(base, path):
    from urllib.parse import urlsplit

    parts = urlsplit(base)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, {k.lower(): v for k, v in resp.getheaders()}, \
            resp.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Client-side bugfixes
# ---------------------------------------------------------------------------

class TestClientFixes:
    def test_url_base_path_prefix_is_honored(self, tmp_path, field):
        """``push http://host/prefix`` must hit /prefix/v1/<key> (404 on a
        server without that mount), not silently post to /v1/<key>."""
        store = ArchiveStore()
        manager = IngestManager(tmp_path / "root", store)
        srv, thread = _start(store, ingest=manager)
        try:
            with pytest.raises(PushError) as err:
                push_field(srv.url + "/prefix", "f",
                           field.astype(np.float32), bound=1e-3, codec=CODEC)
            assert err.value.status == 404
            with pytest.raises(PushError) as err:
                delete_key(srv.url + "/prefix/", "f")
            assert err.value.status == 404
            # The unprefixed URL still lands on the real route.
            out = push_field(srv.url, "f", field.astype(np.float32),
                             bound=1e-3, codec=CODEC)
            assert out["status"] == 201
        finally:
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)

    def test_non_finite_range_fails_fast_client_side(self):
        bad = np.ones((8, 8), dtype=np.float32)
        bad[3, 3] = np.nan
        # An unroutable URL proves no connection is even attempted.
        with pytest.raises(ValueError, match="non-finite"):
            push_field("http://127.0.0.1:9", "f", bad, bound=1e-3)
        bad[3, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            push_field("http://127.0.0.1:9", "f", bad, bound=1e-3)

    def test_zero_d_source_clear_error(self):
        with pytest.raises(ValueError, match="0-d"):
            push_field("http://127.0.0.1:9", "f",
                       np.array(3.0, dtype=np.float32), bound=1e-3)
