"""The writable HTTP store node: POST/DELETE routes, auth, metrics, e2e.

Acceptance (ISSUE 7): ``repro serve --root DIR --writable`` accepts a
``repro push``, serves the pushed field bit-identically to a local
``repro.read_region`` of the published archive, survives a restart with the
key intact (manifest replay), and never serves a byte-mix of two archives
while a key is replaced under concurrent readers.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bounds import Abs
from repro.store import ArchiveStore, IngestManager, PushError, push_field
from repro.store import ingest as ingest_mod
from repro.store.client import delete_key

SRC = Path(__file__).resolve().parents[1] / "src"
CODEC = "szinterp"
SHAPE = (40, 32)


def _field(seed=0, shape=SHAPE):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).cumsum(axis=0)


@pytest.fixture()
def writable(tmp_path):
    """A writable in-process server: (url, manager, store, root)."""
    import repro.store.server as server_mod

    store = ArchiveStore()
    manager = IngestManager(tmp_path / "root", store, quota_bytes=1 << 20)
    srv = server_mod.make_server(store, ingest=manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv.url, manager, store
    finally:
        srv.shutdown()
        srv.server_close()
        store.close()
        thread.join(timeout=10)


def _fetch_region(base, key, spec):
    with urllib.request.urlopen(f"{base}/v1/{key}/region?r={spec}",
                                timeout=30) as resp:
        shape = tuple(int(s) for s in resp.headers["X-Repro-Shape"].split(","))
        dtype = np.dtype(resp.headers["X-Repro-Dtype"])
        return np.frombuffer(resp.read(), dtype=dtype).reshape(shape)


def _get_json(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _raw_post(base, key, body=b"", headers=None, chunked_body=None):
    """POST with full header control; returns (status, parsed JSON body)."""
    host = base.split("//", 1)[1]
    conn = HTTPConnection(host, timeout=30)
    try:
        if chunked_body is not None:
            conn.request("POST", f"/v1/{key}", body=iter(chunked_body),
                         headers=headers or {}, encode_chunked=True)
        else:
            conn.request("POST", f"/v1/{key}", body=body,
                         headers=headers or {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _std_headers(arr, **over):
    headers = {
        "X-Repro-Shape": ",".join(str(s) for s in arr.shape),
        "X-Repro-Dtype": str(arr.dtype),
        "X-Repro-Bound": "1e-3",
        "X-Repro-Codec": CODEC,
        "X-Repro-Data-Range": f"{float(arr.min())!r},{float(arr.max())!r}",
    }
    headers.update(over)
    return {k: v for k, v in headers.items() if v is not None}


class TestIngestRoutes:
    def test_push_then_read_bit_identical(self, writable):
        url, manager, store = writable
        arr = _field()
        payload = push_field(url, "temp", arr, bound=1e-3, codec=CODEC)
        assert payload["status"] == 201 and payload["created"] is True
        assert payload["generation"] == 1

        # Served bytes == one-shot read of the published archive file.
        entry = manager.manifest.get("temp")
        got = _fetch_region(url, "temp", "5:20,0:16")
        want = repro.read_region(manager.root / entry.path,
                                 (slice(5, 20), slice(0, 16)))
        assert np.array_equal(got, want)

        # Replace: 200, generation bumps, new bytes served.
        arr2 = _field(seed=1)
        payload2 = push_field(url, "temp", arr2, bound=1e-3, codec=CODEC)
        assert payload2["status"] == 200 and payload2["created"] is False
        assert payload2["generation"] == 2
        entry2 = manager.manifest.get("temp")
        got2 = _fetch_region(url, "temp", "5:20,0:16")
        assert np.array_equal(got2, repro.read_region(
            manager.root / entry2.path, (slice(5, 20), slice(0, 16))))
        assert not np.array_equal(got2, got)

    def test_sized_upload_equivalent_to_chunked(self, writable):
        url, manager, _ = writable
        arr = _field(seed=2)
        status, payload = _raw_post(url, "sized", body=arr.tobytes(),
                                    headers=_std_headers(arr))
        assert status == 201
        assert payload["shape"] == list(arr.shape)
        got = _fetch_region(url, "sized", "0:40,0:32")
        err = np.max(np.abs(got - arr))
        assert err <= 1e-3 * (arr.max() - arr.min()) + 1e-12

    def test_read_only_server_answers_405(self, tmp_path):
        import repro.store.server as server_mod

        store = ArchiveStore()
        srv = server_mod.make_server(store)  # no ingest manager
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            arr = _field()
            with pytest.raises(PushError) as exc:
                push_field(srv.url, "temp", arr, bound=1e-3, codec=CODEC)
            assert exc.value.status == 405
            with pytest.raises(PushError) as exc:
                delete_key(srv.url, "temp")
            assert exc.value.status == 405
        finally:
            srv.shutdown()
            srv.server_close()
            store.close()
            thread.join(timeout=10)

    def test_auth_enforced_on_mutations_not_reads(self, writable):
        url, manager, _ = writable
        arr = _field()
        push_field(url, "temp", arr, bound=1e-3, codec=CODEC)
        manager.manifest.set_auth("*", "s3cret")

        with pytest.raises(PushError) as exc:
            push_field(url, "temp", arr, bound=1e-3, codec=CODEC)
        assert exc.value.status == 401
        with pytest.raises(PushError) as exc:
            push_field(url, "temp", arr, bound=1e-3, codec=CODEC,
                       token="wrong")
        assert exc.value.status == 401
        with pytest.raises(PushError) as exc:
            delete_key(url, "temp")
        assert exc.value.status == 401

        # Reads stay open; the right token mutates.
        assert _fetch_region(url, "temp", "0:4,0:4").shape == (4, 4)
        payload = push_field(url, "temp", arr, bound=1e-3, codec=CODEC,
                             token="s3cret")
        assert payload["generation"] == 2
        assert delete_key(url, "temp", token="s3cret")["deleted"] == "temp"

    def test_per_key_token_beats_wildcard(self, writable):
        url, manager, _ = writable
        manager.manifest.set_auth("*", "everyone")
        manager.manifest.set_auth("special", "only-this")
        arr = _field()
        with pytest.raises(PushError) as exc:
            push_field(url, "special", arr, bound=1e-3, codec=CODEC,
                       token="everyone")
        assert exc.value.status == 401
        assert push_field(url, "special", arr, bound=1e-3, codec=CODEC,
                          token="only-this")["status"] == 201

    @pytest.mark.parametrize("mutate,code", [
        (lambda h: {k: v for k, v in h.items() if k != "X-Repro-Shape"}, 400),
        (lambda h: {**h, "X-Repro-Shape": "40,nope"}, 400),
        (lambda h: {**h, "X-Repro-Shape": "40,-3"}, 400),
        (lambda h: {**h, "X-Repro-Dtype": "float999"}, 400),
        (lambda h: {**h, "X-Repro-Bound-Mode": "bogus"}, 400),
        (lambda h: {**h, "X-Repro-Codec": "no-such-codec"}, 400),
        (lambda h: {k: v for k, v in h.items()
                    if k != "X-Repro-Data-Range"}, 400),  # rel needs a range
    ])
    def test_bad_upload_params_400(self, writable, mutate, code):
        url, _, _ = writable
        arr = _field()
        status, payload = _raw_post(url, "temp", body=arr.tobytes(),
                                    headers=mutate(_std_headers(arr)))
        assert status == code and "error" in payload

    def test_wrong_body_length_400(self, writable):
        url, manager, _ = writable
        arr = _field()
        status, payload = _raw_post(url, "temp", body=arr.tobytes()[:-8],
                                    headers=_std_headers(arr))
        assert status == 400 and "corrupt" in payload["error"]
        assert manager.manifest.keys() == []  # nothing half-published

    def test_missing_length_411(self, writable):
        url, _, _ = writable
        arr = _field()
        host = url.split("//", 1)[1]
        conn = HTTPConnection(host, timeout=30)
        try:
            conn.putrequest("POST", "/v1/temp")
            for name, value in _std_headers(arr).items():
                conn.putheader(name, value)
            conn.endheaders()  # no body, no Content-Length, no chunking
            resp = conn.getresponse()
            assert resp.status == 411
        finally:
            conn.close()

    def test_quota_precheck_and_midstream_413(self, writable):
        url, manager, _ = writable
        big = np.zeros((manager.quota_bytes // (32 * 8) + 8, 32))
        # Content-Length framing: rejected up front from the declared size.
        status, payload = _raw_post(
            url, "big", body=b"",
            headers={**_std_headers(big),
                     "Content-Length": str(big.nbytes)})
        assert status == 413 and "quota" in payload["error"]
        # Chunked framing: no declared size, tripped mid-stream.
        pieces = [bytes(big[i:i + 8]) for i in range(0, big.shape[0], 8)]
        status, payload = _raw_post(url, "big", chunked_body=pieces,
                                    headers=_std_headers(big))
        assert status == 413 and "quota" in payload["error"]
        assert manager.manifest.keys() == []

    def test_concurrent_same_key_ingest_409(self, writable):
        url, _, _ = writable
        arr = _field()
        raw = arr.tobytes()
        started, release = threading.Event(), threading.Event()
        slow_result = {}

        def slow_pieces():
            yield raw[:320]
            started.set()
            release.wait(timeout=30)
            yield raw[320:]

        def slow_push():
            slow_result["resp"] = _raw_post(url, "temp",
                                            chunked_body=slow_pieces(),
                                            headers=_std_headers(arr))

        t = threading.Thread(target=slow_push)
        t.start()
        assert started.wait(timeout=30)
        try:
            status, payload = _raw_post(url, "temp", body=raw,
                                        headers=_std_headers(arr))
            assert status == 409 and "in progress" in payload["error"]
        finally:
            release.set()
            t.join(timeout=30)
        assert slow_result["resp"][0] == 201  # the slow one still lands

    def test_delete_then_404(self, writable):
        url, manager, _ = writable
        arr = _field()
        push_field(url, "temp", arr, bound=1e-3, codec=CODEC)
        path = manager.root / manager.manifest.get("temp").path
        assert delete_key(url, "temp") == {"deleted": "temp", "generation": 1,
                                           "status": 200}
        assert not path.exists()
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{url}/v1/temp/region?r=0:4,0:4")
        exc.value.close()
        assert exc.value.code == 404
        with pytest.raises(PushError) as exc2:
            delete_key(url, "temp")
        assert exc2.value.status == 404

    def test_metrics_counts_routes_and_cache(self, writable):
        url, _, _ = writable
        arr = _field()
        push_field(url, "temp", arr, bound=1e-3, codec=CODEC)
        _fetch_region(url, "temp", "0:8,0:8")
        _fetch_region(url, "temp", "0:8,0:8")  # warm: second read hits cache
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{url}/v1/absent/region?r=0:4,0:4")
        exc.value.close()

        status, m = _get_json(f"{url}/metrics")
        assert status == 200 and m["writable"] is True
        assert m["archives"] == 1
        assert m["routes"]["ingest"]["requests"] == 1
        assert m["routes"]["ingest"]["errors"] == 0
        assert m["routes"]["region"]["requests"] == 3
        assert m["routes"]["region"]["errors"] == 1
        assert m["routes"]["region"]["seconds"] >= 0.0
        assert m["cache"]["hits"] >= 1 and m["cache"]["loads"] >= 1
        assert m["tile_decodes"] >= 1 and m["region_reads"] >= 2
        # The /metrics scrape itself is counted once it responds.
        status, m2 = _get_json(f"{url}/metrics")
        assert m2["routes"]["metrics"]["requests"] >= 1


class TestReplaceUnderReaders:
    def test_hammer_never_serves_a_mix(self, writable):
        """Satellite: every response is bit-identical to exactly one archive."""
        url, manager, _ = writable
        region, spec = (slice(0, 40), slice(0, 32)), "0:40,0:32"
        fields = [_field(seed=10), _field(seed=11)]
        push_field(url, "temp", fields[0], bound=1e-3, codec=CODEC)

        # The only archives that will ever exist: generations of these two
        # fields.  Collect each generation's exact decoded bytes.
        legal = []
        for f in fields:
            with ArchiveStore() as solo:
                m = IngestManager(manager.root.parent / f"ref{len(legal)}",
                                  solo)
                e = m.ingest("temp", iter([f]), codec=CODEC, bound=1e-3,
                             data_range=(float(f.min()), float(f.max())))
                legal.append(repro.read_region(m.root / e.path, region)
                             .tobytes())
        assert legal[0] != legal[1]

        stop = threading.Event()
        bad, reads = [], [0]

        def reader():
            while not stop.is_set():
                got = _fetch_region(url, "temp", spec).tobytes()
                reads[0] += 1
                if got not in legal:
                    bad.append(got)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(1, 9):  # 8 replacements under fire
                push_field(url, "temp", fields[i % 2], bound=1e-3,
                           codec=CODEC)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not bad, "a response matched neither the old nor new archive"
        assert reads[0] >= 8, f"hammer made only {reads[0]} reads"
        assert manager.manifest.get("temp").generation == 9
        # Replaced generations' files are gone once readers drained.
        archives = list(manager.manifest.archive_dir.glob("*.rpra"))
        assert len(archives) == 1


@pytest.fixture(params=["threaded", "selectors"])
def front_end(tmp_path, request):
    """A writable in-process server on each front end: (url, manager)."""
    import repro.store.server as server_mod

    store = ArchiveStore()
    manager = IngestManager(tmp_path / "root", store)
    srv = server_mod.make_server(store, ingest=manager, server=request.param)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv.url, manager
    finally:
        srv.shutdown()
        srv.server_close()
        store.close()
        thread.join(timeout=10)


def _connect(url):
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=30)


def _head(key, arr, **extra):
    """Request head of an upload of ``arr`` to ``key`` (no blank line)."""
    lines = [f"POST /v1/{key} HTTP/1.1", "Host: t"]
    lines += [f"{k}: {v}" for k, v in {**_std_headers(arr), **extra}.items()]
    return ("\r\n".join(lines) + "\r\n").encode()


def _status(f):
    """The status code of the next response (or interim response) on ``f``."""
    return int(f.readline().split(None, 2)[1])


def _response_rest(f):
    """The JSON body of a response whose status line was already read."""
    headers = {}
    for raw in iter(f.readline, b"\r\n"):
        name, _, value = raw.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return json.loads(f.read(int(headers["content-length"])))


class TestIngestWorker:
    """Ingest compresses in the process's one worker process; the server
    keeps the envelope, staging and publish."""

    @pytest.mark.parametrize("codec", ["sz21", "szinterp", "zfp"])
    def test_published_bytes_match_in_process_compress_chunked(
            self, front_end, codec):
        url, _ = front_end
        arr = _field(seed=21)
        chunk = 8 * arr.shape[1]  # five chunks cross the pipe
        lo, hi = float(arr.min()), float(arr.max())
        status, payload = _raw_post(
            url, "k", body=arr.tobytes(),
            headers=_std_headers(arr, **{"X-Repro-Codec": codec,
                                         "X-Repro-Chunk-Size": str(chunk)}))
        assert status == 201, payload
        want = repro.compress_chunked(arr, codec=codec, bound=1e-3,
                                      chunk_size=chunk, data_range=(lo, hi),
                                      dtype=np.float64)
        assert payload["token"] == hashlib.sha256(want).hexdigest()

    def test_codec_error_in_the_worker_is_the_same_400(self, front_end):
        url, _ = front_end
        arr = _field(seed=22)
        arr[3, 3] = np.nan
        with pytest.raises(ValueError) as here:
            repro.compress(arr, codec=CODEC, bound=Abs(1e-3))
        status, payload = _raw_post(
            url, "nan", body=arr.tobytes(),
            headers=_std_headers(arr, **{"X-Repro-Bound-Mode": "abs",
                                         "X-Repro-Data-Range": None}))
        assert status == 400 and payload["error"] == str(here.value)

    def test_killed_worker_fails_the_push_in_flight_only(self, front_end):
        url, manager = front_end
        arr = _field(seed=23)
        with _connect(url) as s, s.makefile("rb") as f:
            s.sendall(_head("k", arr, **{
                "Content-Length": str(arr.nbytes),
                "Expect": "100-continue"}) + b"\r\n")
            # 100 Continue comes at the first body read: the ingest runs.
            assert _status(f) == 100 and f.readline() == b"\r\n"
            dead = ingest_mod._WORKER.pid
            os.kill(dead, signal.SIGKILL)
            s.sendall(arr.tobytes())
            assert _status(f) == 500
            doc = _response_rest(f)
        assert "worker process died" in doc["error"]
        assert manager.manifest.get("k") is None
        payload = push_field(url, "k", arr, bound=1e-3, codec=CODEC)
        assert payload["status"] == 201
        assert ingest_mod._WORKER.pid not in (None, dead)

    def test_stalled_upload_does_not_hold_the_worker(self, front_end):
        url, manager = front_end
        arr = _field(seed=24)
        half = arr.nbytes // 2
        body = arr.tobytes()
        with _connect(url) as s, s.makefile("rb") as f:
            s.sendall(_head("a", arr, **{"Transfer-Encoding": "chunked",
                                         "X-Repro-Chunk-Size": "64"})
                      + b"\r\n" + b"%x\r\n" % half + body[:half] + b"\r\n")
            # The second push must not reach the manager before the first.
            deadline = time.monotonic() + 10
            while True:
                with manager._lock:
                    if "a" in manager._active:
                        break
                assert time.monotonic() < deadline, "key a's ingest never started"
                time.sleep(0.01)
            # Key a's ingest is in flight (409), and its first half has had
            # time to cross to the worker; then its client goes quiet.
            with pytest.raises(PushError) as exc:
                push_field(url, "a", arr, bound=1e-3, codec=CODEC)
            assert exc.value.status == 409
            time.sleep(0.5)
            done = push_field(url, "b", _field(seed=25), bound=1e-3,
                              codec=CODEC, timeout=20)
            assert done["status"] == 201
            rest = body[half:]
            s.sendall(b"%x\r\n" % len(rest) + rest + b"\r\n0\r\n\r\n")
            assert _status(f) == 201
            assert _response_rest(f)["key"] == "a"


class TestCliEndToEnd:
    def _spawn_serve(self, root, *extra):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root),
             "--port", "0", *extra],
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for line in proc.stdout:
            if line.startswith("serving "):
                return proc, line.split(" on ", 1)[1].split()[0]
        raise AssertionError(f"serve never came up: {proc.stderr.read()}")

    def _stop(self, proc):
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover - cleanup only
            proc.kill()
            proc.wait(timeout=15)
        proc.stdout.close()
        proc.stderr.close()

    def test_push_read_restart_cycle(self, tmp_path):
        """ISSUE 7 acceptance: push -> bit-identical read -> restart -> read."""
        root = tmp_path / "root"
        arr = _field(seed=7)
        npy = tmp_path / "field.npy"
        np.save(npy, arr)

        proc, url = self._spawn_serve(root, "--writable")
        try:
            push = subprocess.run(
                [sys.executable, "-m", "repro", "push", url, "temp",
                 str(npy), "--mode", "rel", "--bound", "1e-3",
                 "--codec", CODEC],
                env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
                capture_output=True, text=True, timeout=120)
            assert push.returncode == 0, push.stderr
            assert "created generation 1" in push.stdout

            got = _fetch_region(url, "temp", "3:17,2:30")
            doc = json.loads((root / "manifest.json").read_text())
            path = root / doc["entries"]["temp"]["path"]
            want = repro.read_region(path, (slice(3, 17), slice(2, 30)))
            assert np.array_equal(got, want)
        finally:
            self._stop(proc)

        # Restart (read-only this time): the manifest replays the key.
        proc, url2 = self._spawn_serve(root)
        try:
            got2 = _fetch_region(url2, "temp", "3:17,2:30")
            assert np.array_equal(got2, want)
            # Read-only restart refuses mutation.
            with pytest.raises(PushError) as exc:
                push_field(url2, "temp", arr, bound=1e-3, codec=CODEC)
            assert exc.value.status == 405
        finally:
            self._stop(proc)

    def test_sigkilled_server_leaves_no_process_behind(self, tmp_path):
        proc, url = self._spawn_serve(tmp_path / "root", "--writable")
        try:
            push_field(url, "temp", _field(seed=9), bound=1e-3, codec=CODEC)
            children = _children(proc.pid)
            assert any("multiprocessing.spawn" in cmd
                       for cmd in children.values()), children
        finally:
            proc.kill()
            proc.wait(timeout=15)
            proc.stdout.close()
            proc.stderr.close()
        # The worker reads its jobs from a pipe only the server held: EOF.
        deadline = time.monotonic() + 5
        while [pid for pid in children if _running(pid)]:
            assert time.monotonic() < deadline, \
                f"outlived the server: {children}"
            time.sleep(0.05)

    def test_serve_flag_validation(self, tmp_path):
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
        for argv in (["--writable"], ["--auth-token", "x"], []):
            r = subprocess.run(
                [sys.executable, "-m", "repro", "serve", *argv],
                env=env, capture_output=True, text=True, timeout=60)
            assert r.returncode != 0 and "--root" in r.stderr + r.stdout

    def test_cli_push_delete_roundtrip(self, tmp_path):
        root = tmp_path / "root"
        arr = _field(seed=8)
        npy = tmp_path / "field.npy"
        np.save(npy, arr)
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
        proc, url = self._spawn_serve(root, "--writable",
                                      "--auth-token", "hunter2")
        try:
            denied = subprocess.run(
                [sys.executable, "-m", "repro", "push", url, "temp",
                 str(npy)], env=env, capture_output=True, text=True,
                timeout=120)
            assert denied.returncode != 0 and "401" in denied.stderr
            ok = subprocess.run(
                [sys.executable, "-m", "repro", "push", url, "temp",
                 str(npy), "--token", "hunter2"],
                env=env, capture_output=True, text=True, timeout=120)
            assert ok.returncode == 0, ok.stderr
            gone = subprocess.run(
                [sys.executable, "-m", "repro", "push", url, "temp",
                 "--delete", "--token", "hunter2"],
                env=env, capture_output=True, text=True, timeout=120)
            assert gone.returncode == 0 and "deleted" in gone.stdout
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{url}/v1/temp/region?r=0:4,0:4")
            exc.value.close()
            assert exc.value.code == 404
        finally:
            self._stop(proc)


def _children(ppid):
    """``{pid: command line}`` of the live children of ``ppid``."""
    out = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmd = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:  # exited while we looked
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == ppid:
            out[int(entry.name)] = cmd.decode(errors="replace")
    return out


def _running(pid):
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")
