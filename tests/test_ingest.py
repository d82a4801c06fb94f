"""The durable write path: manifest atomicity, body parsers, IngestManager.

Covers ISSUE 7's ingest subsystem below the HTTP layer: the manifest's
atomic rewrite + replay contract, the upload-body parsers' corrupt-input
behaviour, and the stage → verify → atomic-publish → deferred-unlink
lifecycle of :class:`IngestManager` (including the startup sweep of crash
debris).
"""

from __future__ import annotations

import io
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bounds import Rel
from repro.store import (
    ArchiveStore,
    IngestConflictError,
    IngestManager,
    IngestQuotaError,
    ManifestEntry,
    StoreManifest,
)
from repro.store.ingest import (
    limit_stream,
    read_chunked_stream,
    read_row_blocks,
    read_sized_stream,
)

CODEC = "szinterp"
BOUND = Rel(1e-3)


def _field(shape=(24, 16), seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).cumsum(axis=0)


def _blocks(arr, rows=5):
    for start in range(0, arr.shape[0], rows):
        yield arr[start:start + rows]


def _entry(key="k", **over):
    base = dict(path="archives/k.g000001.rpra", codec=CODEC, shape=[4, 4],
                dtype="float64", bound={"mode": "rel", "value": 1e-3},
                token="ab" * 32, nbytes=100, created=1.0, replaced=None,
                generation=1)
    base.update(over)
    return ManifestEntry(key, **base)


def _ingest(manager, key, arr, **kw):
    kw.setdefault("codec", CODEC)
    kw.setdefault("bound", BOUND)
    kw.setdefault("data_range", (float(arr.min()), float(arr.max())))
    return manager.ingest(key, _blocks(arr), **kw)


# ---------------------------------------------------------------------------
# StoreManifest
# ---------------------------------------------------------------------------

class TestStoreManifest:
    def test_roundtrip_through_restart(self, tmp_path):
        m = StoreManifest(tmp_path)
        m.put(_entry("temp"))
        m.set_auth("*", "s3cret")
        m2 = StoreManifest(tmp_path)  # fresh instance = restart
        assert m2.keys() == ["temp"]
        got = m2.get("temp")
        assert got.to_dict() == _entry("temp").to_dict()
        assert m2.auth_token("anything") == "s3cret"

    def test_per_key_token_beats_wildcard(self, tmp_path):
        m = StoreManifest(tmp_path)
        m.set_auth("*", "everyone")
        m.set_auth("temp", "special")
        assert m.auth_token("temp") == "special"
        assert m.auth_token("other") == "everyone"
        m.set_auth("temp", None)
        assert m.auth_token("temp") == "everyone"

    def test_delete_persists_and_returns_entry(self, tmp_path):
        m = StoreManifest(tmp_path)
        m.put(_entry("temp"))
        assert m.delete("temp").key == "temp"
        with pytest.raises(KeyError):
            m.delete("temp")
        assert StoreManifest(tmp_path).keys() == []

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        m = StoreManifest(tmp_path)
        for i in range(5):
            m.put(_entry(f"k{i}"))
        assert not list(tmp_path.glob("*.tmp"))
        # The live file is always complete, parseable JSON.
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(doc["entries"]) == [f"k{i}" for i in range(5)]

    @pytest.mark.parametrize("text", [
        "not json",
        '{"format": "something-else", "version": 1}',
        '{"format": "repro-store-manifest", "version": 99}',
        '{"format": "repro-store-manifest", "version": 1, "entries": []}',
        '{"format": "repro-store-manifest", "version": 1,'
        ' "entries": {"k": {"path": "a.rpra"}}}',
        '{"format": "repro-store-manifest", "version": 1,'
        ' "auth": {"k": 5}}',
    ])
    def test_malformed_manifest_raises_corrupt(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ValueError, match="corrupt manifest"):
            StoreManifest(tmp_path)

    def test_byte_flipped_manifest_is_corrupt(self, tmp_path):
        m = StoreManifest(tmp_path)
        m.put(_entry("temp"))
        raw = bytearray((tmp_path / "manifest.json").read_bytes())
        raw[len(raw) // 2] ^= 0x97  # breaks UTF-8, not just JSON
        (tmp_path / "manifest.json").write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="corrupt manifest"):
            StoreManifest(tmp_path)

    @pytest.mark.parametrize("path", ["/etc/passwd", "../outside.rpra"])
    def test_entry_path_escaping_root_is_corrupt(self, tmp_path, path):
        entry = _entry("k").to_dict()
        entry["path"] = path
        doc = {"format": "repro-store-manifest", "version": 1,
               "auth": {}, "entries": {"k": entry}}
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="corrupt manifest"):
            StoreManifest(tmp_path)


# ---------------------------------------------------------------------------
# Body parsers
# ---------------------------------------------------------------------------

def _chunked(payload: bytes, chunk=7, trailers=b"") -> io.BytesIO:
    out = bytearray()
    for start in range(0, len(payload), chunk):
        piece = payload[start:start + chunk]
        out += f"{len(piece):x}\r\n".encode() + piece + b"\r\n"
    out += b"0\r\n" + trailers + b"\r\n"
    return io.BytesIO(bytes(out))


class TestBodyParsers:
    def test_sized_stream_exact(self):
        got = b"".join(read_sized_stream(io.BytesIO(b"abcdef"), 6, io_chunk=4))
        assert got == b"abcdef"

    def test_sized_stream_truncated_is_corrupt(self):
        with pytest.raises(ValueError, match="corrupt upload body"):
            list(read_sized_stream(io.BytesIO(b"abc"), 6))

    def test_chunked_stream_roundtrip(self):
        payload = bytes(range(256)) * 3
        got = b"".join(read_chunked_stream(_chunked(payload), io_chunk=11))
        assert got == payload

    def test_chunked_stream_with_trailers_and_extensions(self):
        body = io.BytesIO(b"5;ext=1\r\nhello\r\n0\r\nX-Sum: 1\r\n\r\n")
        assert b"".join(read_chunked_stream(body)) == b"hello"

    @pytest.mark.parametrize("raw", [
        b"zz\r\nhello\r\n0\r\n\r\n",          # non-hex size
        b"5\r\nhel",                          # truncated payload
        b"5\r\nhelloXX0\r\n\r\n",             # payload missing its CRLF
        b"5\r\nhello\r\n0\r\n",               # stream ends inside trailers
        b"5",                                 # size line never terminated
    ])
    def test_malformed_chunked_is_corrupt(self, raw):
        with pytest.raises(ValueError, match="corrupt chunked body"):
            list(read_chunked_stream(io.BytesIO(raw)))

    def test_row_blocks_regroup_bit_identical(self):
        arr = _field((10, 3, 4))
        raw = arr.astype(np.float64).tobytes()
        pieces = [raw[i:i + 37] for i in range(0, len(raw), 37)]
        blocks = list(read_row_blocks(pieces, (10, 3, 4), np.float64))
        assert all(b.shape[1:] == (3, 4) for b in blocks)
        assert np.array_equal(np.concatenate(blocks), arr)

    @pytest.mark.parametrize("shape,nbytes", [
        ((4, 4), 4 * 4 * 8 - 8),   # one row short
        ((4, 4), 4 * 4 * 8 + 8),   # one row long
        ((4, 4), 4 * 4 * 8 + 3),   # trailing partial row
    ])
    def test_row_blocks_wrong_length_is_corrupt(self, shape, nbytes):
        raw = b"\0" * nbytes
        with pytest.raises(ValueError, match="corrupt upload body"):
            list(read_row_blocks([raw], shape, np.float64))

    @pytest.mark.parametrize("shape", [(), (0, 4), (4, 0)])
    def test_row_blocks_degenerate_shape_is_corrupt(self, shape):
        with pytest.raises(ValueError, match="corrupt upload body"):
            list(read_row_blocks([b""], shape, np.float64))

    def test_limit_stream_raises_past_quota(self):
        with pytest.raises(IngestQuotaError):
            list(limit_stream([b"x" * 10, b"x" * 10], 15, "k"))
        assert b"".join(limit_stream([b"x" * 10], None, "k")) == b"x" * 10


# ---------------------------------------------------------------------------
# IngestManager
# ---------------------------------------------------------------------------

@pytest.fixture()
def manager(tmp_path):
    with ArchiveStore() as store:
        yield IngestManager(tmp_path / "root", store)


class TestIngestManager:
    def test_ingest_publishes_and_serves(self, manager):
        arr = _field()
        entry = _ingest(manager, "temp", arr)
        assert entry.generation == 1 and entry.replaced is None
        path = manager.root / entry.path
        assert path.is_file() and not list(manager.root.rglob("*.tmp"))
        region = (slice(2, 9), slice(0, 5))
        got = manager.store.read_region("temp", region)
        assert np.array_equal(got, repro.read_region(path, region))
        err = np.max(np.abs(manager.store.read_region(
            "temp", tuple(slice(0, s) for s in arr.shape)) - arr))
        assert err <= 1e-3 * (arr.max() - arr.min()) + 1e-12

    def test_replace_bumps_generation_and_unlinks_old(self, manager):
        region = (slice(2, 9), slice(0, 5))
        e1 = _ingest(manager, "temp", _field(seed=1))
        before = manager.store.read_region("temp", region)
        e2 = _ingest(manager, "temp", _field(seed=2))
        # Reads after the replace serve the new archive, never the old field.
        after = manager.store.read_region("temp", region)
        assert np.array_equal(
            after, repro.read_region(manager.root / e2.path, region))
        assert not np.array_equal(after, before)
        assert e2.generation == 2 and e2.created == e1.created
        assert e2.replaced is not None and e2.path != e1.path
        # No reader held the old archive, so its file is already gone.
        assert not (manager.root / e1.path).exists()
        assert (manager.root / e2.path).is_file()

    def test_replace_defers_unlink_until_readers_drain(self, manager):
        arr = _field()
        e1 = _ingest(manager, "temp", arr)
        old_path = manager.root / e1.path
        want_old = repro.read_region(old_path, (slice(0, 4), slice(0, 4)))

        # Pin the live entry the way an in-flight read does, then replace.
        entry = manager.store._entry("temp")
        try:
            _ingest(manager, "temp", _field(seed=3))
            assert old_path.exists(), "old archive unlinked under a pin"
            # The pinned reader still sees the *old* bytes, never a mix.
            raw = entry.handle.read_at(0, 8)
            assert raw == old_path.read_bytes()[:8]
            got_old = np.frombuffer(
                old_path.read_bytes(), dtype=np.uint8)  # file intact
            assert got_old.size > 0 and want_old.size > 0
        finally:
            entry.unpin()
        assert not old_path.exists(), "drained pin did not release the file"

    def test_conflict_on_same_key_in_flight(self, manager):
        started, release = threading.Event(), threading.Event()

        def slow_blocks():
            yield _field((8, 8))
            started.set()
            release.wait(timeout=30)
            yield _field((8, 8), seed=1) * 0 + 1.0

        errs = []

        def worker():
            try:
                manager.ingest("temp", slow_blocks(), codec=CODEC,
                               bound=BOUND, data_range=(-50.0, 50.0))
            except Exception as exc:  # pragma: no cover - must not happen
                errs.append(exc)

        t = threading.Thread(target=worker)
        t.start()
        assert started.wait(timeout=30)
        try:
            with pytest.raises(IngestConflictError):
                _ingest(manager, "temp", _field())
            # A different key is not blocked by temp's in-flight ingest.
            _ingest(manager, "other", _field(seed=4))
        finally:
            release.set()
            t.join(timeout=30)
        assert not errs and manager.manifest.get("temp").generation == 1

    def test_quota_enforced_mid_stream(self, tmp_path):
        with ArchiveStore() as store:
            small = IngestManager(tmp_path / "root", store, quota_bytes=256)
            from repro.store.ingest import limit_stream, read_row_blocks
            arr = _field((16, 16))
            raw = arr.astype(np.float64).tobytes()
            pieces = [raw[i:i + 128] for i in range(0, len(raw), 128)]
            blocks = read_row_blocks(
                limit_stream(pieces, small.quota_bytes, "temp"),
                arr.shape, np.float64)
            with pytest.raises(IngestQuotaError):
                small.ingest("temp", blocks, codec=CODEC, bound=BOUND,
                             data_range=(float(arr.min()), float(arr.max())))
            # Nothing published, nothing staged.
            assert small.manifest.keys() == []
            assert not list(small.root.rglob("*.tmp"))

    @pytest.mark.parametrize("key", ["", "a/b", 7])
    def test_bad_keys_rejected(self, manager, key):
        with pytest.raises(ValueError):
            manager.ingest(key, iter([]), codec=CODEC, bound=BOUND)

    def test_model_requiring_codec_rejected(self, manager):
        with pytest.raises(ValueError, match="model"):
            _ingest(manager, "temp", _field(), codec="aesz")

    def test_delete_removes_everywhere(self, manager):
        entry = _ingest(manager, "temp", _field())
        path = manager.root / entry.path
        manager.delete("temp")
        assert manager.manifest.get("temp") is None
        assert "temp" not in manager.store.keys()
        assert not path.exists()
        with pytest.raises(KeyError):
            manager.delete("temp")

    def test_replay_restores_keys(self, tmp_path):
        root = tmp_path / "root"
        with ArchiveStore() as store:
            m1 = IngestManager(root, store)
            _ingest(m1, "a", _field(seed=1))
            _ingest(m1, "b", _field(seed=2))
        with ArchiveStore() as store:
            m2 = IngestManager(root, store)
            assert m2.sweep() == []
            assert m2.replay() == []
            assert sorted(store.keys()) == ["a", "b"]
            region = (slice(1, 7), slice(2, 9))
            want = repro.read_region(root / m2.manifest.get("a").path, region)
            assert np.array_equal(store.read_region("a", region), want)

    def test_replay_skips_missing_archive_serves_rest(self, tmp_path):
        root = tmp_path / "root"
        with ArchiveStore() as store:
            m1 = IngestManager(root, store)
            _ingest(m1, "good", _field(seed=1))
            bad = _ingest(m1, "bad", _field(seed=2))
        (root / bad.path).unlink()
        with ArchiveStore() as store:
            m2 = IngestManager(root, store)
            skipped = m2.replay()
            assert [k for k, _ in skipped] == ["bad"]
            assert store.keys() == ("good",)

    def test_sweep_removes_stale_tmp_and_orphans(self, tmp_path):
        """Satellite: startup sweep clears crash debris of every kind."""
        root = tmp_path / "root"
        with ArchiveStore() as store:
            m = IngestManager(root, store)
            entry = _ingest(m, "keep", _field())
            # Crash debris: a staged archive, a torn manifest rewrite, and a
            # published-but-never-recorded archive file.
            stale1 = m.manifest.archive_dir / "keep-xx.g000009.rpra.tmp"
            stale1.write_bytes(b"partial")
            stale2 = root / "manifest.json.tmp"
            stale2.write_bytes(b"{torn")
            orphan = m.manifest.archive_dir / "orphan-ff.g000001.rpra"
            orphan.write_bytes(b"unreferenced")
            removed = m.sweep()
            assert sorted(removed) == sorted([stale1, stale2, orphan])
            assert not stale1.exists() and not stale2.exists()
            assert not orphan.exists()
            assert (root / entry.path).is_file(), "sweep ate a live archive"
            # Idempotent, and the key still serves.
            assert m.sweep() == []
            assert m.manifest.keys() == ["keep"]

    def test_verify_failure_never_publishes(self, manager, monkeypatch):
        from repro.store import ingest as ingest_mod

        def bad_verify(path):
            raise ingest_mod.IngestVerifyError("staged archive failed "
                                               "verification: induced")

        monkeypatch.setattr(ingest_mod.IngestManager, "_verify_archive",
                            staticmethod(bad_verify))
        with pytest.raises(ingest_mod.IngestVerifyError):
            _ingest(manager, "temp", _field())
        assert manager.manifest.keys() == []
        assert "temp" not in manager.store.keys()
        assert not list(manager.root.rglob("*.tmp"))
        assert not any(manager.manifest.archive_dir.iterdir())
