"""Streaming ingest: uploads -> verified archives -> atomic publish.

This is the write half of the store service (the read half being
:class:`repro.store.ArchiveStore`).  :class:`IngestManager` turns an uploaded
field into a served key in four steps, none of which ever materializes the
field in memory:

1. **Stream-compress** — the upload arrives as an iterator of row blocks and
   rides :func:`repro.api.compress_chunked`'s iterator source, so memory is
   bounded by one chunk regardless of field size.  Each chunk's codec run
   happens in the process's one ingest worker (a long-lived ``spawn``
   :class:`~repro.utils.parallel.WorkerProcess`, started when the first
   writable server is built), off the GIL the server's readers need: only the
   chunk, codec name, bound and options go there and only the chunk's
   archive bytes come back.  This process keeps the rest — body parsing,
   rechunking, the Rel -> Abs conversion and the envelope — and every step
   below.  The worker is held for one chunk at a time, never while an
   upload body is read, so ingests of different keys share it chunk by
   chunk.  If it dies mid-chunk that ingest fails with ``OSError`` (HTTP
   500); the next ingest starts a new one.  The worker starts from a fresh
   import (``spawn``): codecs registered at run time in this process are
   unknown to it, and a program embedding the server must keep its entry
   point under ``if __name__ == "__main__"``.
2. **Stage + verify** — the archive bytes are written to a ``*.tmp`` file
   under the root's ``archives/`` directory (SHA-256 content token computed
   on the way through, file fsync'd), then re-opened and verified: the front
   header must parse and a spot-check of tiles (first/middle/last) must pass
   their CRC-32s.  A verification failure is a server-side fault
   (:class:`IngestVerifyError`), never published.
3. **Atomic publish** — ``os.replace`` moves the temp file to its
   generation-numbered final name, the :class:`~repro.store.manifest.StoreManifest`
   records the key durably, and the :class:`ArchiveStore` swaps the key to
   the new archive in one registry operation.
4. **Deferred unlink** — on replacement the old archive's pin counts let
   in-flight readers finish against the old file; its ``pread`` handle closes
   when the last reader drains, and only then is the old file unlinked
   (``ArchiveStore``'s ``on_release`` callback).

A crash between any two steps leaves either the old or the new state plus at
most one stray file, which :meth:`IngestManager.sweep` removes on the next
startup (stale ``*.tmp`` anywhere under the root, and ``archives/`` files no
longer referenced by the manifest).

The module also owns the upload *body* parsers used by the HTTP layer
(:func:`read_chunked_stream`, :func:`read_sized_stream`,
:func:`read_row_blocks`); malformed bodies raise
``ValueError("corrupt ...")``, the project-wide parser convention.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.api import (DEFAULT_CHUNK_ELEMS, _compress_chunked, load_index,
                       open_reader)
from repro.bounds import ErrorBound, as_bound
from repro.registry import compressor_spec
from repro.store.manifest import (
    ManifestEntry,
    StoreManifest,
    fsync_directory,
)
from repro.store.store import ArchiveStore, _check_key
from repro.utils.concurrency import install_guards, make_lock
from repro.utils.parallel import WorkerProcess

#: Default per-key quota on *uploaded field bytes* (1 GiB).  The archive on
#: disk is smaller by the compression ratio; the quota guards the streaming
#: work (and the disk) against unbounded bodies, not the archive size.
DEFAULT_QUOTA_BYTES = 1 << 30

#: Read granularity for upload bodies: bounds per-chunk memory while keeping
#: syscall counts low.
_IO_CHUNK = 1 << 20


#: The process's one compression worker, shared by every manager and ingest:
#: one per manager would start a process per store root (and per test).
_WORKER = WorkerProcess("repro-ingest")


class IngestConflictError(RuntimeError):
    """Another ingest of the same key is in flight (HTTP 409)."""


class IngestQuotaError(RuntimeError):
    """The upload body exceeds the per-key quota (HTTP 413)."""


class IngestVerifyError(RuntimeError):
    """The staged archive failed post-write verification (HTTP 500)."""


# ---------------------------------------------------------------------------
# Upload-body parsers (shared by the HTTP layer and the tests)
# ---------------------------------------------------------------------------

def read_sized_stream(rfile, length: int, *,
                      io_chunk: int = _IO_CHUNK) -> Iterator[bytes]:
    """Yield exactly ``length`` bytes from ``rfile`` in bounded pieces."""
    remaining = int(length)
    while remaining > 0:
        piece = rfile.read(min(remaining, io_chunk))
        if not piece:
            raise ValueError(
                f"corrupt upload body: truncated {remaining} bytes before "
                f"the declared Content-Length")
        remaining -= len(piece)
        yield piece


def read_chunked_stream(rfile, *, io_chunk: int = _IO_CHUNK) -> Iterator[bytes]:
    """Decode an HTTP/1.1 ``Transfer-Encoding: chunked`` body from ``rfile``.

    Both HTTP front ends hand the route the raw body stream, so the chunk
    framing (hex size line, payload, CRLF, 0-chunk, optional trailers) is
    parsed here.  Yields payload pieces of at most ``io_chunk`` bytes;
    malformed framing raises ``ValueError("corrupt chunked body ...")``.
    """
    while True:
        line = rfile.readline(1026)
        if not line.endswith(b"\n"):
            raise ValueError(
                "corrupt chunked body: chunk-size line missing its terminator")
        size_token = line.strip().split(b";", 1)[0]
        try:
            size = int(size_token, 16)
        except ValueError:
            raise ValueError(
                f"corrupt chunked body: invalid chunk size "
                f"{size_token[:16]!r}") from None
        if size < 0:
            raise ValueError(
                f"corrupt chunked body: negative chunk size {size}")
        if size == 0:
            break
        remaining = size
        while remaining > 0:
            piece = rfile.read(min(remaining, io_chunk))
            if not piece:
                raise ValueError(
                    f"corrupt chunked body: truncated {remaining} bytes into "
                    f"a {size}-byte chunk")
            remaining -= len(piece)
            yield piece
        if rfile.read(2) != b"\r\n":
            raise ValueError(
                "corrupt chunked body: chunk payload missing its CRLF "
                "terminator")
    # Trailer section: header lines until the terminating blank line.
    while True:
        line = rfile.readline(1026)
        if not line:
            raise ValueError(
                "corrupt chunked body: stream ended inside the trailer "
                "section")
        if line in (b"\r\n", b"\n"):
            return


def read_row_blocks(byte_chunks: Iterable[bytes], shape: Tuple[int, ...],
                    dtype: np.dtype) -> Iterator[np.ndarray]:
    """Regroup a byte stream into whole-row ndarray blocks of ``shape``'s field.

    The stream must carry exactly ``prod(shape) * itemsize`` bytes of C-order
    ``dtype`` data; blocks come out as ``(rows,) + shape[1:]`` arrays as soon
    as whole rows are available, so buffering is bounded by one incoming
    piece plus one partial row.  Too many/few bytes raise
    ``ValueError("corrupt upload body ...")``.
    """
    shape = tuple(int(s) for s in shape)
    if not shape:
        raise ValueError("corrupt upload body: a 0-d shape cannot be streamed "
                         "(declare shape (1,) for a scalar field)")
    dtype = np.dtype(dtype)
    trailing = shape[1:]
    row_bytes = int(np.prod(trailing, dtype=np.int64)) * dtype.itemsize
    if row_bytes <= 0 or shape[0] <= 0:
        raise ValueError(
            f"corrupt upload body: shape {shape} describes an empty field")
    total_rows = shape[0]
    rows_seen = 0
    buf = bytearray()
    for piece in byte_chunks:
        buf += piece
        nrows = len(buf) // row_bytes
        if nrows == 0:
            continue
        if rows_seen + nrows > total_rows:
            raise ValueError(
                f"corrupt upload body: more than the declared "
                f"{total_rows} rows of {row_bytes} bytes")
        take = nrows * row_bytes
        block = np.frombuffer(bytes(buf[:take]), dtype=dtype)
        del buf[:take]
        rows_seen += nrows
        yield block.reshape((nrows,) + trailing)
    if buf:
        raise ValueError(
            f"corrupt upload body: {len(buf)} trailing bytes do not form a "
            f"whole {row_bytes}-byte row")
    if rows_seen != total_rows:
        raise ValueError(
            f"corrupt upload body: ended after {rows_seen} of the declared "
            f"{total_rows} rows")


def limit_stream(byte_chunks: Iterable[bytes], quota_bytes: Optional[int],
                 key: str) -> Iterator[bytes]:
    """Pass ``byte_chunks`` through, raising :class:`IngestQuotaError` past the quota."""
    if quota_bytes is None:
        yield from byte_chunks
        return
    seen = 0
    for piece in byte_chunks:
        seen += len(piece)
        if seen > quota_bytes:
            raise IngestQuotaError(
                f"upload for key {key!r} exceeds the per-key quota of "
                f"{quota_bytes} bytes")
        yield piece


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

def _archive_filename(key: str, generation: int) -> str:
    """A filesystem-safe, collision-free, generation-unique archive name."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", key)[:48] or "key"
    digest = hashlib.sha1(key.encode()).hexdigest()[:8]
    return f"{slug}-{digest}.g{generation:06d}.rpra"


class IngestManager:
    """Couples a :class:`StoreManifest` and an :class:`ArchiveStore` into the
    durable write path of one store root.

    ``quota_bytes`` bounds each upload's raw field bytes (``None`` = no
    bound); ``model`` is the decode context handed to the store for replayed
    and newly ingested archives (matching ``repro serve --model``).  All
    methods are thread-safe; concurrent ingests of *different* keys run in
    parallel, sharing the process's one compression worker chunk by chunk;
    concurrent ingests of the *same* key conflict
    (:class:`IngestConflictError`).
    """

    def __init__(self, root, store: ArchiveStore, *,
                 quota_bytes: Optional[int] = DEFAULT_QUOTA_BYTES,
                 model: Any = None):
        self.manifest = StoreManifest(root)
        self.store = store
        self.quota_bytes = quota_bytes
        self.model = model
        self._lock = make_lock("IngestManager._lock")
        self._active: set = set()  # guarded by: self._lock

    @property
    def root(self) -> Path:
        return self.manifest.root

    # ------------------------------------------------------------- lifecycle
    def sweep(self) -> List[Path]:
        """Remove crash debris; call once at startup, before serving.

        Drops every stale ``*.tmp`` under the root (staged archives and
        manifest rewrites that never reached their ``os.replace``) and every
        file in ``archives/`` the manifest does not reference (an archive
        published in step 3 whose manifest write in step 4 never happened,
        or an old generation whose deferred unlink was lost to a crash).
        Returns the removed paths.
        """
        referenced = {p.resolve() for p in self.manifest.referenced_paths()}
        removed: List[Path] = []
        for tmp in sorted(self.root.rglob("*.tmp")):
            if tmp.is_file():
                tmp.unlink()
                removed.append(tmp)
        for candidate in sorted(self.manifest.archive_dir.iterdir()):
            if candidate.is_file() and candidate.resolve() not in referenced:
                candidate.unlink()
                removed.append(candidate)
        if removed:
            fsync_directory(self.manifest.archive_dir)
        return removed

    def replay(self) -> List[Tuple[str, str]]:
        """Re-register every manifest key with the store.

        Returns ``(key, reason)`` pairs for entries that could not be served
        (archive file missing or corrupt); good keys serve regardless, so one
        damaged archive does not brick a restarted node.
        """
        skipped: List[Tuple[str, str]] = []
        for key, entry in sorted(self.manifest.entries().items()):
            path = self.manifest.archive_path(entry)
            try:
                self.store.add(key, os.fspath(path), model=self.model,
                               generation=entry.generation)
            except (OSError, ValueError) as exc:
                skipped.append((key, str(exc)))
        return skipped

    # ---------------------------------------------------------------- ingest
    @staticmethod
    def start_worker() -> None:
        """Start the process's compression worker now, without waiting for it.

        A writable server calls this when it is built, so the worker's
        imports overlap everything before the first push; a read-only node
        never starts one.  :meth:`ingest` starts it anyway, and replaces
        one that died.
        """
        _WORKER.start()

    def ingest(self, key: str, blocks: Iterable[np.ndarray], *,
               codec: str = "sz21", bound: Any = 1e-3,
               chunk_size: int = DEFAULT_CHUNK_ELEMS,
               data_range: Optional[Tuple[float, float]] = None,
               cast_dtype=np.float64) -> ManifestEntry:
        """Stream-compress ``blocks`` and atomically publish them as ``key``.

        ``blocks`` is an iterator of row-block arrays sharing trailing
        dimensions (what :func:`read_row_blocks` yields); the field passes
        through :func:`repro.api.compress_chunked` without ever being
        materialized.  ``cast_dtype`` mirrors the CLI compress convention
        (codecs see float64 regardless of the wire dtype).  Returns the new
        (durably written) manifest entry; raises
        :class:`IngestConflictError` if ``key`` is already mid-ingest,
        ``ValueError`` for caller mistakes (unknown codec, model-requiring
        codec, bad bound, malformed body via the block iterator, a codec
        error re-raised from the worker), :class:`IngestVerifyError` if the
        staged archive fails verification, and ``OSError`` if the worker
        died mid-chunk.
        """
        _check_key(key)
        bound = as_bound(bound)
        try:
            spec = compressor_spec(codec)
        except KeyError as exc:
            # Registry misses are caller mistakes (HTTP 400), not KeyErrors.
            raise ValueError(str(exc)) from None
        if spec.requires_model:
            raise ValueError(
                f"codec {codec!r} needs a trained model and cannot be used "
                f"for ingest (use a model-free codec)")
        with self._lock:
            if key in self._active:
                raise IngestConflictError(
                    f"an ingest of key {key!r} is already in progress")
            self._active.add(key)
        try:
            self.start_worker()
            return self._ingest_locked_key(key, blocks, spec.name, bound,
                                           chunk_size, data_range, cast_dtype)
        finally:
            with self._lock:
                self._active.discard(key)

    def _ingest_locked_key(self, key: str, blocks, codec: str,
                           bound: ErrorBound, chunk_size: int, data_range,
                           cast_dtype) -> ManifestEntry:
        blob = _compress_chunked(blocks, codec, bound, chunk_size=chunk_size,
                                 chunk_shape=None, codec_options=None,
                                 embed_model=True, data_range=data_range,
                                 dtype=cast_dtype, job_map=_WORKER.imap)
        old = self.manifest.get(key)
        generation = 1 if old is None else old.generation + 1
        final = self.manifest.archive_dir / _archive_filename(key, generation)
        tmp = final.with_name(final.name + ".tmp")

        # Stage: bytes + content token to a temp file, flushed to disk.
        token = hashlib.sha256(blob).hexdigest()
        with open(tmp, "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())

        # Verify the staged file (what we will serve, not what we meant to
        # write): header parse + per-tile CRC spot-check.
        try:
            index = self._verify_archive(tmp)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

        # Publish: temp -> final name (atomic), then the durable manifest.
        os.replace(tmp, final)
        fsync_directory(final.parent)
        rel = os.fspath(final.relative_to(self.root))
        bound_doc = {"mode": bound.mode, "value": bound.value}
        if old is None:
            entry = ManifestEntry(key, path=rel, codec=codec,
                                  shape=list(index.shape), dtype=index.dtype,
                                  bound=bound_doc, token=token,
                                  nbytes=len(blob), created=time.time(),
                                  replaced=None, generation=generation)
        else:
            entry = old.replacement(path=rel, token=token, nbytes=len(blob),
                                    codec=codec, shape=list(index.shape),
                                    dtype=index.dtype, bound=bound_doc)
        self.manifest.put(entry)

        # Swap the live registry.  Readers pinned to the old archive finish
        # against its still-open pread handle; the old file is unlinked only
        # when that handle actually closes.
        old_path = None if old is None else self.manifest.archive_path(old)
        self.store.replace(key, os.fspath(final), model=self.model,
                           on_release=_unlinker(old_path),
                           generation=entry.generation)
        return entry

    def delete(self, key: str) -> ManifestEntry:
        """Remove ``key`` durably; the archive file unlinks once readers drain."""
        entry = self.manifest.delete(key)
        path = self.manifest.archive_path(entry)
        try:
            self.store.remove(key, on_release=_unlinker(path))
        except KeyError:
            # Manifest had it but the store did not (e.g. the archive failed
            # to replay at startup): the durable record is gone either way.
            _unlink_quietly(path)
        return entry

    # ------------------------------------------------------------- internals
    @staticmethod
    def _verify_archive(path: Path):
        """Parse the staged file's header and CRC-spot-check its tiles.

        Checks the first, middle and last tiles — enough to catch staging
        faults (truncation, torn writes, bad offsets) without re-reading an
        arbitrarily large archive.  Single-shot (v1) archives are fully
        parsed, which CRC-checks everything.
        """
        try:
            with open_reader(os.fspath(path)) as reader:
                index = load_index(reader)
                n = index.n_tiles
                for i in sorted({0, n // 2, n - 1}):
                    index.tile_archive(i, reader.read_at)
        except (OSError, ValueError) as exc:
            raise IngestVerifyError(
                f"staged archive failed verification: {exc}") from exc
        return index


def _unlinker(path: Optional[Path]):
    """An ``on_release`` callback unlinking ``path`` (``None`` -> no-op)."""
    if path is None:
        return None

    def _release() -> None:
        _unlink_quietly(path)

    return _release


def _unlink_quietly(path: Path) -> None:
    # Runs on whichever reader thread drops the last pin; a missing file
    # (already swept, double release) must not crash that reader.
    try:
        os.unlink(path)
    except OSError:
        pass


install_guards(IngestManager, "_lock", ("_active",))
