"""Concurrent archive service: shared caches, a thread-safe store, HTTP, ingest.

The one-shot facade (:func:`repro.read_region`) re-opens the file, re-parses
the header and re-decodes every intersecting tile on each call — right for a
CLI, wrong for serving many region reads over the same hot archives.  This
package is the serving layer:

* :class:`TileCache` — a size-bounded, thread-safe LRU over decoded tiles
  with single-flight loading (concurrent readers of the same tile block on
  one decode instead of repeating it).
* :class:`ArchiveStore` — keeps archives open by key, parses each header
  exactly once, and serves single, batched and resident-only region reads
  through one path over the shared cache and lock-free positional reads
  (``os.pread``); ``replace`` swaps a key atomically while readers drain.
* :class:`StoreManifest` / :class:`IngestManager` — the durable write path:
  a crash-safe JSON manifest under a ``--root`` directory, streaming
  compress-on-upload, staged+verified archive files and atomic
  publish/replace (``repro serve --root DIR --writable``).
* :func:`make_server` — a stdlib-only HTTP endpoint over a store
  (``GET /v1/<key>/region?r=10:20,0:64,5:9`` → raw bytes plus a
  JSON-described header; batched ``POST /v1/<key>/regions``; with an ingest
  manager also ``POST`` / ``DELETE /v1/<key>`` and ``/metrics``), wired to
  the CLI as ``python -m repro serve``.  Two front ends share one HTTP/1.1
  codec and route layer: the default ``selectors`` event loop
  (:class:`~repro.store.aserver.AsyncStoreHTTPServer`, keep-alive
  multiplexing + bounded decode pool) and the threaded fallback;
  :func:`push_field` is the write client (``python -m repro push``).
"""

from repro.store.cache import DEFAULT_CACHE_BYTES, TileCache
from repro.store.ingest import (
    DEFAULT_QUOTA_BYTES,
    IngestConflictError,
    IngestManager,
    IngestQuotaError,
    IngestVerifyError,
)
from repro.store.manifest import ManifestEntry, StoreManifest
from repro.store.store import ArchiveStore

__all__ = ["ArchiveStore", "AsyncStoreHTTPServer", "DEFAULT_CACHE_BYTES",
           "DEFAULT_QUOTA_BYTES", "IngestConflictError", "IngestManager",
           "IngestQuotaError", "IngestVerifyError", "ManifestEntry",
           "PushError", "StoreHTTPServer", "StoreManifest", "TileCache",
           "delete_key", "make_server", "push_field"]

_SERVER_NAMES = ("StoreHTTPServer", "make_server")
_ASERVER_NAMES = ("AsyncStoreHTTPServer",)
_CLIENT_NAMES = ("PushError", "delete_key", "push_field")


def __getattr__(name):
    # The HTTP shell drags in socketserver (and the client
    # http.client); load them only when a server/client symbol is actually
    # requested, so plain `import repro` (library use, CLI compress, every
    # test worker) stays lean.
    if name in _SERVER_NAMES:
        from repro.store import server

        return getattr(server, name)
    if name in _ASERVER_NAMES:
        from repro.store import aserver

        return getattr(aserver, name)
    if name in _CLIENT_NAMES:
        from repro.store import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
