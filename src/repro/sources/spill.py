"""Tiered spill cache: persist fetched byte ranges to local disk.

:class:`CachingByteSource` wraps any other byte source with a read-through
disk cache.  Every distinct ``(offset, length)`` range fetched from the
underlying source is spilled to its own small file; repeat reads — a
restarted process, a second store on the same node, the same tile requested
again after the decoded-tile LRU dropped it — come back from local disk
instead of the network.

Design points:

* **Keyed by content, not by URL string.**  File names embed the wrapped
  source's ``content_token`` (hash of URL + size + ETag/Last-Modified for
  HTTP, path + size + mtime for files), so a changed remote archive gets a
  fresh key space and stale ranges are never served; they age out by LRU.
* **Byte-budget LRU.**  ``max_bytes`` bounds the on-disk footprint; least
  recently used ranges are unlinked when the budget overflows.  Existing
  range files for the same token are re-adopted on startup (ordered by
  mtime), which is what makes the cache survive process restarts; one whose
  size is not the length in its name (truncated while no process held it)
  is unlinked instead.
* **Single-flight per range.**  Concurrent readers of one cold range block
  on a single underlying fetch (the decoded-tile cache's mechanism too:
  :class:`repro.utils.concurrency.SingleFlight`), so a popular cold tile
  costs one network round trip, not one per reader.

The exact-range keying matches how archive readers behave: tile ranges are
deterministic per archive (the header's ``(offset, length)`` table), so the
same region read always re-requests the same ranges.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.sources.base import SPILL_COUNTERS, source_counts
from repro.utils.concurrency import (Counters, SingleFlight, install_guards,
                                    make_lock)

#: Default on-disk budget for spilled ranges (1 GiB).
DEFAULT_SPILL_BYTES = 1 << 30

_SUFFIX = ".range"


class CachingByteSource:
    """A read-through disk spill cache over another byte source.

    ``source`` is the wrapped byte source (typically an
    :class:`repro.sources.http.HttpByteSource`); ``cache_dir`` is created if
    missing and may be shared by many sources (tokens namespace the files).
    ``token`` overrides the wrapped source's ``content_token`` (required if
    the source has none).  Closing the cache closes the wrapped source;
    spilled files persist for the next process.  Thread-safe.
    """

    def __init__(self, source, cache_dir, *,
                 max_bytes: int = DEFAULT_SPILL_BYTES,
                 token: Optional[str] = None):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.source = source
        self._dir = os.fspath(cache_dir)
        os.makedirs(self._dir, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self._token = token
        self._lock = make_lock("CachingByteSource._lock")
        # offset/length -> on-disk size; LRU order.  ``None`` until the
        # token is resolved (which may need a network round trip, so it
        # happens lazily on first read, never in the constructor).
        self._index: Optional[OrderedDict] = None  # guarded by: self._lock
        self._file_token: Optional[str] = None  # guarded by: self._lock
        self._nbytes = 0  # guarded by: self._lock
        self.counters = Counters(SPILL_COUNTERS)
        self._flights = SingleFlight()

    # -------------------------------------------------------------- protocol
    @property
    def size(self) -> int:
        return self.source.size

    def read_at(self, offset: int, length: int) -> bytes:
        if length <= 0:
            return b""
        self._ensure_index()
        key = (int(offset), int(length))
        data = self._read_spilled(key)
        if data is not None:
            return data

        def load() -> bytes:
            data = self._read_spilled(key)  # a flight may have just ended
            if data is not None:
                return data
            self.counters.add("spill_misses")
            data = self.source.read_at(offset, length)
            self._spill(key, data)
            return data

        data, owner = self._flights.run(key, load)
        if not owner:
            self.counters.add("spill_hits")  # coalesced onto the owner's fetch
        return data

    def read_all(self) -> bytes:
        return self.source.read_all()

    @property
    def content_token(self) -> str:
        return self._resolve_token()

    def close(self) -> None:
        self.source.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -------------------------------------------------------------- counters
    def stats(self) -> dict:
        """Spill counters over the wrapped source's, plus the footprint."""
        out = source_counts(self)
        with self._lock:
            out["spill_nbytes"] = self._nbytes
            out["spill_entries"] = 0 if self._index is None else len(self._index)
        return out

    # -------------------------------------------------------------- internals
    def _resolve_token(self) -> str:
        if self._token is not None:
            return self._token
        token = getattr(self.source, "content_token", None)
        if callable(token):
            token = token()
        if not token:
            raise ValueError(
                f"wrapped source {type(self.source).__name__} has no "
                f"content_token; pass token= to CachingByteSource")
        return str(token)

    def _ensure_index(self) -> None:
        with self._lock:
            if self._index is not None:
                return
        # Resolving the token may hit the network (HTTP learns its identity
        # from the first response) — do it outside the lock.
        file_token = hashlib.sha256(
            self._resolve_token().encode()).hexdigest()[:32]
        adopted = []
        try:
            with os.scandir(self._dir) as entries:
                for entry in entries:
                    key = self._parse_name(entry.name, file_token)
                    if key is None:
                        continue
                    try:
                        stat = entry.stat()
                        if stat.st_size != key[1] or key[1] > self.max_bytes:
                            os.unlink(entry.path)  # damaged, or never fits
                            continue
                    except OSError:
                        continue
                    adopted.append((stat.st_mtime_ns, key, stat.st_size))
        except OSError:
            adopted = []
        adopted.sort()
        with self._lock:
            if self._index is not None:
                return  # another thread won the race; its scan stands
            self._file_token = file_token
            self._index = OrderedDict()
            for _, key, nbytes in adopted:
                self._index[key] = nbytes
                self._nbytes += nbytes
            self._evict_over_budget()

    @staticmethod
    def _parse_name(name: str, file_token: str
                    ) -> Optional[Tuple[int, int]]:
        if not name.endswith(_SUFFIX) or not name.startswith(file_token + "-"):
            return None
        fields = name[len(file_token) + 1:-len(_SUFFIX)].split("-")
        if len(fields) != 2 or not all(f.isdigit() for f in fields):
            return None
        return int(fields[0]), int(fields[1])

    def _range_path(self, key: Tuple[int, int]) -> str:
        """On-disk file for one cached range.  Must hold ``self._lock``."""
        return os.path.join(
            self._dir, f"{self._file_token}-{key[0]}-{key[1]}{_SUFFIX}")

    def _read_spilled(self, key: Tuple[int, int]) -> Optional[bytes]:
        """The spilled bytes of ``key`` (a hit, now most recently used), else
        ``None``.  A file that vanished or no longer holds the byte count the
        index recorded (external cleanup, truncation) is forgotten."""
        with self._lock:
            nbytes = self._index.get(key)
            if nbytes is None:
                return None
            self._index.move_to_end(key)
            path = self._range_path(key)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            data = None
        if data is not None and len(data) == nbytes:
            self.counters.add("spill_hits")
            return data
        with self._lock:
            dropped = self._index.pop(key, None)
            if dropped is not None:
                self._nbytes -= dropped
        return None

    def _spill(self, key: Tuple[int, int], data: bytes) -> None:
        if len(data) > self.max_bytes:
            return  # would evict everything and still not fit
        with self._lock:
            path = self._range_path(key)
        tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
        try:
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)  # atomic: readers never see partial files
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return  # cache write failure is not a read failure
        with self._lock:
            old = self._index.pop(key, None)
            if old is not None:
                self._nbytes -= old
            self._index[key] = len(data)
            self._nbytes += len(data)
            self.counters.add("spill_bytes_written", len(data))
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Unlink LRU ranges past the byte budget.  Must hold ``self._lock``."""
        while self._index and self._nbytes > self.max_bytes:
            key, nbytes = self._index.popitem(last=False)
            self._nbytes -= nbytes
            self.counters.add("spill_evictions")
            try:
                os.unlink(self._range_path(key))
            except OSError:
                pass


install_guards(CachingByteSource, "_lock",
               ("_index", "_file_token", "_nbytes"))
