"""The ``ByteSource`` seam: pluggable random-access readers over archives.

Every region decode in this codebase reduces to positional byte reads: parse
the O(header) front matter, then fetch each intersecting tile's
``(offset, length)`` range.  A *byte source* is the minimal contract that
read path needs — ``size``, ``read_at(offset, length)``, ``read_all()``,
``close()``, context manager — and this module defines it plus the two local
implementations every caller already relied on implicitly:

* :class:`BytesByteSource` — slices of an in-memory blob;
* :class:`FileByteSource` — positional ``os.pread`` over one descriptor,
  safe to share across threads, with an explicit short-read loop (one pread
  caps at ~2 GiB on Linux and either syscall may return short near resource
  limits).

Remote sources live in sibling modules (:mod:`repro.sources.http`,
:mod:`repro.sources.spill`) and are loaded lazily so plain ``import repro``
never drags in ``http.client``.

``read_at`` past EOF returns the available bytes (possibly ``b""``) rather
than raising — truncation is detected by the callers' length/CRC checks,
which keeps the contract implementable over HTTP where a server reports a
too-long range with a clamped ``Content-Range`` instead of an error.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, Union

from repro.utils.concurrency import Counters

#: What :func:`open_source` accepts: archive bytes, a filesystem path, an
#: ``http(s)://`` URL, or an already-open byte source (passed through).
SourceLike = Union[bytes, bytearray, memoryview, str, os.PathLike]

#: The attributes an object must expose to be treated as a byte source.
_PROTOCOL_ATTRS = ("size", "read_at", "read_all", "close")

#: The remote-source counters, summed by ``ArchiveStore.remote_stats()``:
#: HTTP range traffic (:class:`repro.sources.http.HttpByteSource`) and the
#: disk spill (:class:`repro.sources.spill.CachingByteSource`).
HTTP_COUNTERS = ("range_requests", "retried", "bytes_fetched")
SPILL_COUNTERS = ("spill_hits", "spill_misses", "spill_evictions",
                  "spill_bytes_written")
REMOTE_COUNTERS = HTTP_COUNTERS + SPILL_COUNTERS


def is_byte_source(obj) -> bool:
    """Duck-typed check for the ``ByteSource`` contract (no registration)."""
    return all(hasattr(obj, name) for name in _PROTOCOL_ATTRS)


def source_counts(source) -> Dict[str, int]:
    """The snapshot of ``source``'s optional ``counters`` over that of the
    ``source`` it wraps, if any (the disk spill); ``{}`` if it keeps none."""
    counters = getattr(source, "counters", None)
    if counters is None:
        return {}
    return {**source_counts(getattr(source, "source", None)),
            **counters.snapshot()}


def is_url(source) -> bool:
    """True when ``source`` is an ``http(s)://`` URL string."""
    return isinstance(source, str) and source.startswith(
        ("http://", "https://"))


class BytesByteSource:
    """Random-access reads over an in-memory archive blob.

    Reads are slices of an immutable bytes object, so one instance is safe
    to share across threads (the store serves in-memory archives through it
    directly).
    """

    def __init__(self, data):
        self._data = bytes(data)
        self.counters = Counters(("bytes_read",))

    bytes_read = property(lambda self: self.counters.snapshot()["bytes_read"])

    @property
    def size(self) -> int:
        return len(self._data)

    def read_at(self, offset: int, length: int) -> bytes:
        out = self._data[offset:offset + length]
        self.counters.add("bytes_read", len(out))
        return out

    def read_all(self) -> bytes:
        self.counters.add("bytes_read", len(self._data))
        return self._data

    @property
    def content_token(self) -> str:
        """A stable identity for spill-cache keying: a hash of the bytes."""
        return "bytes-" + hashlib.sha256(self._data).hexdigest()

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class FileByteSource:
    """Positional reads over one open descriptor: the on-disk fast path.

    ``os.pread`` takes the offset explicitly, so any number of threads can
    read through the same descriptor without a lock or a shared seek
    pointer; on platforms without ``pread`` (Windows) a lock + seek/read
    fallback keeps the same interface.  Only the byte ranges actually
    requested are read, so pulling a small region out of a multi-gigabyte
    archive touches the front header plus the intersecting tiles —
    O(region) I/O, not O(archive).
    """

    def __init__(self, path):
        self._path = os.fspath(path)
        # O_BINARY matters exactly where the fallback does (Windows): without
        # it the CRT text mode mangles \r\n and stops at 0x1A mid-payload.
        self._fd = os.open(self._path,
                           os.O_RDONLY | getattr(os, "O_BINARY", 0))
        stat = os.fstat(self._fd)
        self._size = stat.st_size
        self._mtime_ns = stat.st_mtime_ns
        self._fallback_lock = None if hasattr(os, "pread") else threading.Lock()
        self.counters = Counters(("bytes_read",))

    bytes_read = property(lambda self: self.counters.snapshot()["bytes_read"])

    @property
    def size(self) -> int:
        return self._size

    def read_at(self, offset: int, length: int) -> bytes:
        # Loop on short reads: one pread caps at ~2 GiB on Linux, and either
        # syscall may return less than asked near resource limits.
        parts = []
        got = 0
        while got < length:
            if self._fallback_lock is None:
                chunk = os.pread(self._fd, length - got, offset + got)
            else:
                with self._fallback_lock:
                    os.lseek(self._fd, offset + got, os.SEEK_SET)
                    chunk = os.read(self._fd, length - got)
            if not chunk:
                break  # EOF: callers detect truncation via length/CRC checks
            parts.append(chunk)
            got += len(chunk)
        self.counters.add("bytes_read", got)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def read_all(self) -> bytes:
        return self.read_at(0, self._size)

    @property
    def content_token(self) -> str:
        """A stable identity for spill-cache keying without reading the file."""
        ident = f"{os.path.abspath(self._path)}|{self._size}|{self._mtime_ns}"
        return "file-" + hashlib.sha256(ident.encode()).hexdigest()

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        if fd >= 0:
            os.close(fd)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def open_source(source: SourceLike):
    """Open the right byte source for ``source``; pass existing ones through.

    Dispatch: in-memory bytes -> :class:`BytesByteSource`; an ``http(s)://``
    URL -> :class:`repro.sources.http.HttpByteSource` (imported lazily so the
    local paths never load ``http.client``); a path -> :class:`FileByteSource`;
    anything already exposing the protocol is returned as-is (the caller
    keeps ownership semantics: whoever closes it last wins).
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        return BytesByteSource(source)
    if is_url(source):
        from repro.sources.http import HttpByteSource

        return HttpByteSource(source)
    if isinstance(source, (str, os.PathLike)):
        return FileByteSource(source)
    if is_byte_source(source):
        return source
    raise TypeError(
        f"source must be archive bytes or a path to an archive file, an "
        f"http(s):// URL, or a ByteSource, got {type(source)!r}")
