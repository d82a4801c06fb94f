"""HTTP(S) byte source: range-GET reads with keep-alive, retry and backoff.

:class:`HttpByteSource` maps the ``ByteSource`` contract onto HTTP range
requests (stdlib ``http.client`` only): every ``read_at(offset, length)``
becomes ``GET`` with ``Range: bytes=offset-(offset+length-1)``, so decoding
a region of a remote archive fetches O(header + intersecting tiles) bytes —
never the whole file.

Failure handling is split in two:

* **Transient** faults — connection reset/refused, timeouts, 5xx statuses,
  a body shorter than the server's own ``Content-Range`` promised — are
  retried under a bounded :class:`RetryPolicy` (exponential backoff with
  jitter), on a fresh connection.
* **Permanent** protocol violations raise :class:`HttpSourceError`
  immediately.  The important one: a ``200`` answer to a range request
  means the server ignored ``Range`` and is streaming the entire archive —
  the source refuses rather than silently downloading gigabytes to serve a
  kilobyte tile.

Connections are kept alive and reused across reads (a small lock-guarded
idle pool), which is what makes tile-by-tile region decode latency
per-request, not per-connection-handshake.  The total size and the content
identity (ETag / Last-Modified) are learned from the first response's
``Content-Range``/validators — no separate HEAD round trip.
"""

from __future__ import annotations

import hashlib
import random
import re
import socket
import time
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, TypeVar
from urllib.parse import urlsplit

from repro.sources.base import HTTP_COUNTERS
from repro.utils.concurrency import Counters, install_guards, make_lock

#: Per-request socket timeout (seconds) unless the caller overrides it.
DEFAULT_TIMEOUT = 30.0

#: Idle keep-alive connections retained per source.
_MAX_IDLE = 8

T = TypeVar("T")


class HttpAddress(NamedTuple):
    """A parsed ``http(s)://`` URL: the one URL -> connection mapping shared by
    the range reader and the push/delete client."""

    url: str
    https: bool
    host: str
    port: int
    #: Request target of the URL itself: its path (or ``/``) plus ``?query``.
    target: str
    #: The path as a mount prefix: ``http://host/prefix`` must produce requests
    #: against ``/prefix/v1/<key>``, not ``/v1/<key>`` at the root.
    base: str

    @classmethod
    def parse(cls, url: str, complaint: str) -> "HttpAddress":
        """Split ``url``; ``complaint`` is the caller's ``ValueError`` text
        for anything but ``http(s)://host[:port][/path]``."""
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(complaint)
        https = parts.scheme == "https"
        target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
        return cls(url, https, parts.hostname,
                   parts.port or (443 if https else 80), target,
                   parts.path.rstrip("/"))

    def connect(self, timeout: float) -> HTTPConnection:
        """A new (not yet connected) connection to this address."""
        cls = HTTPSConnection if self.https else HTTPConnection
        return cls(self.host, self.port, timeout=timeout)


class HttpSourceError(OSError):
    """The remote endpoint cannot serve valid range reads (not retried).

    Raised for protocol-level violations that retrying cannot fix: a 200
    full-body answer to a range request, a ``Content-Range`` that does not
    match what was asked, 4xx statuses, or transient-fault retries running
    out of attempts (the final error wraps the last transient cause).
    """


class RetryPolicy:
    """Bounded retry with exponential backoff and full jitter.

    ``delay(attempt)`` for attempt 0, 1, 2... is ``base_delay * multiplier**
    attempt`` capped at ``max_delay``, scaled by a uniform random factor in
    ``[1 - jitter, 1]`` so synchronized clients spread out.  ``sleep`` is
    injectable (tests pass a no-op to retry instantly).
    """

    #: Status codes worth retrying: server-side hiccups and throttling.
    TRANSIENT_STATUSES = frozenset({408, 429, 500, 502, 503, 504})

    def __init__(self, attempts: int = 4, *, base_delay: float = 0.05,
                 max_delay: float = 2.0, multiplier: float = 2.0,
                 jitter: float = 0.5, sleep=time.sleep):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.sleep = sleep

    def delay(self, attempt: int) -> float:
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        return raw * (1.0 - self.jitter * random.random())

    def backoff(self, attempt: int) -> None:
        self.sleep(self.delay(attempt))

    def retryable_status(self, status: int) -> bool:
        return status in self.TRANSIENT_STATUSES

    def run(self, attempt: Callable[[], T], what: str, *,
            error: Callable[[str], Exception] = OSError,
            on_retry: Optional[Callable[[], None]] = None) -> T:
        """Call ``attempt()`` until it returns — the one retry loop.

        A transient fault (:data:`TRANSIENT_FAULTS`) backs off and tries
        again, ``on_retry()`` first; :class:`HttpSourceError` and anything
        else propagate at once.  Out of attempts, raises ``error(f"{what}
        after {attempts} attempts: {last fault}")`` chained to that fault.
        """
        last_fault: Optional[BaseException] = None
        for n in range(self.attempts):
            if n:
                if on_retry is not None:
                    on_retry()
                self.backoff(n - 1)
            try:
                return attempt()
            except HttpSourceError:
                raise  # permanent: retrying cannot help (must precede OSError)
            except TRANSIENT_FAULTS as exc:
                last_fault = exc
        raise error(f"{what} after {self.attempts} attempts: "
                    f"{last_fault}") from last_fault


class TransientHTTPError(Exception):
    """This attempt failed in a way worth retrying (a 5xx, a short body)."""


#: What :meth:`RetryPolicy.run` retries: resets, refusals, timeouts, protocol
#: garbage from a dying connection, and explicit transient markers.
TRANSIENT_FAULTS = (TransientHTTPError, HTTPException, ConnectionError,
                    TimeoutError, socket.timeout, OSError)


_CONTENT_RANGE_RE = re.compile(r"^bytes\s+(\d+)-(\d+)/(\d+|\*)$")
_UNSATISFIED_RE = re.compile(r"^bytes\s+\*/(\d+)$")


def parse_content_range(value: str) -> Tuple[int, int, Optional[int]]:
    """Parse ``Content-Range: bytes a-b/total`` into ``(a, b, total)``.

    ``total`` is ``None`` for ``/*`` (server does not know the size).
    Anything else — including the ``bytes */N`` unsatisfied-range form,
    which never belongs on a 206 — raises :class:`HttpSourceError`.
    """
    match = _CONTENT_RANGE_RE.match(value.strip())
    if match is None:
        raise HttpSourceError(f"invalid Content-Range header {value!r}")
    start, end = int(match.group(1)), int(match.group(2))
    if end < start:
        raise HttpSourceError(f"invalid Content-Range header {value!r} "
                              f"(end before start)")
    total = None if match.group(3) == "*" else int(match.group(3))
    if total is not None and end >= total:
        raise HttpSourceError(f"invalid Content-Range header {value!r} "
                              f"(range exceeds the declared total)")
    return start, end, total


class HttpByteSource:
    """Range-GET reads over one remote archive URL.  Thread-safe.

    All state (idle connection pool, learned size/validators) is
    lock-guarded; concurrent ``read_at`` calls each use their own pooled
    connection, so tile fetches of one region can overlap on the wire.
    ``counters`` holds the remote counters the store aggregates into
    ``/metrics`` (``range_requests``, ``retried``, ``bytes_fetched``);
    ``stats()`` is their snapshot.
    """

    def __init__(self, url: str, *, timeout: float = DEFAULT_TIMEOUT,
                 retry: Optional[RetryPolicy] = None,
                 headers: Optional[Dict[str, str]] = None):
        self._address = HttpAddress.parse(
            url, f"unsupported archive URL {url!r} (need http://host/... or "
                 f"https://host/...)")
        self.url = url
        self._timeout = float(timeout)
        self._retry = retry if retry is not None else RetryPolicy()
        self._extra_headers = dict(headers or {})
        self._lock = make_lock("HttpByteSource._lock")
        self._idle: List[HTTPConnection] = []  # guarded by: self._lock
        self._closed = False  # guarded by: self._lock
        self._size: Optional[int] = None  # guarded by: self._lock
        self._validator: Optional[str] = None  # guarded by: self._lock
        self.counters = Counters(HTTP_COUNTERS)

    # -------------------------------------------------------------- protocol
    @property
    def size(self) -> int:
        """Total archive size, learned from the first ranged response."""
        with self._lock:
            if self._size is not None:
                return self._size
        # A one-byte probe: the 206's Content-Range (or a 416's
        # ``bytes */N``) publishes the total, so no HEAD round trip.
        self.read_at(0, 1)
        with self._lock:
            if self._size is None:
                raise HttpSourceError(
                    f"{self.url}: server did not report a total size in "
                    f"Content-Range; cannot address this archive")
            return self._size

    def read_at(self, offset: int, length: int) -> bytes:
        if length <= 0:
            return b""
        with self._lock:
            known = self._size
        if known is not None and offset >= known:
            return b""  # past EOF, same contract as the local sources
        end = offset + length - 1
        return self._retry.run(
            lambda: self._fetch_range(offset, end),
            f"{self.url}: range read bytes={offset}-{end} failed",
            error=HttpSourceError,
            on_retry=lambda: self.counters.add("retried"))

    def read_all(self) -> bytes:
        return self.read_at(0, self.size)

    @property
    def content_token(self) -> str:
        """A stable identity for spill-cache keying: URL + size + validators."""
        size = self.size  # forces at least one response, capturing validators
        with self._lock:
            validator = self._validator
        ident = f"{self.url}|{size}|{validator}"
        return "http-" + hashlib.sha256(ident.encode()).hexdigest()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for conn in idle:
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -------------------------------------------------------------- counters
    def stats(self) -> dict:
        return self.counters.snapshot()

    # -------------------------------------------------------------- internals
    def _fetch_range(self, offset: int, end: int) -> bytes:
        """One request/response cycle; raises transient or permanent faults."""
        conn = self._checkout()
        keep = False
        try:
            headers = dict(self._extra_headers)
            headers["Range"] = f"bytes={offset}-{end}"
            headers["Accept-Encoding"] = "identity"
            conn.request("GET", self._address.target, headers=headers)
            resp = conn.getresponse()
            self.counters.add("range_requests")
            if self._retry.retryable_status(resp.status):
                raise TransientHTTPError(f"HTTP {resp.status} {resp.reason}")
            if resp.status == 416:
                # Requested past EOF: the ``bytes */N`` form still teaches us
                # the total, and the local-source contract says return b"".
                self._learn_from_416(resp)
                resp.read()
                keep = True
                return b""
            if resp.status == 200:
                raise HttpSourceError(
                    f"{self.url}: server ignored Range (HTTP 200 for "
                    f"bytes={offset}-{end}); refusing to download the whole "
                    f"archive — serve it from a range-capable endpoint")
            if resp.status != 206:
                raise HttpSourceError(
                    f"{self.url}: HTTP {resp.status} {resp.reason} for "
                    f"bytes={offset}-{end}")
            header = resp.getheader("Content-Range")
            if header is None:
                raise HttpSourceError(
                    f"{self.url}: 206 response without Content-Range")
            start, got_end, total = parse_content_range(header)
            if start != offset or got_end > end:
                raise HttpSourceError(
                    f"{self.url}: Content-Range {header!r} does not match "
                    f"the requested bytes={offset}-{end}")
            expected = got_end - start + 1
            body = resp.read()
            if len(body) != expected:
                # The connection died (or lied) mid-body; it is unusable.
                raise TransientHTTPError(
                    f"short body: got {len(body)} of {expected} bytes")
            self._learn(total, resp)
            self.counters.add("bytes_fetched", len(body))
            keep = True
            return body
        finally:
            if keep:
                self._checkin(conn)
            else:
                conn.close()

    def _learn(self, total: Optional[int], resp) -> None:
        validator = resp.getheader("ETag") or resp.getheader("Last-Modified")
        with self._lock:
            if self._size is None and total is not None:
                self._size = total
            if self._validator is None and validator is not None:
                self._validator = validator

    def _learn_from_416(self, resp) -> None:
        header = resp.getheader("Content-Range")
        if header is None:
            return
        match = _UNSATISFIED_RE.match(header.strip())
        if match is None:
            return
        with self._lock:
            if self._size is None:
                self._size = int(match.group(1))

    def _checkout(self) -> HTTPConnection:
        with self._lock:
            if self._closed:
                raise ValueError(f"byte source for {self.url} is closed")
            if self._idle:
                return self._idle.pop()
        return self._address.connect(self._timeout)

    def _checkin(self, conn: HTTPConnection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < _MAX_IDLE:
                self._idle.append(conn)
                return
        conn.close()


install_guards(HttpByteSource, "_lock",
               ("_idle", "_closed", "_size", "_validator"))
