"""Stdlib-only HTTP service over an :class:`ArchiveStore` — reads and ingest.

The routing/validation/response logic lives in one transport-agnostic
:class:`StoreApp` (plain :class:`Request` in, :class:`Response` out) over
one HTTP/1.1 codec (:func:`parse_head`, :class:`Request`'s body framing,
:class:`BodyReader`, :func:`render_head`), run by two front ends that
differ only in how they wait for bytes:

* the threaded server in this module (``socketserver``, one thread per
  connection) — the simple fallback;
* the ``selectors``-based non-blocking front end in
  :mod:`repro.store.aserver` — persistent keep-alive connections multiplexed
  on one event loop, decode work on a bounded worker pool; the shape
  ``repro serve`` uses by default for many-clients-one-process traffic.

So every head check, route, status, header and close decision is
identical across them by construction.

Read routes (GET):

``/healthz``
    Liveness + the store's cache/read counters, as JSON.
``/metrics``
    Operational counters as JSON: the :class:`TileCache` hit/miss/load/
    eviction counters, ``tile_decodes``/``region_reads``, the summed
    ``remote`` source counters, and per-route request counts, error counts,
    latency sums and latency histograms with estimated ``p50_ms``/``p99_ms``.
``/v1/<key>/info``
    The archive's header as JSON: codec, shape, dtype, bound, envelope
    version, generation and (for chunked/grid archives) the tile geometry.
``/v1/<key>/region?r=10:20,0:64,5:9``
    The decoded region as raw bytes (C order), described by response
    headers: ``X-Repro-Shape`` / ``X-Repro-Dtype`` plus ``X-Repro-Header``,
    a JSON object carrying both, the normalized region and the serving
    entry's generation.  Reconstruct with
    ``numpy.frombuffer(body, dtype).reshape(shape)``.

Batched reads (POST, no auth — it is a read):

``POST /v1/<key>/regions``
    Body: a small JSON document ``{"regions": ["10:20,:", "0:4,0:4", ...]}``
    (or a bare JSON list), sized by ``Content-Length``.  One response body
    carries every region's raw bytes back to back; ``X-Repro-Header`` is a
    JSON object with per-region ``{region, shape, dtype, offset, nbytes}``
    entries (in request order) against one generation/ETag — the batch rides
    :meth:`ArchiveStore.read_regions`' deduped tile fetches.

Conditional GET: ``/v1/<key>/info`` and ``/v1/<key>/region`` responses carry
a strong ``ETag`` derived from the archive's content tokens (per-tile
CRC-32s); requests with a matching ``If-None-Match`` get ``304 Not
Modified`` with no body.  A replace flips the tag, so a cached region can
never survive a content change.

Write routes (enabled by passing an :class:`IngestManager` — the CLI's
``repro serve --root DIR --writable``):

``POST /v1/<key>``
    Stream-ingest a field: the body is the raw C-order field bytes (sized by
    ``Content-Length`` or ``Transfer-Encoding: chunked``), described by the
    ``X-Repro-Shape`` / ``X-Repro-Dtype`` headers, compressed under
    ``X-Repro-Bound`` / ``X-Repro-Bound-Mode`` (+ ``X-Repro-Data-Range`` for
    ``rel`` over a stream) with codec ``X-Repro-Codec``.  Publishes (201) or
    atomically replaces (200) the key; concurrent ingest of the same key is
    409, a body over the per-key quota is 413.  The route's thread reads the
    body and builds, stages and publishes the archive; each chunk's codec
    run happens in the process's one ingest worker process
    (:mod:`repro.store.ingest`), so region reads never wait on the encoder
    for the GIL.  Ingests of different keys share that worker chunk by
    chunk; a stalled upload holds it for none of its stall.
``DELETE /v1/<key>``
    Remove the key from the manifest and the store; the archive file is
    unlinked once in-flight readers drain.

When the manifest carries bearer tokens, mutating routes require
``Authorization: Bearer <token>`` (per-key token, falling back to the
``"*"`` default) and fail closed with 401; read routes stay open.

Errors are JSON bodies ``{"error": ...}``: 400 for malformed requests,
framing or upload bodies (one that stalls past the read timeout or ends
short included), 404 for unknown keys/routes, 405 for writes to a read-only
server, 500 for decode/verify failures, an ingest worker that died
mid-chunk, or a route that raises.  A 500 is
scoped to the affected request — failed decodes are never cached, so other
regions (and retries) keep serving.  Response metadata for a region is
derived from the entry the bytes were *actually* decoded from (one atomic
store lookup), so headers can never contradict the body across a concurrent
replace.  A declared body left unread closes the connection.
"""

from __future__ import annotations

import functools
import hmac
import json
import logging
import math
import re
import socket
import socketserver
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple, Union, cast)
from urllib.parse import parse_qs, unquote, urlparse

import numpy as np

from repro.api import DEFAULT_CHUNK_ELEMS
from repro.bounds import ErrorBound, MODES
from repro.store.ingest import (
    IngestConflictError,
    IngestManager,
    IngestQuotaError,
    IngestVerifyError,
    limit_stream,
    read_chunked_stream,
    read_row_blocks,
    read_sized_stream,
)
from repro.store.store import (ArchiveStore, ReadInfo, RegionSpecError,
                               StoreClosedError)
from repro.utils.concurrency import install_guards, make_lock

if TYPE_CHECKING:  # the async front end; imported lazily at runtime
    from repro.store.aserver import AsyncStoreHTTPServer

#: The access log: one INFO line per request, ``method target status bytes
#: ms``, written by :meth:`StoreApp.handle` — so both front ends print the
#: same line.  Silent until a handler listens (``make_server(quiet=False)``,
#: i.e. ``repro serve --verbose``, attaches stderr).
ACCESS_LOG = logging.getLogger("repro.serve")

#: Upper bounds (milliseconds) of the per-route latency histogram buckets.
#: Log-spaced from sub-millisecond cache hits to multi-second cold decodes;
#: the last bucket catches everything beyond.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 2048.0, 4096.0, math.inf)


def _quantile_ms(buckets: List[int], total: int, q: float) -> float:
    """The upper bound of the bucket containing the ``q``-quantile sample."""
    if total <= 0:
        return 0.0
    target = max(1, math.ceil(q * total))
    cum = 0
    for bound, count in zip(LATENCY_BUCKETS_MS, buckets):
        cum += count
        if cum >= target:
            # The overflow bucket has no finite bound; report one past the
            # largest finite edge so the estimate stays a number.
            return bound if math.isfinite(bound) else LATENCY_BUCKETS_MS[-2] * 2
    return LATENCY_BUCKETS_MS[-2] * 2


class RouteMetrics:
    """Thread-safe per-route request counters + latency histograms."""

    def __init__(self) -> None:
        self._lock = make_lock("RouteMetrics._lock")
        self._routes: Dict[str, dict] = {}  # guarded by: self._lock

    def record(self, route: str, status: int, seconds: float) -> None:
        ms = seconds * 1000.0
        with self._lock:
            row = self._routes.setdefault(
                route, {"requests": 0, "errors": 0, "seconds": 0.0,
                        "buckets": [0] * len(LATENCY_BUCKETS_MS)})
            row["requests"] += 1
            if status >= 400:
                row["errors"] += 1
            row["seconds"] += seconds
            for i, bound in enumerate(LATENCY_BUCKETS_MS):
                if ms <= bound:
                    row["buckets"][i] += 1
                    break

    def snapshot(self) -> Dict[str, dict]:
        """Per-route counters plus estimated p50/p99 (bucket upper bounds)."""
        with self._lock:
            rows = {route: {"requests": row["requests"],
                            "errors": row["errors"],
                            "seconds": row["seconds"],
                            "buckets": list(row["buckets"])}
                    for route, row in self._routes.items()}
        for row in rows.values():
            total = sum(row["buckets"])
            row["p50_ms"] = _quantile_ms(row["buckets"], total, 0.50)
            row["p99_ms"] = _quantile_ms(row["buckets"], total, 0.99)
        return rows


# ---------------------------------------------------------------------------
# The HTTP/1.1 codec both front ends run, and the transport-agnostic app
# ---------------------------------------------------------------------------

class Request:
    """One parsed HTTP request, independent of the transport that read it.

    ``headers`` maps lower-cased names to values; ``rfile`` is a blocking
    file-like positioned at the first body byte — a :class:`BodyReader` from
    either front end.  Routes read the body through :meth:`body` only; one
    left unread closes the connection, so it cannot desynchronize framing.
    """

    __slots__ = ("method", "target", "headers", "rfile", "_body_read")

    def __init__(self, method: str, target: str, headers: Dict[str, str],
                 rfile) -> None:
        self.method = method
        self.target = target
        self.headers = headers
        self.rfile = rfile
        self._body_read = False

    def header(self, name: str, default: Optional[str] = None
               ) -> Optional[str]:
        return self.headers.get(name.lower(), default)

    def body_length(self) -> Optional[int]:
        """The declared body: a byte count, :data:`CHUNKED` or ``None``;
        ``ValueError`` for what RFC 7230 §3.3.3 cannot frame safely."""
        coding = self.headers.get("transfer-encoding")
        length = self.headers.get("content-length")
        if coding is None:
            if length is None:
                return None
            if length.isascii() and length.isdigit():
                return int(length)
        elif length is None and coding.lower() == "chunked":
            return CHUNKED
        raise ValueError(f"corrupt request framing: Content-Length "
                         f"{length!r}, Transfer-Encoding {coding!r}")

    def body(self) -> Iterator[bytes]:
        """The framed body in pieces; running it to its end marks it read."""
        length = self.body_length()
        yield from (read_chunked_stream(self.rfile) if length == CHUNKED
                    else read_sized_stream(self.rfile, length or 0))
        self._body_read = True

    def body_unread(self) -> bool:
        """Whether bytes of a declared body may still be on the wire."""
        try:
            return not self._body_read and self.body_length() not in (None, 0)
        except ValueError:
            return True


class Response:
    """What a route handler produced: status, headers, one in-memory body."""

    __slots__ = ("status", "body", "headers", "close")

    def __init__(self, status: int, body: bytes = b"", *,
                 headers: Optional[Dict[str, str]] = None,
                 close: bool = False) -> None:
        self.status = status
        self.body = body
        self.headers = headers if headers is not None else {}
        self.close = close


#: :meth:`Request.body_length` of a ``Transfer-Encoding: chunked`` body.
CHUNKED = -1
#: A request head larger than this is answered 431 — ours are tiny.
_MAX_HEADER_BYTES = 1 << 16
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
#: ``(method, target, headers, keep_alive)``: what :func:`parse_head` cuts.
Head = Tuple[str, str, Dict[str, str], bool]


class HeadError(ValueError):
    """A request head refused before any route runs; ``status`` answers it."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status

    def response(self) -> Response:
        return StoreApp._json(self.status, {"error": str(self)}, close=True)


def parse_head(buf: bytearray) -> Optional[Head]:
    """Cut the first request head off ``buf`` (``None`` until it ends).  A
    repeated header keeps every value, comma-joined.  :class:`HeadError`:
    431 past ``_MAX_HEADER_BYTES`` (ended or not), 400 for a malformed line,
    505 for other than HTTP/1.x, 501 for a method no route has."""
    end = buf.find(b"\r\n\r\n")
    if end < 0 and len(buf) <= _MAX_HEADER_BYTES:
        return None
    if not 0 <= end <= _MAX_HEADER_BYTES:
        raise HeadError(431, "request header section too large")
    lines = buf[:end].decode("latin-1").split("\r\n")
    del buf[:end + 4]
    first = lines[0].split(" ")
    if len(first) != 3:
        raise HeadError(400, f"malformed request line {lines[0]!r}")
    method, target, version = first
    if not version.startswith("HTTP/1."):
        raise HeadError(505, f"unsupported protocol {version!r}")
    headers: Dict[str, str] = {}
    for raw in lines[1:]:
        name, sep, value = raw.partition(":")
        if not sep or not name or name != name.strip():
            raise HeadError(400, f"malformed header line {raw!r}")
        name, value = name.lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    if method not in ("GET", "POST", "DELETE"):
        raise HeadError(501, f"unsupported method {method!r}")
    connection = headers.get("connection", "").lower()
    keep_alive = "close" not in connection and (
        version != "HTTP/1.0" or "keep-alive" in connection)
    return method, target, headers, keep_alive


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)  # once a second, not per response


def render_head(response: Response, close: bool) -> bytes:
    """The status line and headers of ``response``, both front ends'."""
    head = [f"HTTP/1.1 {response.status} "
            f"{_PHRASES.get(response.status, 'Unknown')}",
            "Server: repro-serve/3", f"Date: {_http_date(int(time.time()))}",
            *(f"{name}: {value}" for name, value in response.headers.items()),
            f"Content-Length: {len(response.body)}"]
    if close:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")


class BodyReader:
    """The blocking ``rfile`` a route reads its request body from.

    It reads the bytes glued to the head (``prefix``, which keeps what the
    body leaves), then the socket; ``read(n)`` is exact unless EOF comes
    first, and neither it nor ``readline(limit)`` reads past what is asked.
    Each call ends within ``timeout`` seconds or raises ``ValueError(
    "corrupt upload body: timed out ...")``, restoring the socket's timeout.
    ``Expect: 100-continue`` sends ``100 Continue`` before the first read.
    """

    def __init__(self, sock: socket.socket, timeout: Optional[float],
                 headers: Dict[str, str], prefix: bytes = b"") -> None:
        self.sock = sock
        self.prefix = bytearray(prefix)
        self._timeout = timeout
        expect = headers.get("expect", "").lower() == "100-continue"
        self._interim = b"HTTP/1.1 100 Continue\r\n\r\n" if expect else b""
        self._sock_timeout = sock.gettimeout()

    def read(self, n: int) -> bytes:
        return self._call(n, line=False)

    def readline(self, limit: int) -> bytes:
        return self._call(limit, line=True)

    def _call(self, n: int, line: bool) -> bytes:
        deadline = None if self._timeout is None \
            else time.monotonic() + self._timeout
        out = bytearray()
        try:
            if self._interim:
                self._arm(deadline)
                self.sock.sendall(self._interim)
                self._interim = b""
            while len(out) < n:
                want = n - len(out)
                if line:  # look before taking: stop right after a newline
                    ahead = self._recv(want, deadline, peek=True)
                    want = ahead.find(b"\n") + 1 or len(ahead)
                piece = self._recv(want, deadline) if want else b""
                if not piece:
                    break  # EOF: the parser reports the truncation
                out += piece
                if line and piece.endswith(b"\n"):
                    break
        except socket.timeout:
            raise ValueError("corrupt upload body: timed out waiting for "
                             "request bytes") from None
        except ConnectionError:
            pass  # a reset, or a peer gone before 100 Continue: EOF
        finally:
            self.sock.settimeout(self._sock_timeout)
        return bytes(out)

    def _arm(self, deadline: Optional[float]) -> None:
        """Bound the next socket wait by what is left of the call's deadline."""
        left = None if deadline is None else deadline - time.monotonic()
        if left is not None and left <= 0:
            raise socket.timeout
        self.sock.settimeout(left)

    def _recv(self, n: int, deadline: Optional[float],
              peek: bool = False) -> bytes:
        """Up to ``n`` bytes from one bounded wait, left unread if ``peek``."""
        if self.prefix:
            data = bytes(self.prefix[:n])
            if not peek:
                del self.prefix[:n]
            return data
        self._arm(deadline)
        return self.sock.recv(n, socket.MSG_PEEK if peek else 0)


#: The single-span byte-range forms ``a-b`` / ``a-`` / ``-n``.
_RANGE_RE = re.compile(r"^bytes=(\d*)-(\d*)$")


def _parse_byte_range(value: Optional[str]
                      ) -> Optional[Tuple[Optional[int], Optional[int],
                                          Optional[int]]]:
    """``(start, end, suffix)`` of a single-span ``Range`` header.

    ``bytes=a-b`` -> ``(a, b, None)``; ``bytes=a-`` -> ``(a, None, None)``;
    ``bytes=-n`` -> ``(None, None, n)``.  Anything else — multiple spans,
    other units, a reversed span, malformed syntax — returns ``None``:
    RFC 7233 lets a server ignore the header and answer 200 with the full
    body, which is always safe (just never the silent-downgrade 206).
    """
    if value is None:
        return None
    match = _RANGE_RE.match(value.strip())
    if match is None:
        return None
    start_text, end_text = match.group(1), match.group(2)
    if start_text:
        start = int(start_text)
        end = int(end_text) if end_text else None
        if end is not None and end < start:
            return None
        return start, end, None
    if end_text:
        return None, None, int(end_text)
    return None


def _etag_matches(header_value: str, etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` evaluation against one strong tag."""
    if header_value.strip() == "*":
        return True
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


class StoreApp:
    """Routes requests into an :class:`ArchiveStore` (+ optional ingest).

    Pure request -> response logic: no sockets, no threads, no framing.
    Every front end (threaded, selectors) wraps this one object, which is
    what makes their route/status/auth behavior identical.  ``handle`` is
    thread-safe (the store, manager and metrics all are) and may be called
    from any number of worker threads at once.
    """

    #: Cap on a ``POST /v1/<key>/regions`` JSON body — region lists are tiny;
    #: anything larger is a malformed request, not a batch.
    REGIONS_BODY_LIMIT = 1 << 20
    #: Cap on the number of regions per batch.
    REGIONS_MAX_COUNT = 1024

    def __init__(self, store: ArchiveStore, *,
                 ingest: Optional[IngestManager] = None) -> None:
        self.store = store
        self.ingest = ingest
        self.metrics = RouteMetrics()
        if ingest is not None:
            ingest.start_worker()

    # ------------------------------------------------------------ entry point
    def handle(self, request: Request) -> Response:
        return cast(Response, self._handle(request, None))

    def handle_resident(self, request: Request, max_bytes: int
                        ) -> Optional[Response]:
        """:meth:`handle`'s answer to a region GET that needs no source
        read, decode or wait (:meth:`ArchiveStore.read_resident`), else
        ``None`` with nothing recorded — the caller then runs ``handle``."""
        return self._handle(request, max_bytes)

    def _handle(self, request: Request, resident_bytes: Optional[int]
                ) -> Optional[Response]:
        start = time.perf_counter()
        route = "other"
        response: Optional[Response] = None
        try:
            parsed = urlparse(request.target)
            parts = [unquote(p) for p in parsed.path.split("/") if p]
            route, thunk = self._resolve(request, parts, parsed,
                                         resident_bytes)
            if resident_bytes is None or route == "region":
                response = thunk()
        except Exception as exc:  # noqa: BLE001 - the one crash answer
            if resident_bytes is not None:
                raise
            ACCESS_LOG.exception("%s %s raised", request.method, request.target)
            response = self._json(500, {"error": f"internal error: {exc!r}"},
                                  close=True)
        if response is None:  # an inline attempt declined: handle() records
            return None
        seconds = time.perf_counter() - start
        self.metrics.record(route, response.status, seconds)
        if ACCESS_LOG.isEnabledFor(logging.INFO):
            ACCESS_LOG.info("%s %s %d %d %.3f", request.method,
                            request.target, response.status,
                            len(response.body), seconds * 1e3)
        if request.body_unread():
            response.close = True  # what is left of the body is not a request
        return response

    def _resolve(self, request: Request, parts: List[str], parsed,
                 resident_bytes: Optional[int]
                 ) -> Tuple[str, Callable[[], Optional[Response]]]:
        """Map (method, path) to a (metrics route name, handler thunk)."""
        try:
            request.body_length()
        except ValueError as exc:  # no route can read a body it cannot frame
            return "other", lambda error=str(exc): self._json(400, {"error": error})
        method = request.method
        if method == "GET":
            if parts == ["healthz"]:
                return "healthz", self._healthz
            if parts == ["metrics"]:
                return "metrics", self._metrics
            if len(parts) == 3 and parts[0] == "v1" and parts[2] == "info":
                return "info", lambda: self._info(request, parts[1])
            if len(parts) == 3 and parts[0] == "v1" and parts[2] == "region":
                return "region", lambda: self._region(
                    request, parts[1], parse_qs(parsed.query), resident_bytes)
            if len(parts) == 3 and parts[0] == "v1" and parts[2] == "archive":
                return "archive", lambda: self._archive(request, parts[1])
        elif method == "POST" and len(parts) == 3 and parts[0] == "v1" \
                and parts[2] == "regions":
            return "regions", lambda: self._regions(request, parts[1])
        elif len(parts) == 2 and parts[0] == "v1":
            if method == "POST":
                return "ingest", lambda: self._ingest(request, parts[1])
            if method == "DELETE":
                return "delete", lambda: self._delete(request, parts[1])
        return "other", lambda: self._json(
            404, {"error": f"no {method} route for {parsed.path!r}"})

    # ------------------------------------------------------------- GET routes
    def _healthz(self) -> Response:
        return self._json(200, {"status": "ok",
                                "archives": list(self.store.keys()),
                                "stats": self.store.stats()})

    def _metrics(self) -> Response:
        return self._json(200, {
            "cache": self.store.cache.stats(),
            **self.store.counters.snapshot(),
            "archives": len(self.store.keys()),
            "routes": self.metrics.snapshot(),
            "writable": self.ingest is not None,
            "remote": self.store.remote_stats(),
        })

    def _info(self, request: Request, key: str) -> Response:
        try:
            info = self.store.entry_info(key)
        except (KeyError, ValueError) as exc:
            return self._store_fault(exc)
        not_modified = self._not_modified(request, info)
        if not_modified is not None:
            return not_modified
        index = info.index
        doc = {
            "key": key,
            "codec": index.codec,
            "shape": list(index.shape),
            "dtype": index.dtype,
            "bound": {"mode": index.bound_mode, "value": index.bound_value},
            "version": index.version,
            "generation": info.generation,
            "n_tiles": index.n_tiles,
            **index.layout(),
        }
        return self._json(200, doc, extra=self._entity_headers(info))

    def _region(self, request: Request, key: str, query: dict,
                resident_bytes: Optional[int]) -> Optional[Response]:
        spec = (query.get("r") or query.get("region") or [None])[0]
        if spec is None:
            return self._json(400, {"error": "missing r= query parameter "
                                             "(e.g. ?r=10:20,0:64,5:9)"})
        not_modified = self._check_conditional(request, key)
        if not_modified is not None:
            return not_modified
        try:
            got = self.store.read_region_with_info(key, spec) \
                if resident_bytes is None \
                else self.store.read_resident(key, spec, resident_bytes)
        except (KeyError, ValueError, OSError) as exc:
            return self._store_fault(exc)
        if got is None:
            return None
        arr, info = got
        body = np.ascontiguousarray(arr).tobytes()
        meta = {
            "key": key,
            "region": [[b0, b1] for b0, b1 in info.bounds],
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "order": "C",
            "generation": info.generation,
        }
        headers = {
            "Content-Type": "application/octet-stream",
            "X-Repro-Shape": ",".join(str(s) for s in arr.shape),
            "X-Repro-Dtype": str(arr.dtype),
            "X-Repro-Header": json.dumps(meta, sort_keys=True),
        }
        headers.update(self._entity_headers(info))
        return Response(200, body, headers=headers)

    def _archive(self, request: Request, key: str) -> Response:
        """Raw archive bytes of ``key``, with single-span ``Range`` support.

        This is the endpoint that makes one node's archives readable as a
        remote byte source by another (``store.add(key, f"{url}/v1/{key}/"
        "archive")``): a valid ``Range: bytes=a-b`` answers 206 with a
        strict ``Content-Range``, a range past EOF answers 416, and
        anything unsupported falls back to an honest 200 full body — never
        a mislabeled partial.
        """
        not_modified = self._check_conditional(request, key)
        if not_modified is not None:
            not_modified.headers.setdefault("Accept-Ranges", "bytes")
            return not_modified
        span = _parse_byte_range(request.header("range"))
        try:
            if span is None:
                start = 0
                data, size, info = self.store.read_raw_with_info(key)
                status = 200
            else:
                start, end, suffix = span
                if suffix is not None:
                    # Suffix ranges need the total first; the extra lookup
                    # may race a concurrent replace, in which case the
                    # tile-level CRC checks downstream still catch any mix.
                    _, total, _ = self.store.read_raw_with_info(key, 0, 0)
                    start, end = max(0, total - suffix), None
                length = None if end is None else end - start + 1
                data, size, info = self.store.read_raw_with_info(
                    key, start, length)
                if start >= size:
                    return self._json(
                        416, {"error": f"range {request.header('range')!r} "
                                       f"is not satisfiable for a "
                                       f"{size}-byte archive"},
                        extra={"Content-Range": f"bytes */{size}",
                               "Accept-Ranges": "bytes"})
                status = 206
        except (KeyError, ValueError, OSError) as exc:
            return self._store_fault(exc)
        headers = {"Content-Type": "application/octet-stream",
                   "Accept-Ranges": "bytes"}
        headers.update(self._entity_headers(info))
        if status == 206:
            headers["Content-Range"] = \
                f"bytes {start}-{start + len(data) - 1}/{size}"
        return Response(status, data, headers=headers)

    def _regions(self, request: Request, key: str) -> Response:
        """Batched region reads: JSON spec list in, concatenated bytes out."""
        length = request.body_length()
        if length is None or length == CHUNKED:
            return self._json(411, {"error": "batched regions need "
                                             "Content-Length (a JSON body of "
                                             "region specs)"})
        if length > self.REGIONS_BODY_LIMIT:
            return self._json(413, {"error": f"batch body of {length} bytes "
                                             f"exceeds the "
                                             f"{self.REGIONS_BODY_LIMIT}-byte "
                                             f"limit"})
        try:
            raw = b"".join(request.body())
        except ValueError as exc:
            return self._json(400, {"error": str(exc)})
        try:
            doc = json.loads(raw) if raw else None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return self._json(400, {"error": f"corrupt batch body: invalid "
                                             f"JSON ({exc})"})
        specs = doc.get("regions") if isinstance(doc, dict) else doc
        if (not isinstance(specs, list) or not specs
                or not all(isinstance(s, str) for s in specs)):
            return self._json(400, {"error": 'batch body must be '
                                             '{"regions": ["10:20,:", ...]} '
                                             'or a JSON list of region spec '
                                             'strings'})
        if len(specs) > self.REGIONS_MAX_COUNT:
            return self._json(400, {"error": f"batch of {len(specs)} regions "
                                             f"exceeds the "
                                             f"{self.REGIONS_MAX_COUNT}-"
                                             f"region limit"})
        try:
            arrays, infos = self.store.read_regions_with_info(key, specs)
        except (KeyError, ValueError, OSError) as exc:
            return self._store_fault(exc)
        parts = [np.ascontiguousarray(a).tobytes() for a in arrays]
        regions_meta = []
        offset = 0
        for arr, part, info in zip(arrays, parts, infos):
            regions_meta.append({
                "region": [[b0, b1] for b0, b1 in info.bounds],
                "shape": list(arr.shape),
                "dtype": str(arr.dtype),
                "offset": offset,
                "nbytes": len(part),
            })
            offset += len(part)
        generation = infos[0].generation
        meta = {
            "key": key,
            "count": len(parts),
            "order": "C",
            "generation": generation,
            "regions": regions_meta,
        }
        headers = {
            "Content-Type": "application/octet-stream",
            "X-Repro-Count": str(len(parts)),
            "X-Repro-Header": json.dumps(meta, sort_keys=True),
        }
        headers.update(self._entity_headers(infos[0]))
        return Response(200, b"".join(parts), headers=headers)

    # ----------------------------------------------------------- write routes
    def _ingest(self, request: Request, key: str) -> Response:
        manager = self.ingest
        if manager is None:
            return self._read_only_response()
        denied = self._auth_failure(manager, request, key)
        if denied is not None:
            return denied
        try:
            params = self._ingest_params(request)
        except ValueError as exc:
            return self._json(400, {"error": str(exc)})
        quota = manager.quota_bytes
        length = request.body_length()
        if length is None:
            return self._json(411, {"error": "upload needs Content-Length or "
                                             "Transfer-Encoding: chunked"})
        if quota is not None and length > quota:
            return self._json(413, {"error": f"upload of {length} bytes "
                                             f"exceeds the per-key quota of "
                                             f"{quota} bytes"})
        created = manager.manifest.get(key) is None
        blocks = read_row_blocks(limit_stream(request.body(), quota, key),
                                 params["shape"], params["dtype"])
        try:
            entry = manager.ingest(key, blocks, codec=params["codec"],
                                   bound=params["bound"],
                                   chunk_size=params["chunk_size"],
                                   data_range=params["data_range"])
        except IngestConflictError as exc:
            return self._json(409, {"error": str(exc)})
        except IngestQuotaError as exc:
            return self._json(413, {"error": str(exc)})
        except ValueError as exc:
            # Caller-side faults: malformed body framing/row count, unknown
            # codec, bad bound, rel bound without a data range.
            return self._json(400, {"error": str(exc)})
        except (IngestVerifyError, OSError) as exc:
            return self._json(500, {"error": str(exc)})
        return self._json(201 if created else 200, {
            "key": key,
            "created": created,
            "generation": entry.generation,
            "archive_bytes": entry.nbytes,
            "token": entry.token,
            "codec": entry.codec,
            "shape": entry.shape,
            "dtype": entry.dtype,
            "bound": entry.bound,
            "path": entry.path,
        })

    def _delete(self, request: Request, key: str) -> Response:
        manager = self.ingest
        if manager is None:
            return self._read_only_response()
        denied = self._auth_failure(manager, request, key)
        if denied is not None:
            return denied
        try:
            entry = manager.delete(key)
        except KeyError as exc:
            return self._json(404, {"error": str(exc)})
        return self._json(200, {"deleted": key,
                                "generation": entry.generation})

    @staticmethod
    def _ingest_params(request: Request) -> dict:
        """Parse and validate the ``X-Repro-*`` upload headers (ValueError = 400)."""
        shape_header = request.header("x-repro-shape")
        dtype_header = request.header("x-repro-dtype")
        bound_header = request.header("x-repro-bound")
        if not shape_header or not dtype_header or not bound_header:
            raise ValueError(
                "upload needs X-Repro-Shape, X-Repro-Dtype and X-Repro-Bound "
                "headers")
        try:
            shape = tuple(int(s) for s in shape_header.split(","))
        except ValueError:
            raise ValueError(
                f"corrupt upload body: invalid X-Repro-Shape "
                f"{shape_header!r}") from None
        if not shape or any(s <= 0 for s in shape):
            raise ValueError(
                f"X-Repro-Shape {shape_header!r} must be positive per-axis "
                f"extents")
        try:
            dtype = np.dtype(dtype_header)
        except TypeError:
            raise ValueError(
                f"corrupt upload body: unknown X-Repro-Dtype "
                f"{dtype_header!r}") from None
        mode = request.header("x-repro-bound-mode", "rel")
        if mode not in MODES:
            raise ValueError(
                f"X-Repro-Bound-Mode {mode!r} must be one of {', '.join(MODES)}")
        try:
            bound = ErrorBound(mode, float(bound_header))
        except ValueError as exc:
            raise ValueError(f"invalid X-Repro-Bound: {exc}") from None
        data_range = None
        range_header = request.header("x-repro-data-range")
        if range_header is not None:
            try:
                lo, hi = (float(v) for v in range_header.split(","))
            except ValueError:
                raise ValueError(
                    f"invalid X-Repro-Data-Range {range_header!r} (expected "
                    f"'min,max')") from None
            data_range = (lo, hi)
        chunk_header = request.header("x-repro-chunk-size")
        try:
            chunk_size = int(chunk_header) if chunk_header else 0
        except ValueError:
            raise ValueError(
                f"invalid X-Repro-Chunk-Size {chunk_header!r}") from None
        return {
            "shape": shape,
            "dtype": dtype,
            "bound": bound,
            "codec": request.header("x-repro-codec", "sz21"),
            "data_range": data_range,
            "chunk_size": chunk_size if chunk_size > 0 else DEFAULT_CHUNK_ELEMS,
        }

    # ---------------------------------------------------------------- helpers
    def _check_conditional(self, request: Request, key: str
                           ) -> Optional[Response]:
        """A 304 (or error) for a conditional GET, ``None`` to proceed.

        Runs *before* the decode so a fresh client cache skips the region
        work entirely; the fresh/stale decision is made against one atomic
        entry snapshot.
        """
        inm = request.header("if-none-match")
        if inm is None:
            return None
        try:
            info = self.store.entry_info(key)
        except KeyError:
            return None  # unknown key: the main read path answers the 404
        except ValueError as exc:
            return self._store_fault(exc)
        return self._not_modified(request, info)

    def _not_modified(self, request: Request, info: ReadInfo
                      ) -> Optional[Response]:
        inm = request.header("if-none-match")
        if inm is not None and _etag_matches(inm, info.etag):
            return Response(304, b"", headers=self._entity_headers(info))
        return None

    def _store_fault(self, exc: Exception) -> Response:
        """The response for a store read that raised — the one place a
        fault's type becomes a status.

        400: the client's region is at fault (syntax, rank, negative or
        reversed bounds against this entry's shape).  404: unknown key.
        503: the request raced the shutdown path.  500: the archive's fault —
        corrupt tile bytes, a shape mismatch after decode, a failed source
        read.  Nothing was cached, so other regions of the archive keep
        serving and retries re-attempt.
        """
        if isinstance(exc, RegionSpecError):
            code = 400
        elif isinstance(exc, KeyError):
            code = 404
        elif isinstance(exc, StoreClosedError):
            code = 503
        else:
            code = 500
        return self._json(code, {"error": str(exc)})

    @staticmethod
    def _entity_headers(info: ReadInfo) -> Dict[str, str]:
        return {"ETag": info.etag,
                "X-Repro-Generation": str(info.generation)}

    def _read_only_response(self) -> Response:
        return self._json(405, {"error": "this server is read-only; start "
                                         "repro serve with --root DIR "
                                         "--writable to enable ingest"})

    def _auth_failure(self, manager: IngestManager, request: Request,
                      key: str) -> Optional[Response]:
        """Enforce the manifest's bearer tokens; a Response means denied."""
        required = manager.manifest.auth_token(key)
        if required is None:
            return None
        supplied = (request.header("authorization", "") or "").strip()
        if hmac.compare_digest(supplied, f"Bearer {required}"):
            return None
        return self._json(401, {"error": f"mutating key {key!r} requires a "
                                         f"bearer token"},
                          extra={"WWW-Authenticate": "Bearer"})

    @staticmethod
    def _json(code: int, obj: dict, *, close: bool = False,
              extra: Optional[Dict[str, str]] = None) -> Response:
        # ``close`` is for the answers given outside a route (a refused
        # head, a crash); after a route, ``handle`` decides (``body_unread``).
        headers = {"Content-Type": "application/json"}
        if extra:
            headers.update(extra)
        return Response(code, json.dumps(obj, sort_keys=True).encode(),
                        headers=headers, close=close)


# ---------------------------------------------------------------------------
# The threaded front end (fallback: `repro serve --server threaded`)
# ---------------------------------------------------------------------------

class StoreRequestHandler(socketserver.StreamRequestHandler):
    """One connection's thread: the shared codec over a blocking socket."""

    server: "StoreHTTPServer"  # narrowed from BaseServer: set by the server
    # Head and body go out as two segments; with Nagle on, a small keep-alive
    # read would wait out the client's delayed ACK (~40 ms) between them.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        sock, buf, close = self.connection, bytearray(), False
        self.timeout = self.server.read_timeout
        sock.settimeout(self.timeout)  # the idle wait for a head
        while not close:
            try:
                head = self._read_head(buf)
                if head is None:
                    return
                method, target, headers, keep_alive = head
                reader = BodyReader(sock, self.timeout, headers, bytes(buf))
                response = self.server.app.handle(
                    Request(method, target, headers, reader))
                buf = reader.prefix
            except HeadError as exc:
                response, keep_alive = exc.response(), False
            close = response.close or not keep_alive
            try:
                sock.sendall(render_head(response, close))
                sock.sendall(response.body)
            except OSError:
                return

    def _read_head(self, buf: bytearray) -> Optional[Head]:
        """The next head, or ``None`` once the client closes, idles past the
        timeout or takes longer than it from a head's first byte to its end."""
        deadline = None
        try:
            while (head := parse_head(buf)) is None:
                if buf and deadline is None and self.timeout is not None:
                    deadline = time.monotonic() + self.timeout
                if deadline is not None:  # 0 once it passes: never blocks
                    self.connection.settimeout(
                        max(deadline - time.monotonic(), 0.0))
                if not (data := self.connection.recv(1 << 16)):
                    return None
                buf += data
            return head
        except OSError:  # a timeout, the passed deadline, or a reset
            return None
        finally:
            self.connection.settimeout(self.timeout)


class StoreHTTPServer(socketserver.ThreadingTCPServer):
    """A threaded HTTP server bound to one :class:`ArchiveStore`.

    ``ingest`` (an :class:`IngestManager`) enables the mutating routes; with
    ``None`` the server is read-only and POST/DELETE answer 405.
    ``read_timeout`` (seconds, ``None`` = no limit) bounds an idle wait, a
    head from its first byte and a body read, so no client pins a thread.
    """

    daemon_threads = True  # in-flight requests never block process exit
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], store: ArchiveStore, *,
                 ingest: Optional[IngestManager] = None,
                 read_timeout: Optional[float] = None):
        super().__init__(address, StoreRequestHandler)
        self.app = StoreApp(store, ingest=ingest)
        self.store = store
        self.ingest = ingest
        self.read_timeout = read_timeout

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(store: ArchiveStore, host: str = "127.0.0.1", port: int = 0,
                *, quiet: bool = True,
                ingest: Optional[IngestManager] = None,
                server: str = "threaded",
                read_timeout: Optional[float] = None,
                max_connections: int = 512,
                workers: Optional[int] = None,
                ) -> "Union[StoreHTTPServer, AsyncStoreHTTPServer]":
    """Bind a store HTTP server (``port=0`` picks a free port).

    ``server`` selects the front end: ``"threaded"`` (default here, for
    drop-in compatibility) is the one-thread-per-connection fallback;
    ``"selectors"`` is the non-blocking event-loop front end of
    :mod:`repro.store.aserver` (what the CLI defaults to) — one codec and
    one :class:`StoreApp` either way.  ``read_timeout`` bounds an idle wait,
    a head from its first byte and a body read; ``max_connections`` and
    ``workers`` apply to the selectors front end (connection guard / decode
    pool size).  ``quiet=False`` prints the access log (one line per
    request, logger ``repro.serve``) to stderr.

    The caller drives it: ``serve_forever()`` inline (what ``repro serve``
    does after printing the bound URL), or on a thread for embedding
    (``threading.Thread(target=server.serve_forever).start()``), and
    ``shutdown()`` + ``server_close()`` to stop.  Pass ``ingest=`` to enable
    the write routes (``POST`` / ``DELETE /v1/<key>``).
    """
    if server not in ("selectors", "threaded"):
        raise ValueError(f"unknown server kind {server!r} "
                         f"(use 'selectors' or 'threaded')")
    if not quiet:
        if not ACCESS_LOG.handlers:
            ACCESS_LOG.addHandler(logging.StreamHandler())  # stderr
        ACCESS_LOG.setLevel(logging.INFO)
    if server == "selectors":
        from repro.store.aserver import AsyncStoreHTTPServer

        return AsyncStoreHTTPServer(
            (host, port), store, ingest=ingest, read_timeout=read_timeout,
            max_connections=max_connections, workers=workers)
    return StoreHTTPServer((host, port), store, ingest=ingest,
                           read_timeout=read_timeout)


install_guards(RouteMetrics, "_lock", ("_routes",))
