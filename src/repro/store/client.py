"""Thin write client for a writable store node: ``repro push`` lives here.

:func:`push_field` streams a field to ``POST /v1/<key>`` without ever
materializing it: the source stays a memory-mapped array and goes out as
chunked-transfer row slabs, so fields larger than RAM push in bounded
memory.  A ``rel`` bound needs the global value range, which the client
computes with a streaming min/max pass over the same slabs (the server
cannot replay the stream).

Stdlib-only (``http.client``), mirroring the server side.
"""

from __future__ import annotations

import json
import math
from http.client import HTTPConnection
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import quote

import numpy as np

from repro.api import _range_pass, _resolve_field_source, _slab_chunks
from repro.bounds import MODE_REL, as_bound
from repro.data.loader import map_f32
from repro.sources.http import HttpAddress, RetryPolicy, TransientHTTPError

#: Upload granularity: whole rows totalling about this many bytes per chunk.
DEFAULT_CHUNK_BYTES = 1 << 20


class PushError(RuntimeError):
    """A push/delete was refused; ``status`` carries the HTTP code."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def open_field(source, dims=None) -> np.ndarray:
    """Resolve a push source to an array without loading it into RAM.

    ``.npy`` paths open memory-mapped; raw float32 files need ``dims`` and
    open as a read-only memmap; arrays pass through.
    """
    if isinstance(source, np.ndarray) or Path(source).suffix == ".npy":
        return _resolve_field_source(source)
    if dims is None:
        raise ValueError(
            f"raw field file {str(source)!r} needs dims= (only .npy files are "
            f"self-describing)")
    return map_f32(source, dims)


def _streamed_range(arr: np.ndarray, chunk_elems: int) -> Tuple[float, float]:
    """The global ``(min, max)`` a ``rel`` bound needs, checked slab by slab
    so a NaN fails here, before a single body byte is streamed."""
    if arr.size == 0:
        raise ValueError(
            "cannot derive a rel-bound data range from an empty source; "
            "pass an explicit data_range=")
    lo, hi = _range_pass(arr, chunk_elems)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            "cannot derive a rel-bound data range: the source contains "
            "non-finite values (NaN/Inf); clean the field or pass an "
            "explicit data_range=")
    return lo, hi


def _connect(url: str, timeout: float) -> Tuple[HTTPConnection, str]:
    """A new connection to the server at ``url``, with the URL's base path
    (a reverse proxy may mount the store under a prefix)."""
    address = HttpAddress.parse(
        url, f"unsupported server URL {url!r} (need http/https)")
    return address.connect(timeout), address.base


def _retrying_connect(url: str, timeout: float, retry: RetryPolicy
                      ) -> Tuple[HTTPConnection, str]:
    """``_connect`` + an explicit TCP/TLS connect, retried under ``retry``.

    Forcing the connect here (instead of lazily inside the first
    ``request()``) pins every transient connection fault to a point where
    not a single body byte is on the wire — the only place a non-idempotent
    push may retry safely.
    """
    def attempt() -> Tuple[HTTPConnection, str]:
        conn, base = _connect(url, timeout)
        try:
            conn.connect()
        except OSError:
            conn.close()
            raise
        return conn, base

    return retry.run(attempt, f"cannot connect to {url}")


def _finish(conn) -> dict:
    resp = conn.getresponse()
    raw = resp.read()
    try:
        payload = json.loads(raw) if raw else {}
    except json.JSONDecodeError:
        payload = {"error": raw.decode("utf-8", "replace")[:200]}
    if resp.status >= 400:
        raise PushError(resp.status, payload.get("error", resp.reason))
    payload["status"] = resp.status
    return payload


def push_field(url: str, key: str,
               source: Union[np.ndarray, str, Path], *,
               bound=1e-3, dims=None, codec: str = "sz21",
               token: Optional[str] = None,
               data_range: Optional[Tuple[float, float]] = None,
               chunk_bytes: int = DEFAULT_CHUNK_BYTES,
               timeout: float = 600.0,
               retry: Optional[RetryPolicy] = None) -> dict:
    """Stream ``source`` to ``POST {url}/v1/{key}`` and return the response.

    ``bound`` is an :class:`~repro.bounds.ErrorBound` or a bare number
    (= ``Rel``); for ``rel`` the value range is computed in a streaming pass
    unless ``data_range`` is given.  ``token`` authenticates against the
    server's manifest (``Authorization: Bearer``).  Raises
    :class:`PushError` on any non-2xx response.
    """
    arr = open_field(source, dims)
    if arr.ndim == 0:
        raise ValueError(
            "cannot push a 0-d source: the server addresses fields by "
            "per-axis extents; reshape to at least 1-d (e.g. arr.reshape(1))")
    bound = as_bound(bound)
    # Upload granularity in elements: whole rows, at least one per chunk.
    chunk_elems = chunk_bytes // arr.dtype.itemsize
    if bound.mode == MODE_REL and data_range is None:
        data_range = _streamed_range(arr, chunk_elems)
    headers = {
        "X-Repro-Shape": ",".join(str(int(s)) for s in arr.shape),
        "X-Repro-Dtype": str(arr.dtype),
        "X-Repro-Bound": repr(float(bound.value)),
        "X-Repro-Bound-Mode": bound.mode,
        "X-Repro-Codec": codec,
    }
    if data_range is not None:
        headers["X-Repro-Data-Range"] = f"{data_range[0]!r},{data_range[1]!r}"
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    body = (np.ascontiguousarray(slab).tobytes()
            for _, _, slab in _slab_chunks(arr, chunk_elems))
    # Retry covers *connection establishment only*: a push is not idempotent
    # once body bytes are on the wire (the server may already be ingesting),
    # so transient faults after the explicit connect() surface to the caller.
    retry = retry if retry is not None else RetryPolicy()
    conn, base = _retrying_connect(url, timeout, retry)
    try:
        try:
            conn.request("POST", f"{base}/v1/{quote(key, safe='')}",
                         body=body, headers=headers, encode_chunked=True)
        except (BrokenPipeError, ConnectionResetError):
            # The server refused early (401/405/413/...) and closed its end
            # while the body was still streaming; the response is already on
            # the wire — read it so the caller sees the status, not EPIPE.
            pass
        return _finish(conn)
    finally:
        conn.close()


def delete_key(url: str, key: str, *, token: Optional[str] = None,
               timeout: float = 60.0,
               retry: Optional[RetryPolicy] = None) -> dict:
    """``DELETE /v1/{key}`` on a writable store node.

    DELETE is idempotent, so the whole exchange retries under ``retry``
    (default :class:`repro.sources.http.RetryPolicy`) on transient faults:
    connection errors, timeouts, and 5xx/429/408 responses.  Non-transient
    refusals (401, 404, ...) raise :class:`PushError` immediately.
    """
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    policy = retry if retry is not None else RetryPolicy()

    def attempt() -> dict:
        conn, base = _connect(url, timeout)
        try:
            conn.request("DELETE", f"{base}/v1/{quote(key, safe='')}",
                         headers=headers)
            return _finish(conn)
        except PushError as exc:
            if policy.retryable_status(exc.status):
                raise TransientHTTPError(str(exc)) from exc
            raise
        finally:
            conn.close()

    return policy.run(attempt, f"DELETE {url}/v1/{key} failed")
