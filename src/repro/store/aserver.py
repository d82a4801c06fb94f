"""Non-blocking ``selectors`` front end for the store HTTP service.

One event-loop thread owns every socket it has not lent to a worker: it
accepts connections, parses request heads from per-connection buffers, and
drains response bytes — all non-blocking.  It answers one kind of request itself: a body-less region GET
of at most ``_INLINE_REGION_BYTES`` whose tiles are all resident in the tile
cache — a crop of arrays in memory, cheaper than the round trip to a worker
and back.  Everything else (cold or partly cached regions, bodies, ingest,
other routes) runs on a bounded
:class:`~concurrent.futures.ThreadPoolExecutor`, calling the same
transport-agnostic :class:`repro.store.server.StoreApp` the threaded server
wraps, so routes, status codes and auth are identical across front ends by
construction.

Why this shape: the threaded fallback burns one OS thread per connection,
which collapses under hundreds of mostly-idle keep-alive clients.  Here idle
connections cost one selector registration each; only connections with an
in-flight request occupy a worker.  The loop enforces what threads cannot:

* **keep-alive by default** (HTTP/1.1 semantics, ``Connection: close``
  honored, HTTP/1.0 gets close-by-default);
* **read timeouts** — an idle or stalled connection is dropped by the loop's
  timeout scan; a request with a body lends its socket to the worker that
  handles it, whose :class:`~repro.store.server.BodyReader` bounds every
  read, so a stalled or cut-off upload is a 400 (as on the threaded front
  end), never a pinned worker;
* **a max-connections guard** — accepts beyond the cap get an immediate
  best-effort ``503`` and never reach the selector loop's bookkeeping;
* **backpressure** — the loop never reads a lent socket, so TCP flow control
  paces an uploading client to the worker reading its body.

Threading discipline (this module has exactly three kinds of threads):

* the *loop thread* (whoever calls :meth:`serve_forever`) exclusively owns
  every ``_Conn``, the selector and the ``_conns`` set — no locks needed;
  its resident reads take only short critical sections and never decode,
  read a source, or wait on another thread's tile load;
* *worker threads* touch only a connection the loop handed them (a bodied
  request's socket, through its ``BodyReader``) and the completion queue
  (a ``SimpleQueue``), then wake the loop over a socketpair;
* any thread may call :meth:`shutdown`.

The loop never writes to, reads from or ``close()``s a socket a worker holds:
lending unregisters it and clears ``_Conn.sock`` until the completion hands
it back with the glued bytes the body left unread.  Dropping a held
connection (:meth:`server_close`) does ``shutdown(SHUT_RDWR)``, which wakes a
blocked ``recv``; the close happens when the completion is processed, or once
the worker pool has drained, so a reused fd number can never be read by the
wrong thread.  The interim ``100 Continue`` is the worker's to send, before
its first body read.
"""

from __future__ import annotations

import io
import queue
import selectors
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Any, Dict, Optional, Set, Tuple, cast

from repro.store.ingest import IngestManager
from repro.store.server import BodyReader, Request, Response, StoreApp
from repro.store.store import ArchiveStore

__all__ = ["AsyncStoreHTTPServer"]

#: Selector-key sentinels for the listening and wakeup sockets.
_ACCEPT = object()
_WAKE = object()

_RECV_BYTES = 1 << 16
#: A request head larger than this is answered 431 — ours are tiny.
_MAX_HEADER_BYTES = 1 << 16
#: Cap on buffered pipelined bytes while a request is in flight.
_MAX_BUFFERED_BYTES = 1 << 20
#: How long a closing connection drains inbound bytes before the real
#: close, so the client can read the response before any RST.
_LINGER_SECONDS = 2.0
#: Largest resident region the loop answers itself; bigger ones are pooled.
_INLINE_REGION_BYTES = 1 << 20
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _Conn:
    """Loop-thread-only state of one client connection.

    ``state`` walks ``headers`` (accumulating a request head) ->
    ``dispatched`` (a worker owns the request — and, when it has a body,
    the socket: ``sock`` is ``None`` and ``reader`` holds it; skipped by
    resident reads) -> ``writing`` (draining the response) -> back to
    ``headers`` (keep-alive) or ``draining`` (lingering close: write side
    shut, inbound discarded until EOF or deadline).
    """

    __slots__ = ("sock", "inbuf", "outbuf", "state", "reader", "close_after",
                 "last_active", "linger_deadline", "registered", "events")

    def __init__(self, sock: socket.socket) -> None:
        self.sock: Optional[socket.socket] = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.state = "headers"
        self.reader: Optional[BodyReader] = None
        self.close_after = False
        self.last_active = time.monotonic()
        self.linger_deadline = 0.0
        self.registered = False
        self.events = 0


def _default_workers() -> int:
    import os
    return max(4, min(32, os.cpu_count() or 4))


class AsyncStoreHTTPServer:
    """Drop-in alternative to :class:`repro.store.server.StoreHTTPServer`.

    Same constructor shape, same ``url`` / ``app`` / ``store`` / ``ingest``
    attributes, same ``serve_forever()`` / ``shutdown()`` /
    ``server_close()`` protocol — ``make_server(..., server="selectors")``
    is the only intended way to build one.
    """

    def __init__(self, address: Tuple[str, int], store: ArchiveStore, *,
                 ingest: Optional[IngestManager] = None,
                 read_timeout: Optional[float] = None,
                 max_connections: int = 512,
                 workers: Optional[int] = None) -> None:
        self.app = StoreApp(store, ingest=ingest)
        self.store = store
        self.ingest = ingest
        self.read_timeout = read_timeout
        self.max_connections = max_connections
        self._listen = socket.create_server(address, backlog=512)
        self._listen.setblocking(False)
        self.server_address: Tuple[str, int] = \
            self._listen.getsockname()[:2]
        self._pool = ThreadPoolExecutor(
            max_workers=workers if workers else _default_workers(),
            thread_name_prefix="repro-aserve")
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listen, selectors.EVENT_READ, _ACCEPT)
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, _WAKE)
        self._completions: "queue.SimpleQueue[Tuple[_Conn, Response]]" = \
            queue.SimpleQueue()
        self._conns: Set[_Conn] = set()
        self._shutdown_requested = False
        self._stopped = threading.Event()
        self._stopped.set()  # not running until serve_forever starts
        self._last_scan = 0.0

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------- lifecycle
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the event loop on the calling thread until :meth:`shutdown`."""
        self._stopped.clear()
        try:
            while not self._shutdown_requested:
                try:
                    events = self._selector.select(poll_interval)
                except OSError:  # pragma: no cover - closed under our feet
                    break
                for key, mask in events:
                    data = key.data
                    if data is _ACCEPT:
                        self._accept()
                    elif data is _WAKE:
                        self._drain_wake()
                    else:
                        conn = cast(_Conn, data)
                        if mask & selectors.EVENT_READ:
                            self._on_readable(conn)
                        if mask & selectors.EVENT_WRITE \
                                and conn.sock is not None:
                            self._flush(conn)
                            self._try_parse(conn)
                self._process_completions()
                self._check_timeouts(time.monotonic())
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Ask the loop to exit and wait for it (safe from any thread)."""
        self._shutdown_requested = True
        self._wake()
        self._stopped.wait(timeout=10.0)

    def server_close(self) -> None:
        """Release every resource.  Call after :meth:`shutdown`."""
        self._shutdown_requested = True
        self._wake()
        self._stopped.wait(timeout=5.0)
        for conn in self._conns:
            if conn.reader is not None:  # lent: wake a worker blocked on it
                try:
                    conn.reader.sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # pragma: no cover
                    pass
        # With the pool drained no other thread holds a socket: close all.
        self._pool.shutdown(wait=True, cancel_futures=True)
        for conn in list(self._conns):
            self._reclaim(conn)
            self._drop(conn)
        for sock in (self._listen, self._wake_send, self._wake_recv):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._selector.close()
        except OSError:  # pragma: no cover
            pass

    # ----------------------------------------------------------- loop: wakeup
    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, InterruptedError):
            pass  # a wake byte is already pending; the loop will run
        except OSError:
            pass  # socketpair closed: the server is shutting down

    def _drain_wake(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # pragma: no cover
            pass

    # ----------------------------------------------------------- loop: accept
    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - listener closed
                return
            if len(self._conns) >= self.max_connections:
                self._refuse(sock)
                continue
            self._adopt(sock)

    def _adopt(self, sock: socket.socket) -> _Conn:
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. AF_UNIX
            pass
        conn = _Conn(sock)
        self._conns.add(conn)
        self._update_events(conn)
        return conn

    def _refuse(self, sock: socket.socket) -> None:
        """Best-effort 503 to a connection over the cap, then close."""
        if len(self._conns) >= self.max_connections * 2:
            # Under a connect flood even refusals are rationed: plain close.
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            return
        conn = self._adopt(sock)
        conn.close_after = True
        self._queue_response(conn, StoreApp._json(
            503, {"error": f"server is at its {self.max_connections}-"
                           f"connection limit; retry shortly"}, close=True))

    # ------------------------------------------------------------- loop: read
    def _on_readable(self, conn: _Conn) -> None:
        sock = conn.sock
        if sock is None:
            return  # stale selector event for a connection dropped this tick
        try:
            data = sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn)
            return
        if not data:
            # Client FIN (or full close).  A body-less request in flight has
            # its completion discarded; a bodied one's socket is lent, so
            # the worker's reader sees this EOF instead and answers 400.
            self._drop(conn)
            return
        if conn.state == "draining":
            return  # lingering close: discard until EOF or deadline
        conn.last_active = time.monotonic()
        conn.inbuf += data
        if conn.state == "headers":
            self._try_parse(conn)
        self._update_events(conn)

    def _try_parse(self, conn: _Conn) -> None:
        """Parse request heads from ``inbuf``; answer resident reads, dispatch
        the rest.  A loop, not a recursion (flushing never parses), so any
        number of pipelined answers costs constant stack."""
        while conn.sock is not None and conn.state == "headers":
            buf = conn.inbuf
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                if len(buf) > _MAX_HEADER_BYTES:
                    self._queue_response(conn, StoreApp._json(
                        431, {"error": "request header section too large"},
                        close=True))
                return
            head = bytes(buf[:end])
            del buf[:end + 4]
            lines = head.decode("latin-1").split("\r\n")
            first = lines[0].split(" ")
            if len(first) != 3:
                self._queue_response(conn, StoreApp._json(
                    400, {"error": f"malformed request line {lines[0]!r}"},
                    close=True))
                return
            method, target, version = first
            if not version.startswith("HTTP/1."):
                self._queue_response(conn, StoreApp._json(
                    505, {"error": f"unsupported protocol {version!r}"},
                    close=True))
                return
            headers: Dict[str, str] = {}
            for raw in lines[1:]:
                if not raw:
                    continue
                name, sep, value = raw.partition(":")
                if not sep:
                    self._queue_response(conn, StoreApp._json(
                        400, {"error": f"malformed header line {raw!r}"},
                        close=True))
                    return
                headers[name.strip().lower()] = value.strip()
            connection = headers.get("connection", "").lower()
            conn.close_after = ("close" in connection
                                or (version == "HTTP/1.0"
                                    and "keep-alive" not in connection))
            if method not in ("GET", "POST", "DELETE"):
                self._queue_response(conn, StoreApp._json(
                    501, {"error": f"unsupported method {method!r}"},
                    close=True))
                return
            te = headers.get("transfer-encoding", "")
            try:
                declared = int(headers.get("content-length", "0"))
            except ValueError:
                declared = 0  # the app answers a bad Content-Length with 400
            rfile: Any = io.BytesIO(b"")
            if "chunked" in te.lower() or declared > 0:
                # The worker reads its own body: lend it the socket plus the
                # body bytes glued to the head, until the completion is back.
                expect = headers.get("expect", "").lower() == "100-continue"
                rfile = conn.reader = BodyReader(
                    cast(socket.socket, conn.sock), self.read_timeout,
                    prefix=bytes(buf), interim=_CONTINUE if expect else b"")
                del buf[:]
                self._unregister(conn)
                conn.sock = None
            request = Request(method, target, headers, rfile)
            if conn.reader is None and method == "GET":
                try:
                    response = self.app.handle_resident(
                        request, _INLINE_REGION_BYTES)
                except Exception:  # noqa: BLE001 - the pool answers it
                    response = None
                if response is not None:  # resident: no worker round trip
                    self._queue_response(conn, response)
                    continue
            conn.state = "dispatched"
            conn.last_active = time.monotonic()
            try:
                self._pool.submit(self._run_handler, conn, request)
            except RuntimeError:  # pool shut down: the server is closing
                self._reclaim(conn)
                self._drop(conn)
                return
            self._update_events(conn)

    # ---------------------------------------------------------- worker thread
    def _run_handler(self, conn: _Conn, request: Request) -> None:
        """Worker-pool entry: run the app, queue the completion, wake."""
        try:
            response = self.app.handle(request)
        except Exception as exc:  # noqa: BLE001 - answered as a 500
            response = StoreApp._json(
                500, {"error": f"internal error: {exc!r}"}, close=True)
        self._completions.put((conn, response))
        # Unconditional wake.  A "skip if a wake byte is already pending"
        # flag races: the loop can drain a fresh byte together with a stale
        # one and leave the flag claiming a byte is pending when none is,
        # stranding completions until the poll timeout.  A non-blocking
        # send on the socketpair is cheap, and EAGAIN (buffer full) means a
        # wake is guaranteed pending anyway.
        self._wake()

    # ----------------------------------------------------- loop: completions
    def _process_completions(self) -> None:
        while True:
            try:
                conn, response = self._completions.get_nowait()
            except queue.Empty:
                return
            self._reclaim(conn)
            if conn.sock is None:
                continue  # the connection died while the handler ran
            self._queue_response(conn, response)
            self._try_parse(conn)

    @staticmethod
    def _reclaim(conn: _Conn) -> None:
        """Take back a lent socket (unregistered, non-blocking as the reader
        left it); glued bytes the body left are the next requests."""
        reader = conn.reader
        if reader is not None:
            conn.sock, conn.reader = reader.sock, None
            conn.inbuf[:0] = reader.prefix

    def _queue_response(self, conn: _Conn, response: Response) -> None:
        if conn.sock is None:
            return
        close = response.close or conn.close_after
        conn.close_after = close
        if close:
            del conn.inbuf[:]  # no further requests will be parsed
        conn.state = "writing"
        conn.outbuf += self._render_head(response, close)
        if response.status != 304:  # appended apart: one copy of the body
            conn.outbuf += response.body
        conn.last_active = time.monotonic()
        self._flush(conn)

    @staticmethod
    def _render_head(response: Response, close: bool) -> bytes:
        try:
            phrase = HTTPStatus(response.status).phrase
        except ValueError:
            phrase = "Unknown"
        lines = [f"HTTP/1.1 {response.status} {phrase}",
                 "Server: repro-aserve/1"]
        for name, value in response.headers.items():
            lines.append(f"{name}: {value}")
        lines.append(f"Content-Length: {len(response.body)}")
        if close:
            lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    # ------------------------------------------------------------ loop: write
    def _flush(self, conn: _Conn) -> None:
        sock = conn.sock
        if sock is None:
            return
        while conn.outbuf:
            try:
                sent = sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(conn)
                return
            if sent <= 0:  # pragma: no cover - send never returns 0 here
                break
            del conn.outbuf[:sent]
            conn.last_active = time.monotonic()
        if conn.outbuf or conn.state != "writing":
            self._update_events(conn)
            return
        # Response fully written; the caller's _try_parse takes the next.
        if conn.close_after:
            self._start_linger(conn)
            return
        conn.state = "headers"
        self._update_events(conn)

    def _start_linger(self, conn: _Conn) -> None:
        """Shut the write side, then discard inbound until EOF/deadline.

        Closing outright with unread inbound bytes (an aborted upload body,
        say) sends RST, which can destroy the response sitting in the
        client's receive buffer.  The drain gives well-behaved clients time
        to read the response and close first.
        """
        sock = conn.sock
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._drop(conn)
            return
        conn.state = "draining"
        del conn.inbuf[:]
        conn.linger_deadline = time.monotonic() + _LINGER_SECONDS
        self._update_events(conn)

    # ----------------------------------------------------- loop: housekeeping
    def _update_events(self, conn: _Conn) -> None:
        sock = conn.sock
        if sock is None:
            return
        # Reads pause while pipelined bytes pile up behind a request in
        # flight; whatever shrinks ``inbuf`` then calls this, resuming them.
        mask = 0
        if conn.state == "draining" or len(conn.inbuf) < _MAX_BUFFERED_BYTES:
            mask |= selectors.EVENT_READ
        if conn.outbuf:
            mask |= selectors.EVENT_WRITE
        if mask == 0:
            self._unregister(conn)
            return
        if not conn.registered:
            self._selector.register(sock, mask, conn)
            conn.registered = True
            conn.events = mask
        elif mask != conn.events:
            self._selector.modify(sock, mask, conn)
            conn.events = mask

    def _check_timeouts(self, now: float) -> None:
        if now - self._last_scan < 0.25:
            return
        self._last_scan = now
        for conn in list(self._conns):
            if conn.state == "draining":
                if now >= conn.linger_deadline:
                    self._drop(conn)
            elif (self.read_timeout is not None
                    and conn.state != "dispatched"
                    and now - conn.last_active > self.read_timeout):
                # "dispatched" is excluded: a stalled upload is timed out by
                # the worker's BodyReader (bounded per-call waits), and a
                # long decode must not be killed under the worker.
                self._drop(conn)

    def _drop(self, conn: _Conn) -> None:
        sock = conn.sock
        if sock is None:
            return
        self._unregister(conn)
        conn.sock = None
        self._conns.discard(conn)
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass

    def _unregister(self, conn: _Conn) -> None:
        if conn.registered:
            try:
                self._selector.unregister(cast(socket.socket, conn.sock))
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass
            conn.registered = False
