"""A small, dependency-free parallel map (eager and streaming variants).

Chunk-wise compression is embarrassingly parallel across chunks.  The library
keeps the default single-process (NumPy kernels already use optimized BLAS and
the block work is memory-bound), but exposes :func:`parallel_map` and the
generator-safe :func:`parallel_imap` so the chunked pipeline, examples and
benchmarks can opt into process-level parallelism for large inputs.

:func:`parallel_imap` is the out-of-core building block: it consumes its input
lazily and keeps at most ``max_pending`` items in flight, so a stream of chunks
sliced from a memory-mapped file never materializes in RAM all at once, while
results still come back in input order.

:class:`WorkerProcess` is the long-lived variant for a server: one ``spawn``
process that runs one job at a time for whichever thread calls it, so CPU
work moves off the calling process's GIL while that process keeps serving.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import signal
from collections import deque
from typing import Any, Callable, Iterable, Iterator, List, Optional, TypeVar

from repro.utils.concurrency import install_guards, make_lock

T = TypeVar("T")
R = TypeVar("R")


def parallel_imap(
    func: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    max_pending: Optional[int] = None,
) -> Iterator[R]:
    """Yield ``func(item)`` for each item, in input order, optionally in parallel.

    ``workers=None`` or ``workers<=1`` runs serially and fully lazily
    (deterministic and picklability-free).  Otherwise a ``spawn``-based process
    pool is used and ``items`` is consumed only as capacity frees up: at most
    ``max_pending`` (default ``2 * workers``) items — queued, running *or*
    finished-but-unconsumed — exist at once, so memory stays bounded even when
    a slow head-of-line item lets later results finish first.  ``func`` must
    be picklable (module-level) when ``workers > 1``.  A worker exception
    re-raises in the consumer at the failing item's position.
    """
    if workers is None or workers <= 1:
        for item in items:
            yield func(item)
        return
    max_pending = max(1, max_pending if max_pending is not None else 2 * workers)
    with mp.get_context("spawn").Pool(processes=workers) as pool:
        pending: deque = deque()
        for item in items:
            if len(pending) >= max_pending:
                # Window full: block on the oldest result before submitting
                # more — backpressure is tied to consumption, not completion.
                yield pending.popleft().get()
            pending.append(pool.apply_async(func, (item,)))
            while pending and pending[0].ready():
                yield pending.popleft().get()
        while pending:
            yield pending.popleft().get()


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    chunksize: int = 1,
) -> List[R]:
    """Map ``func`` over ``items`` with an optional process pool.

    ``workers=None`` or ``workers<=1`` runs serially (deterministic and
    picklability-free); otherwise a ``multiprocessing`` pool is used.  Results
    preserve input order.  Unlike :func:`parallel_imap` this materializes both
    the input and the output as lists; use the streaming variant when the items
    should not all reside in memory at once.
    """
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    workers = min(workers, len(items))
    with mp.get_context("spawn").Pool(processes=workers) as pool:
        return list(pool.map(func, items, chunksize=max(1, chunksize)))


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure means "cannot cross"
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _serve_jobs(conn) -> None:
    """A :class:`WorkerProcess`'s main loop: one ``(func, arg)`` job per message.

    Replies ``(True, result)`` or ``(False, exception)``.  Returns on EOF —
    the owner exited or dropped the pipe — so the process never outlives
    the one process that holds the other end.
    """
    # Ctrl-C reaches the whole process group; the owner decides when to stop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            func, arg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        try:
            reply = pickle.dumps((True, func(arg)), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            reply = pickle.dumps((False, _portable(exc)), pickle.HIGHEST_PROTOCOL)
        try:
            conn.send_bytes(reply)
        except OSError:
            return


class WorkerProcess:
    """One long-lived ``spawn`` process that runs jobs for every calling thread.

    :meth:`call` pickles ``(func, arg)`` (``func`` module-level), sends it,
    and returns ``func(arg)``; an exception ``func`` raises re-raises in the
    caller with its type and message (one that does not pickle comes back as
    ``RuntimeError``).  The process is held for that one job only, so callers
    on different threads share it job by job, in lock order.

    :meth:`start` launches the process without waiting for its imports; the
    first :meth:`call` waits for them instead.  It is a no-op while the
    process lives, and replaces one that died.  A death mid-job — or before
    a job, once :meth:`start` ran — makes :meth:`call` raise ``OSError``
    until the next :meth:`start`.

    The process reads jobs from a pipe whose other end only its owner holds,
    and exits on EOF: the owner may end by any signal, ``SIGKILL`` included,
    and leave no worker behind (a ``multiprocessing.Pool``'s workers outlive
    a ``SIGTERM``'d parent).  It is daemonic, so a normal exit stops it too.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = make_lock(f"WorkerProcess._lock[{name}]")
        self._proc: Any = None  # guarded by: self._lock
        self._conn: Any = None  # guarded by: self._lock

    @property
    def pid(self) -> Optional[int]:
        """The process's pid: ``None`` before :meth:`start`, after :meth:`close`."""
        with self._lock:
            return None if self._proc is None else self._proc.pid

    def start(self) -> None:
        """Launch the process unless it is alive; never waits for it to be ready."""
        with self._lock:
            if self._proc is not None and self._proc.is_alive():
                return
            self._drop_locked()
            ctx = mp.get_context("spawn")
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve_jobs, args=(theirs,), daemon=True,
                               name=self.name)
            proc.start()
            theirs.close()  # the child holds the only other end: EOF on our exit
            self._proc, self._conn = proc, ours

    def call(self, func: Callable[[T], R], arg: T) -> R:
        """``func(arg)`` in the worker process; ``OSError`` if it is not running."""
        job = pickle.dumps((func, arg), pickle.HIGHEST_PROTOCOL)
        with self._lock:
            if self._conn is None:
                raise OSError(f"{self.name}: the worker process is not running")
            try:
                self._conn.send_bytes(job)
                reply = self._conn.recv_bytes()
            except (EOFError, OSError) as exc:
                self._drop_locked()
                raise OSError(f"{self.name}: the worker process died "
                              f"({type(exc).__name__})") from None
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        return value

    def imap(self, func: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Yield ``func(item)`` per item, in order — each item one :meth:`call`.

        ``items`` is consumed lazily between calls, never while holding the
        worker, so a slow producer stalls only its own stream.
        """
        for item in items:
            yield self.call(func, item)

    def close(self) -> None:
        """Stop the process (EOF, then a bounded wait); :meth:`start` relaunches."""
        with self._lock:
            self._drop_locked()

    def _drop_locked(self) -> None:
        """Close our pipe end and reap the process.  Must hold ``self._lock``."""
        conn, proc = self._conn, self._proc
        self._conn = self._proc = None
        if conn is not None:
            conn.close()
        if proc is not None:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()


install_guards(WorkerProcess, "_lock", ("_proc", "_conn"))
