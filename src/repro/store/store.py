"""A thread-safe, caching archive store: the hot read path of the serving layer.

:func:`repro.read_region` is stateless: every call re-opens the file,
re-parses the front header and re-decodes each intersecting tile.
:class:`ArchiveStore` amortizes all three across requests:

* **Archives stay open** — registered once under a string key, each archive
  gets a long-lived positional-read handle (``os.pread`` where available, so
  concurrent reads never contend on a shared seek pointer) and its header is
  parsed exactly once, at :meth:`add` time.
* **Decoded tiles are shared** — all requests go through one size-bounded
  :class:`repro.store.cache.TileCache`; its single-flight loading guarantees
  a tile decodes at most once per cache residency even under heavy
  concurrency.
* **Results are bit-identical to the cold path** — a store read assembles the
  same CRC-checked, shape-checked tile decodes as ``repro.read_region``;
  only the bookkeeping is amortized.

Every public method is safe to call from many threads at once.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.api import (
    _decode_parsed_tile,
    _place,
    load_index,
    normalize_region,
    parse_region,
)
from repro.encoding.container import Archive, ChunkedIndex, GridIndex
from repro.registry import compressor_spec
from repro.sources.base import REMOTE_COUNTERS, open_source, source_counts
from repro.sources.spill import DEFAULT_SPILL_BYTES, CachingByteSource
from repro.store.cache import DEFAULT_CACHE_BYTES, TileCache
from repro.utils.concurrency import Counters, install_guards, make_lock

IndexType = Union[Archive, ChunkedIndex, GridIndex]

#: What ``add`` accepts: archive bytes, a path to an archive file, an
#: ``http(s)://`` URL, or an already-open ``ByteSource``.
SourceType = Union[bytes, bytearray, memoryview, str, os.PathLike]


class RegionSpecError(ValueError):
    """The *request's* region does not fit the archive (caller fault, HTTP 400).

    Subclasses ``ValueError`` so existing ``except ValueError`` callers keep
    working; the HTTP layer catches this subclass to separate "your region is
    malformed for this shape" (400) from archive-side decode faults (500).
    """


class StoreClosedError(ValueError):
    """The store was closed under the caller: a read or add raced shutdown
    (HTTP 503).  Subclasses ``ValueError`` for the same reason as
    :class:`RegionSpecError`."""


def _check_key(key: str) -> None:
    """Raise ``ValueError`` unless ``key`` can name an archive: a non-empty
    string that is one URL path segment of the serve endpoint."""
    if not isinstance(key, str) or not key:
        raise ValueError(f"archive key must be a non-empty string, got {key!r}")
    if "/" in key:
        raise ValueError(
            f"archive key {key!r} must not contain '/' (keys are one URL "
            f"path segment of the serve endpoint)")


class ReadInfo(NamedTuple):
    """Metadata of the entry a read actually resolved — one atomic snapshot.

    ``index``/``generation``/``etag`` all belong to the *same* registered
    entry the accompanying array was decoded from, so response metadata can
    never contradict the body across a concurrent ``replace``.  ``bounds``
    is the normalized region (empty for non-region lookups).
    """

    index: IndexType
    generation: int
    etag: str
    bounds: Tuple[Tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Concurrency-safe random-access handles
# ---------------------------------------------------------------------------

def _content_etag(index: IndexType) -> str:
    """A strong entity tag derived from the archive's content tokens.

    Hashes the envelope fields plus the index's ``content_identity()`` (every
    tile's offset/length/CRC-32; for a single-shot archive the payload's
    length and CRC-32).  Two archives with identical bytes get identical
    tags, and any tile-level change flips some CRC and therefore the tag —
    exactly the conditional-GET contract, with no extra I/O at add time.
    """
    h = hashlib.sha1()
    h.update(repr((type(index).__name__, index.version, index.codec,
                   tuple(index.shape), str(index.dtype), index.bound_mode,
                   float(index.bound_value))).encode())
    h.update(repr(index.content_identity()).encode())
    return f'"{h.hexdigest()}"'


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class _Entry:
    """One registered archive: parsed index + read handle + decode options.

    The handle's lifetime is pin-counted: every in-flight read holds a pin,
    and :meth:`retire` (from ``remove``/``close``) defers the actual
    ``handle.close()`` until the last pin drops — so a concurrent reader can
    never hit a closed (or kernel-reused) file descriptor.
    """

    __slots__ = ("key", "handle", "index", "token", "decode_opts",
                 "generation", "etag",
                 "_pin_lock", "_pins", "_retired", "_on_close")

    def __init__(self, key: str, handle, index: IndexType, decode_opts: dict):
        self.key = key
        self.handle = handle
        self.index = index
        # Cache keys are scoped by this token object.  Identity-unique, and
        # alive exactly as long as any cache key referencing it, so a removed
        # and re-added archive can never alias another entry's cached tiles
        # (even across stores sharing one TileCache).
        self.token = object()
        self.decode_opts = decode_opts
        # Both are immutable once the entry is published into a store's
        # registry: generation is (re)assigned under the store lock before
        # insertion, the etag is a pure function of the parsed index.
        self.generation = 1
        self.etag = _content_etag(index)
        self._pin_lock = make_lock("_Entry._pin_lock")
        self._pins = 0  # guarded by: self._pin_lock
        self._retired = False  # guarded by: self._pin_lock
        self._on_close = None  # guarded by: self._pin_lock

    def pin(self) -> None:
        with self._pin_lock:
            if self._retired:
                raise KeyError(f"no archive registered under key {self.key!r}")
            self._pins += 1

    def unpin(self) -> None:
        with self._pin_lock:
            self._pins -= 1
            close_now = self._retired and self._pins == 0
            callback = self._on_close if close_now else None
        if close_now:
            self.handle.close()
            if callback is not None:
                callback()

    def retire(self, on_close=None) -> None:
        """Mark dead; the handle closes when the last in-flight read unpins.

        ``on_close`` runs (at most once) right after the handle actually
        closes — the ingest layer uses it to unlink a replaced archive file
        only when no reader can still be positioned inside it.  It runs on
        whichever thread drops the last pin, so it must be quick and must
        not raise.
        """
        with self._pin_lock:
            if self._retired:
                return
            self._retired = True
            self._on_close = on_close
            close_now = self._pins == 0
        if close_now:
            self.handle.close()
            if on_close is not None:
                on_close()


class ArchiveStore:
    """Keeps archives open and serves cached, thread-safe region reads.

    Archives are registered with :meth:`add` under a caller-chosen key; their
    headers are parsed once and every subsequent :meth:`read_region` /
    :meth:`read_regions` touches only the front-header-free fast path: cached
    decoded tiles, or positional reads + CRC check + decode for cold ones.

    ``cache_bytes`` bounds the decoded-tile LRU (see
    :class:`repro.store.cache.TileCache`); pass ``cache=`` to share one cache
    across several stores.  All methods are thread-safe; reads of different
    tiles run fully in parallel, reads of the same cold tile coalesce into a
    single decode.
    """

    def __init__(self, *, cache_bytes: int = DEFAULT_CACHE_BYTES,
                 cache: Optional[TileCache] = None,
                 spill_dir: Optional[Union[str, os.PathLike]] = None,
                 spill_bytes: int = DEFAULT_SPILL_BYTES):
        self._cache = cache if cache is not None else TileCache(cache_bytes)
        # Remote (URL) sources spill fetched byte ranges under this
        # directory when set; local sources never pay for it.
        self._spill_dir = os.fspath(spill_dir) if spill_dir is not None else None
        self._spill_bytes = int(spill_bytes)
        self._lock = make_lock("ArchiveStore._lock")
        self._entries: Dict[str, _Entry] = {}  # guarded by: self._lock
        self._closed = False  # guarded by: self._lock
        self.counters = Counters(("tile_decodes", "region_reads"))

    # ------------------------------------------------------------- lifecycle
    def add(self, key: str, source: SourceType, *, model: Any = None,
            autoencoder: Any = None,
            codec_options: Optional[dict] = None,
            generation: int = 1) -> str:
        """Open ``source`` (path or bytes) and register it under ``key``.

        The header is read and validated here — exactly once per archive —
        and the codec must be known to the registry.  ``model`` /
        ``autoencoder`` / ``codec_options`` become the decode context for
        every tile of this archive; ``generation`` is the entry's served
        generation counter (a durable node passes its manifest generation so
        HTTP responses and the manifest agree).  Returns ``key``.
        """
        entry = self._build_entry(key, source, model, autoencoder,
                                  codec_options)
        entry.generation = int(generation)
        with self._lock:
            if self._closed:
                entry.handle.close()
                raise StoreClosedError("store is closed")
            if key in self._entries:
                entry.handle.close()
                raise ValueError(f"archive key {key!r} is already registered")
            self._entries[key] = entry
        return key

    def replace(self, key: str, source: SourceType, *, model: Any = None,
                autoencoder: Any = None, codec_options: Optional[dict] = None,
                on_release=None, generation: Optional[int] = None) -> str:
        """Atomically swap ``key`` to a new archive (registering it if absent).

        The swap is one registry operation: every read that resolves ``key``
        before it sees the old archive in full, every read after sees the new
        one — a reader can never observe a mix, and the key never 404s
        mid-replace.  In-flight readers of the old archive finish against its
        still-open handle (pin counts); ``on_release`` fires once that handle
        actually closes — the ingest layer unlinks the replaced file there.
        ``generation`` pins the new entry's counter (``None`` = one past the
        replaced entry's, or 1 when registering fresh).  Returns ``key``.
        """
        entry = self._build_entry(key, source, model, autoencoder,
                                  codec_options)
        with self._lock:
            if self._closed:
                entry.handle.close()
                raise StoreClosedError("store is closed")
            old = self._entries.get(key)
            if generation is not None:
                entry.generation = int(generation)
            elif old is not None:
                entry.generation = old.generation + 1
            self._entries[key] = entry
        if old is not None:
            old.retire(on_close=on_release)
            self._purge_cached(old)
        elif on_release is not None:
            on_release()  # nothing replaced: the release is immediate
        return key

    def remove(self, key: str, *, on_release=None) -> None:
        """Deregister ``key``; its handle closes once in-flight reads drain.

        Cached tiles of the removed archive become unreachable (their keys
        are scoped to the dead entry) and age out of the LRU naturally.
        ``on_release`` runs right after the handle closes (see
        :meth:`replace`).
        """
        with self._lock:
            entry = self._entries.pop(key, None)
        if entry is None:
            raise KeyError(f"no archive registered under key {key!r}")
        entry.retire(on_close=on_release)
        self._purge_cached(entry)

    def _open_handle(self, source: SourceType):
        """A thread-safe random-access handle for any accepted source kind.

        :func:`repro.sources.open_source` picks the reader; an already-open
        byte source is adopted as-is (the store owns it from here: it closes
        when the entry retires).  A remote source, caller-built or not, is
        wrapped in the disk spill cache when the store was built with
        ``spill_dir``, so tuning retry/timeout never silently opts out of it.
        """
        handle = open_source(source)
        if self._spill_dir is not None:
            from repro.sources.http import HttpByteSource

            if isinstance(handle, HttpByteSource):
                return CachingByteSource(handle, self._spill_dir,
                                         max_bytes=self._spill_bytes)
        return handle

    def _build_entry(self, key: str, source: SourceType, model, autoencoder,
                     codec_options) -> _Entry:
        """Validate the key, open the source and parse its header once."""
        _check_key(key)
        handle = self._open_handle(source)
        try:
            index = load_index(handle)
            compressor_spec(index.codec)  # unknown codec fails at add time
        except BaseException:
            handle.close()
            raise
        decode_opts = {"model": model, "autoencoder": autoencoder,
                       "codec_options": codec_options}
        return _Entry(key, handle, index, decode_opts)

    def close(self) -> None:
        """Retire every archive; subsequent reads and adds raise.

        Handles close as their last in-flight read finishes — already-started
        reads complete normally rather than hitting a dead descriptor.
        """
        with self._lock:
            entries, self._entries = list(self._entries.values()), {}
            self._closed = True
        for entry in entries:
            entry.retire()
            self._purge_cached(entry)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _purge_cached(self, entry: _Entry) -> None:
        """Free the retired entry's decoded tiles from the shared cache now.

        Their keys are unreachable once the entry is gone; left in place they
        would count against the budget until ordinary traffic evicted them.
        (A tile load still in flight during the purge may re-insert one stale
        entry; it ages out by LRU like any other unreferenced key.)
        """
        token = entry.token
        self._cache.purge(
            lambda k: isinstance(k, tuple) and bool(k) and k[0] is token)

    # ------------------------------------------------------------ inspection
    def keys(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))

    def info(self, key: str) -> IndexType:
        """The archive's parsed header (codec/shape/dtype/bound + tile index)."""
        return self.entry_info(key).index

    def entry_info(self, key: str) -> ReadInfo:
        """One atomic snapshot of ``key``'s header, generation and ETag.

        Unlike three separate :meth:`info`-style lookups, everything in the
        returned :class:`ReadInfo` describes the *same* registered entry,
        even while a concurrent ``replace`` is swapping the key.
        """
        entry = self._entry(key)
        entry.unpin()  # plain parsed metadata; no handle use follows
        return ReadInfo(entry.index, entry.generation, entry.etag, ())

    def stats(self) -> dict:
        """The cache's :meth:`TileCache.stats`, this store's counters
        (``tile_decodes``, ``region_reads``) and the archive count."""
        with self._lock:
            archives = len(self._entries)
        return {**self._cache.stats(), **self.counters.snapshot(),
                "archives": archives}

    def remote_stats(self) -> dict:
        """The remote-source counters summed over every live entry.

        One total per name in :data:`repro.sources.base.REMOTE_COUNTERS`
        (HTTP range traffic, disk spill), plus ``sources``: how many entries
        keep any of them.  All zeros on a purely local store.
        """
        totals = dict.fromkeys(("sources",) + REMOTE_COUNTERS, 0)
        with self._lock:
            handles = [entry.handle for entry in self._entries.values()]
        for handle in handles:
            counts = source_counts(handle)
            if counts.keys().isdisjoint(REMOTE_COUNTERS):
                continue
            totals["sources"] += 1
            for name in REMOTE_COUNTERS:
                totals[name] += counts.get(name, 0)
        return totals

    @property
    def cache(self) -> TileCache:
        return self._cache

    # ----------------------------------------------------------------- reads
    def read_raw_with_info(self, key: str, offset: int = 0,
                           length: Optional[int] = None
                           ) -> Tuple[bytes, int, ReadInfo]:
        """Raw archive bytes of ``key``: ``(bytes, total_size, info)``.

        Positional read straight off the entry's handle — no tile decode,
        no cache traffic.  ``length=None`` reads to the end; reads past EOF
        clamp like the underlying sources.  This is what lets one node
        serve another's archives over ``GET /v1/<key>/archive``: the bytes
        are the archive file itself, so the receiving side's CRC checks
        still guard every tile.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if length is not None and length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        entry = self._entry(key)
        try:
            size = entry.handle.size
            want = max(0, size - offset) if length is None else length
            data = entry.handle.read_at(offset, want) if want > 0 else b""
            return data, size, ReadInfo(entry.index, entry.generation,
                                        entry.etag, ())
        finally:
            entry.unpin()

    def read_region(self, key: str, region, *,
                    out: Optional[np.ndarray] = None,
                    decode_workers: int = 1) -> np.ndarray:
        """Decode ``region`` of archive ``key`` — the cached ``read_region``.

        Same semantics (and bit-identical results) as
        :func:`repro.read_region` on the same archive: ``region`` is a tuple
        of slices or a ``"10:20,0:64,5:9"`` string, clamped like numpy;
        ``out`` gathers into a preallocated region-shaped array.  Tiles come
        from the shared cache when warm; cold tiles are read positionally,
        CRC-checked and decoded at most once across all concurrent callers.

        ``decode_workers > 1`` decodes this region's independent tiles on a
        bounded thread pool (zlib/NumPy release the GIL); results, cache
        traffic, counters and failure behaviour are identical to the serial
        default — only the cold-path wall clock changes.
        """
        return self.read_region_with_info(key, region, out=out,
                                          decode_workers=decode_workers)[0]

    def read_region_with_info(self, key: str, region, *,
                              out: Optional[np.ndarray] = None,
                              decode_workers: int = 1
                              ) -> Tuple[np.ndarray, ReadInfo]:
        """:meth:`read_region` plus the metadata of the entry actually read.

        The entry lookup, bounds normalization and decode all happen against
        one pinned entry, so the returned :class:`ReadInfo` (shape, bounds,
        generation, ETag) can never describe a different archive than the
        bytes — the guarantee the HTTP layer needs to build response headers
        that match the body under concurrent ``replace``.
        """
        (arr,), (info,) = self._read(key, [region], out=out,
                                     decode_workers=decode_workers)
        return arr, info

    def read_resident(self, key: str, region, max_bytes: int
                      ) -> Optional[Tuple[np.ndarray, ReadInfo]]:
        """:meth:`read_region_with_info` if the region is at most
        ``max_bytes`` (in the archive's dtype) and every tile it touches is
        resident — no source read, decode or wait — else ``None``, counting
        nothing, so a fallback to ``read_region_with_info`` counts once."""
        arrays, infos = self._read(key, [region], resident_bytes=max_bytes)
        return (arrays[0], infos[0]) if arrays else None

    def read_regions(self, key: str, regions: Sequence, *,
                     decode_workers: int = 1) -> List[np.ndarray]:
        """Decode a batch of regions of one archive with deduped tile fetches.

        Tiles shared by several regions are decoded (or cache-fetched) once
        and cropped into every requesting region — the per-tile work is
        O(distinct tiles of the union), not O(sum over regions).  Returns one
        region-shaped array per input region, in order.  ``decode_workers``
        fans the union's distinct tiles out over a thread pool exactly as in
        :meth:`read_region`.
        """
        return self._read(key, regions, decode_workers=decode_workers)[0]

    def read_regions_with_info(self, key: str, regions: Sequence, *,
                               decode_workers: int = 1
                               ) -> Tuple[List[np.ndarray], List[ReadInfo]]:
        """:meth:`read_regions` plus one :class:`ReadInfo` per region.

        All infos share the index/generation/ETag of the single pinned entry
        the whole batch was decoded from (one atomic lookup for the batch);
        each carries its own normalized bounds.
        """
        return self._read(key, regions, decode_workers=decode_workers)

    # -------------------------------------------------------------- internals
    def _read(self, key: str, regions: Iterable, *,
              out: Optional[np.ndarray] = None, decode_workers: int = 1,
              resident_bytes: Optional[int] = None
              ) -> Tuple[List[np.ndarray], List[ReadInfo]]:
        """The one region read behind every public read method: pin the
        entry, normalize every region, fetch each distinct tile of the union
        once (in storage order: sequential cold I/O) and crop it into every
        region that needs it.  Returns ``(arrays, infos)``, one per region.

        Tiles come from :meth:`_tiles` — or, with ``resident_bytes`` set, all
        from the cache's resident set, and only if the regions fit that many
        bytes in the archive's dtype; else ``([], [])`` with nothing counted.
        ``out`` (one region) is shape-checked before any tile is read.
        """
        entry = self._entry(key)
        try:
            index = entry.index
            bounds_list = [self._bounds(entry, region) for region in regions]
            shapes = [tuple(b1 - b0 for b0, b1 in b) for b in bounds_list]
            # tile id -> indices of the regions that intersect it
            wanted: Dict[int, List[int]] = {}
            for j, bounds in enumerate(bounds_list):
                for i in index.region_tiles(bounds):
                    wanted.setdefault(i, []).append(j)
            ids = sorted(wanted)
            if resident_bytes is None:
                # Lazy: nothing is read before the count and the out check.
                tiles = self._tiles(entry, ids, decode_workers)
            else:
                nbytes = sum(map(math.prod, shapes)) \
                    * np.dtype(index.dtype).itemsize
                cached = None if nbytes > resident_bytes else \
                    self._cache.get_resident(
                        [(entry.token,) + index.tile_key(i) for i in ids])
                if cached is None:
                    return [], []
                tiles = zip(ids, cached)
            self.counters.add("region_reads", len(bounds_list))
            if out is not None and tuple(out.shape) != shapes[0]:
                raise ValueError(f"out has shape {tuple(out.shape)}, "
                                 f"region shape is {shapes[0]}")
            results: List[Optional[np.ndarray]] = [out] * len(bounds_list)
            for i, tile in tiles:
                for j in wanted[i]:
                    results[j] = _place(results[j], bounds_list[j], index, i,
                                        tile, fixed=out is not None)
            # A region no tile intersects is empty, in the header dtype.
            arrays = [r if r is not None else
                      np.empty(shape, dtype=np.dtype(index.dtype))
                      for r, shape in zip(results, shapes)]
            infos = [ReadInfo(index, entry.generation, entry.etag, bounds)
                     for bounds in bounds_list]
            return arrays, infos
        finally:
            entry.unpin()

    def _entry(self, key: str) -> _Entry:
        """Look up and **pin** an entry; the caller must ``unpin`` when done.

        Pinning happens under the store lock, and ``remove``/``close`` retire
        entries only after popping them under the same lock — so a returned
        entry's handle is guaranteed open until the caller unpins.
        """
        with self._lock:
            if self._closed:
                raise StoreClosedError("store is closed")
            entry = self._entries.get(key)
            if entry is None:
                raise KeyError(f"no archive registered under key {key!r}")
            entry.pin()
        return entry

    @staticmethod
    def _bounds(entry: _Entry, region) -> Tuple[Tuple[int, int], ...]:
        # Spec problems re-raise as RegionSpecError so the HTTP layer can
        # answer 400 (caller fault) without a separate pre-read validation
        # pass against a possibly different entry.
        try:
            if isinstance(region, str):
                region = parse_region(region)
            return normalize_region(region, entry.index.shape)
        except ValueError as exc:
            raise RegionSpecError(str(exc)) from None

    def _tile(self, entry: _Entry, i: int) -> np.ndarray:
        """The decoded (full, uncropped) tile ``i``, via the shared cache."""

        def load() -> np.ndarray:
            self.counters.add("tile_decodes")
            index = entry.index
            return _decode_parsed_tile(
                i, index.tile_archive(i, entry.handle.read_at),
                index.tile_shape(i), **entry.decode_opts)

        return self._cache.get_or_load(
            (entry.token,) + entry.index.tile_key(i), load)

    def _tiles(self, entry: _Entry, tile_ids: Sequence[int],
               decode_workers: int) -> Iterable[Tuple[int, np.ndarray]]:
        """``(tile id, decoded tile)`` for ``tile_ids``, in order — where the
        store's decoded tiles come from: the shared single-flight cache.

        Nothing is fetched until the result is first iterated.  Serially
        (``decode_workers == 1`` or fewer than two tiles) each tile is then
        fetched as the placement loop asks for it.  Otherwise every tile goes
        through exactly one :meth:`_tile` call on a bounded thread pool first:
        the same cache traffic, single-flight coalescing and ``tile_decodes``
        accounting as the serial loop, overlapped because zlib and NumPy
        release the GIL during decode.  Placement stays serial in the caller
        (a wide tile may widen the result dtype), and the earliest failing
        tile in ``tile_ids`` order raises, as in the serial loop.
        """
        decode_workers = int(decode_workers)
        if decode_workers < 1:
            raise ValueError("decode_workers must be >= 1")

        def pooled():
            with ThreadPoolExecutor(
                    max_workers=min(decode_workers, len(tile_ids)),
                    thread_name_prefix="repro-tile-decode") as pool:
                futures = [pool.submit(self._tile, entry, i) for i in tile_ids]
            # The pool has drained; result() re-raises in tile order.
            yield from zip(tile_ids, [fut.result() for fut in futures])

        if decode_workers == 1 or len(tile_ids) <= 1:
            return ((i, self._tile(entry, i)) for i in tile_ids)
        return pooled()


install_guards(_Entry, "_pin_lock", ("_pins", "_retired", "_on_close"))
install_guards(ArchiveStore, "_lock", ("_entries", "_closed"))
