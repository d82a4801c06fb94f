"""Size-bounded decoded-tile LRU cache with single-flight loading.

Decoded tiles are the expensive unit of the read path (seek + CRC + entropy
decode + inverse transforms), and concurrent region reads over hot archives
hit the same tiles again and again.  :class:`TileCache` makes that cost
amortized and bounded:

* **LRU, bounded by payload bytes** — ``max_bytes`` counts the decoded
  arrays' ``nbytes``, not entry counts, so the bound is meaningful across
  mixed tile sizes.  Inserting past the bound evicts least-recently-used
  entries; an array larger than the whole cache is returned to the caller
  but never stored.
* **Single-flight loading** (per-tile locking) — :meth:`get_or_load` runs
  the loader for a missing key on exactly one thread; concurrent callers of
  the same key block on that one result instead of decoding the same tile
  twice.  Different keys never wait on each other.  The disk spill cache
  coalesces through the same :class:`repro.utils.concurrency.SingleFlight`.
* **Failures are not cached** — a loader exception propagates to the owner
  *and* every waiter of that flight, then the key is clean again: the next
  request retries from scratch (one corrupt tile must not poison a server).
* **Entries are immutable** — cached arrays are frozen (``writeable=False``)
  so the many threads holding views of a shared tile cannot race on writes.

The cache is codec-agnostic: keys are opaque hashables (the store uses
``(archive identity, index.tile_key(i))``) and values are ndarrays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, List, Optional, Sequence

import numpy as np

from repro.utils.concurrency import (Counters, SingleFlight, install_guards,
                                    make_lock)

#: Default decoded-tile budget (256 MB) — ~1000 float64 tiles of 32^3, small
#: against server RAM, large against any single region's working set.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


class TileCache:
    """Thread-safe LRU over decoded tiles, bounded by decoded bytes."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        max_bytes = int(max_bytes)
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = make_lock("TileCache._lock")
        self._entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()  # guarded by: self._lock
        self._nbytes = 0  # guarded by: self._lock
        self.counters = Counters(("hits", "misses", "loads", "evictions"))
        self._flights = SingleFlight()

    # ------------------------------------------------------------- inspection
    hits = property(lambda self: self.counters.snapshot()["hits"])
    misses = property(lambda self: self.counters.snapshot()["misses"])
    loads = property(lambda self: self.counters.snapshot()["loads"])
    evictions = property(lambda self: self.counters.snapshot()["evictions"])

    @property
    def nbytes(self) -> int:
        """Decoded bytes currently resident."""
        with self._lock:
            return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """A point-in-time snapshot of counters and residency."""
        with self._lock:
            return {"entries": len(self._entries), "nbytes": self._nbytes,
                    "max_bytes": self.max_bytes, **self.counters.snapshot()}

    # -------------------------------------------------------------- mutation
    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Fetch a cached tile (marking it most recently used), else ``None``."""
        arr = self._hit(key)
        if arr is None:
            self.counters.add("misses")
        return arr

    def get_resident(self, keys: Sequence[Hashable]
                     ) -> Optional[List[np.ndarray]]:
        """Every key's tile if *all* are resident (each a hit, now most
        recently used), else ``None`` with nothing counted — one lock
        acquisition, and a load in flight elsewhere is never waited on."""
        with self._lock:
            if not all(key in self._entries for key in keys):
                return None
            for key in keys:
                self._entries.move_to_end(key)
            self.counters.add("hits", len(keys))
            return [self._entries[key] for key in keys]

    def put(self, key: Hashable, arr: np.ndarray) -> np.ndarray:
        """Insert a decoded tile, evicting LRU entries past ``max_bytes``.

        Returns the frozen array actually usable by callers (the input is
        frozen in place — cached tiles are shared across threads and must
        never be written through).
        """
        arr = self._freeze(arr)
        with self._lock:
            self._insert(key, arr)
        return arr

    def get_or_load(self, key: Hashable,
                    loader: Callable[[], np.ndarray]) -> np.ndarray:
        """Return the cached tile for ``key``, loading it at most once.

        On a miss, exactly one caller (the *owner*) runs ``loader``; every
        concurrent caller of the same key blocks until the owner finishes and
        then shares its array (or re-raises its exception).  Nothing is held
        under the cache lock while the loader runs, so loads of different
        tiles proceed in parallel.
        """
        arr = self._hit(key)
        if arr is not None:
            return arr

        def load() -> np.ndarray:
            arr = self._hit(key)  # a flight may have just ended
            if arr is not None:
                return arr
            self.counters.add("misses")
            arr = self._freeze(loader())
            with self._lock:
                self._insert(key, arr)
            self.counters.add("loads")
            return arr

        arr, owner = self._flights.run(key, load)
        if not owner:
            self.counters.add("hits")  # coalesced onto the owner's load
        return arr

    def clear(self) -> None:
        """Drop every resident entry (in-flight loads are unaffected)."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every resident entry whose key satisfies ``predicate``.

        The store purges a removed archive's tiles this way (its keys would
        otherwise sit unreachable in the LRU, counting against the budget
        until unrelated traffic evicts them).  Returns the number dropped.
        """
        with self._lock:
            doomed = [k for k in self._entries if predicate(k)]
            for k in doomed:
                self._nbytes -= int(self._entries.pop(k).nbytes)
        return len(doomed)

    # -------------------------------------------------------------- internals
    def _hit(self, key: Hashable) -> Optional[np.ndarray]:
        """The resident tile for ``key``, counted as a hit and now most
        recently used, else ``None`` with nothing counted."""
        with self._lock:
            arr = self._entries.get(key)
            if arr is not None:
                self._entries.move_to_end(key)
                self.counters.add("hits")
            return arr

    @staticmethod
    def _freeze(arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        arr.flags.writeable = False  # clearing the flag is always permitted
        return arr

    def _insert(self, key: Hashable, arr: np.ndarray) -> None:
        """Must hold ``self._lock``."""
        size = int(arr.nbytes)
        if size > self.max_bytes:
            return  # larger than the whole budget: serve it, never cache it
        old = self._entries.pop(key, None)
        if old is not None:
            self._nbytes -= int(old.nbytes)
        self._entries[key] = arr
        self._nbytes += size
        while self._nbytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._nbytes -= int(evicted.nbytes)
            self.counters.add("evictions")


install_guards(TileCache, "_lock", ("_entries", "_nbytes"))
