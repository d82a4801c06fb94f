"""``store-cold-scan`` and ``remote-cold-scan``: cold region reads through
:class:`repro.ArchiveStore` with a tile cache far smaller than the field.

The two workloads share the field, the ``szinterp`` archive, the regions and
every layer except the byte source (file vs HTTP range GETs against the
benchmark's own origin), so the difference between them is the ``sources``
layer.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro import ArchiveStore, Rel
from repro.api import decode_tile, normalize_region, tile_crop
from repro.data import generators
from repro.encoding.container import Archive
from repro.sources import FileByteSource, HttpByteSource

from benchmarks.e2e import harness
from benchmarks.e2e.base import Workload
from benchmarks.e2e.harness import Tracer, median, percentile

REL = 1e-3
TILE = (32, 32, 32)
#: 4 decoded 32^3 float64 tiles, against 27 per archive.
CACHE_BYTES = 1 << 20
#: Regions of this side touch 8-27 tiles of a 96^3 field.
REGION_SIDE = 40
#: Two reads in three touch 8 tiles and one touches 12 (three tiles along one
#: axis), close to uniform placement's shares.  p50 then always lies in the
#: 8-tile class and p90 in the 12-tile class; placed uniformly, one 16-read
#: slice in seven held two 18-tile regions and its p90 jumped by half.
WIDE_AXES = (0, 0, 1)
WARMUP_READS = 6
ORIGIN_DELAY_MS = 5.0
Region = Tuple[slice, ...]


def build_archive(field: np.ndarray, codec: str, path: Path) -> Tuple[float, int]:
    """``compress_chunked`` the field into ``path``; returns (seconds, bytes)."""
    start = time.perf_counter()
    blob = repro.compress_chunked(field, codec, Rel(REL), chunk_shape=TILE)
    seconds = time.perf_counter() - start
    path.write_bytes(blob)
    return seconds, len(blob)


def full_reference(path: Path, field: np.ndarray, workload: Workload) -> np.ndarray:
    """``repro.read_region`` of the whole archive file, bound-checked once.

    Every region a workload reads is compared byte for byte with the same
    slice of this array, which is cheaper than decoding each region twice.
    """
    ref = repro.read_region(str(path), tuple(slice(0, s) for s in field.shape))
    workload.attempted += 1
    worst = repro.verify_error_bound(field, ref, REL)
    workload.check(worst is None, f"{path.name}: reconstruction breaks the bound: {worst}")
    return ref


def replay_region(tr: Tracer, index, source, region: Region, op: int) -> np.ndarray:
    """``ArchiveStore.read_region``'s cold path, one public call per stage."""
    bounds = normalize_region(region, index.shape)
    out = np.empty(tuple(b1 - b0 for b0, b1 in bounds), dtype=np.dtype(index.dtype))
    with tr.span("replay.read_region", op):
        with tr.span("store.region_tiles"):
            tiles = index.region_tiles(bounds)
        for i in tiles:
            with tr.span("sources.read_at"):
                raw = source.read_at(index.data_start + index.offsets[i], index.lengths[i])
            with tr.span("encoding.tile_crc"):
                raw = index.check_tile(i, raw)
            with tr.span("api.decode_tile"):
                tile = decode_tile(index, i, raw)
            with tr.span("api.crop_place"):
                local, inner = tile_crop(bounds, index.tile_slices(i))
                out[local] = tile[inner]
    return out


def ms(samples: Sequence[float]) -> float:
    return harness.median_of(samples, 1e3)


class _ScanWorkload(Workload):
    """Field + archives + a small-cache store; subclasses choose keys and source."""

    KEYS: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.side = 64 if smoke else 96
        self.regions = harness.tile_span_regions(seed, (self.side,) * 3, REGION_SIDE, TILE[0],
                                                 WIDE_AXES, 4096)
        self.build_s: Dict[str, List[float]] = {key: [] for key in self.KEYS}
        self.first_read_s: List[float] = []
        self.dir: Optional[Path] = None
        self.store: Optional[ArchiveStore] = None

    # ------------------------------------------------------------------ set-up
    def source_for(self, key: str):
        """What ``ArchiveStore.add`` gets for ``key`` (a path here)."""
        return str(self.paths[key])

    def setup(self) -> None:
        self.field = generators.nyx_temperature((self.side,) * 3, 0, self.seed).astype(np.float64)
        self.dir = harness.scratch_dir()
        self.paths = {key: self.dir / f"{key}.rpra" for key in self.KEYS}
        self.archive_bytes = {}
        start = time.perf_counter()
        for key in self.KEYS:
            seconds, self.archive_bytes[key] = build_archive(self.field, key, self.paths[key])
            self.build_s[key].append(seconds)
        built = time.perf_counter() - start
        sources = {key: self.source_for(key) for key in self.KEYS}  # origin spawn: not timed
        start = time.perf_counter()
        self.store = ArchiveStore(cache_bytes=CACHE_BYTES)
        for key in self.KEYS:
            self.store.add(key, sources[key])
        self.store.read_region(self.KEYS[0], self.regions[-1])
        self.first_read_s.append(built + time.perf_counter() - start)
        for i in range(1, WARMUP_READS):
            self.store.read_region(self.KEYS[i % len(self.KEYS)], self.regions[-1 - i])

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        harness.remove_tree(self.dir)
        self.dir = None

    # ------------------------------------------------------------ end to end
    def timed_read(self, store: ArchiveStore, key: str, region: Region, ref: np.ndarray,
                   **kwargs) -> Optional[float]:
        """One verified region read; its latency, or ``None`` if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            arr = store.read_region(key, region, **kwargs)
            seconds = time.perf_counter() - start
        except Exception as exc:  # counted, never raised
            self.fail(f"{key} {harness.region_spec(region)}: {type(exc).__name__}: {exc}")
            return None
        ok = self.check(arr.dtype == ref.dtype and np.array_equal(arr, ref[region]),
                        f"{key} {harness.region_spec(region)}: bytes differ from repro.read_region")
        return seconds if ok else None

    def measure(self, seconds: float) -> Dict[str, float]:
        refs = {key: full_reference(self.paths[key], self.field, self) for key in self.KEYS}
        latencies: List[float] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 16 or time.perf_counter() < deadline:
            key = self.KEYS[i % len(self.KEYS)]
            region = self.regions[i % len(self.regions)]
            took = self.timed_read(self.store, key, region, refs[key])
            if took is not None:
                latencies.append(took)
            i += 1
        if not latencies:
            raise RuntimeError(f"every read failed: {self.problems[:3]}")
        self.note_samples("region reads", len(latencies))
        region_mb = REGION_SIDE ** 3 * 8 / 1e6
        per_slice = [{
            "decompress_mb_s": region_mb / median(part),
            "reads_per_s": len(part) / sum(part),
            "read_ms_p50": 1e3 * median(part),
            "read_ms_p90": 1e3 * percentile(part, 0.90),
        } for part in harness.slices_of(latencies)]
        raw = self.field.nbytes
        return {
            **harness.median_by_key(per_slice),
            "compress_mb_s": len(self.KEYS) * raw / 1e6
                             / sum(median(self.build_s[key]) for key in self.KEYS),
            "compression_ratio": len(self.KEYS) * raw / sum(self.archive_bytes.values()),
            "psnr_db": float(np.mean([repro.psnr(self.field, refs[key]) for key in self.KEYS])),
            "push_to_first_read_s": median(self.first_read_s),
        }

    # ------------------------------------------------------------ traced parts
    def traced_scan(self, tr: Tracer, store: ArchiveStore, refs: Dict[str, np.ndarray],
                    seconds: float, replay_sources: Optional[dict] = None
                    ) -> Tuple[Dict[str, List[float]], List[float], int]:
        """Cold reads under spans (plus the stage replay when given sources).

        Every region is also read once with no span around it, for the
        tracing overhead.  Returns per-key traced latencies, the untraced
        latencies and the region bytes returned by traced reads.
        """
        traced: Dict[str, List[float]] = {key: [] for key in self.KEYS}
        bare: List[float] = []
        nbytes = 0
        deadline = time.perf_counter() + seconds
        op = 0
        while op < 8 or time.perf_counter() < deadline:
            key = self.KEYS[op % len(self.KEYS)]
            region = self.regions[op % len(self.regions)]
            self.attempted += 1
            with tr.span(f"store.read_region.{key}", op) as rec:
                arr = store.read_region(key, region)
            self.check(np.array_equal(arr, refs[key][region]),
                       f"{key} {harness.region_spec(region)}: bytes differ from repro.read_region")
            traced[key].append(rec["end"] - rec["start"])
            nbytes += arr.nbytes
            took = self.timed_read(store, key, region, refs[key])
            if took is not None:
                bare.append(took)
            if replay_sources is not None:
                again = replay_region(tr, store.info(key), replay_sources[key], region, op)
                self.check(np.array_equal(again, arr), f"{key}: stage replay differs")
            op += 1
        return traced, bare, nbytes

    @staticmethod
    def cache_metrics(before: dict, after: dict) -> Dict[str, float]:
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        reads = after["region_reads"] - before["region_reads"]
        return {
            "store.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "store.cache.evictions": float(after["evictions"] - before["evictions"]),
            "store.tile_decodes_per_read":
                (after["tile_decodes"] - before["tile_decodes"]) / reads if reads else 0.0,
        }


class StoreColdScan(_ScanWorkload):
    """File-backed cold scan over two codecs; no server code runs."""

    name = "store-cold-scan"
    KEYS = ("sz21", "szinterp")

    def trace(self, seconds: float, tr: Tracer) -> Dict[str, float]:
        refs = {key: full_reference(self.paths[key], self.field, self) for key in self.KEYS}
        sources = {key: FileByteSource(str(self.paths[key])) for key in self.KEYS}
        try:
            before = self.store.stats()
            traced, bare, _ = self.traced_scan(tr, self.store, refs, 0.5 * seconds, sources)
            out = self.cache_metrics(before, self.store.stats())
            # Container parse of a tile, timed apart so decode_tile is not counted twice.
            index = self.store.info("szinterp")
            for i in range(min(8, len(index.offsets))):
                raw = sources["szinterp"].read_at(index.data_start + index.offsets[i],
                                                  index.lengths[i])
                with tr.span("encoding.container_parse"):
                    Archive.from_bytes(raw)
        finally:
            for source in sources.values():
                source.close()
        all_traced = [t for key in self.KEYS for t in traced[key]]
        staged = tr.child_time("replay.read_region")
        read = sum(all_traced)
        out.update({
            "store.read_overhead_share": 1.0 - staged / read,
            "store.cold_read_ms_p50.sz21": ms(traced["sz21"]),
            "store.cold_read_ms_p50.szinterp": ms(traced["szinterp"]),
            "api.decode_tile_ms": ms(tr.durations("api.decode_tile")),
            "api.crop_place_ms": ms(tr.durations("api.crop_place")),
            "encoding.tile_crc_ms": ms(tr.durations("encoding.tile_crc")),
            "encoding.container_parse_ms": ms(tr.durations("encoding.container_parse")),
            "sources.file_read_at_ms": ms(tr.durations("sources.read_at")),
            "bench.trace_overhead_share": median(all_traced) / median(bare) - 1.0,
        })
        out["store.warm_read_ms_p50"] = self._warm_reads(refs, 0.1 * seconds)
        out["store.decode_workers2_speedup"] = self._pooled_speedup(refs, 0.3 * seconds)
        self.predict("store.cache.hit_ratio <= 0.05", out["store.cache.hit_ratio"] <= 0.05,
                     f"{out['store.cache.hit_ratio']:.3f}")
        self.predict("store.tile_decodes_per_read >= 4", out["store.tile_decodes_per_read"] >= 4,
                     f"{out['store.tile_decodes_per_read']:.2f}")
        covered = 1.0 - out["store.read_overhead_share"]
        self.predict("1 - store.read_overhead_share in [0.85, 1.15]", 0.85 <= covered <= 1.15,
                     f"{covered:.3f}")
        return out

    def _warm_reads(self, refs: Dict[str, np.ndarray], seconds: float) -> float:
        """Second read of each region through a cache that holds the whole field."""
        warm: List[float] = []
        with ArchiveStore(cache_bytes=256 << 20) as store:
            store.add("szinterp", str(self.paths["szinterp"]))
            deadline = time.perf_counter() + seconds
            i = 0
            while i < 8 or time.perf_counter() < deadline:
                region = self.regions[i % len(self.regions)]
                self.timed_read(store, "szinterp", region, refs["szinterp"])
                took = self.timed_read(store, "szinterp", region, refs["szinterp"])
                if took is not None:
                    warm.append(took)
                i += 1
        return ms(warm)

    def _pooled_speedup(self, refs: Dict[str, np.ndarray], seconds: float) -> float:
        """Serial vs ``decode_workers=2`` on the same cold reads (ROADMAP fix-or-delete)."""
        serial: List[float] = []
        pooled: List[float] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 8 or (i < 40 and time.perf_counter() < deadline):
            region = self.regions[i % len(self.regions)]
            one = self.timed_read(self.store, "szinterp", region, refs["szinterp"])
            two = self.timed_read(self.store, "szinterp", region, refs["szinterp"],
                                  decode_workers=2)
            if one is not None and two is not None:
                serial.append(one)
                pooled.append(two)
            i += 1
        return sum(serial) / sum(pooled) if pooled else 0.0


class RemoteColdScan(_ScanWorkload):
    """The szinterp archive behind ``HttpByteSource``; spill cache off."""

    name = "remote-cold-scan"
    KEYS = ("szinterp",)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.origin = None
        self.url = ""

    def source_for(self, key: str):
        origin = Path(__file__).with_name("origin.py")
        self.origin, base = harness.spawn_with_url(
            [sys.executable, str(origin), str(self.paths[key]), str(ORIGIN_DELAY_MS)])
        self.url = f"{base}/{self.paths[key].name}"
        return self.url

    def teardown(self) -> None:
        super().teardown()
        harness.stop_child(self.origin)
        self.origin = None

    def trace(self, seconds: float, tr: Tracer) -> Dict[str, float]:
        key = "szinterp"
        refs = {key: full_reference(self.paths[key], self.field, self)}
        before, remote_before = self.store.stats(), self.store.remote_stats()
        traced, bare, nbytes = self.traced_scan(tr, self.store, refs, 0.4 * seconds)
        out = self.cache_metrics(before, self.store.stats())
        remote = {name: value - remote_before[name]
                  for name, value in self.store.remote_stats().items()}
        reads = 2 * len(traced[key])  # every region was read traced and untraced
        remote_ms = ms(traced[key])

        # The same regions file-backed, and the per-range cost of each source.
        local: List[float] = []
        with ArchiveStore(cache_bytes=CACHE_BYTES) as store:
            store.add(key, str(self.paths[key]))
            for op in range(len(traced[key])):
                took = self.timed_read(store, key, self.regions[op], refs[key])
                if took is not None:
                    local.append(took)
        index = self.store.info(key)
        with HttpByteSource(self.url) as http, FileByteSource(str(self.paths[key])) as file:
            for i in range(min(24, len(index.offsets))):
                span = (index.data_start + index.offsets[i], index.lengths[i])
                with tr.span("sources.http_read_at"):
                    got = http.read_at(*span)
                with tr.span("sources.file_read_at"):
                    want = file.read_at(*span)
                self.attempted += 1
                self.check(got == want, f"range {span}: HTTP bytes differ from the file's")
        out.update(self._spill(refs, 0.3 * seconds))
        out.update({
            "store.cold_read_ms_p50.szinterp": ms(local),
            "sources.http_read_at_ms": ms(tr.durations("sources.http_read_at")),
            "sources.file_read_at_ms": ms(tr.durations("sources.file_read_at")),
            "sources.http.range_requests_per_read": remote["range_requests"] / reads,
            "sources.http.bytes_fetched": float(remote["bytes_fetched"]),
            "sources.http.retried": float(remote["retried"]),
            "sources.http.wire_bytes_per_read_byte": remote["bytes_fetched"] / (2 * nbytes),
            "bench.trace_overhead_share": median(traced[key]) / median(bare) - 1.0,
        })
        predicted = out["sources.http.range_requests_per_read"] * out["sources.http_read_at_ms"]
        extra = remote_ms - out["store.cold_read_ms_p50.szinterp"]
        self.predict("remote - file read_ms_p50 within 25% of range requests x http_read_at_ms",
                     abs(extra - predicted) <= 0.25 * predicted,
                     f"{extra:.1f} ms vs {predicted:.1f} ms")
        return out

    def _spill(self, refs: Dict[str, np.ndarray], seconds: float) -> Dict[str, float]:
        """Two fresh stores over one ``spill_dir``: the second pass is spill-warm."""
        key = "szinterp"
        spill = self.dir / "spill"
        count = 0
        warm: List[float] = []
        stats = {}
        for attempt in range(2):
            with ArchiveStore(cache_bytes=CACHE_BYTES, spill_dir=spill) as store:
                store.add(key, self.url)
                deadline = time.perf_counter() + seconds / 2
                i = 0
                while (i < count) if attempt else (i < 4 or time.perf_counter() < deadline):
                    took = self.timed_read(store, key, self.regions[i], refs[key])
                    if attempt and took is not None:
                        warm.append(took)
                    i += 1
                count = i
                stats = store.remote_stats()
        lookups = stats["spill_hits"] + stats["spill_misses"]
        return {
            "sources.spill.hit_ratio": stats["spill_hits"] / lookups if lookups else 0.0,
            "sources.spill.warm_read_ms_p50": ms(warm),
        }
