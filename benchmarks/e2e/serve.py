"""``serve-warm`` and ``serve-ingest-mixed``: a child ``python -m repro serve``
driven over at most two keep-alive connections (``nproc`` is 2).

Closed loop: each connection sends its next request when the reply is in,
as an analysis script would.  The served ``static`` archive fits the cache,
so the warm path decodes nothing.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import ArchiveStore, Rel
from repro.data import generators
from repro.store import push_field
from repro.store.server import Request, StoreApp

from benchmarks.e2e import harness
from benchmarks.e2e.base import Workload
from benchmarks.e2e.harness import HttpClient, Tracer, median, median_of, percentile
from benchmarks.e2e.scan import REL, Region, build_archive, full_reference

STATIC_CODEC = "szinterp"
SMALL_SIDE, BULK_SIDE = 8, 40  # 4 KiB and 512 KiB of float64
P_SMALL = 0.8  # so p50 falls in the small class and p90 at the bulk median
CONNECTIONS = 2


class Sample:
    """One request's outcome, kept per thread and merged after the run."""

    __slots__ = ("end", "seconds", "nbytes", "small", "traced", "under_write")

    def __init__(self, end: float, seconds: float, nbytes: int, small: bool,
                 traced: bool = False, under_write: bool = False) -> None:
        self.end = end  # perf_counter when the reply was complete
        self.seconds = seconds
        self.nbytes = nbytes
        self.small = small
        self.traced = traced
        self.under_write = under_write


class _ServeWorkload(Workload):
    """A served ``static`` archive of a seeded field, plus request pools."""

    SERVER = "selectors"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.side = 64 if smoke else 96
        shape = (self.side,) * 3
        self.full = tuple(slice(0, self.side) for _ in shape)
        self.small = harness.random_regions(seed, shape, SMALL_SIDE, 64)
        self.bulk = harness.random_regions(seed + 1, shape, BULK_SIDE, 16)
        self.build_s: List[float] = []
        self.first_read_s: List[float] = []
        self.dir: Optional[Path] = None
        self.server = None
        self.url = ""
        self.lock = threading.Lock()  # guards the counters shared by client threads

    # ------------------------------------------------------------------ set-up
    def serve_args(self) -> List[str]:
        return []

    def spawn_server(self, kind: str):
        return harness.spawn_with_url(
            [sys.executable, "-m", "repro", "serve", f"static={self.path}", "--port", "0",
             "--server", kind, "--cache-mb", "256"] + self.serve_args())

    @staticmethod
    def region_target(key: str, region: Region) -> str:
        return f"/v1/{key}/region?r={harness.region_spec(region)}"

    def setup(self) -> None:
        shape = (self.side,) * 3
        self.field = generators.nyx_temperature(shape, 0, self.seed).astype(np.float64)
        self.dir = harness.scratch_dir()
        self.path = self.dir / "static.rpra"
        start = time.perf_counter()
        seconds, self.archive_bytes = build_archive(self.field, STATIC_CODEC, self.path)
        self.build_s.append(seconds)
        self.server, self.url = self.spawn_server(self.SERVER)
        # One full-field read warms every tile into the server's cache.
        client = HttpClient(self.url)
        try:
            status, self.warm_body = client.request(
                HttpClient.render_get(self.region_target("static", self.full)))
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"warm-up read answered HTTP {status}")
        self.first_read_s.append(time.perf_counter() - start)

    def teardown(self) -> None:
        harness.stop_child(self.server)
        self.server = None
        harness.remove_tree(self.dir)
        self.dir = None

    def peak_rss_mb(self) -> float:
        return harness.child_peak_rss_mb(self.server.pid)

    # ---------------------------------------------------------------- requests
    def prepare(self) -> None:
        """Reference bytes for every pooled request (after set-up, untimed)."""
        self.ref = full_reference(self.path, self.field, self)
        self.attempted += 1
        self.check(self.warm_body == self.ref.tobytes(),
                   "warm-up full-field body differs from repro.read_region")
        self.pool = {
            small: [(HttpClient.render_get(self.region_target("static", r)),
                     np.ascontiguousarray(self.ref[r]).tobytes()) for r in regions]
            for small, regions in ((True, self.small), (False, self.bulk))}

    def reader(self, index: int, stop: Callable[[], bool], mix: List[bool],
               out: List[Sample], tracer: Optional[Tracer] = None,
               writing: Optional[threading.Event] = None) -> None:
        """One closed-loop connection; with a tracer, every other request is spanned."""
        client: Optional[HttpClient] = None
        i = 0
        try:
            while not stop():
                small = mix[i % len(mix)]
                raw, want = self.pool[small][(i * CONNECTIONS + index) % len(self.pool[small])]
                traced = tracer is not None and i % 2 == 0
                under_write = writing is not None and writing.is_set()
                i += 1
                try:
                    if client is None:
                        client = HttpClient(self.url)
                    start = time.perf_counter()
                    if traced:
                        with tracer.span("client.get", index * 10 ** 9 + i):
                            status, body = client.request(raw)
                    else:
                        status, body = client.request(raw)
                    end = time.perf_counter()
                except OSError as exc:  # timeout / reset: fail the op, reconnect
                    with self.lock:
                        self.attempted += 1
                        self.fail(f"GET on connection {index}: {type(exc).__name__}: {exc}")
                    if client is not None:
                        client.close()
                        client = None
                    continue
                with self.lock:
                    self.attempted += 1
                    ok = self.check(status == 200 and body == want,
                                    f"connection {index}: HTTP {status} or bytes differ "
                                    f"from repro.read_region")
                if ok:
                    out.append(Sample(end, end - start, len(body), small, traced, under_write))
        finally:
            if client is not None:
                client.close()

    @staticmethod
    def read_metrics(samples: List[Sample], start: float, wall: float) -> Dict[str, float]:
        """Reader-side metrics: per time slice of the run, then the median slice."""
        window = wall / harness.SLICES
        parts: List[List[Sample]] = [[] for _ in range(harness.SLICES)]
        for s in samples:
            parts[min(harness.SLICES - 1, int((s.end - start) / window))].append(s)
        return harness.median_by_key([{
            "decompress_mb_s": sum(s.nbytes for s in part) / 1e6 / window,
            "reads_per_s": len(part) / window,
            "read_ms_p50": 1e3 * median([s.seconds for s in part]),
            "read_ms_p90": 1e3 * percentile([s.seconds for s in part], 0.90),
        } for part in parts if part])

    def fidelity(self) -> Dict[str, float]:
        return {
            "compress_mb_s": self.field.nbytes / 1e6 / median(self.build_s),
            "compression_ratio": self.field.nbytes / self.archive_bytes,
            "psnr_db": repro.psnr(self.field, self.ref),
            "push_to_first_read_s": median(self.first_read_s),
        }

    def metrics_doc(self) -> dict:
        client = HttpClient(self.url)
        try:
            return client.get_json("/metrics")
        finally:
            client.close()

    @staticmethod
    def server_metrics(before: dict, after: dict) -> Dict[str, float]:
        """Deltas of ``GET /metrics`` over a traced phase."""
        def route(doc: dict, name: str, field: str) -> float:
            return doc["routes"].get(name, {}).get(field, 0)

        requests = route(after, "region", "requests") - route(before, "region", "requests")
        busy = route(after, "region", "seconds") - route(before, "region", "seconds")
        errors = sum(row["errors"] for row in after["routes"].values()) \
            - sum(row["errors"] for row in before["routes"].values())
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        reads = after["region_reads"] - before["region_reads"]
        return {
            "store.server.handler_ms_mean": 1e3 * busy / requests if requests else 0.0,
            "store.server.route_errors": float(errors),
            "store.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "store.cache.evictions": float(after["cache"]["evictions"]
                                           - before["cache"]["evictions"]),
            "store.tile_decodes_per_read":
                (after["tile_decodes"] - before["tile_decodes"]) / reads if reads else 0.0,
        }

    @staticmethod
    def overhead(samples: List[Sample], small: bool) -> float:
        """Traced vs untraced median latency of the same requests (one size class)."""
        traced = [s.seconds for s in samples if s.traced and s.small == small]
        bare = [s.seconds for s in samples if not s.traced and s.small == small]
        return median(traced) / median(bare) - 1.0 if traced and bare else 0.0


class ServeWarm(_ServeWorkload):
    """Two connections of cache-warm region GETs, 80 % 4 KiB / 20 % 512 KiB."""

    name = "serve-warm"

    def run_load(self, seconds: float, tracer: Optional[Tracer] = None
                 ) -> Tuple[List[Sample], float, float]:
        deadline = time.perf_counter() + seconds
        outs: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]
        threads = [threading.Thread(
            target=self.reader,
            args=(k, lambda: time.perf_counter() >= deadline,
                  harness.size_mix(self.seed + k, 4096, P_SMALL), outs[k], tracer))
            for k in range(CONNECTIONS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        return [s for out in outs for s in out], start, wall

    def measure(self, seconds: float) -> Dict[str, float]:
        self.prepare()
        samples, start, wall = self.run_load(seconds)
        if not samples:
            raise RuntimeError(f"every request failed: {self.problems[:3]}")
        self.note_samples("GETs over both connections", len(samples))
        return {**self.read_metrics(samples, start, wall), **self.fidelity()}

    def trace(self, seconds: float, tr: Tracer) -> Dict[str, float]:
        self.prepare()
        before = self.metrics_doc()
        cpu = time.process_time()
        samples, _, _ = self.run_load(0.6 * seconds, tr)
        cpu = time.process_time() - cpu
        out = self.server_metrics(before, self.metrics_doc())
        latencies = [s.seconds for s in samples]
        out.update({
            "store.aserver.transport_ms_mean":
                1e3 * float(np.mean(latencies)) - out["store.server.handler_ms_mean"],
            "store.server.read_ms_p99": 1e3 * percentile(latencies, 0.99),
            "bench.loadgen_cpu_ms_per_req": 1e3 * cpu / len(samples),
            "bench.trace_overhead_share": self.overhead(samples, small=True),
        })
        out.update(self._in_process(0.1 * seconds))
        out["store.server.threaded_read_ms_p50"] = self._threaded_reads()
        self.predict("store.cache.hit_ratio >= 0.99", out["store.cache.hit_ratio"] >= 0.99,
                     f"{out['store.cache.hit_ratio']:.4f}")
        self.predict("zero tile decodes in the measured phase",
                     out["store.tile_decodes_per_read"] == 0,
                     f"{out['store.tile_decodes_per_read']:.3f} per read")
        return out

    def _in_process(self, seconds: float) -> Dict[str, float]:
        """The same warm small reads with no socket: app handler, then bare store."""
        handled: List[float] = []
        read: List[float] = []
        with ArchiveStore(cache_bytes=256 << 20) as store:
            store.add("static", str(self.path))
            app = StoreApp(store)
            store.read_region("static", self.full)
            deadline = time.perf_counter() + seconds
            i = 0
            while i < 32 or time.perf_counter() < deadline:
                region = self.small[i % len(self.small)]
                want = self.pool[True][i % len(self.small)][1]
                request = Request("GET", self.region_target("static", region), {}, None)
                start = time.perf_counter()
                response = app.handle(request)
                handled.append(time.perf_counter() - start)
                start = time.perf_counter()
                arr = store.read_region("static", region)
                read.append(time.perf_counter() - start)
                self.attempted += 1
                self.check(response.status == 200 and response.body == want
                           and arr.tobytes() == want, "in-process warm read differs")
                i += 1
        return {"store.server.app_handle_ms_p50": median_of(handled, 1e3),
                "store.warm_read_ms_p50": median_of(read, 1e3)}

    def _threaded_reads(self) -> float:
        """100 small warm reads against ``--server threaded`` (ROADMAP subtraction (b))."""
        server, url = self.spawn_server("threaded")
        latencies: List[float] = []
        try:
            client = HttpClient(url)
            try:
                client.request(HttpClient.render_get(self.region_target("static", self.full)))
                for i in range(100):
                    raw, want = self.pool[True][i % len(self.small)]
                    self.attempted += 1
                    start = time.perf_counter()
                    status, body = client.request(raw)
                    latencies.append(time.perf_counter() - start)
                    self.check(status == 200 and body == want, "threaded server: bytes differ")
            finally:
                client.close()
        except OSError as exc:
            self.fail(f"threaded server: {type(exc).__name__}: {exc}")
        finally:
            harness.stop_child(server)
        return median_of(latencies, 1e3)


class ServeIngestMixed(_ServeWorkload):
    """Connection 1 pushes and reads back; connection 2 reads 512 KiB regions of ``static``."""

    name = "serve-ingest-mixed"
    KEYS = ("run-a", "run-b", "run-c", "run-d")
    PUSH_CODEC = "szinterp"

    def serve_args(self) -> List[str]:
        return ["--root", str(self.dir / "root"), "--writable"]

    def setup(self) -> None:
        self.pushed = generators.hurricane_u(
            (self.side,) * 3, 0, self.seed).astype(np.float64)
        self.push_range = float(self.pushed.max() - self.pushed.min())
        self.archive_of: Dict[str, int] = {}
        super().setup()
        for key in self.KEYS:  # creates; every measured push is a replace
            self.push(key)

    def push(self, key: str) -> float:
        start = time.perf_counter()
        reply = push_field(self.url, key, self.pushed, bound=Rel(REL), codec=self.PUSH_CODEC,
                           timeout=harness.REQUEST_TIMEOUT_S)
        seconds = time.perf_counter() - start
        self.archive_of[key] = int(reply["archive_bytes"])
        return seconds

    def within_bound(self, got: np.ndarray, region: Region) -> bool:
        return bool(np.max(np.abs(got - self.pushed[region]))
                    <= REL * self.push_range * (1 + 1e-9))

    def writer(self, stop_at: float, pushes: List[float], reads: List[float],
               writing: threading.Event, tracer: Optional[Tracer]) -> None:
        """Push, then read 4 KiB of the just-published key; both are timed."""
        client: Optional[HttpClient] = None
        i = 0
        try:
            while i < 2 or time.perf_counter() < stop_at:
                key = self.KEYS[i % len(self.KEYS)]
                region = self.small[i % len(self.small)]
                raw = HttpClient.render_get(self.region_target(key, region))
                i += 1
                try:
                    if client is None:
                        client = HttpClient(self.url)
                    writing.set()
                    if tracer is not None:
                        with tracer.span("client.push", i):
                            pushed = self.push(key)
                        with tracer.span("client.read_after_push", i):
                            start = time.perf_counter()
                            status, body = client.request(raw)
                            read = time.perf_counter() - start
                    else:
                        pushed = self.push(key)
                        start = time.perf_counter()
                        status, body = client.request(raw)
                        read = time.perf_counter() - start
                    writing.clear()
                except Exception as exc:  # PushError, OSError, ...: counted, never raised
                    writing.clear()
                    with self.lock:
                        self.attempted += 1
                        self.fail(f"push {key}: {type(exc).__name__}: {exc}")
                    if client is not None:
                        client.close()
                        client = None
                    continue
                got = np.frombuffer(body, dtype=np.float64).reshape((SMALL_SIDE,) * 3) \
                    if status == 200 and len(body) == SMALL_SIDE ** 3 * 8 else None
                with self.lock:
                    self.attempted += 1
                    ok = self.check(got is not None and self.within_bound(got, region),
                                    f"push {key}: read-back is HTTP {status} or breaks the bound")
                if ok:
                    pushes.append(pushed)
                    reads.append(read)
        finally:
            writing.clear()
            if client is not None:
                client.close()

    def run_mixed(self, seconds: float, tracer: Optional[Tracer] = None
                  ) -> Tuple[List[float], List[float], List[Sample], float, float]:
        pushes: List[float] = []
        reads: List[float] = []
        samples: List[Sample] = []
        writing = threading.Event()
        done = threading.Event()
        # Connection 2 reads 512 KiB regions only.  Under ingest a read either
        # goes straight through or waits out a GIL switch of the encoder (up
        # to 5 ms).  8-10 % of 4 KiB reads wait, which put p90 on the knee
        # between the two modes, 25 % apart from run to run; a 512 KiB read
        # takes the GIL more often and ~20 % wait, so p90 lies inside the wait
        # tail and moves with p50.
        reader = threading.Thread(target=self.reader, args=(
            1, done.is_set, [False], samples, tracer, writing))
        start = time.perf_counter()
        reader.start()
        try:
            self.writer(start + seconds, pushes, reads, writing, tracer)
        finally:
            done.set()
            reader.join()
        wall = time.perf_counter() - start
        if not pushes or not samples:
            raise RuntimeError(f"every push or every read failed: {self.problems[:3]}")
        return pushes, reads, samples, start, wall

    def read_back(self) -> float:
        """Every pushed key, whole, within bound; returns the mean PSNR."""
        client = HttpClient(self.url)
        full = self.full  # the pushed field has the static field's shape
        psnrs: List[float] = []
        try:
            for key in self.KEYS:
                self.attempted += 1
                status, body = client.request(
                    HttpClient.render_get(self.region_target(key, full)))
                if not self.check(status == 200 and len(body) == self.pushed.nbytes,
                                  f"read-back of {key}: HTTP {status}, {len(body)} bytes"):
                    continue
                got = np.frombuffer(body, dtype=np.float64).reshape(self.pushed.shape)
                self.check(self.within_bound(got, full), f"{key}: read-back breaks the bound")
                psnrs.append(repro.psnr(self.pushed, got))
        finally:
            client.close()
        return float(np.mean(psnrs)) if psnrs else 0.0

    def measure(self, seconds: float) -> Dict[str, float]:
        self.prepare()
        pushes, reads, samples, start, wall = self.run_mixed(seconds)
        psnr = self.read_back()
        raw = self.pushed.nbytes
        self.note_samples("connection 2 GETs", len(samples))
        self.notes.append(f"connection 1: {len(pushes)} pushes, each read back")
        return {
            **self.read_metrics(samples, start, wall),
            "compress_mb_s": raw / 1e6 / median(pushes),
            "compression_ratio": len(self.KEYS) * raw / sum(self.archive_of.values()),
            "psnr_db": psnr,
            "push_to_first_read_s": median([p + r for p, r in zip(pushes, reads)]),
        }

    def trace(self, seconds: float, tr: Tracer) -> Dict[str, float]:
        self.prepare()
        before = self.metrics_doc()
        cpu = time.process_time()
        pushes, reads, samples, _, _ = self.run_mixed(seconds, tr)
        cpu = time.process_time() - cpu
        out = self.server_metrics(before, self.metrics_doc())
        self.read_back()
        raw = self.pushed.nbytes
        under = [s.seconds for s in samples if s.under_write]
        out.update({
            "store.ingest.push_s_p50": median(pushes),
            "store.ingest.publish_to_read_ms_p50": 1e3 * median(reads),
            "store.ingest.ingest_mb_s": len(pushes) * raw / 1e6 / sum(pushes),
            "store.ingest.archive_bytes_per_raw_byte":
                sum(self.archive_of.values()) / (len(self.KEYS) * raw),
            "store.server.read_under_write_ms_p90":
                1e3 * percentile(under, 0.90) if under else 0.0,
            "store.server.read_ms_p99": 1e3 * percentile([s.seconds for s in samples], 0.99),
            "bench.loadgen_cpu_ms_per_req": 1e3 * cpu / (len(samples) + 2 * len(pushes)),
            "bench.trace_overhead_share": self.overhead(samples, small=False),
        })
        return out
