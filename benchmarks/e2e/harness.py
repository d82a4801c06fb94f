"""Plumbing shared by the e2e workloads: statistics, spans, seeded input
generators, child processes and a minimal HTTP client.

Nothing here imports ``repro``; the workloads do.  Importing this module
starts nothing and writes nothing.
"""

from __future__ import annotations

import json
import math
import os
import queue
import re
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
#: Everything the benchmark writes (archives, server roots, traces) goes
#: under this directory of the working directory; temp dirs in it are removed.
SCRATCH_NAME = ".e2e_out"

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: A child that has not printed its URL by then failed to start.
CHILD_START_TIMEOUT_S = 30.0
#: A request slower than this is a failed op, not a hung run.
REQUEST_TIMEOUT_S = 60.0

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ------------------------------------------------------------------ statistics
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-quantile."""
    return n - math.ceil(q * n) if n else 0


def tail_supported(n: int, q: float) -> bool:
    """The choosing-metrics rule: report a percentile only with >= 10 samples beyond it."""
    return samples_beyond(n, q) >= 10


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def median_of(samples: Sequence[float], scale: float = 1.0) -> float:
    """Scaled median, or 0 for a layer that recorded no sample (it did not run)."""
    return scale * median(samples) if samples else 0.0


#: Every timing metric is computed on each of this many consecutive slices of
#: the measured phase and reported as the median of the slice values: whole
#: seconds of a run slow down when a neighbour is busy, and a burst shorter
#: than half the run then moves no metric (the tail percentiles least of all).
SLICES = 5


def slices_of(items: Sequence, count: int = SLICES) -> List[Sequence]:
    """``items`` cut into at most ``count`` consecutive, non-empty, near-equal parts."""
    n = len(items)
    k = max(1, min(count, n))
    return [items[i * n // k:(i + 1) * n // k] for i in range(k)]


def median_by_key(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over per-slice metric dicts."""
    return {key: median([row[key] for row in rows]) for key in rows[0]}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf


# ----------------------------------------------------------------------- spans
class Tracer:
    """In-memory spans ``{name, start, end, parent, op_id}``, written out at exit.

    ``parent`` is the index of the enclosing span of the same thread (or
    ``None``); spans of one operation share ``op_id``.  A layer's self time
    is its span minus the time its child spans cover.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None) -> Iterator[dict]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent]["op_id"]
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
               "op_id": op_id}
        with self._lock:  # two load-generator threads share one tracer
            stack.append(len(self.spans))
            self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def child_time(self, name: str) -> float:
        """Summed duration of the direct children of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is not None and self.spans[s["parent"]]["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s, child_time in zip(self.spans, covered):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child_time
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


# ------------------------------------------------------------ seeded generators
def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(tag.encode())])


def random_regions(seed: int, shape: Sequence[int], side: int, n: int
                   ) -> List[Tuple[slice, ...]]:
    """``n`` seeded cubes of ``side``, uniformly placed inside ``shape``."""
    rng = _rng(seed, "regions")
    starts = np.stack([rng.integers(0, dim - side + 1, size=n) for dim in shape], axis=1)
    return [tuple(slice(int(a), int(a) + side) for a in row) for row in starts]


def tile_span_regions(seed: int, shape: Sequence[int], side: int, tile: int,
                      wide_axes: Sequence[int], n: int) -> List[Tuple[slice, ...]]:
    """``n`` seeded cubes of ``side`` inside ``shape`` whose tile count is set, not drawn.

    Along an axis a cube covers either the fewest tiles of ``tile`` a cube of
    its side can, or one more.  Cube ``k`` covers one more along
    ``wide_axes[k % len(wide_axes)]`` of its axes; which axes, and where it
    starts among the starts that qualify, is seeded.  A cold read costs one
    decode per tile, so this fixes the share of each cost class in any stretch
    of reads, which uniform placement leaves to chance (8 / 12 / 18 / 27 tiles
    with shares 67 / 28 / 4 / 0.2 % for a 40-cube over 32-tiles in 96^3).
    """
    rng = _rng(seed, "regions")
    pools = []
    for dim in shape:
        starts = range(dim - side + 1)
        spans = [(a + side - 1) // tile - a // tile for a in starts]
        wide = [a for a, span in zip(starts, spans) if span > min(spans)]
        narrow = [a for a, span in zip(starts, spans) if span == min(spans)]
        pools.append((narrow, wide or narrow))  # a small field has no wide start
    regions = []
    for k in range(n):
        widened = set(rng.permutation(len(shape))[:wide_axes[k % len(wide_axes)]].tolist())
        starts = [int(rng.choice(pool[axis in widened])) for axis, pool in enumerate(pools)]
        regions.append(tuple(slice(a, a + side) for a in starts))
    return regions


def size_mix(seed: int, n: int, p_small: float = 0.8) -> List[bool]:
    """``True`` = small request.  The serve mix: small with probability ``p_small``."""
    return [bool(v) for v in _rng(seed, "mix").random(n) < p_small]


def region_spec(region: Sequence[slice]) -> str:
    return ",".join(f"{s.start}:{s.stop}" for s in region)


# ------------------------------------------------------------------- processes
def scratch_dir() -> Path:
    """A fresh temp dir under ``<cwd>/.e2e_out``; the caller removes it."""
    base = Path.cwd() / SCRATCH_NAME
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_tree(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


def child_env() -> Dict[str, str]:
    """The benchmark's environment (BLAS pins included), ``src`` on the path, one arena."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    for name in BLAS_PINS:
        env[name] = "1"
    # One malloc arena: with glibc's per-thread arenas the server's high-water
    # RSS under ingest read 315-560 MB from run to run (whichever worker
    # thread's arena took each upload) against a steady ~195 MB with one.
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def spawn_with_url(cmd: Sequence[str]) -> Tuple[subprocess.Popen, str]:
    """Start a child that prints its ``http://host:port`` URL; return ``(proc, url)``.

    Raises ``RuntimeError`` (after stopping the child) if no URL appears
    within :data:`CHILD_START_TIMEOUT_S`.
    """
    proc = subprocess.Popen(list(cmd), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, env=child_env())
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + CHILD_START_TIMEOUT_S
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            line = None
        match = re.search(r"http://[\w.]+:\d+", line) if line else None
        if match:
            return proc, match.group(0)
        if line is None:
            stop_child(proc)
            raise RuntimeError(f"child {cmd[:4]} did not print a URL within "
                               f"{CHILD_START_TIMEOUT_S:.0f} s")


def stop_child(proc: Optional[subprocess.Popen]) -> None:
    """Terminate ``proc`` and wait until it has ended."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def child_peak_rss_mb(pid: int) -> float:
    """A live child's high-water RSS (``VmHWM``) in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_port(url: str) -> Tuple[str, int]:
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    return host, int(port)


# ----------------------------------------------------------------- HTTP client
class HttpClient:
    """One keep-alive connection sending pre-rendered requests.

    The load generator shares two cores with the server, so it does the
    least a correct client can: no header objects, ``Content-Length``
    framing only (every route the benchmark calls sets it).
    """

    def __init__(self, url: str) -> None:
        self.sock = socket.create_connection(host_port(url), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @staticmethod
    def render_get(target: str) -> bytes:
        return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()

    def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send ``raw``; return ``(status, body)``.  Raises ``OSError`` on
        timeout, a closed connection or a response without Content-Length."""
        self.sock.sendall(raw)
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            buf += chunk
        head, _, body = buf.partition(b"\r\n\r\n")
        match = re.search(rb"\r\ncontent-length:\s*(\d+)", head, re.IGNORECASE)
        if match is None:
            raise ConnectionError("response without Content-Length")
        want = int(match.group(1))
        parts = [body]
        have = len(body)
        while have < want:
            chunk = self.sock.recv(min(1 << 20, want - have))
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            parts.append(chunk)
            have += len(chunk)
        return int(head[9:12]), b"".join(parts)

    def get_json(self, target: str) -> dict:
        status, body = self.request(self.render_get(target))
        if status != 200:
            raise ConnectionError(f"GET {target}: HTTP {status}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


# ---------------------------------------------------------------------- schema
def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def validate_spec(spec: dict) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document (empty list = valid)."""
    problems: List[str] = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != want:
        problems.append(f"keys {sorted(spec)} != {sorted(want)}")
        return problems
    names: List[str] = []
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for row in spec["workloads"]:
        if set(row) != {"name", "why"} or not row["why"] or len(row["why"]) > 200 \
                or "\n" in row["why"]:
            problems.append(f"workload row {row!r} needs a name and a one-line why")
        names.append(row.get("name", ""))
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("need 1 to 128 per-layer metrics")
    for row in spec["end_to_end"]:
        if set(row) != {"name", "unit", "better", "bound"}:
            problems.append(f"end-to-end row {row!r} needs name, unit, better, bound")
        elif not 0 < row["bound"] <= 0.25:
            problems.append(f"{row['name']}: bound {row['bound']} outside (0, 0.25]")
        names.append(row.get("name", ""))
    for row in spec["per_layer"]:
        if set(row) != {"name", "unit", "better"}:
            problems.append(f"per-layer row {row!r} needs name, unit, better")
        names.append(row.get("name", ""))
    for row in spec["end_to_end"] + spec["per_layer"]:
        if row.get("better") not in ("lower", "higher"):
            problems.append(f"{row.get('name')}: better must be lower or higher")
        if not re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", str(row.get("unit", ""))):
            problems.append(f"{row.get('name')}: bad unit {row.get('unit')!r}")
    for name in names:
        if not _NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not any(r.get("name") == "setup_s" and r.get("unit") == "s"
               and r.get("better") == "lower" for r in spec["end_to_end"]):
        problems.append("end_to_end needs setup_s (s, lower)")
    return problems


def validate_result(result: dict, spec: dict, trace: int) -> List[str]:
    """Problems with one run's result line against the spec (empty = valid)."""
    problems: List[str] = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    want = {row["name"]: row["unit"] for row in rows}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics differ from the spec: missing "
                        f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, cell in got.items():
        value = cell.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif cell.get("unit") != want.get(name, cell.get("unit")):
            problems.append(f"{name}: unit {cell.get('unit')!r} != {want[name]!r}")
        elif not trace and value == 0:
            problems.append(f"{name}: an end-to-end metric must never be 0")
    return problems


def environment(seed: int, seconds: float) -> dict:
    """What every result file records about where it was measured."""
    try:
        sha = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": sha or "unknown",
        "seed": seed,
        "seconds": seconds,
        "blas_pins": {name: os.environ.get(name) for name in BLAS_PINS},
    }
