"""The workload protocol and the one function that runs a workload.

A workload sets up (several times, so ``setup_s`` is a median), then either
measures its end-to-end metrics untraced or replays its path stage by stage
under spans for the per-layer metrics.  Failures are counted, never raised.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from benchmarks.e2e import harness
from benchmarks.e2e.harness import Tracer

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class Workload:
    """Base class: op/failure accounting plus the hooks a workload fills in."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)  # test-sized inputs (harness self-test only)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []  # isolation predictions etc., printed by the CLI
        self.not_executed: List[str] = []  # per-layer metrics of layers a traced run skipped

    # ------------------------------------------------------------- accounting
    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Record a failed op when a correctness check does not hold."""
        if not ok:
            self.fail(message)
        return bool(ok)

    def attempt(self, what: str, fn: Callable, *args, **kwargs):
        """Run one op; an exception fails it and returns ``None``."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted, never raised: the run must finish
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def note_samples(self, what: str, count: int) -> None:
        """State the sample count behind the latency percentiles (per slice too)."""
        per_slice = count // harness.SLICES
        self.notes.append(
            f"{what}: {count} samples, {per_slice} per slice, "
            f"{harness.samples_beyond(per_slice, 0.90)} of them beyond p90"
            + ("" if harness.tail_supported(per_slice, 0.90) else " (fewer than ten)"))

    def predict(self, label: str, ok: bool, detail: str) -> None:
        """Record an isolation prediction and whether it held."""
        self.notes.append(f"prediction {'holds' if ok else 'FAILS'}: {label} ({detail})")

    # ------------------------------------------------------------------ hooks
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` made; safe to call twice."""

    def measure(self, seconds: float) -> Dict[str, float]:
        """Untraced run: every end-to-end metric except setup_s / peak_rss_mb."""
        raise NotImplementedError

    def trace(self, seconds: float, tracer: Tracer) -> Dict[str, float]:
        """Traced run: the per-layer metrics of the layers this workload executes."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """High-water RSS of the process running the program under test."""
        return harness.self_peak_rss_mb()


def workload_classes() -> Dict[str, type]:
    """Name -> class, imported on demand (the workloads import this module)."""
    from benchmarks.e2e.field import FieldAesz, FieldBaselines
    from benchmarks.e2e.scan import RemoteColdScan, StoreColdScan
    from benchmarks.e2e.serve import ServeIngestMixed, ServeWarm

    classes = (FieldBaselines, FieldAesz, StoreColdScan, RemoteColdScan,
               ServeWarm, ServeIngestMixed)
    return {cls.name: cls for cls in classes}


def run_named(name: str, seed: int, seconds: float, trace: int, smoke: bool = False,
              trace_out: Optional[Path] = None) -> dict:
    """Run workload ``name`` in this process.

    Returns ``{"result", "schema_problems", "problems", "notes",
    "not_executed"}``: the contract's result object, what is wrong with its
    shape (empty = valid), the failed checks, the isolation predictions and
    the per-layer metrics whose layer a traced run never entered.
    """
    spec = harness.load_spec()
    classes = workload_classes()
    if name not in classes or name not in [w["name"] for w in spec["workloads"]]:
        raise ValueError(f"unknown workload {name!r}; choices: {sorted(classes)}")
    workload = classes[name](seed, smoke)
    result = run_workload(workload, seconds, trace, spec, trace_out)
    return {"result": result,
            "schema_problems": harness.validate_result(result, spec, trace),
            "problems": workload.problems, "notes": workload.notes,
            "not_executed": workload.not_executed}


def not_executed(tracer: Tracer, unit: str) -> float:
    """What a per-layer metric reads when the workload never enters the layer.

    Counts, ratios and rates read 0.  A time reads the tracer's floor — the
    duration of a span around nothing, a fraction of a microsecond — because
    the driver refuses a time that reads exactly the same on every run.
    """
    if unit not in ("s", "ms"):
        return 0.0
    with tracer.span("bench.not_executed") as rec:
        pass
    return (rec["end"] - rec["start"]) * (1e3 if unit == "ms" else 1.0)


def run_workload(workload: Workload, seconds: float, trace: int, spec: dict,
                 trace_out: Optional[Path] = None) -> dict:
    """Set up, run and tear down ``workload``; return the contract's result object.

    Untraced: ``SETUP_REPEATS`` set-ups (median = ``setup_s``), then the
    end-to-end metrics.  Traced: one set-up, then every per-layer metric —
    see :func:`not_executed` for a layer this workload does not execute.
    """
    setup_times: List[float] = []
    tracer = Tracer()
    try:
        for i in range(1 if trace else SETUP_REPEATS):
            if i:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if trace:
            measured = workload.trace(seconds, tracer)
            values = {row["name"]: measured[row["name"]] if row["name"] in measured
                      else not_executed(tracer, row["unit"]) for row in spec["per_layer"]}
            workload.not_executed = [name for name in values if name not in measured]
            unknown = sorted(set(measured) - set(values))
            if unknown:
                workload.fail(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        else:
            values = workload.measure(seconds)
            values["setup_s"] = harness.median(setup_times)
            values["peak_rss_mb"] = workload.peak_rss_mb()
    finally:
        workload.teardown()
        if trace and trace_out is not None:
            tracer.dump(trace_out)
    units = {row["name"]: row["unit"]
             for row in spec["per_layer" if trace else "end_to_end"]}
    return {
        "correct": workload.failed == 0,
        "attempted": max(1, workload.attempted),
        "failed": workload.failed,
        "metrics": {name: {"value": float(value), "unit": units.get(name, "")}
                    for name, value in values.items()},
    }
