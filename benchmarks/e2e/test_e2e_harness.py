"""Self-test of the e2e benchmark harness (collected by the tier-1 command).

Covers the arithmetic the numbers rest on — percentiles, span self time,
spread, the compare verdicts — the ``BENCHMARK.json`` / result schemas, seed
determinism of the input generators, and one test-sized in-process run of
``field-baselines`` in each mode.
"""

from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import compare, harness  # noqa: E402
from benchmarks.e2e.base import run_named, workload_classes  # noqa: E402


# ------------------------------------------------------------------ statistics
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 0.50) == 50
    assert harness.percentile(samples, 0.90) == 90
    assert harness.percentile(samples, 1.0) == 100
    assert harness.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_ten_samples_beyond_rule():
    assert harness.samples_beyond(100, 0.90) == 10
    assert harness.tail_supported(100, 0.90)
    assert not harness.tail_supported(99, 0.90)
    assert harness.tail_supported(1000, 0.99)
    assert not harness.tail_supported(35, 0.90)  # field workloads: p90 is weak there
    assert harness.samples_beyond(0, 0.9) == 0


def test_spread_is_iqr_over_median():
    values = [10.0, 10.0, 10.0, 10.0]
    assert harness.spread(values) == 0.0
    assert harness.spread([1.0]) == 0.0
    import statistics
    values = [9.0, 10.0, 11.0, 12.0, 30.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == pytest.approx((q3 - q1) / 11.0)


# ----------------------------------------------------------------------- spans
def test_span_parents_and_self_time():
    tr = harness.Tracer()
    with tr.span("outer", op_id=7):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.03)
        with tr.span("inner"):
            time.sleep(0.01)
    with tr.span("outer", op_id=8):
        pass
    outer, first, second, empty = tr.spans
    assert outer["parent"] is None and first["parent"] == 0 and second["parent"] == 0
    assert first["op_id"] == 7 and empty["op_id"] == 8  # children inherit the op id
    assert all(s["end"] >= s["start"] for s in tr.spans)
    self_times = tr.self_times()
    inner = sum(tr.durations("inner"))
    assert inner == pytest.approx(tr.child_time("outer"))
    assert self_times["outer"] == pytest.approx(tr.total("outer") - inner)
    assert self_times["outer"] >= 0.02 and self_times["inner"] == pytest.approx(inner)


def test_trace_dump_round_trips(tmp_path):
    tr = harness.Tracer()
    with tr.span("a", 1):
        with tr.span("b"):
            pass
    tr.dump(tmp_path / "sub" / "trace.json")
    import json
    spans = json.loads((tmp_path / "sub" / "trace.json").read_text())["spans"]
    assert [s["name"] for s in spans] == ["a", "b"]
    assert set(spans[0]) == {"name", "start", "end", "parent", "op_id"}


# ---------------------------------------------------------------------- schema
def test_benchmark_json_is_valid_and_names_the_workloads():
    spec = harness.load_spec()
    assert harness.validate_spec(spec) == []
    assert [w["name"] for w in spec["workloads"]] == list(workload_classes())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    total = 4 + 22 * len(spec["workloads"])
    assert total * (spec["run_seconds"] + 12) <= 3420  # runs + set-up fit the driver's cap


def test_validate_spec_rejects_bad_documents():
    spec = harness.load_spec()
    bad = copy.deepcopy(spec)
    bad["end_to_end"][1]["bound"] = 0.5
    assert any("bound" in p for p in harness.validate_spec(bad))
    bad = copy.deepcopy(spec)
    bad["per_layer"][0]["name"] = "has space"
    assert any("bad name" in p for p in harness.validate_spec(bad))
    bad = copy.deepcopy(spec)
    bad["per_layer"][0]["name"] = bad["per_layer"][1]["name"]
    assert any("twice" in p for p in harness.validate_spec(bad))
    bad = copy.deepcopy(spec)
    bad["workloads"][0]["why"] = ""
    assert any("why" in p for p in harness.validate_spec(bad))
    bad = copy.deepcopy(spec)
    bad["end_to_end"] = [r for r in bad["end_to_end"] if r["name"] != "setup_s"]
    assert any("setup_s" in p for p in harness.validate_spec(bad))
    bad = copy.deepcopy(spec)
    del bad["per_layer"][0]["better"]
    assert harness.validate_spec(bad)


def test_validate_result_checks_names_units_and_zeros():
    spec = harness.load_spec()
    metrics = {r["name"]: {"value": 1.5, "unit": r["unit"]} for r in spec["end_to_end"]}
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    assert harness.validate_result(good, spec, trace=0) == []
    assert harness.validate_result(good, spec, trace=1)  # wrong metric set for a traced run
    bad = copy.deepcopy(good)
    bad["metrics"]["setup_s"]["value"] = 0.0
    assert any("never be 0" in p for p in harness.validate_result(bad, spec, 0))
    bad = copy.deepcopy(good)
    del bad["metrics"]["read_ms_p90"]
    assert any("missing" in p for p in harness.validate_result(bad, spec, 0))
    bad = copy.deepcopy(good)
    bad["metrics"]["setup_s"]["unit"] = "ms"
    assert any("unit" in p for p in harness.validate_result(bad, spec, 0))
    bad = copy.deepcopy(good)
    bad["attempted"] = 0
    assert any("at least 1" in p for p in harness.validate_result(bad, spec, 0))
    bad = copy.deepcopy(good)
    bad["metrics"]["setup_s"]["value"] = float("nan")
    assert any("finite" in p for p in harness.validate_result(bad, spec, 0))


# ------------------------------------------------------------------ generators
def test_generators_are_seed_deterministic():
    shape = (96, 96, 96)
    a = harness.random_regions(5, shape, 40, 50)
    assert a == harness.random_regions(5, shape, 40, 50)
    assert a != harness.random_regions(6, shape, 40, 50)
    for region in a:
        assert all(0 <= s.start and s.stop <= 96 and s.stop - s.start == 40 for s in region)
    tiled = harness.tile_span_regions(5, shape, 40, 32, (0, 0, 1), 60)
    assert tiled == harness.tile_span_regions(5, shape, 40, 32, (0, 0, 1), 60)
    assert tiled != harness.tile_span_regions(6, shape, 40, 32, (0, 0, 1), 60)
    tiles = [int(np.prod([(s.stop - 1) // 32 - s.start // 32 + 1 for s in region]))
             for region in tiled]
    assert tiles == [8, 8, 12] * 20  # the tile count is set by position, not drawn
    assert all(0 <= s.start and s.stop <= 96 and s.stop - s.start == 40
               for region in tiled for s in region)
    # A field with no three-tile start still yields regions (the smoke size).
    assert len(harness.tile_span_regions(5, (64,) * 3, 40, 32, (0, 0, 1), 6)) == 6
    mix = harness.size_mix(5, 2000)
    assert mix == harness.size_mix(5, 2000) and mix != harness.size_mix(6, 2000)
    assert 0.75 < sum(mix) / len(mix) < 0.85
    assert harness.region_spec((slice(1, 9), slice(0, 8), slice(88, 96))) == "1:9,0:8,88:96"


# --------------------------------------------------------------------- compare
def test_compare_verdicts():
    assert compare.verdict([10, 10, 10], [10.5, 10.5, 10.5], "lower", 0.10)["status"] == "ok"
    assert compare.verdict([10, 10, 10], [12, 12, 12], "lower", 0.10)["status"] == "regressed"
    assert compare.verdict([10, 10, 10], [8, 8, 8], "higher", 0.10)["status"] == "regressed"
    assert compare.verdict([10, 10, 10], [12, 12, 12], "higher", 0.10)["status"] == "ok"
    noisy = [6.0, 8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)["status"] == "unresolved"
    # A wide spread is still a clear win when every run of B beats every run of A.
    assert compare.verdict(noisy, [1.0, 2.0, 3.0, 4.0, 5.0], "lower", 0.10)["status"] == "ok"


def test_compare_documents_and_failure_ratio():
    spec = harness.load_spec()
    metrics = {r["name"]: {"value": 2.0, "unit": r["unit"]} for r in spec["end_to_end"]}
    run = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    doc = {"trace": 0, "runs": {w["name"]: [copy.deepcopy(run), copy.deepcopy(run)]
                                for w in spec["workloads"]}}
    rows = compare.compare(doc, doc, spec)
    assert len(rows) == len(spec["workloads"]) * (len(spec["end_to_end"]) + 1)
    assert {r["status"] for r in rows} == {"ok"}
    worse = copy.deepcopy(doc)
    worse["runs"]["serve-warm"][0]["failed"] = 1
    rows = compare.compare(doc, worse, spec)
    bad = [r for r in rows if r["status"] != "ok"]
    assert [(r["workload"], r["metric"]) for r in bad] == [("serve-warm", "failure_ratio")]
    assert "regressed" in compare.render(rows)
    missing = copy.deepcopy(doc)
    missing["runs"]["field-aesz"] = []
    assert any(r["status"] == "missing" for r in compare.compare(doc, missing, spec))


# --------------------------------------------------------------- a smoke run
def test_smoke_field_baselines_end_to_end():
    run = run_named("field-baselines", seed=3, seconds=0.3, trace=0, smoke=True)
    result = run["result"]
    assert run["schema_problems"] == [] and run["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["compression_ratio"] > 1 and values["psnr_db"] > 40
    assert values["read_ms_p90"] >= values["read_ms_p50"] > 0
    again = run_named("field-baselines", seed=3, seconds=0.1, trace=0, smoke=True)["result"]
    for name in ("compression_ratio", "psnr_db"):  # deterministic for a fixed seed
        assert again["metrics"][name]["value"] == values[name]
    other = run_named("field-baselines", seed=4, seconds=0.1, trace=0, smoke=True)["result"]
    assert other["metrics"]["compression_ratio"]["value"] != values["compression_ratio"]


def test_smoke_field_baselines_traced(tmp_path):
    out = tmp_path / "trace.json"
    run = run_named("field-baselines", seed=3, seconds=0.3, trace=1, smoke=True, trace_out=out)
    assert run["schema_problems"] == [] and run["problems"] == []
    values = {k: v["value"] for k, v in run["result"]["metrics"].items()}
    # The stage replays reproduce the real payloads, so their time adds up.
    for codec in ("sz21", "szinterp"):
        assert 0.6 < values[f"compressors.{codec}.encode_stage_coverage"] < 1.4
        assert 0.6 < values[f"compressors.{codec}.decode_stage_coverage"] < 1.4
    # Layers this workload does not execute read 0 (a time: the tracer's floor).
    assert values["store.cache.hit_ratio"] == 0 and values["sources.http.retried"] == 0
    assert 0 < values["store.server.handler_ms_mean"] < 0.05 and 0 < values["nn.train_s"] < 5e-5
    import json
    spans = json.loads(out.read_text())["spans"]
    assert any(s["parent"] is not None for s in spans)
    assert all(s["parent"] is None or s["parent"] < i for i, s in enumerate(spans))


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        run_named("no-such-workload", seed=0, seconds=0.1, trace=0)
