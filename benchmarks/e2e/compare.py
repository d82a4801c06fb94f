"""Compare two result files written by ``run.py --all --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): the medians of A's and B's runs,
B's change in the metric's own direction, and a verdict against the metric's
bound from ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of a side is wider than the bound
  (unless every run of B reads better than every run of A);
* ``ok``         — otherwise.

Exits 1 on any ``regressed`` row or when B fails a larger share of its ops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import harness  # noqa: E402


def metric_values(runs: List[dict], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]


def failure_ratio(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, object]:
    """Judge B against A for one metric (``better`` is ``lower`` or ``higher``)."""
    med_a, med_b = harness.median(a), harness.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    spread = max(harness.spread(a), harness.spread(b))
    if worse_by > bound:
        status = "regressed"
    elif spread > bound and not all_better:
        status = "unresolved"
    else:
        status = "ok"
    return {"median_a": med_a, "median_b": med_b, "worse_by": worse_by,
            "spread": spread, "status": status}


def compare(doc_a: dict, doc_b: dict, spec: dict) -> List[dict]:
    rows: List[dict] = []
    metrics = spec["per_layer"] if doc_a.get("trace") else spec["end_to_end"]
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = doc_a["runs"].get(workload, [])
        runs_b = doc_b["runs"].get(workload, [])
        if not runs_a or not runs_b:
            rows.append({"workload": workload, "metric": "*", "status": "missing"})
            continue
        for row in metrics:
            a, b = metric_values(runs_a, row["name"]), metric_values(runs_b, row["name"])
            if not a or not b:
                rows.append({"workload": workload, "metric": row["name"], "status": "missing"})
                continue
            # Per-layer metrics carry no bound: they are shown, never judged.
            bound = row.get("bound", float("inf"))
            rows.append({"workload": workload, "metric": row["name"], "unit": row["unit"],
                         "bound": bound, **verdict(a, b, row["better"], bound)})
        fail_a, fail_b = failure_ratio(runs_a), failure_ratio(runs_b)
        rows.append({"workload": workload, "metric": "failure_ratio", "unit": "ratio",
                     "median_a": fail_a, "median_b": fail_b, "worse_by": fail_b - fail_a,
                     "spread": 0.0, "bound": 0.0,
                     "status": "regressed" if fail_b > fail_a else "ok"})
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':20s} {'metric':26s} {'A':>12s} {'B':>12s} "
             f"{'worse by':>9s} {'bound':>7s} {'spread':>7s}  verdict"]
    for row in rows:
        if row["status"] == "missing":
            lines.append(f"{row['workload']:20s} {row['metric']:26s} missing from a file")
            continue
        lines.append(f"{row['workload']:20s} {row['metric']:26s} {row['median_a']:12.5g} "
                     f"{row['median_b']:12.5g} {row['worse_by']:+9.2%} {row['bound']:7.2%} "
                     f"{row['spread']:7.2%}  {row['status']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    if doc_a.get("trace") != doc_b.get("trace"):
        print("one file is a traced run and the other is not", file=sys.stderr)
        return 2
    rows = compare(doc_a, doc_b, harness.load_spec())
    print(render(rows))
    bad = [r for r in rows if r["status"] in ("regressed", "missing")]
    print(f"{len(rows)} rows: {len(bad)} regressed or missing, "
          f"{sum(r['status'] == 'unresolved' for r in rows)} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
