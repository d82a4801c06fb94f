"""Run one workload (the ``BENCHMARK.json`` command) or all of them.

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --all --seed S [--repeat N] [--trace] --out F.json

Prints every metric by name with its unit, then — as the last line of
standard output — the result object the contract asks for.  Exit code 0
means the run completed and its result passed schema validation; a failed
correctness check is reported through ``correct`` / ``failed`` and exit 1.
``--all`` runs each workload in a fresh interpreter so peak RSS and warm
state never leak between workloads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS pools must be pinned before numpy is first imported; children inherit.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{_ROOT}/src/repro not found: the benchmark measures the repo it lives in")
# Run as a script, this directory leads sys.path and would shadow top-level
# modules with field.py / base.py; everything here is imported as benchmarks.e2e.*.
sys.path[:] = [p for p in sys.path if p != str(Path(__file__).resolve().parent)]
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.base import run_named  # noqa: E402


def _print_run(name: str, trace: int, run: dict) -> None:
    result = run["result"]
    print(f"# {name} ({'per-layer, traced' if trace else 'end-to-end, untraced'})")
    for metric, cell in result["metrics"].items():
        skipped = "  (layer not executed)" if metric in run["not_executed"] else ""
        print(f"{metric:48s} {cell['value']:.6g} {cell['unit']}{skipped}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'failure_ratio':48s} {ratio:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for line in run["notes"] + [f"problem: {p}" for p in run["problems"]] \
            + [f"schema: {p}" for p in run["schema_problems"]]:
        print(line)


def _run_all(args: argparse.Namespace) -> int:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    status = 0
    for name in names:
        for _ in range(args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode or not done.stdout.strip():
                status = 1
                continue
            runs[name].append(json.loads(done.stdout.strip().splitlines()[-1]))
    if args.out:
        doc = {"schema": "e2e-bench/1", "trace": args.trace,
               "env": harness.environment(args.seed, args.seconds), "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec_seconds = harness.load_spec()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="one workload, in this process")
    which.add_argument("--all", action="store_true",
                       help="every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec_seconds),
                        help="length of the measured phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 = the traced per-layer run")
    parser.add_argument("--repeat", type=int, default=1, help="with --all: runs per workload")
    parser.add_argument("--out", help="with --all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if args.all:
        return _run_all(args)
    trace_out = (Path.cwd() / harness.SCRATCH_NAME / f"trace-{args.workload}.json"
                 if args.trace else None)
    try:
        run = run_named(args.workload, args.seed, args.seconds, args.trace, trace_out=trace_out)
    except ValueError as exc:
        parser.error(str(exc))
    _print_run(args.workload, args.trace, run)
    if run["schema_problems"]:
        return 2
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
