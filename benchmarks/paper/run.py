"""Regenerate the paper's tables and figures and the page that records them.

    python3 benchmarks/paper/run.py [--only ID ...]

Runs the experiments of ``benchmarks/paper/experiments.py`` in order, prints
each table and its checks, and exits 1 when any check fails.  A full run also
rewrites the committed page ``docs/results.md`` (a Checks table, then one
section per experiment); an ``--only`` run leaves it alone.  Trained models
are cached under ``.model_cache/``; a cold full run takes about a quarter of
an hour.
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
from typing import Optional, Sequence  # noqa: E402

from benchmarks.paper import experiments  # noqa: E402
from repro.analysis import format_table  # noqa: E402
from repro.analysis.report import SECTION_TITLES, write_report  # noqa: E402

PAGE = _ROOT / "docs" / "results.md"


def main(argv: Optional[Sequence[str]] = None, page: Path = PAGE) -> int:
    ids = [exp.id for exp in experiments.EXPERIMENTS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="ID", choices=ids, default=ids,
                        help="run only these experiments: " + ", ".join(ids))
    only = parser.parse_args(argv).only

    tables, checks = {}, []
    for exp in experiments.EXPERIMENTS:
        if exp.id not in only:
            continue
        rows = exp.run()
        print(format_table(rows, title=f"{SECTION_TITLES[exp.id]}: {exp.claim}"), end="\n\n")
        tables[exp.id] = rows
        checks += [{"experiment": exp.id, "check": check.what, "paper": check.paper,
                    "measured": check.measured, "verdict": "holds" if check.holds else "FAILS"}
                   for check in exp.checks(rows)]
    print(format_table(checks, title="Checks"))
    if len(tables) == len(ids):
        write_report(tables, page, checks)
        print(f"\npage written to {page}")
    return 1 if any(check["verdict"] == "FAILS" for check in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
