"""Aggregate benchmark CSVs into a single Markdown reproduction report.

After ``pytest benchmarks/ --benchmark-only`` has populated
``benchmarks/results/``, this module (also runnable as
``python -m repro.analysis.report``) collects every CSV into one
human-readable Markdown document — handy for attaching a reproduction summary
to an issue or paper review without re-running anything.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

PathLike = Union[str, os.PathLike]

# Paper artefact each results file corresponds to (used for section headers).
SECTION_TITLES = {
    "table1_ae_types": "Table I — prediction PSNR of autoencoder types",
    "table2_block_sizes": "Table II — block-size study",
    "table3_latent_sizes": "Table III — latent-size study",
    "table4_latent_codec": "Table IV — customized latent codec vs SZ2.1",
    "fig1_ae_reconstruction": "Fig. 1 — unbounded AE reconstruction",
    "fig6_latent_rd": "Fig. 6 — prediction PSNR vs latent compression",
    "fig7_error_distribution": "Fig. 7 — prediction error distributions",
    "fig8_rate_distortion": "Fig. 8 — rate distortion on all fields",
    "fig9_visual_quality": "Fig. 9 — quality at matched compression ratio",
    "fig10_ae_block_ratio": "Fig. 10 — AE-predicted block fraction",
    "fig11_predictor_ablation": "Fig. 11 — predictor ablation",
    "ablation_pipeline": "Extra — pipeline ablations",
}


def read_results_csv(path: PathLike) -> List[Dict[str, str]]:
    """Read one benchmark CSV into a list of row dicts (strings preserved)."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _markdown_table(rows: Sequence[Dict[str, str]], max_rows: Optional[int] = None) -> str:
    if not rows:
        return "_(empty)_"
    columns = list(rows[0].keys())
    shown = rows if max_rows is None else rows[:max_rows]
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in shown:
        lines.append("| " + " | ".join(str(row.get(c, "")) for c in columns) + " |")
    if max_rows is not None and len(rows) > max_rows:
        lines.append(f"\n_... {len(rows) - max_rows} more rows in the CSV._")
    return "\n".join(lines)


def generate_report(results_dir: PathLike, max_rows_per_table: int = 40) -> str:
    """Build the Markdown report from every known CSV in ``results_dir``."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(f"results directory {results_dir} does not exist; "
                                "run `pytest benchmarks/ --benchmark-only` first")
    sections = []
    sections.append("# AE-SZ reproduction results\n")
    sections.append(f"Generated from CSVs in `{results_dir}`.\n")
    found_any = False
    for stem, title in SECTION_TITLES.items():
        path = results_dir / f"{stem}.csv"
        if not path.exists():
            continue
        found_any = True
        rows = read_results_csv(path)
        sections.append(f"## {title}\n")
        sections.append(_markdown_table(rows, max_rows=max_rows_per_table))
        sections.append("")
    if not found_any:
        raise FileNotFoundError(f"no known benchmark CSVs found in {results_dir}")
    return "\n".join(sections)


def write_report(results_dir: PathLike, output_path: PathLike,
                 max_rows_per_table: int = 40) -> Path:
    """Write the Markdown report to ``output_path`` and return the path."""
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    output_path.write_text(generate_report(results_dir, max_rows_per_table))
    return output_path


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover - thin wrapper
    import argparse

    default_results = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", default=str(default_results))
    parser.add_argument("--output", default=str(default_results / "REPORT.md"))
    parser.add_argument("--max-rows", type=int, default=40)
    args = parser.parse_args(argv)
    path = write_report(args.results_dir, args.output, args.max_rows)
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
