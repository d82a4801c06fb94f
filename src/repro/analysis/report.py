"""Render experiment tables into the Markdown reproduction page.

``benchmarks/paper/run.py`` hands its in-memory tables and check verdicts to
:func:`write_report`, which writes the committed ``docs/results.md``; a
directory of ``<experiment id>.csv`` files renders through the same code.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

PathLike = Union[str, os.PathLike]

# The paper's experiments, in page order: experiment id -> section header.
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

_PREAMBLE = (
    "# AE-SZ reproduction results\n\n"
    "Generated by `python3 benchmarks/paper/run.py`; do not edit by hand. The\n"
    "numbers come from synthetic SDRBench-like fields and scaled-down networks\n"
    "(see [Substitutions](architecture.md#substitutions)), so they are compared\n"
    "with the paper by shape, not by value; ratios count the original at 4 bytes\n"
    "per value.\n")


def read_results_csv(path: PathLike) -> List[Dict[str, str]]:
    """Read one benchmark CSV into a list of row dicts (strings preserved)."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _markdown_table(rows: Sequence[Mapping], max_rows: Optional[int] = None) -> str:
    if not rows:
        return "_(empty)_"
    columns = list(rows[0].keys())
    shown = rows if max_rows is None else rows[:max_rows]
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in shown:
        cells = (row.get(c, "") for c in columns)
        lines.append("| " + " | ".join(format(v, ".5g") if isinstance(v, float) else str(v)
                                       for v in cells) + " |")
    if max_rows is not None and len(rows) > max_rows:
        lines.append(f"\n_... {len(rows) - max_rows} more rows in the CSV._")
    return "\n".join(lines)


def generate_report(results: Union[PathLike, Mapping[str, Sequence[Mapping]]],
                    checks: Sequence[Mapping] = (),
                    max_rows_per_table: Optional[int] = None) -> str:
    """Build the Markdown page: a leading "Checks" table when ``checks`` has
    rows, then one section per experiment present in ``results`` — an
    ``{experiment id: rows}`` mapping or a directory of ``<id>.csv`` files."""
    if not isinstance(results, Mapping):
        results_dir = Path(results)
        if not results_dir.is_dir():
            raise FileNotFoundError(f"results directory {results_dir} does not exist")
        results = {stem: read_results_csv(results_dir / f"{stem}.csv")
                   for stem in SECTION_TITLES if (results_dir / f"{stem}.csv").exists()}
        if not results:
            raise FileNotFoundError(f"no known benchmark CSVs found in {results_dir}")
    sections = [_PREAMBLE]
    if checks:
        sections += ["## Checks\n", _markdown_table(checks), ""]
    for stem, title in SECTION_TITLES.items():
        if stem in results:
            sections += [f"## {title}\n", _markdown_table(results[stem], max_rows_per_table), ""]
    return "\n".join(sections)


def write_report(results: Union[PathLike, Mapping[str, Sequence[Mapping]]],
                 output_path: PathLike, checks: Sequence[Mapping] = (),
                 max_rows_per_table: Optional[int] = None) -> Path:
    """Write the Markdown page to ``output_path`` and return the path."""
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    output_path.write_text(generate_report(results, checks, max_rows_per_table))
    return output_path
