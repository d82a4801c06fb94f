"""Collect files, dispatch the rules, format the report."""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.lint import (corrupt, defaults, docs_rule, envelope, excepts,
                        guarded, imports, registry_rule)
from repro.lint.core import Diagnostic, FileContext, parse_file

#: (code, one-line summary, check) — per-file rules, fed a FileContext.
FILE_RULES = (
    ("RPR001", "guarded-by lock discipline", guarded.check),
    ("RPR002", "parsers re-raise ValueError('corrupt ...')", corrupt.check),
    ("RPR003", "no bare except / silent except Exception", excepts.check),
    ("RPR004", "no mutable default arguments", defaults.check),
    ("RPR005", "compressors are registered", registry_rule.check),
    ("RPR008", "envelope version stays behind container.py", envelope.check),
)

#: (code, one-line summary, check) — project rules, fed the package root.
PROJECT_RULES = (
    ("RPR006", "no http.server/socketserver on the import path", imports.check),
    ("RPR007", "repro.__all__ is documented in docs/api.md", docs_rule.check),
)


def lint_source(source: str, path: str = "<snippet>") -> List[Diagnostic]:
    """Run every per-file rule over ``source`` (as if it lived at ``path``).

    ``path`` matters: the scoped rules (RPR002's parsing modules, RPR005's
    ``compressors/``) key off it.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Diagnostic(path, exc.lineno or 1, 0, "RPR000",
                           f"syntax error: {exc.msg}")]
    ctx = FileContext(path, source, tree)
    diags: List[Diagnostic] = []
    for _code, _summary, rule in FILE_RULES:
        diags.extend(rule(ctx))
    return sorted(diags)


def _collect_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files


def _package_root(file: Path) -> Optional[Path]:
    """The repro-shaped package dir, when ``file`` is its ``__init__.py``."""
    if (file.name == "__init__.py"
            and (file.parent / "registry.py").is_file()
            and (file.parent / "api.py").is_file()):
        return file.parent
    return None


def lint_paths(paths: Sequence) -> List[Diagnostic]:
    """Lint files/directories; project rules run once per package root found."""
    diags: List[Diagnostic] = []
    roots: List[Path] = []
    for file in _collect_files(Path(p) for p in paths):
        ctx, parse_diags = parse_file(file)
        diags.extend(parse_diags)
        if ctx is not None:
            for _code, _summary, rule in FILE_RULES:
                diags.extend(rule(ctx))
        root = _package_root(file)
        if root is not None and root not in roots:
            roots.append(root)
    for root in roots:
        for _code, _summary, rule in PROJECT_RULES:
            diags.extend(rule(root))
    return sorted(diags)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Project-invariant static analysis for the repro codebase "
                    "(RPR001..RPR008). Exits 1 when findings exist.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the "
                             "installed repro package)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for code, summary, _rule in FILE_RULES + PROJECT_RULES:
            print(f"{code}  {summary}")
        return 0
    paths = args.paths or [str(Path(__file__).resolve().parent.parent)]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        for p in missing:
            print(f"repro.lint: no such file or directory: {p}", file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    for diagnostic in findings:
        print(diagnostic.format())
    if findings:
        print(f"repro.lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
