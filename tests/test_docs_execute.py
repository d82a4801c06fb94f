"""Execute every fenced ``python`` block in README.md and docs/*.md.

Documentation snippets rot silently; this harness makes them part of the
test suite.  For each markdown file, all of its fenced ``python`` blocks are
concatenated (in order — later blocks may use names from earlier ones, like
a reader following the page top to bottom) and run in one fresh subprocess
with the in-tree ``src/`` on ``PYTHONPATH`` and a temporary working
directory, so snippets that write scratch files (``field.npy``,
``grid.rpra``) stay isolated and snippets that register demo codecs cannot
pollute this test process's registry.

Snippets must therefore be self-contained per file: build their own (tiny)
synthetic fields, assert what they claim.  Non-runnable material belongs in
```text / ```bash fences, which are ignored here.
"""

from __future__ import annotations

import ast
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DOC_FILES = sorted(
    [ROOT / "README.md"] + list((ROOT / "docs").glob("*.md")),
    key=lambda p: p.name,
)

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)


def _blocks(path: Path) -> list:
    return _PYTHON_BLOCK.findall(path.read_text())


@pytest.mark.parametrize("doc", DOC_FILES, ids=[p.name for p in DOC_FILES])
def test_doc_python_blocks_execute(doc, tmp_path, monkeypatch):
    blocks = _blocks(doc)
    if not blocks:
        pytest.skip(f"{doc.name} has no fenced python blocks")
    code = "\n\n".join(blocks)
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"a fenced python block in {doc.name} failed to execute "
        f"(docs are part of the contract — fix the snippet or the code):\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
    )


def test_every_doc_page_is_covered():
    """New doc pages are picked up automatically; README must have snippets."""
    names = {p.name for p in DOC_FILES}
    assert {"README.md", "api.md", "format.md", "architecture.md"} <= names
    assert _blocks(ROOT / "README.md"), "README.md lost its runnable quickstart"


def _docstrings_and_comments(path: Path) -> str:
    source = path.read_text(encoding="utf-8")
    docstrings = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))]
    comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    return "\n".join(docstrings + comments)


def test_every_markdown_file_the_code_cites_exists():
    """A docstring or comment that defers to ``SOMETHING.md`` must name a file
    in the repository (by its path from the root, or by its name in docs/)."""
    missing = []
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "benchmarks" / "paper").glob("*.py")]):
        for name in re.findall(r"[\w./-]*\w\.md\b", _docstrings_and_comments(path)):
            if not ((ROOT / name).is_file() or (ROOT / "docs" / name).is_file()):
                missing.append(f"{path.relative_to(ROOT)}: {name}")
    assert not missing, "cited markdown files that do not exist:\n  " + "\n  ".join(missing)
