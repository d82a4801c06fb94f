"""No code in ``src/`` whose only caller is its own unit test.

Every public top-level function or class under ``src/repro`` (the lint
package aside — it is a tool, driven by its CLI and ``tests/test_lint.py``)
must be *used*: referenced from ``src/`` beyond its own definition and beyond
package re-exports (``from x import name`` in an ``__init__`` and ``__all__``
strings are re-exports, not uses), or named in ``benchmarks/``, ``examples/``,
``README.md`` or ``docs/``.  A name only ``tests/`` mentions is test-only code
and belongs on the short allow-list below with its reason, or nowhere.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"

_REFERENCE = "nn/gradcheck.py is the oracle the layer gradient checks compare against"
_PENDING = ("test-only today; the tests that pin it are on the protected floor, of "
            "which one PR may retire only a few — delete it together with them")

#: Names allowed to have no caller outside ``tests/``, each with its reason.
ALLOWED = {
    "check_layer_gradients": _REFERENCE,
    **dict.fromkeys((
        "BitReader", "BitWriter", "Timer", "throughput_mb_s", "parallel_map",
        "MeanPredictor", "LorenzoPredictor", "LinearQuantizer",
        "second_order_lorenzo_predict", "default_error_bounds",
        "write_csv", "save_series_csv", "save_f64", "load_f64",
        "Sigmoid", "Identity", "BatchNorm", "L1Loss", "SGD",
        "save_module", "load_module_state", "guard_specs"), _PENDING),
}


def _modules():
    return [p for p in sorted(PACKAGE.rglob("*.py")) if "lint" not in p.relative_to(PACKAGE).parts]


def _public_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _uses(path, tree):
    """Identifiers ``path`` uses: loaded names, attribute names, and (outside
    ``__init__`` re-export modules) the names its ``from`` imports bind."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            used.update(alias.name for alias in node.names)
    return used


def _text_mentions():
    texts = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
             *sorted((REPO / "benchmarks").rglob("*.py")),
             *sorted((REPO / "examples").glob("*.py"))]
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                          "\n".join(p.read_text(encoding="utf-8") for p in texts)))


def find_orphans():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _modules()}
    uses = {path: _uses(path, tree) for path, tree in trees.items()}
    mentioned = _text_mentions()
    orphans = []
    for path, tree in trees.items():
        for name in _public_definitions(tree):
            if name in mentioned or any(name in used for used in uses.values()):
                continue
            orphans.append(f"{path.relative_to(REPO)}::{name}")
    return orphans


def test_every_public_name_has_a_caller_outside_tests():
    orphans = [o for o in find_orphans() if o.split("::")[1] not in ALLOWED]
    assert not orphans, (
        "public names with no caller outside tests/ (delete them with their "
        "tests, or use them):\n  " + "\n  ".join(orphans))


def test_allow_list_is_not_stale():
    orphaned = {o.split("::")[1] for o in find_orphans()}
    stale = sorted(set(ALLOWED) - orphaned)
    assert not stale, f"allow-listed names that now have callers (or are gone): {stale}"
