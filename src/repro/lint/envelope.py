"""RPR008 — the envelope-version decision stays behind ``encoding/container.py``.

Every parsed header (v1 ``Archive``, v2 ``ChunkedIndex``, v3 ``GridIndex``)
exposes one tile protocol, so package code never needs to ask which version
it holds.  Flags, anywhere in the package but the container module, an
``isinstance`` test against ``Archive`` and ``hasattr`` / ``getattr``-with-
default probing of an ``index`` / ``header`` object — the shapes that decision
leaks out in.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.core import Diagnostic, FileContext

CODE = "RPR008"

_HOME = "repro/encoding/container.py"
_PROBED = {"index", "header"}


def _names(node: ast.expr) -> List[str]:
    """Terminal identifiers of ``x`` / ``a.x`` / ``(x, b.y)``."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    return [node.attr] if isinstance(node, ast.Attribute) else []


def _probes_version(call: ast.Call) -> bool:
    func = call.func.id if isinstance(call.func, ast.Name) else ""
    if func == "isinstance" and len(call.args) == 2:
        return "Archive" in _names(call.args[1])
    if (func == "hasattr" and len(call.args) == 2
            or func == "getattr" and len(call.args) == 3):
        return bool(_PROBED.intersection(_names(call.args[0])))
    return False


def check(ctx: FileContext) -> List[Diagnostic]:
    if "repro/" not in ctx.posix or ctx.posix.endswith(_HOME):
        return []
    return [ctx.diag(node, CODE,
                     f"{node.func.id}() probes which envelope version an "
                     f"archive header is; use the tile protocol (n_tiles, "
                     f"tile_slices, region_tiles, ...) or move the decision "
                     f"into {_HOME}")
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call) and _probes_version(node)]
