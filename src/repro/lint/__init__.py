"""Project-invariant static analysis for the repro codebase.

Run it as ``python -m repro.lint [paths]`` (or ``python -m repro lint``);
it prints ``path:line:col: CODE message`` diagnostics and exits nonzero when
any are found.  The rules encode this project's own invariants — the ones
that used to live only in comments and review memory:

========  ===============================================================
RPR001    ``# guarded by:`` lock-discipline annotations are honored
RPR002    parsers re-raise stdlib decode errors as ``ValueError("corrupt ...")``
RPR003    no bare ``except:`` / silent ``except Exception: pass``
RPR004    no mutable default arguments
RPR005    every concrete ``Compressor`` in ``compressors/`` is registered
RPR006    ``http.server``/``socketserver`` stay off the ``import repro`` path
RPR007    every ``repro.__all__`` name appears in ``docs/api.md``
RPR008    no probing of an archive header's envelope version outside ``container.py``
========  ===============================================================

See ``docs/quality.md`` for the full rule descriptions and the matching
runtime sanitizer (``REPRO_SANITIZE=1``, :mod:`repro.utils.concurrency`).
"""

from repro.lint.core import Diagnostic
from repro.lint.runner import (FILE_RULES, PROJECT_RULES, lint_paths,
                               lint_source, main)

__all__ = ["Diagnostic", "FILE_RULES", "PROJECT_RULES", "lint_paths",
           "lint_source", "main"]
