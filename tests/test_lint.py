"""Every lint rule catches its violating fixture (right code, right line),
passes its clean twin, and the shipped tree lints clean."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Diagnostic, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[1]


def codes(diags):
    return [d.code for d in diags]


def one(diags, code):
    matching = [d for d in diags if d.code == code]
    assert len(matching) == 1, f"expected exactly one {code}, got {diags}"
    return matching[0]


# ---------------------------------------------------------------------------
# RPR001 — guarded-by lock discipline
# ---------------------------------------------------------------------------

class TestGuardedBy:
    def test_unlocked_attribute_access_is_flagged(self):
        source = textwrap.dedent("""\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded by: self._lock

                def bad(self):
                    return len(self._items)
            """)
        diag = one(lint_source(source), "RPR001")
        assert diag.line == 9
        assert "self._items" in diag.message and "self._lock" in diag.message

    def test_with_block_and_docstring_declaration_pass(self):
        source = textwrap.dedent("""\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded by: self._lock

                def locked(self):
                    with self._lock:
                        return len(self._items)

                def blessed(self):
                    \"\"\"Must hold ``self._lock``.\"\"\"
                    return len(self._items)
            """)
        assert lint_source(source) == []

    def test_init_is_exempt(self):
        source = textwrap.dedent("""\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded by: self._lock
                    self._items.append(1)
            """)
        assert lint_source(source) == []

    def test_nested_function_does_not_inherit_the_lock(self):
        source = textwrap.dedent("""\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded by: self._lock

                def spawn(self):
                    with self._lock:
                        def later():
                            return self._items
                        return later
            """)
        diag = one(lint_source(source), "RPR001")
        assert diag.line == 11

    def test_module_global_guard(self):
        source = textwrap.dedent("""\
            import threading

            _LOCK = threading.Lock()
            _TABLE = {}  # guarded by: _LOCK

            def bad():
                return _TABLE.get("x")

            def good():
                with _LOCK:
                    return _TABLE.get("x")
            """)
        diag = one(lint_source(source), "RPR001")
        assert diag.line == 7 and "_TABLE" in diag.message


# ---------------------------------------------------------------------------
# RPR002 — corrupt-input convention in parsing modules
# ---------------------------------------------------------------------------

PARSER_PATH = "src/repro/encoding/container.py"


class TestCorruptConvention:
    def test_escaping_struct_error_is_flagged(self):
        source = textwrap.dedent("""\
            import struct

            def parse_front(data):
                try:
                    return struct.unpack("<I", data[:4])
                except struct.error:
                    raise RuntimeError("bad")
            """)
        diag = one(lint_source(source, PARSER_PATH), "RPR002")
        assert diag.line == 6 and "struct.error" in diag.message

    def test_corrupt_valueerror_reraise_passes(self):
        source = textwrap.dedent("""\
            import struct

            def parse_front(data):
                try:
                    return struct.unpack("<I", data[:4])
                except (struct.error, KeyError) as exc:
                    raise ValueError(f"corrupt archive: {exc}") from None
            """)
        assert lint_source(source, PARSER_PATH) == []

    def test_rule_is_scoped_to_parsing_modules(self):
        source = textwrap.dedent("""\
            def parse_x(data):
                try:
                    return data[0]
                except KeyError:
                    return None
            """)
        assert codes(lint_source(source, "src/repro/cli.py")) == []
        assert codes(lint_source(source, PARSER_PATH)) == ["RPR002"]

    def test_non_parser_functions_are_not_constrained(self):
        source = textwrap.dedent("""\
            def helper(data):
                try:
                    return data[0]
                except KeyError:
                    return None
            """)
        assert lint_source(source, PARSER_PATH) == []


# ---------------------------------------------------------------------------
# RPR003 — bare except / silent except Exception
# ---------------------------------------------------------------------------

class TestExcepts:
    def test_bare_except(self):
        source = textwrap.dedent("""\
            def f():
                try:
                    return 1
                except:
                    return 2
            """)
        diag = one(lint_source(source), "RPR003")
        assert diag.line == 4

    def test_silent_except_exception(self):
        source = textwrap.dedent("""\
            def f():
                try:
                    return 1
                except Exception:
                    pass
            """)
        diag = one(lint_source(source), "RPR003")
        assert diag.line == 4

    def test_handled_broad_except_passes(self):
        source = textwrap.dedent("""\
            def f(log):
                try:
                    return 1
                except Exception as exc:
                    log.append(exc)
            """)
        assert lint_source(source) == []


# ---------------------------------------------------------------------------
# RPR004 — mutable default arguments
# ---------------------------------------------------------------------------

class TestMutableDefaults:
    def test_list_literal_default(self):
        diag = one(lint_source("def f(x=[]):\n    return x\n"), "RPR004")
        assert diag.line == 1 and "f()" in diag.message

    def test_dict_call_and_kwonly_defaults(self):
        source = "def f(*, table=dict()):\n    return table\n"
        assert codes(lint_source(source)) == ["RPR004"]

    def test_none_default_passes(self):
        assert lint_source("def f(x=None, y=(), z='s'):\n    return x\n") == []


# ---------------------------------------------------------------------------
# RPR005 — compressor registration
# ---------------------------------------------------------------------------

COMPRESSOR_PATH = "src/repro/compressors/fake.py"


class TestRegistryCompleteness:
    def test_unregistered_subclass_is_flagged(self):
        source = textwrap.dedent("""\
            from repro.compressors.base import Compressor

            class FakeCompressor(Compressor):
                pass
            """)
        diag = one(lint_source(source, COMPRESSOR_PATH), "RPR005")
        assert diag.line == 3 and "FakeCompressor" in diag.message

    def test_decorated_subclass_passes(self):
        source = textwrap.dedent("""\
            from repro.compressors.base import Compressor
            from repro.registry import register_compressor

            @register_compressor("fake")
            class FakeCompressor(Compressor):
                pass
            """)
        assert lint_source(source, COMPRESSOR_PATH) == []

    def test_module_level_call_with_cls_passes(self):
        source = textwrap.dedent("""\
            from repro.compressors.base import Compressor
            from repro.registry import register_compressor

            class FakeCompressor(Compressor):
                pass

            def _make(**opts):
                return FakeCompressor()

            register_compressor("fake", _make, cls=FakeCompressor)
            """)
        assert lint_source(source, COMPRESSOR_PATH) == []

    def test_abstract_and_private_intermediates_are_exempt(self):
        source = textwrap.dedent("""\
            import abc
            from repro.compressors.base import Compressor

            class _SharedCompressor(Compressor):
                pass

            class AbstractCompressor(Compressor, abc.ABC):
                pass
            """)
        assert lint_source(source, COMPRESSOR_PATH) == []

    def test_rule_is_scoped_to_compressors_dir(self):
        source = "class FooCompressor(Compressor):\n    pass\n"
        assert lint_source(source, "src/repro/core/aesz.py") == []


# ---------------------------------------------------------------------------
# RPR008 — the envelope-version decision stays behind container.py
# ---------------------------------------------------------------------------

STORE_PATH = "src/repro/store/fake.py"


class TestEnvelopeProbing:
    @pytest.mark.parametrize("probe", [
        "isinstance(entry.index, Archive)",
        "isinstance(x, (GridIndex, container.Archive))",
        "hasattr(header, 'grid_shape')",
        "getattr(self.index, 'offsets', None)",
    ])
    def test_probes_are_flagged(self, probe):
        source = f"def f(self, entry, header, x):\n    return {probe}\n"
        diag = one(lint_source(source, STORE_PATH), "RPR008")
        assert diag.line == 2 and "container.py" in diag.message

    def test_protocol_use_and_other_probes_pass(self):
        source = textwrap.dedent("""
            def f(index, handle, name):
                stats = getattr(handle, "stats", None)
                return index.n_tiles, getattr(index, name), isinstance(index, GridIndex)
        """)
        assert lint_source(source, STORE_PATH) == []

    def test_container_module_is_exempt(self):
        source = "def f(x):\n    return isinstance(x, Archive)\n"
        assert lint_source(source, "src/repro/encoding/container.py") == []


# ---------------------------------------------------------------------------
# RPR006 — import hygiene (project rule, needs a real tree)
# ---------------------------------------------------------------------------

def _write_tree(root: Path, files: dict) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return root


class TestImportHygiene:
    def test_reachable_top_level_http_import_is_flagged(self, tmp_path):
        _write_tree(tmp_path, {
            "mypkg/__init__.py": "from mypkg import web\n",
            "mypkg/registry.py": "",
            "mypkg/api.py": "",
            "mypkg/web.py": "import http.server\n",
        })
        diags = lint_paths([tmp_path])
        diag = one(diags, "RPR006")
        assert diag.line == 1
        assert diag.path.endswith("web.py") and "http.server" in diag.message

    def test_lazy_and_unreachable_imports_pass(self, tmp_path):
        _write_tree(tmp_path, {
            "mypkg/__init__.py": "from mypkg import core\n",
            "mypkg/registry.py": "",
            "mypkg/api.py": "",
            "mypkg/core.py": """\
                def serve():
                    import http.server
                    return http.server
            """,
            # web.py imports http.server at top level but nothing reachable
            # imports web (the lazy-__getattr__ pattern repro.store uses).
            "mypkg/web.py": "import socketserver\n",
        })
        assert codes(lint_paths([tmp_path])) == []

    def test_from_http_import_server_is_caught(self, tmp_path):
        _write_tree(tmp_path, {
            "mypkg/__init__.py": "from mypkg.web import helper\n",
            "mypkg/registry.py": "",
            "mypkg/api.py": "",
            "mypkg/web.py": "from http import server\n\ndef helper():\n    return server\n",
        })
        assert codes(lint_paths([tmp_path])) == ["RPR006"]


# ---------------------------------------------------------------------------
# RPR007 — __all__ is documented (project rule)
# ---------------------------------------------------------------------------

class TestAllDocumented:
    def _tree(self, tmp_path, docs_text):
        return _write_tree(tmp_path, {
            "src/mypkg/__init__.py": """\
                __all__ = [
                    "documented",
                    "missing",
                ]
            """,
            "src/mypkg/registry.py": "",
            "src/mypkg/api.py": "",
            "docs/api.md": docs_text,
        })

    def test_undocumented_name_is_flagged(self, tmp_path):
        root = self._tree(tmp_path, "# API\n\n`documented` does things.\n")
        diag = one(lint_paths([root / "src"]), "RPR007")
        assert "'missing'" in diag.message
        assert diag.line == 3  # the "missing" element's own line

    def test_fully_documented_all_passes(self, tmp_path):
        root = self._tree(tmp_path, "# API\n\n`documented` and `missing`.\n")
        assert codes(lint_paths([root / "src"])) == []

    def test_missing_docs_file_is_its_own_finding(self, tmp_path):
        root = _write_tree(tmp_path, {
            "deep/nest/src/mypkg/__init__.py": '__all__ = ["x"]\n',
            "deep/nest/src/mypkg/registry.py": "",
            "deep/nest/src/mypkg/api.py": "",
        })
        diag = one(lint_paths([root / "deep"]), "RPR007")
        assert "api.md not found" in diag.message


# ---------------------------------------------------------------------------
# Runner / CLI / self-check
# ---------------------------------------------------------------------------

class TestRunner:
    def test_syntax_error_is_a_diagnostic(self):
        diags = lint_source("def broken(:\n")
        assert codes(diags) == ["RPR000"]

    def test_diagnostics_sort_and_format(self):
        diag = Diagnostic("p.py", 3, 1, "RPR004", "msg")
        assert diag.format() == "p.py:3:1: RPR004 msg"
        assert sorted([Diagnostic("p.py", 9, 0, "RPR003", "b"), diag])[0] is diag

    def test_shipped_tree_lints_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_seeded_violation_fails_the_run(self, tmp_path):
        bad = tmp_path / "seeded.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad)],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        assert "RPR004" in proc.stdout
        assert "1 finding(s)" in proc.stderr

    def test_cli_subcommand(self, tmp_path):
        from repro.cli import main

        clean = tmp_path / "clean.py"
        clean.write_text("def f(x=None):\n    return x\n")
        assert main(["lint", str(clean)]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(bad)]) == 1

    def test_list_rules(self, capsys):
        from repro.lint import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                     "RPR006", "RPR007", "RPR008"):
            assert code in out


def test_typing_baseline_is_clean():
    """mypy over the gated modules (mypy.ini) stays clean.

    mypy is not a runtime dependency; this runs wherever it is installed
    (CI installs it) and skips elsewhere.
    """
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
