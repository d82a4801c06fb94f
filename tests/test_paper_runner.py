"""The paper-experiment runner: one table, one entry point, one page."""

import pytest

from benchmarks.paper import experiments, run
from repro.analysis import ModelCache
from repro.analysis.experiments import TrainingBudget
from repro.analysis.report import SECTION_TITLES

TINY = TrainingBudget(epochs=1, max_blocks=48, train_snapshot_limit=1)


def test_experiment_ids_are_the_report_sections_in_order():
    assert [exp.id for exp in experiments.EXPERIMENTS] == list(SECTION_TITLES)
    assert all(exp.claim and "\n" not in exp.claim for exp in experiments.EXPERIMENTS)


def test_unknown_only_id_exits_2_and_names_the_choices(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run.main(["--only", "fig12_nope"], page=tmp_path / "results.md")
    assert info.value.code == 2
    assert "fig11_predictor_ablation" in capsys.readouterr().err


def test_one_experiment_end_to_end_and_twice_the_same_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "model_cache",
                        lambda **budget: ModelCache(tmp_path / "models", TINY))
    monkeypatch.setattr(experiments, "EXPERIMENTS", [
        exp for exp in experiments.EXPERIMENTS if exp.id == "fig8_rate_distortion"])
    monkeypatch.setattr(experiments, "F8_FIELDS", ["CESM-CLDHGH"])
    monkeypatch.setitem(experiments.SHAPES, "CESM-CLDHGH", (64, 96))
    page = tmp_path / "results.md"
    status = run.main([], page=page)
    text = page.read_text()
    assert text.count("\n## ") == 2  # Checks + the one experiment that ran
    assert text.index("## Checks") < text.index(f"## {SECTION_TITLES['fig8_rate_distortion']}")
    assert "| fig8_rate_distortion | every error-bounded compressor honours its bound" in text
    assert "0 violations of 20 points | holds |" in text
    assert "| CESM-CLDHGH | AE-A | 0.001 |" in text
    assert status == int("| FAILS |" in text)
    assert SECTION_TITLES["fig8_rate_distortion"] in capsys.readouterr().out
    # Nothing run-dependent reaches the page: no paths, no timings (the sweep
    # records compress_seconds), floats at fixed precision — and the cached
    # models of the second run predict exactly like the freshly trained ones.
    assert str(tmp_path) not in text and "seconds" not in text
    run.main([], page=page)
    assert page.read_text() == text
