"""Smoke runs of the experiment scripts, so an API change cannot break them unseen."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_alpha_sweep_runs(capsys):
    assert _load("alpha_sweep").main(["--alpha-count", "2", "--iters", "5"]) == 0
    assert "sweeping alpha" in capsys.readouterr().out


def test_alpha_sweep_covers_held_out_rows_absent_from_training(tmp_path, capsys):
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    train.write_text("1 1 1.0\n1 2 2.0\n2 1 0.5\n3 2 1.5\n")
    # row 4 holds no training entry
    test.write_text("2 2 1.0\n4 1 0.5\n")
    argv = ["--data", str(train), "--test-data", str(test), "--rank", "1",
            "--alpha-count", "2", "--iters", "5"]
    assert _load("alpha_sweep").main(argv) == 0
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert len(rows) == 2 and "nan" not in " ".join(rows)


def test_alpha_sweep_rejects_held_out_entries_that_are_training_entries(tmp_path):
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    train.write_text("1 1 1.0\n1 2 2.0\n2 1 0.5\n3 2 1.5\n")
    # (1, 1) is a training entry
    test.write_text("1 1 1.0\n2 2 0.5\n")
    argv = ["--data", str(train), "--test-data", str(test), "--rank", "1",
            "--alpha-count", "2", "--iters", "5"]
    with pytest.raises(ValueError, match="overlap the training set"):
        _load("alpha_sweep").main(argv)


def test_spectrum_evolution_writes_csv(tmp_path):
    out = tmp_path / "spectra.csv"
    code = _load("spectrum_evolution").main(["--iters", "10", "--every", "5", "--out", str(out)])
    assert code == 0
    assert out.is_file()
