"""Smoke runs of the experiment scripts, so an API change cannot break them unseen."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_alpha_sweep_runs(capsys):
    assert _load("alpha_sweep").main(["--alpha-count", "2", "--iters", "5"]) == 0
    assert "sweeping alpha" in capsys.readouterr().out


def test_spectrum_evolution_writes_csv(tmp_path):
    out = tmp_path / "spectra.csv"
    code = _load("spectrum_evolution").main(["--iters", "10", "--every", "5", "--out", str(out)])
    assert code == 0
    assert out.is_file()
