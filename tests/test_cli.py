"""Command-line front end: artifacts, reproducibility, config files, errors."""

import csv
import dataclasses
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sketchycgm import FactoredMatrix, SyntheticCompletionSpec, SyntheticPhaseSpec, init_state
from sketchycgm import cli
from sketchycgm.cli import _build_solve_problem, build_parser, main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, out


def _last_json(lines):
    return json.loads(lines[-1])


SUMMARY_KEYS = {"gap", "objective", "iters", "peak_scalars", "lmo_products", "metrics"}


def test_solve_phase_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, lines = _run(
        capsys,
        [
            "solve", "--problem", "phase", "--n", "16", "--views", "6",
            "--eps", "0.1", "--max-iters", "400", "--seed", "3",
            "--out", out,
        ],
    )
    assert code == 0
    summary = _last_json(lines)
    assert set(summary) == SUMMARY_KEYS
    assert summary["gap"] <= 0.1
    assert summary["iters"] < 400
    assert summary["peak_scalars"] > 0
    for name in ("trace.csv", "summary.json", "U.csv", "S.csv", "V.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh) == summary
    with open(os.path.join(out, "trace.csv")) as fh:
        header = fh.readline().strip()
    assert header.startswith("t,eta,gap,objective,wall_ms")
    with open(os.path.join(out, "trace.csv")) as fh:
        rows = list(csv.reader(fh))
    # the oracle's operator products per record follow the fixed prefix
    assert rows[0][5] == "lmo_products"
    assert all(int(row[5]) > 0 for row in rows[1:])
    # the summary carries the run's total
    assert summary["lmo_products"] == sum(int(row[5]) for row in rows[1:])


def test_solve_is_reproducible(tmp_path, capsys):
    argv = [
        "solve", "--problem", "completion", "--m", "12", "--n", "9",
        "--true-rank", "2", "--obs-fraction", "0.6", "--eps", "1e-300",
        "--max-iters", "40", "--seed", "5",
    ]
    code1, lines1 = _run(capsys, argv + ["--out", str(tmp_path / "a")])
    code2, lines2 = _run(capsys, argv + ["--out", str(tmp_path / "b")])
    assert code1 == code2 == 0
    assert _last_json(lines1) == _last_json(lines2)
    # factor files are written with full precision and must match bitwise
    assert (tmp_path / "a" / "U.csv").read_bytes() == (tmp_path / "b" / "U.csv").read_bytes()


def test_solve_without_out_prints_only(capsys):
    code, lines = _run(
        capsys,
        ["solve", "--problem", "phase", "--n", "8", "--views", "4",
         "--eps", "1e-4", "--max-iters", "100", "--seed", "0"],
    )
    assert code == 0
    assert set(_last_json(lines)) == SUMMARY_KEYS


def test_solve_phase_metrics_present(tmp_path, capsys):
    code, lines = _run(
        capsys,
        ["solve", "--problem", "phase", "--n", "16", "--views", "8",
         "--eps", "1e-8", "--max-iters", "150", "--seed", "1",
         "--trace-every", "50"],
    )
    assert code == 0
    metrics = _last_json(lines)["metrics"]
    assert set(metrics) == {"phase_aligned_error", "psnr_db"}, metrics
    assert all(np.isfinite(value) for value in metrics.values()), metrics


def test_config_file_expansion_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8\nviews = 4\neps = 1e-3\nmax-iters = 60\nseed = 2\n")
    code1, lines1 = _run(
        capsys, ["solve", "--problem", "phase", "--config", str(cfg)]
    )
    assert code1 == 0
    # explicit flag must beat the config value
    code2, lines2 = _run(
        capsys,
        ["solve", "--problem", "phase", "--config", str(cfg), "--max-iters", "0"],
    )
    assert code2 == 0
    assert _last_json(lines2)["iters"] == 0


@pytest.mark.parametrize("nested", [False, True])
def test_second_config_is_refused(tmp_path, capsys, nested):
    # only the splice reads --config, so a second one, given as a flag or
    # as a config line, is an unknown argument rather than silently dropped
    first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
    second.write_text("max-iters = 0\n")
    argv = ["solve", "--problem", "phase", "--n", "16", "--views", "4", "--config", str(first)]
    if nested:
        first.write_text(f"max-iters = 2\nconfig = {second}\n")
    else:
        first.write_text("max-iters = 2\n")
        argv += ["--config", str(second)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_config_value_false_is_passed_on(tmp_path, capsys):
    # every line becomes --key value, so a non-numeric alpha is refused
    # instead of being dropped in favour of the generated one
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8\nviews = 4\nmax-iters = 5\nalpha = false\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "phase", "--config", str(cfg)])
    assert exc.value.code != 0


def test_error_payload_on_bad_argument(capsys):
    code, lines = _run(
        capsys,
        ["solve", "--problem", "completion", "--m", "6", "--n", "5",
         "--true-rank", "2", "--alpha", "-1.0"],
    )
    assert code == 2
    payload = _last_json(lines)
    assert set(payload) >= {"error", "message"}


def test_rank_above_min_dim_is_refused_by_name(capsys):
    code, lines = _run(
        capsys,
        ["solve", "--problem", "completion", "--m", "6", "--n", "5",
         "--true-rank", "2", "--rank", "9"],
    )
    assert code == 2
    payload = _last_json(lines)
    assert payload["error"] == "ValueError"
    assert "rank 9" in payload["message"] and "[1, 5]" in payload["message"]


def test_variant_override_is_validated(capsys):
    # --alpha goes to the generator with the other settings, and ProblemSpec refuses it
    code, lines = _run(
        capsys,
        ["solve", "--problem", "phase", "--n", "8", "--views", "4", "--alpha", "-1"],
    )
    assert code == 2
    assert _last_json(lines)["error"] == "ValueError"


def test_infinite_spectral_tol_is_rejected(capsys):
    # with tol = inf every convergence check would pass at once
    code, lines = _run(
        capsys,
        ["solve", "--problem", "phase", "--n", "8", "--views", "4", "--spectral-tol", "inf"],
    )
    assert code == 2
    payload = _last_json(lines)
    assert payload["error"] == "ValueError"
    assert "tol must be positive and finite" in payload["message"]


def test_variant_flag_is_gone():
    # the poisson variant follows --loss; there is no flag to mismatch them
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--problem", "phase", "--variant", "poisson"])


def test_template_flag_is_gone():
    # the problem fixes the template: psd for phase, schatten1 otherwise
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--problem", "completion", "--template", "psd"])


@pytest.mark.parametrize("loss", ["poisson", "logistic"])
def test_synthetic_completion_rejects_losses_its_values_do_not_fit(capsys, loss):
    code, lines = _run(
        capsys, ["solve", "--problem", "completion", "--m", "6", "--n", "5", "--loss", loss]
    )
    assert code == 2
    payload = _last_json(lines)
    assert payload["error"] == "ValueError"
    assert "gauss and huber" in payload["message"]


def test_file_problem_with_logistic_loss_binarizes_above_threshold(tmp_path):
    data = tmp_path / "ratings.txt"
    data.write_text("1 1 4.0\n2 2 3.5\n3 3 3.6\n")
    args = build_parser().parse_args(
        ["solve", "--problem", "file", "--data", str(data), "--loss", "logistic",
         "--alpha", "1"]
    )
    prob, _ = _build_solve_problem(args)
    # strictly above 3.5 maps to +1
    np.testing.assert_array_equal(prob.loss.b, [1.0, -1.0, 1.0])


def test_alpha_mode_flag_is_gone():
    # the data's mean is no trace-norm scale, so a file problem takes --alpha only
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            ["solve", "--problem", "file", "--data", "ratings.txt", "--alpha-mode", "mean-b"]
        )
    assert exc.value.code == 2


def test_file_problem_without_alpha_names_alpha(tmp_path, capsys):
    data = tmp_path / "ratings.txt"
    data.write_text("1 1 1.0\n1 2 2.0\n2 1 4.0\n2 2 1.5\n")
    code, lines = _run(capsys, ["solve", "--problem", "file", "--data", str(data)])
    assert code == 2
    payload = _last_json(lines)
    assert payload["error"] == "ValueError"
    assert re.findall(r"--[\w-]+", payload["message"]) == ["--alpha"], payload["message"]


def test_completion_rank_defaults_to_true_rank(tmp_path, capsys):
    out = tmp_path / "mc"
    code, _ = _run(
        capsys,
        ["solve", "--problem", "completion", "--m", "30", "--n", "20",
         "--true-rank", "2", "--max-iters", "20", "--out", str(out)],
    )
    assert code == 0
    assert FactoredMatrix.load(out).rank == 2


def test_file_problem_with_poisson_loss_starts_positive(tmp_path):
    data = tmp_path / "counts.txt"
    data.write_text("1 1 3\n1 2 0\n2 1 5\n3 2 1\n")
    args = build_parser().parse_args(
        ["solve", "--problem", "file", "--data", str(data), "--loss", "poisson",
         "--alpha", "1"]
    )
    prob, _ = _build_solve_problem(args)
    assert prob.variant == "poisson"
    np.testing.assert_array_equal(init_state(prob).z, np.full(4, 0.5))


def _readme_commands():
    """Each sketchycgm command line in the README's code blocks, one loop value per variable."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        block = block.replace("\\\n", " ")
        loops = dict(re.findall(r"for (\w+) in (\S+)", block))
        for line in block.splitlines():
            line = line.split("#")[0].strip()
            if line.startswith("sketchycgm "):
                line = re.sub(r"\$(\w+)", lambda m: loops[m.group(1)], line)
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_peak_scalars_independent_of_trace_every(capsys):
    # held-out evaluation at every record is not solver state
    argv = ["solve", "--problem", "completion", "--m", "60", "--n", "40",
            "--max-iters", "100"]
    peaks = []
    for every in ("1", "100"):
        code, lines = _run(capsys, argv + ["--trace-every", every])
        assert code == 0
        peaks.append(_last_json(lines)["peak_scalars"])
    assert peaks[0] == peaks[1]


def test_error_payload_reports_parse_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 2.0\n3 x 1.0\n")
    code, lines = _run(
        capsys, ["solve", "--problem", "file", "--data", str(bad), "--alpha", "1.0"]
    )
    assert code == 2
    payload = _last_json(lines)
    assert payload["error"] == "ParseError"
    assert payload["line"] == 2


def test_gen_phase_then_inspect(tmp_path, capsys):
    out = tmp_path / "gen"
    code, lines = _run(
        capsys,
        ["gen", "--problem", "phase", "--n", "8", "--views", "4",
         "--seed", "7", "--out", str(out)],
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["d"] == 32
    x = np.loadtxt(out / "x_true.csv", delimiter=",", skiprows=1)
    assert x.shape == (8, 2)
    b = np.loadtxt(out / "b.csv", skiprows=1)
    assert b.size == 32


def test_gen_completion_then_solve_from_file(tmp_path, capsys):
    out = tmp_path / "data"
    code, _ = _run(
        capsys,
        ["gen", "--problem", "completion", "--m", "12", "--n", "9",
         "--true-rank", "2", "--obs-fraction", "0.7", "--seed", "4",
         "--out", str(out)],
    )
    assert code == 0
    assert (out / "train.txt").exists() and (out / "test.txt").exists()
    code, lines = _run(
        capsys,
        ["solve", "--problem", "file", "--data", str(out / "train.txt"),
         "--m", "12", "--n", "9", "--alpha", "6.0", "--rank", "2",
         "--eps", "1e-300", "--max-iters", "30"],
    )
    assert code == 0
    assert _last_json(lines)["iters"] == 30


def test_gen_completion_needs_m_and_n(tmp_path, capsys):
    # gen and solve read --m and --n by one rule
    out = tmp_path / "data"
    code, lines = _run(capsys, ["gen", "--problem", "completion", "--out", str(out)])
    assert code == 2
    payload = _last_json(lines)
    assert payload["error"] == "ValueError"
    assert "--m" in payload["message"] and "--n" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["--problem", "phase", "--n", "8", "--views", "3", "--noise", "gaussian",
             "--snr-db", "15", "--seed", "7"],
            SyntheticPhaseSpec(n=8, views=3, noise_kind="gaussian", snr_db=15.0, seed=7),
        ),
        (
            ["--problem", "completion", "--m", "12", "--n", "9", "--true-rank", "3",
             "--obs-fraction", "0.7", "--noise-std", "0.05", "--test-fraction", "0.3",
             "--seed", "4"],
            SyntheticCompletionSpec(m=12, n=9, true_rank=3, obs_fraction=0.7, noise=0.05,
                                    test_fraction=0.3, seed=4),
        ),
    ],
    ids=["phase", "completion"],
)
def test_gen_meta_rebuilds_the_spec(tmp_path, capsys, argv, expected):
    out = tmp_path / "gen"
    code, lines = _run(capsys, ["gen", *argv, "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert _last_json(lines) == meta
    fields = [f.name for f in dataclasses.fields(expected)]
    assert set(meta) == {"problem", "alpha", "d", *fields}
    assert meta["problem"] == argv[1]
    assert type(expected)(**{f: meta[f] for f in fields}) == expected


def test_sketch_test_subcommand(tmp_path, capsys):
    out = tmp_path / "sk"
    code, lines = _run(
        capsys,
        ["sketch-test", "--m", "60", "--n", "45", "--ranks", "1,3",
         "--trials", "5", "--tail-trials", "10", "--out", str(out)],
    )
    assert code == 0
    text = "\n".join(lines)
    assert "rank_exact: PASS" in text
    assert "tail_bound: PASS" in text
    report = json.loads((out / "sketch_report.json").read_text())
    assert report["rank_exact"]["pass"] and report["tail_bound"]["pass"]


@pytest.mark.parametrize("failing", ["sketch_rank_exact_suite", "sketch_tail_suite"])
def test_sketch_test_exits_1_when_a_suite_fails(monkeypatch, capsys, failing):
    suite = getattr(cli, failing)
    monkeypatch.setattr(cli, failing, lambda *a, **k: {**suite(*a, **k), "pass": False})
    code, lines = _run(
        capsys,
        ["sketch-test", "--m", "20", "--n", "15", "--ranks", "1", "--trials", "2",
         "--tail-trials", "2"],
    )
    assert code == 1
    assert sum("FAIL" in line for line in lines) == 1


def test_bench_memory_subcommand(tmp_path, capsys):
    out = tmp_path / "bench"
    code, lines = _run(
        capsys,
        ["bench-memory", "--n-values", "64,128", "--views", "4",
         "--iters", "2", "--out", str(out)],
    )
    assert code == 0
    rows = (out / "bench.csv").read_text().splitlines()
    assert rows[0] == "n,sketchycgm_peak_scalars,dense_cgm_peak_scalars"
    assert len(rows) == 3
    n0 = rows[1].split(",")
    assert int(n0[0]) == 64 and int(n0[1]) > 0


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
