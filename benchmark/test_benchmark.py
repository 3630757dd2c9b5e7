"""The benchmark checked on toy instances: metric names, correctness checks, tracing.

    PYTHONPATH=src python -m pytest -q benchmark
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import harness
import sketchycgm.solver
import tracing
from sketchycgm import solve
from workloads import WORKLOADS, check, completion_workload, phase_workload

TOYS = [
    phase_workload("toy-phase", n=16, noise_kind="poisson", loss_kind="poisson",
                   iterations=20, ceiling=0.9),
    completion_workload("toy-completion", m=30, n=20, rank=2, iterations=30, ceiling=0.9,
                        obs_fraction=0.5, test_fraction=0.2),
]

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("toy", TOYS, ids=lambda w: w.name)
def test_every_metric_present_with_its_unit(toy):
    for result, units in (
        (harness.measure(toy, seed=3, seconds=0), harness.END_TO_END_UNITS),
        (harness.measure_traced(toy, seed=3, seconds=0)[0], harness.PER_LAYER_UNITS),
    ):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("toy", TOYS, ids=lambda w: w.name)
def test_checks_reject_a_corrupted_result(toy):
    inst = toy.generate(3)
    factors, trace = solve(inst.prob, trace_every=inst.trace_every, eval_fn=inst.eval_fn)
    err = inst.score(factors)
    assert check(toy, factors, trace, err) == []

    assert check(toy, factors, trace[:-1], err)
    assert check(toy, factors, trace, toy.ceiling)
    assert check(toy, factors, trace, float("nan"))
    trace[-1].gap = float("inf")
    assert check(toy, factors, trace, err)
    trace[-1].gap = 0.0
    factors.U[0, 0] = np.nan
    assert check(toy, factors, trace, err)


@pytest.mark.parametrize("toy", TOYS, ids=lambda w: w.name)
def test_tracing_changes_no_result(toy):
    plain = harness.solve_once(toy, 5)
    recorder, high_water = tracing.Recorder(), {}
    traced = harness.solve_once(toy, 5, recorder, high_water)
    assert (traced.final_gap, traced.recovery_err, traced.peak_scalars) == (
        plain.final_gap, plain.recovery_err, plain.peak_scalars)
    layers = tracing.layer_metrics(recorder.spans, high_water)
    assert layers["sketch.update_calls"] == toy.iterations
    assert layers["memory.peak.spectral"] > 0
    # the hooks are gone again
    assert "apply_rank_one" not in vars(toy.generate(5).prob.op)
    assert sketchycgm.solver.min_eig is sketchycgm.spectral.min_eig


def test_missing_hook_fails_by_name(monkeypatch):
    monkeypatch.delattr(sketchycgm.solver, "max_sing_vec")
    with pytest.raises(tracing.MissingHook, match="solver.max_sing_vec"):
        harness.solve_once(TOYS[1], 0, tracing.Recorder(), {})
