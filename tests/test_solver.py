"""Solver loop: schedule, directions, gap, invariants, termination."""

from dataclasses import replace

import numpy as np
import pytest

import sketchycgm.solver
from sketchycgm import (
    CodedDiffractionOperator,
    EntrySamplingOperator,
    Loss,
    NoConvergence,
    NonFiniteInput,
    ProblemSpec,
    RankDeficientPsiQ,
    SpectralConfig,
    SyntheticCompletionSpec,
    SyntheticPhaseSpec,
    duality_gap,
    gen_completion_problem,
    gen_phase_problem,
    init_state,
    learning_rate,
    solve,
    update_direction,
)
from sketchycgm.memory import ledger
from sketchycgm.solver import _apply_update
from helpers import live_charges, spiked_completion_problem


def test_learning_rate_values():
    assert learning_rate(0) == 1.0
    assert learning_rate(1) == pytest.approx(2.0 / 3.0)
    assert learning_rate(2) == 0.5
    assert learning_rate(0, "poisson") == pytest.approx(2.0 / 3.0)
    assert learning_rate(1, "poisson") == 0.5


def test_learning_rate_decreasing():
    etas = [learning_rate(t) for t in range(50)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert all(0 < e <= 1 for e in etas)


class TestProblemSpecValidation:
    def _op_loss(self):
        op = EntrySamplingOperator(4, 4, [0, 1, 2], [1, 2, 3])
        return op, Loss("gauss", [1.0, 2.0, 3.0])

    def test_accepts_valid(self):
        op, loss = self._op_loss()
        ProblemSpec(op=op, loss=loss, alpha=1.0, rank=1)

    def test_bad_template(self):
        op, loss = self._op_loss()
        with pytest.raises(ValueError, match="template"):
            ProblemSpec(op=op, loss=loss, alpha=1.0, rank=1, template="spectral")

    def test_nonpositive_alpha(self):
        op, loss = self._op_loss()
        with pytest.raises(ValueError, match="alpha"):
            ProblemSpec(op=op, loss=loss, alpha=0.0, rank=1)

    def test_dimension_mismatch(self):
        op, _ = self._op_loss()
        with pytest.raises(Exception):
            ProblemSpec(op=op, loss=Loss("gauss", [1.0]), alpha=1.0, rank=1)

    def test_psd_needs_square(self):
        op = EntrySamplingOperator(2, 3, [0], [0])
        with pytest.raises(Exception):
            ProblemSpec(
                op=op, loss=Loss("gauss", [1.0]), alpha=1.0, rank=1, template="psd"
            )

    def test_variant_is_derived_not_set(self):
        op, loss = self._op_loss()
        spec = ProblemSpec(op=op, loss=loss, alpha=1.0, rank=1)
        assert spec.variant == "standard"
        with pytest.raises(TypeError):
            ProblemSpec(op=op, loss=loss, alpha=1.0, rank=1, variant="poisson")
        with pytest.raises(TypeError):
            replace(spec, variant="poisson")
        poisson = replace(spec, loss=Loss("poisson", [1.0, 2.0, 3.0]))
        assert poisson.variant == "poisson"


def test_init_state_standard_starts_at_zero():
    prob = spiked_completion_problem(0, m=8, n=6, max_iters=10)
    state = init_state(prob)
    np.testing.assert_array_equal(state.z, np.zeros(prob.op.d))
    assert state.t == 0


def test_init_state_poisson_starts_at_uniform():
    # the poisson loss alone selects the positive start, for phase and completion
    for op, template in [
        (CodedDiffractionOperator(6, 2, seed=0), "psd"),
        (EntrySamplingOperator(5, 4, [0, 1, 3, 4], [2, 0, 1, 3]), "schatten1"),
    ]:
        loss = Loss("poisson", np.ones(op.d), normalization=1.0)
        prob = ProblemSpec(op=op, loss=loss, alpha=1.0, rank=1, template=template)
        np.testing.assert_allclose(init_state(prob).z, np.full(op.d, 1.0 / np.sqrt(op.d)))


def test_first_standard_step_lands_on_direction():
    # eta_0 = 1, so z_1 must equal the first direction's measurement exactly
    prob = spiked_completion_problem(1, m=10, n=7, max_iters=5)
    state = init_state(prob)
    grad = prob.loss.gradient(state.z)
    direction = update_direction(prob, grad, state.t)
    _apply_update(state, direction, learning_rate(state.t))
    np.testing.assert_allclose(state.z, direction.h, atol=1e-15)
    assert state.t == 1


def test_duality_gap_formula():
    z = np.array([1.0, -2.0])
    h = np.array([0.5, 1.0])
    g = np.array([2.0, 3.0])
    # real part of <z - h, g>
    assert duality_gap(z, h, g) == pytest.approx(0.5 * 2.0 + (-3.0) * 3.0)


def test_direction_measurement_consistency():
    # the cached measurement h must equal measuring the rank-one update
    prob = spiked_completion_problem(2, m=9, n=6, max_iters=5)
    state = init_state(prob)
    d = update_direction(prob, prob.loss.gradient(state.z), state.t)
    np.testing.assert_allclose(
        d.h, prob.op.apply_rank_one(d.left, d.right), atol=1e-12
    )


def test_direction_scale_is_alpha():
    prob = spiked_completion_problem(3, m=9, n=6, alpha=0.7, max_iters=5)
    state = init_state(prob)
    d = update_direction(prob, prob.loss.gradient(state.z), state.t)
    assert np.linalg.norm(d.left) * np.linalg.norm(d.right) == pytest.approx(
        0.7, rel=1e-10
    )


def test_gap_nonnegative_along_run():
    prob = spiked_completion_problem(4, m=12, n=8, max_iters=60)
    _, trace = solve(prob, trace_every=1)
    assert all(rec.gap >= -1e-10 for rec in trace)


def test_objective_tail_below_start():
    prob = spiked_completion_problem(5, m=12, n=8, max_iters=60)
    _, trace = solve(prob, trace_every=1)
    assert trace[-1].objective < trace[0].objective


def test_solver_loop_invariants_generic_instance():
    """Dense shadow driven by the solver's own deterministic directions.

    Checks z_t = measure(X_t) and (Y, W) = (X_t Omega, Psi X_t) at every
    iterate of an ordinary (not specially conditioned) completion instance.
    """
    prob = spiked_completion_problem(6, m=10, n=8, spike=0.0, alpha=1.5, max_iters=40)
    op = prob.op
    shadow = {"X": np.zeros((op.m, op.n))}
    worst = {"z": 0.0, "Y": 0.0, "W": 0.0}

    def cb(record, state):
        X = shadow["X"]
        sk = state.sketch
        worst["z"] = max(worst["z"], np.abs(state.z - X[op.rows, op.cols]).max())
        worst["Y"] = max(worst["Y"], np.abs(sk.Y - X @ sk.Omega).max())
        worst["W"] = max(worst["W"], np.abs(sk.W - sk.Psi @ X).max())
        # replay the deterministic update the solver is about to take
        d = update_direction(prob, prob.loss.gradient(state.z), state.t)
        eta = learning_rate(state.t, prob.variant)
        shadow["X"] = (1 - eta) * X + eta * np.outer(d.left, np.conj(d.right))

    solve(prob, trace_every=1, callback=cb)
    assert worst["z"] <= 1e-10
    assert worst["Y"] <= 1e-10
    assert worst["W"] <= 1e-10


def test_psd_zero_direction_terminates():
    # positive-definite gradient adjoint: the psd template's best direction
    # is the zero matrix, the gap vanishes, and the solve stops at once
    op = EntrySamplingOperator(4, 4, [0, 1, 2, 3], [0, 1, 2, 3])
    loss = Loss("gauss", [-1.0, -1.0, -1.0, -1.0])
    prob = ProblemSpec(op=op, loss=loss, alpha=1.0, rank=1, template="psd")
    factors, trace = solve(prob)
    assert trace[-1].t == 0
    assert trace[-1].gap == 0.0
    np.testing.assert_array_equal(factors.dense(), np.zeros((4, 4)))


def test_max_iters_zero_returns_start():
    prob = spiked_completion_problem(7, m=8, n=6, max_iters=0)
    factors, trace = solve(prob)
    assert len(trace) == 1
    assert trace[0].t == 0
    np.testing.assert_array_equal(factors.dense(), np.zeros((8, 6)))


def test_iteration_cap_is_not_an_error():
    prob = spiked_completion_problem(8, m=8, n=6, eps=1e-300, max_iters=3)
    factors, trace = solve(prob)
    assert trace[-1].t == 3 and trace[-1].gap > prob.eps
    assert factors.dense().shape == (8, 6)
    with pytest.raises(TypeError):
        solve(prob, strict=True)


def test_back_to_back_solves_release_the_sketch():
    prob, _ = gen_phase_problem(SyntheticPhaseSpec(n=16, views=6), max_iters=20)
    before = live_charges()
    solve(prob)
    solve(prob)
    assert live_charges() == before


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_solve_gives_back_the_sketch_scalars_it_charged(template):
    if template == "psd":
        prob, _ = gen_phase_problem(SyntheticPhaseSpec(n=16, views=6), max_iters=5)
    else:
        prob = spiked_completion_problem(15, m=8, n=6, max_iters=5)
    before = live_charges()
    during = []
    solve(prob, callback=lambda record, state: during.append(ledger.live()["sketch"]))
    assert min(during) > before.get("sketch", 0)
    assert live_charges() == before


def _generated_problem(template):
    if template == "psd":
        return gen_phase_problem(SyntheticPhaseSpec(n=16, views=6), max_iters=5)[0]
    spec = SyntheticCompletionSpec(m=12, n=10, true_rank=2)
    return gen_completion_problem(spec, max_iters=5)[0]


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_peak_does_not_depend_on_when_the_ledger_was_reset(template):
    peaks = []
    for reset_first in (True, False):
        if reset_first:
            ledger.reset()
        prob = _generated_problem(template)
        if not reset_first:
            ledger.reset()
        solve(prob)
        peaks.append(ledger.peak)
        assert live_charges() == {}
    assert peaks[0] == peaks[1]


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_solve_charges_every_tag_through_add(monkeypatch, template):
    # the benchmark takes per-tag high-water marks by patching ledger.add
    prob = _generated_problem(template)
    tags = set()
    add = ledger.add

    def recording(tag, count):
        tags.add(tag)
        add(tag, count)

    monkeypatch.setattr(ledger, "add", recording)
    solve(prob)
    assert tags == {"solver", "spectral", "sketch", "losses", "operators"}


def test_lmo_failure_keeps_partial_result(monkeypatch):
    prob = spiked_completion_problem(13, m=8, n=6, eps=1e-300, max_iters=10)
    ref_factors, ref_trace = solve(replace(prob, max_iters=3))
    lmo = sketchycgm.solver.max_sing_vec

    def fail_at_t3(G, cfg, start_seed):
        if start_seed[1] == 3:
            raise NoConvergence("forced at t=3")
        return lmo(G, cfg, start_seed=start_seed)

    monkeypatch.setattr(sketchycgm.solver, "max_sing_vec", fail_at_t3)
    before = live_charges()
    with pytest.raises(NoConvergence) as exc:
        solve(prob)
    assert live_charges() == before
    factors, trace = exc.value.result
    assert [rec.t for rec in trace] == [0, 1, 2]
    assert [rec.gap for rec in trace] == [rec.gap for rec in ref_trace[:3]]
    # the sketch holds the same three updates as a run capped at t=3
    np.testing.assert_array_equal(factors.dense(), ref_factors.dense())


def test_non_finite_iterate_keeps_partial_result():
    prob = spiked_completion_problem(13, m=8, n=6, eps=1e-300, max_iters=10)
    ref_factors, ref_trace = solve(replace(prob, max_iters=3))

    def poison_z(record, state):
        if record.t == 2:
            state.z[0] = np.nan

    before = live_charges()
    with pytest.raises(NonFiniteInput) as exc:
        solve(prob, callback=poison_z)
    assert live_charges() == before
    factors, trace = exc.value.result
    assert [rec.t for rec in trace] == [0, 1, 2]
    assert [rec.gap for rec in trace] == [rec.gap for rec in ref_trace[:3]]
    # the NaN enters z after the t=2 direction is chosen, so the sketch holds
    # the same three updates as a run capped at t=3
    np.testing.assert_array_equal(factors.dense(), ref_factors.dense())


def test_lmo_failure_on_degenerate_sketch_keeps_trace(monkeypatch):
    # the reconstruction the NoConvergence handler attempts is rank deficient
    prob = spiked_completion_problem(14, m=8, n=6, eps=1e-300, max_iters=10)
    lmo = sketchycgm.solver.max_sing_vec

    def fail_at_t3(G, cfg, start_seed):
        if start_seed[1] == 3:
            raise NoConvergence("forced at t=3")
        return lmo(G, cfg, start_seed=start_seed)

    def collapse_psi(record, state):
        if record.t == 2:
            state.sketch.Psi[:] = state.sketch.Psi[0]

    monkeypatch.setattr(sketchycgm.solver, "max_sing_vec", fail_at_t3)
    before = live_charges()
    with pytest.raises(NoConvergence, match="forced at t=3") as exc:
        solve(prob, callback=collapse_psi)
    assert live_charges() == before
    factors, trace = exc.value.result
    assert factors is None
    assert [rec.t for rec in trace] == [0, 1, 2]


@pytest.mark.parametrize("monitored", [False, True])
def test_degenerate_sketch_keeps_trace(monitored):
    # a rank-one Psi from t=2 on makes the next reconstruction rank deficient:
    # the per-record one when monitored, the final one otherwise
    prob = spiked_completion_problem(14, m=8, n=6, eps=1e-300, max_iters=5)

    def collapse_psi(record, state):
        if record.t == 2:
            state.sketch.Psi[:] = state.sketch.Psi[0]

    before = live_charges()
    with pytest.raises(RankDeficientPsiQ) as exc:
        solve(prob, eval_fn=(lambda factors: {}) if monitored else None, callback=collapse_psi)
    assert live_charges() == before
    factors, trace = exc.value.result
    assert factors is None
    assert [rec.t for rec in trace] == ([0, 1, 2] if monitored else [0, 1, 2, 3, 4, 5])


def test_trace_every_keeps_terminal_record():
    prob = spiked_completion_problem(9, m=8, n=6, eps=1e-300, max_iters=25)
    _, trace = solve(prob, trace_every=10)
    ts = [rec.t for rec in trace]
    assert ts == [0, 10, 20, 25]


def test_eval_fn_fills_metrics():
    prob = spiked_completion_problem(10, m=8, n=6, max_iters=5, eps=1e-300)
    _, trace = solve(prob, trace_every=5, eval_fn=lambda f: {"fro": float(np.linalg.norm(f.dense()))})
    assert all(rec.metrics is not None and "fro" in rec.metrics for rec in trace)
    assert trace[-1].metrics["fro"] > 0


def test_eps_termination_reports_small_gap():
    prob = spiked_completion_problem(11, m=8, n=6, eps=1e-6, max_iters=5000)
    _, trace = solve(prob, trace_every=50)
    assert trace[-1].gap <= 1e-6


def test_poisson_variant_end_to_end():
    rng = np.random.default_rng(12)
    op = CodedDiffractionOperator(8, 3, seed=1)
    x = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
    b = op.psd_measure(x)
    counts = rng.poisson(50.0 * b).astype(float)
    loss = Loss("poisson", counts, normalization=1.0)
    prob = ProblemSpec(
        op=op,
        loss=loss,
        alpha=float(op.n * np.mean(counts / 50.0)),
        rank=1,
        template="psd",
        eps=1e-300,
        max_iters=40,
    )
    _, trace = solve(prob, trace_every=1)
    assert trace[-1].objective < trace[0].objective
    assert trace[0].eta == pytest.approx(2.0 / 3.0)
