"""Solver loop: schedule, directions, gap, invariants, termination."""

import gc
import os
import pickle
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sketchycgm
import sketchycgm.solver
from sketchycgm import (
    CodedDiffractionOperator,
    EntrySamplingOperator,
    ImaginaryLeakage,
    Loss,
    NoConvergence,
    NonFiniteInput,
    ProblemSpec,
    RankDeficientPsiQ,
    SpectralConfig,
    SyntheticCompletionSpec,
    SyntheticPhaseSpec,
    cgm_dense_solve,
    dense_adjoint,
    gen_completion_problem,
    gen_phase_problem,
    init_state,
    learning_rate,
    solve,
    update_direction,
)
from sketchycgm.memory import ledger
from sketchycgm.solver import vertex
from helpers import spiked_completion_problem


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

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_outside_one_to_min_dim(self, rank):
        op, loss = self._op_loss()
        with pytest.raises(ValueError, match=rf"rank {rank} .* \[1, 4\]"):
            ProblemSpec(op=op, loss=loss, alpha=1.0, rank=rank)
        spec = ProblemSpec(op=op, loss=loss, alpha=1.0, rank=4)
        with pytest.raises(ValueError, match=rf"rank {rank} "):
            replace(spec, rank=rank)

    def test_psd_needs_square(self):
        op = EntrySamplingOperator(2, 3, [0], [0])
        with pytest.raises(Exception):
            ProblemSpec(
                op=op, loss=Loss("gauss", [1.0]), alpha=1.0, rank=1, template="psd"
            )

    def test_schatten1_needs_real_field(self):
        op = CodedDiffractionOperator(8, 4, seed=1)
        loss = Loss("gauss", np.ones(op.d))
        with pytest.raises(ValueError, match="real-field"):
            ProblemSpec(op=op, loss=loss, alpha=5.0, rank=1)
        ProblemSpec(op=op, loss=loss, alpha=5.0, rank=1, template="psd")

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
    prob = spiked_completion_problem(1, m=10, n=7, max_iters=1)
    direction = update_direction(prob, prob.loss.gradient(np.zeros(prob.op.d)), 0)
    seen = {}
    solve(prob, callback=lambda record, state: seen.update({record.t: state.z.copy()}))
    assert list(seen) == [0, 1]
    np.testing.assert_array_equal(
        seen[1], -prob.alpha * prob.op.apply_rank_one(direction.u, direction.v)
    )


def test_duality_gap_formula():
    # each recorded gap is Re<z - h, g> at its iterate z, gradient g and the
    # measurement h of the vertex the oracle returns there
    psd, _ = gen_phase_problem(SyntheticPhaseSpec(n=16, views=6), max_iters=6)
    for prob in (psd, spiked_completion_problem(4, m=9, n=6, max_iters=6)):
        checked = []
        previous = [None]

        def formula(record, state):
            grad = prob.loss.gradient(state.z)
            # the oracle warm-starts from the vertex of the previous iteration
            d = previous[0] = update_direction(prob, grad, record.t, previous[0])
            h = prob.op.apply_rank_one(d.left, d.v)
            expected = float(np.real(np.vdot(state.z - h, grad)))
            scale = abs(np.vdot(state.z, grad)) + abs(np.vdot(h, grad))
            assert abs(record.gap - expected) <= 1e-12 * scale
            checked.append(record.t)

        _, trace = solve(prob, callback=formula)
        assert checked == [rec.t for rec in trace] and len(checked) > 1


def _positive_definite_psd_problem():
    # the gradient adjoint at z = 0 is the identity: every vertex but zero
    # has positive value, so the psd oracle must pick the zero matrix
    op = EntrySamplingOperator(4, 4, [0, 1, 2, 3], [0, 1, 2, 3])
    loss = Loss("gauss", [-1.0, -1.0, -1.0, -1.0])
    return ProblemSpec(op=op, loss=loss, alpha=1.0, rank=1, template="psd")


def test_direction_measurement_consistency():
    # the value the gap subtracts is the real inner product of the measured
    # vertex with the gradient, for the psd, schatten1 and zero vertices
    psd, _ = gen_phase_problem(SyntheticPhaseSpec(n=16, views=6), max_iters=5)
    for prob in (psd, spiked_completion_problem(2, m=9, n=6, max_iters=5),
                 _positive_definite_psd_problem()):
        grad = prob.loss.gradient(np.zeros(prob.op.d))
        d = update_direction(prob, grad, 0)
        h = prob.op.apply_rank_one(d.left, d.v)
        measured = float(np.real(np.vdot(h, grad)))
        assert abs(d.value - measured) <= 1e-12 * abs(measured)
    # the last instance's vertex is the zero matrix
    assert d.weight == 0.0 and d.value == 0.0 and not np.any(h)


def test_direction_scale_is_alpha():
    prob = spiked_completion_problem(3, m=9, n=6, alpha=0.7, max_iters=5)
    d = update_direction(prob, prob.loss.gradient(np.zeros(prob.op.d)), 0)
    assert d.weight == -0.7
    assert np.linalg.norm(d.left) * np.linalg.norm(d.v) == pytest.approx(0.7, rel=1e-10)


def test_zero_psd_vertex_is_decided_on_the_rayleigh_quotient():
    prob = _positive_definite_psd_problem()
    u = np.full(4, 0.5)
    assert vertex(prob, u, rho=1e-300).weight == 0.0
    assert vertex(prob, u, rho=0.0).weight == 1.0
    assert vertex(prob, u, rho=-1.0).value == -1.0


def test_gap_nonnegative_along_run():
    prob = spiked_completion_problem(4, m=12, n=8, max_iters=60)
    _, trace = solve(prob, trace_every=1)
    assert all(rec.gap >= -1e-10 for rec in trace)


def test_objective_tail_below_start():
    prob = spiked_completion_problem(5, m=12, n=8, max_iters=60)
    _, trace = solve(prob, trace_every=1)
    assert trace[-1].objective < trace[0].objective


def test_psd_zero_direction_terminates():
    # positive-definite gradient adjoint: the psd template's best direction
    # is the zero matrix, the gap vanishes, and the solve stops at once
    prob = _positive_definite_psd_problem()
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


def test_psd_solve_peak_holds_no_range_test_matrix():
    # the peak is the oracle's: operator, loss data, z beside the gradient,
    # the sketch's Y and the Krylov basis. The sketch stores no Omega; an
    # update draws it again, and its charge stays below the basis
    n = 256
    prob, _ = gen_phase_problem(SyntheticPhaseSpec(n=n, views=10), rank=1,
                                eps=1e-300, max_iters=3)
    d, k = prob.op.d, 6 * 1 + 4
    cap = min(sketchycgm.spectral._KRYLOV_DIM, prob.spectral.max_iters, n)
    ledger.reset()
    solve(prob)
    # coded diffraction is complex: two scalars per entry
    assert ledger.peak == prob.op.scalars + d + 2 * d + 2 * n * k + (2 * n * cap + 4 * cap)


def test_back_to_back_solves_release_the_sketch():
    prob, _ = gen_phase_problem(SyntheticPhaseSpec(n=16, views=6), max_iters=20)
    before = ledger.live()
    solve(prob)
    solve(prob)
    assert ledger.live() == before


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_solve_gives_back_the_sketch_scalars_it_charged(template):
    if template == "psd":
        prob, _ = gen_phase_problem(SyntheticPhaseSpec(n=16, views=6), max_iters=5)
    else:
        prob = spiked_completion_problem(15, m=8, n=6, max_iters=5)
    before = ledger.live()
    during = []
    solve(prob, callback=lambda record, state: during.append(ledger.live()))
    assert min(live["sketch"] for live in during) > before.get("sketch", 0)
    # z and the gradient, or z and the vertex measurements: never all three
    assert [live["solver"] for live in during] == [2 * prob.op.d] * len(during)
    assert ledger.live() == before


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_a_solve_retains_nothing_after_it_returns(template):
    # a reference kept past the solve would hold the loss data and operator
    # indices into the next problem's generation
    prob = _generated_problem(template)
    refs = [weakref.ref(prob), weakref.ref(prob.loss)]
    solve(prob)
    cgm_dense_solve(prob)
    del prob
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


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
        assert ledger.live() == {}
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


def _record_lmo_calls(monkeypatch, strip_warm=False) -> list:
    """(t, tol, warm, answer) of every oracle call the solver makes through its
    module globals; strip_warm starts every call cold."""
    calls = []
    for name in ("min_eig", "max_sing_vec"):
        routine = getattr(sketchycgm.solver, name)

        def recording(G, tol, seed, max_iters, warm, routine=routine):
            out = routine(G, tol, seed, max_iters, None if strip_warm else warm)
            calls.append((seed[1], tol, None if warm is None else warm.copy(), out))
            return out

        monkeypatch.setattr(sketchycgm.solver, name, recording)
    return calls


def _tols(calls) -> list:
    return [(t, tol) for t, tol, _, _ in calls]


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_lmo_tolerance_follows_the_schedule(monkeypatch, template):
    prob = replace(_generated_problem(template), eps=1e-300, max_iters=12)
    calls = _record_lmo_calls(monkeypatch)
    solve(prob)
    # far enough out that the schedule sits at its floor
    grad = prob.loss.gradient(np.zeros(prob.op.d))
    for t in (996, 997, 998, 999, 5000):
        update_direction(prob, grad, t)
    asked = _tols(calls)
    ts = [t for t, _ in asked]
    assert ts == list(range(13)) + [996, 997, 998, 999, 5000]
    tol = prob.spectral.tol
    for t, asked_tol in asked:
        assert asked_tol == tol * max(1, 1000 / (t + 2))
        assert asked_tol >= tol
    assert [asked_tol for t, asked_tol in asked if t >= 998] == [tol] * 3


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_dense_oracle_asks_for_the_same_tolerances(monkeypatch, template):
    prob = replace(_generated_problem(template), eps=1e-300, max_iters=12)
    calls = _record_lmo_calls(monkeypatch)
    solve(prob)
    sketched = _tols(calls)
    calls.clear()
    cgm_dense_solve(prob, spectral_mode="lanczos")
    assert _tols(calls) == sketched


def _warm_instance(template, loss_kind="gauss"):
    """An n = 64 phase instance (psd) or a spiked completion one (schatten1)."""
    if template == "psd":
        return gen_phase_problem(
            SyntheticPhaseSpec(n=64, views=6, noise_kind="none", seed=0),
            loss_kind=loss_kind, eps=1e-300, max_iters=15,
        )[0]
    return spiked_completion_problem(7, m=12, n=9, eps=1e-300, max_iters=15)


@pytest.mark.parametrize(
    "template, loss_kind",
    [("psd", "gauss"), ("psd", "poisson"), ("schatten1", "gauss")],
    ids=["psd", "psd-poisson", "schatten1"],
)
def test_oracle_starts_from_the_previous_vertex(monkeypatch, template, loss_kind):
    prob = _warm_instance(template, loss_kind)
    calls = _record_lmo_calls(monkeypatch)
    solve(prob)
    sketched = list(calls)
    calls.clear()
    cgm_dense_solve(prob, spectral_mode="lanczos")
    assert [c[0] for c in sketched] == [c[0] for c in calls] == list(range(16))
    for run in (sketched, calls):
        assert run[0][2] is None
        # the warm vector at t is the vertex of t - 1, bit for bit: its u
        # (psd, zero at the zero vertex) or its v (schatten1)
        for (*_, out), (_, _, warm, _) in zip(run, run[1:]):
            if template == "psd":
                rho, u = out
                expected = np.zeros_like(u) if rho > 0 else u
            else:
                expected = out[1]
            np.testing.assert_array_equal(warm, expected)
    # both runs carry z by the same recurrence, so the whole path agrees
    for (_, _, warm, _), (_, _, dense_warm, _) in zip(sketched[1:], calls[1:]):
        np.testing.assert_array_equal(warm, dense_warm)


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_same_seeds_give_the_same_trace(template):
    # wall_ms measures the machine, not the run, so it is left out
    a, b = (
        [repr(replace(rec, wall_ms=0.0)) for rec in solve(_warm_instance(template))[1]]
        for _ in range(2)
    )
    assert a == b


def test_warm_start_spends_fewer_products(monkeypatch):
    prob = _warm_instance("psd")
    warm = sum(rec.lmo_products for rec in solve(prob)[1])
    _record_lmo_calls(monkeypatch, strip_warm=True)
    cold = sum(rec.lmo_products for rec in solve(prob)[1])
    assert 0 < warm < cold


@pytest.mark.parametrize(
    "template, trace_every",
    [("psd", 1), ("schatten1", 1), ("psd", 3), ("schatten1", 3)],
    ids=["psd", "schatten1", "psd-every-3", "schatten1-every-3"],
)
def test_lmo_products_count_the_operator_adjoints(template, trace_every):
    prob = _warm_instance(template)
    op = prob.op
    adjoints = [0]
    for name in ("left_apply_adjoint", "right_apply_adjoint"):
        primitive = getattr(op, name)

        def counting(*args, primitive=primitive):
            adjoints[0] += 1
            return primitive(*args)

        setattr(op, name, counting)
    seen = []
    _, trace = solve(prob, trace_every=trace_every,
                     callback=lambda record, state: seen.append(adjoints[0]))
    assert [rec.t for rec in trace] == list(range(0, 16, trace_every))
    # only the oracle applies an adjoint inside solve, and each record sums
    # the oracle calls since the previous one
    assert [rec.lmo_products for rec in trace] == list(np.diff(seen, prepend=0))
    assert sum(rec.lmo_products for rec in trace) == adjoints[0]
    assert all(rec.lmo_products > 0 for rec in trace)
    _, dense_trace = cgm_dense_solve(prob, spectral_mode="dense")
    assert [rec.lmo_products for rec in dense_trace] == [0] * 16


@pytest.mark.parametrize("template", ["psd", "schatten1"])
def test_zero_gradient_gives_the_zero_vertex_without_the_oracle(monkeypatch, template):
    prob = _generated_problem(template)

    def unreachable(*args, **kwargs):
        raise AssertionError("the oracle ran on an all-zero gradient")

    for name in ("min_eig", "max_sing_vec"):
        monkeypatch.setattr(sketchycgm.solver, name, unreachable)
    vert = update_direction(prob, np.zeros(prob.op.d), 0)
    assert vert.products == 0
    assert vert.weight == vert.value == 0.0
    assert not np.any(vert.u) and not np.any(vert.v)
    assert vert.u.shape == (prob.op.m,) and vert.v.shape == (prob.op.n,)


@pytest.mark.parametrize(
    "template, seed",
    [pytest.param("psd", seed, id=str(seed)) for seed in range(3)]
    + [pytest.param("schatten1", seed, id=f"schatten1-{seed}") for seed in range(3)],
)
def test_gap_stays_within_the_exact_oracle_gap(template, seed):
    # the early oracle is inexact, so the reported gap, taken at its vertex,
    # may fall short of the exact one; the schedule keeps that shortfall tiny
    if template == "psd":
        prob, _ = gen_phase_problem(
            SyntheticPhaseSpec(n=64, views=6, noise_kind="none", seed=seed),
            loss_kind="gauss", eps=1e-300, max_iters=60,
        )
    else:
        prob = gen_completion_problem(
            SyntheticCompletionSpec(m=40, n=30, true_rank=3, seed=seed),
            eps=1e-300, max_iters=60,
        )[0]
    rel = []

    def exact_gap(record, state):
        grad = prob.loss.gradient(state.z)
        G = dense_adjoint(prob.op, grad)
        if template == "psd":
            extreme = -min(np.linalg.eigvalsh(G)[0], 0.0)
        else:
            extreme = np.linalg.svd(G, compute_uv=False)[0]
        exact = float(np.real(np.vdot(state.z, grad))) + prob.alpha * extreme
        rel.append(abs(record.gap - exact) / abs(exact))

    _, trace = solve(prob, callback=exact_gap)
    assert len(rel) == len(trace) == 61
    assert max(rel) <= 1e-9


def test_lmo_failure_keeps_partial_result(monkeypatch):
    prob = spiked_completion_problem(13, m=8, n=6, eps=1e-300, max_iters=10)
    ref_factors, ref_trace = solve(replace(prob, max_iters=3))
    lmo = sketchycgm.solver.max_sing_vec

    def fail_at_t3(G, tol, seed, max_iters, warm):
        if seed[1] == 3:
            raise NoConvergence("forced at t=3")
        return lmo(G, tol, seed, max_iters, warm)

    monkeypatch.setattr(sketchycgm.solver, "max_sing_vec", fail_at_t3)
    before = ledger.live()
    with pytest.raises(NoConvergence) as exc:
        solve(prob)
    assert ledger.live() == before
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

    before = ledger.live()
    with pytest.raises(NonFiniteInput) as exc:
        solve(prob, callback=poison_z)
    assert ledger.live() == before
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

    def fail_at_t3(G, tol, seed, max_iters, warm):
        if seed[1] == 3:
            raise NoConvergence("forced at t=3")
        return lmo(G, tol, seed, max_iters, warm)

    def collapse_psi(record, state):
        if record.t == 2:
            state.sketch.Psi[:] = state.sketch.Psi[0]

    monkeypatch.setattr(sketchycgm.solver, "max_sing_vec", fail_at_t3)
    before = ledger.live()
    with pytest.raises(NoConvergence, match="forced at t=3") as exc:
        solve(prob, callback=collapse_psi)
    assert ledger.live() == before
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

    before = ledger.live()
    with pytest.raises(RankDeficientPsiQ) as exc:
        solve(prob, eval_fn=(lambda factors: {}) if monitored else None, callback=collapse_psi)
    assert ledger.live() == before
    factors, trace = exc.value.result
    assert factors is None
    assert [rec.t for rec in trace] == ([0, 1, 2] if monitored else [0, 1, 2, 3, 4, 5])


class _LeakyDiffraction(CodedDiffractionOperator):
    """Rotates every rank-one measurement by e^{0.1i}, so psd_measure leaks."""

    def apply_rank_one(self, u, v):
        return np.exp(0.1j) * super().apply_rank_one(u, v)


def _leaky_phase_run():
    # the oracle never calls apply_rank_one, so the t=0 record is made
    # before the first update raises
    prob, _ = gen_phase_problem(SyntheticPhaseSpec(n=16, views=6), eps=1e-300, max_iters=5)
    return replace(prob, op=_LeakyDiffraction(prob.op.n, prob.op.views)), {}


def _failing_eval_fn_run():
    calls = 0

    def eval_fn(factors):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise KeyError("third record")
        return {}

    prob = spiked_completion_problem(13, m=8, n=6, eps=1e-300, max_iters=10)
    return prob, {"eval_fn": eval_fn}


@pytest.mark.parametrize(
    "make, error, ts",
    [
        pytest.param(_leaky_phase_run, ImaginaryLeakage, [0], id="imaginary-leakage"),
        pytest.param(_failing_eval_fn_run, KeyError, [0, 1], id="eval-fn-key-error"),
    ],
)
def test_any_failure_keeps_partial_result(make, error, ts):
    prob, kwargs = make()
    before = ledger.live()
    with pytest.raises(error) as exc:
        solve(prob, **kwargs)
    assert ledger.live() == before
    factors, trace = exc.value.result
    assert factors is not None
    assert [rec.t for rec in trace] == ts


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


# Solves one completion instance (d = 12,000 training entries, above the size
# at which a BLAS dot product starts to thread) and one phase instance, and
# pickles each trace, Y at every record, and the completion factors.
_THREADED_RUN = """
import pickle, sys
from sketchycgm import (SyntheticCompletionSpec, SyntheticPhaseSpec,
                        gen_completion_problem, gen_phase_problem, solve)

def run(prob):
    ys = []
    factors, trace = solve(prob, callback=lambda rec, state: ys.append(state.sketch.Y.copy()))
    return [(r.t, r.eta, r.gap, r.objective, r.lmo_products) for r in trace], ys, factors

completion, _, _ = gen_completion_problem(
    SyntheticCompletionSpec(m=200, n=150, true_rank=2, obs_fraction=0.5), eps=1e-300, max_iters=20)
phase, _ = gen_phase_problem(SyntheticPhaseSpec(n=2048, views=4), eps=1e-300, max_iters=10)
c_trace, c_ys, f = run(completion)
p_trace, p_ys, _ = run(phase)
pickle.dump((c_trace, c_ys, (f.U, f.S, f.V), p_trace, p_ys), sys.stdout.buffer)
"""


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.skipif(_CPUS < 2, reason="a second BLAS thread needs a second CPU")
def test_trace_and_sketch_do_not_depend_on_blas_thread_count():
    src = str(Path(sketchycgm.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _THREADED_RUN], env=env,
                              capture_output=True, check=True)
        runs.append(pickle.loads(done.stdout))
    (c1, cy1, f1, p1, py1), (c2, cy2, f2, p2, py2) = runs
    assert c1 == c2 and p1 == p2
    for y1, y2 in zip(cy1 + py1, cy2 + py2, strict=True):
        np.testing.assert_array_equal(y1, y2)
    for a1, a2 in zip(f1, f2):
        np.testing.assert_array_equal(a1, a2)
