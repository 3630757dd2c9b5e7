"""Dense reference path and evaluation metrics."""

from dataclasses import replace

import numpy as np
import pytest

from sketchycgm import (
    DimensionMismatch,
    EvalSpec,
    FactoredMatrix,
    IndexOutOfRange,
    NonFiniteInput,
    SyntheticPhaseSpec,
    TooLargeForDense,
    ZeroTruth,
    cgm_dense_solve,
    dense_adjoint,
    eps_rank,
    gen_phase_problem,
    phase_aligned_error,
    psnr,
    record_spectra,
    save_spectra_csv,
    solve,
)
from sketchycgm import test_error as heldout_error
from sketchycgm import CodedDiffractionOperator, EntrySamplingOperator, Loss, ProblemSpec
from sketchycgm.memory import ledger, nscalars
from sketchycgm.solver import _initial_z
from helpers import adjoint_via_dense, dense_sensing_matrix, spiked_completion_problem


def test_dense_adjoint_matches_sensing_matrix():
    rng = np.random.default_rng(2)
    op = CodedDiffractionOperator(5, 3, seed=4)
    z = rng.standard_normal(op.d) + 1j * rng.standard_normal(op.d)
    np.testing.assert_allclose(dense_adjoint(op, z), adjoint_via_dense(op, z), atol=1e-12)


def _agreement_instance(case):
    if case == "spiked":
        return spiked_completion_problem(5, m=16, n=12, max_iters=50)
    if case == "generic":
        return spiked_completion_problem(6, m=10, n=8, spike=0.0, alpha=1.5, max_iters=40)
    seed, loss_kind = case
    return gen_phase_problem(
        SyntheticPhaseSpec(n=16, views=6, seed=seed), loss_kind=loss_kind,
        eps=1e-300, max_iters=40,
    )[0]


def _dev(a, b) -> float:
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param((seed, loss), id=f"{seed}-{loss}")
        for seed in range(5)
        for loss in ("gauss", "poisson")
    ]
    + [
        pytest.param("spiked", id="spiked-schatten1"),
        pytest.param("generic", id="generic-schatten1"),
    ],
)
def test_dense_solve_agrees_with_sketchy_on_psd_phase(case):
    # the psd phase instances under both losses, and a spiked and an
    # ordinary (not specially conditioned) schatten1 completion one. Both
    # runs step z in the shared loop and take the same vertices, so the two
    # traces agree bit for bit. X is
    # never measured back into z, so at every record it is the ground truth
    # for z and the sketch: z = measure(X) + c_t z0, where poisson starts
    # from z0 and c_t, the product of the (1 - eta) so far, is
    # 2/((t+1)(t+2)); Y = X Omega and W = Psi X (W is empty for psd).
    prob = _agreement_instance(case)
    z0 = _initial_z(prob)
    # measures X entry by entry, built once from the basis matrices' measurements
    A = dense_sensing_matrix(prob.op)
    snaps = {}

    def grab(record, state):
        sk = state.sketch
        snaps[record.t] = (state.z.copy(), sk.Y.copy(), sk.W.copy(), sk.Omega, sk.Psi)

    _, trace = solve(prob, trace_every=1, callback=grab)
    devs = []

    def check(record, X):
        t = record.t
        z, Y, W, Om, Ps = snaps[t]
        zx = A @ X.ravel()
        c = 2.0 / ((t + 1) * (t + 2)) if prob.variant == "poisson" else 0.0
        devs.append((
            _dev(z, zx.real + c * z0),
            _dev(Y, X @ Om),
            _dev(W, Ps @ X),
            np.linalg.norm(zx.imag) / max(np.linalg.norm(zx), 1.0),
        ))

    _, dtrace = cgm_dense_solve(prob, trace_every=1, callback=check)
    # wall_ms measures the machine, not the run, so it is left out
    assert [repr(replace(r, wall_ms=0.0)) for r in dtrace] == [
        repr(replace(r, wall_ms=0.0)) for r in trace
    ]
    assert len(devs) == len(trace) == prob.max_iters + 1
    assert np.max(devs) <= 1e-12, np.max(devs, axis=0)


def test_dense_solve_guard():
    op = EntrySamplingOperator(2000, 600, [0], [0])
    loss = Loss("gauss", [1.0])
    prob = ProblemSpec(op=op, loss=loss, alpha=1.0, rank=1, max_iters=1)
    with pytest.raises(TooLargeForDense):
        cgm_dense_solve(prob)
    # the iteration cap is the spec's own
    with pytest.raises(TypeError):
        cgm_dense_solve(prob, max_iters=1)


@pytest.mark.parametrize("mode", ["lanczos", "dense"])
def test_dense_solve_charges_the_loop_state_as_solve_does(monkeypatch, mode):
    # the loop charges z and its second d-vector under "solver" and the loss
    # data under "losses", as in solve; the dense run adds only X beside one
    # m x n product, and no sketch. The exact oracle charges its
    # factorization under "spectral" at every call
    prob = gen_phase_problem(SyntheticPhaseSpec(n=12, views=4), eps=1e-300, max_iters=6)[0]
    op, d = prob.op, prob.op.d
    charges = []
    add = ledger.add

    def recording(tag, count):
        charges.append((tag, count))
        add(tag, count)

    monkeypatch.setattr(ledger, "add", recording)
    ledger.reset()
    during = []
    X, trace = cgm_dense_solve(prob, spectral_mode=mode,
                               callback=lambda record, X: during.append(ledger.live()))
    assert len(during) == len(trace) == prob.max_iters + 1
    expected = {"operators": op.scalars, "losses": d, "solver": 2 * d, "dense_cgm": 2 * nscalars(X)}
    assert during == [expected] * len(during)
    assert ledger.live() == {}
    if mode == "dense":
        m, n = op.m, op.n
        # coded diffraction is complex: two scalars per entry
        exact = ("spectral", 2 * (m * n + m * m + n * n + min(m, n)))
        assert charges.count(exact) == len(trace)


def test_dense_solve_poisson_variant_descends():
    rng = np.random.default_rng(6)
    op = CodedDiffractionOperator(6, 3, seed=2)
    x = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
    counts = rng.poisson(40.0 * op.psd_measure(x)).astype(float)
    prob = ProblemSpec(
        op=op,
        loss=Loss("poisson", counts),
        alpha=float(np.mean(counts / 40.0) * op.n),
        rank=1,
        template="psd",
        eps=1e-300,
        max_iters=25,
    )
    _, trace = cgm_dense_solve(prob, trace_every=1)
    assert trace[-1].objective < trace[0].objective


def test_dense_callback_sees_live_iterates():
    prob = spiked_completion_problem(7, m=10, n=8, max_iters=10, eps=1e-300)
    seen = []
    cgm_dense_solve(prob, trace_every=1, callback=lambda record, X: seen.append((record.t, X.copy())))
    assert [t for t, _ in seen] == list(range(11))
    assert np.linalg.norm(seen[0][1]) == 0.0
    assert np.linalg.norm(seen[-1][1]) > 0.0


def test_dense_callback_sees_the_traced_records():
    prob = spiked_completion_problem(7, m=10, n=8, max_iters=10, eps=1e-300)
    seen = []
    _, trace = cgm_dense_solve(prob, trace_every=3, callback=lambda record, X: seen.append(record))
    assert [record.t for record in trace] == [0, 3, 6, 9, 10]
    assert len(seen) == len(trace)
    assert all(record is trace[i] for i, record in enumerate(seen))


def test_record_spectra_and_csv(tmp_path):
    prob = spiked_completion_problem(8, m=10, n=8, max_iters=6, eps=1e-300)
    X, trace, rows = record_spectra(prob, every=2)
    assert [t for t, _ in rows] == [0, 2, 4, 6]
    assert all(s.size == 8 for _, s in rows)
    path = tmp_path / "spectra.csv"
    save_spectra_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration," + ",".join(f"sigma{j+1}" for j in range(8))
    assert len(lines) == 5


class TestEpsRank:
    def test_examples(self):
        assert eps_rank([10.0, 5.0, 0.01], 0.01) == 2
        assert eps_rank([10.0, 5.0, 0.2], 0.01) == 3
        assert eps_rank([3.0], 0.5) == 1
        assert eps_rank([], 0.5) == 0

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            eps_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            eps_rank([1.0], 1.0)

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            eps_rank([1.0, 2.0], 0.1)


class TestPhaseAlignedError:
    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        xhat = x * np.exp(0.77j) + 0.1 * (
            rng.standard_normal(12) + 1j * rng.standard_normal(12)
        )
        thetas = np.linspace(0, 2 * np.pi, 20001)
        grid = min(
            np.linalg.norm(xhat * np.exp(1j * th) - x) for th in thetas
        ) / np.linalg.norm(x)
        assert phase_aligned_error(xhat, x) == pytest.approx(grid, abs=1e-6)

    def test_exact_alignment_is_zero(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        # roundoff in the inner product surfaces under a square root
        assert phase_aligned_error(x * np.exp(1.3j), x) <= 1e-6

    def test_zero_truth_rejected(self):
        with pytest.raises(ZeroTruth):
            phase_aligned_error(np.ones(3), np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            phase_aligned_error(np.ones(3), np.ones(4))


class TestPsnr:
    def test_identical_inputs_infinite(self):
        x = np.arange(4.0)
        assert psnr(x, x, peak=1.0) == float("inf")

    def test_known_value(self):
        x = np.zeros(4)
        xhat = np.full(4, 0.5)  # rmse = 0.5
        assert psnr(xhat, x, peak=1.0) == pytest.approx(20.0 * np.log10(2.0))

    def test_peak_domain(self):
        with pytest.raises(ValueError):
            psnr(np.ones(2), np.zeros(2), peak=0.0)


class TestTestError:
    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(11)
        U = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        f = FactoredMatrix(U, [2.0, 1.0], V)
        rows = np.array([0, 3, 7])
        cols = np.array([5, 2, 0])
        vals = rng.standard_normal(3)
        spec = EvalSpec(rows=rows, cols=cols, values=vals)
        pred = f.dense()[rows, cols]
        want = 0.5 * np.mean((pred - vals) ** 2)
        assert heldout_error(f, spec) == pytest.approx(want, rel=1e-12)

    def test_complex_values_rejected(self):
        with pytest.raises(DimensionMismatch, match="complex"):
            EvalSpec(rows=[0], cols=[0], values=[1.0 + 2.0j])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected_at_construction(self, bad):
        with pytest.raises(NonFiniteInput):
            EvalSpec(rows=[0, 1], cols=[0, 1], values=[1.0, bad])

    def test_complex_factors_rejected(self):
        # held-out entries are real; a complex prediction is refused, not truncated
        f = FactoredMatrix(np.eye(3, 1) * 1j, [1.0], np.eye(3, 1))
        spec = EvalSpec(rows=[0], cols=[0], values=[1.0])
        with pytest.raises(DimensionMismatch, match="complex"):
            heldout_error(f, spec)

    def test_index_range_checked(self):
        f = FactoredMatrix(np.eye(4, 1), [1.0], np.eye(4, 1))
        spec = EvalSpec(rows=[5], cols=[0], values=[1.0])
        with pytest.raises(DimensionMismatch):
            heldout_error(f, spec)

    @pytest.mark.parametrize("rows, cols", [([-1], [0]), ([0], [-1])])
    def test_negative_index_rejected(self, rows, cols):
        # numpy would read -1 as the last row or column
        with pytest.raises(IndexOutOfRange):
            EvalSpec(rows=rows, cols=cols, values=[1.0])

    @pytest.mark.parametrize("unread", [{"eps": 1e-2}, {"truth": np.zeros(1)}])
    def test_unread_fields_are_gone(self, unread):
        with pytest.raises(TypeError):
            EvalSpec(rows=[0], cols=[0], values=[1.0], **unread)

    def test_replace_copies_without_training_indices(self):
        # replace reads the training InitVars' None defaults off the class
        spec = EvalSpec(rows=[0], cols=[0], values=[1.0], train_rows=[1], train_cols=[1])
        copy = replace(spec, values=[2.0])
        assert copy.values.tolist() == [2.0]
        assert copy.rows.tolist() == [0] and copy.cols.tolist() == [0]

    def test_train_test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            EvalSpec(
                rows=[0, 1],
                cols=[0, 1],
                values=[1.0, 2.0],
                train_rows=[1, 2],
                train_cols=[1, 2],
            )
