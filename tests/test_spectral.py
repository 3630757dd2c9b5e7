"""Krylov extreme-pair routines against dense SVD / eigendecomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchycgm.spectral
from sketchycgm import (
    CodedDiffractionOperator,
    DimensionMismatch,
    EntrySamplingOperator,
    ImplicitGradientMatrix,
    NoConvergence,
    SpectralConfig,
    ZeroGradient,
    max_sing_vec,
    min_eig,
)
from sketchycgm.memory import ledger
from helpers import CountingLinop, random_mask, recorded_charges


def _aligned(a, b, tol):
    """Equal up to a unit phase, checked after aligning on the inner product."""
    inner = np.vdot(a, b)
    assert abs(inner) > 0
    return np.linalg.norm(a * (inner / abs(inner)) - b) <= tol


_CERTIFICATE_CASES = ("square", "tall", "wide", "complex", "entry-sampling")


def _certificate_case(name):
    """A matrix for max_sing_vec and its dense form for checking the result."""
    rng = np.random.default_rng(6)
    if name == "entry-sampling":
        rows, cols = random_mask(rng, 40, 25, 0.3)
        op = EntrySamplingOperator(40, 25, rows, cols)
        z = rng.standard_normal(op.d)
        M = np.zeros((40, 25))
        M[rows, cols] = z
        return ImplicitGradientMatrix(op, z), M
    # the wide case has a rank-deficient Gram matrix, so Lanczos breaks down
    shape = {"square": (30, 30), "tall": (50, 20), "wide": (10, 40), "complex": (30, 20)}[name]
    M = rng.standard_normal(shape)
    if name == "complex":
        M = M + 1j * rng.standard_normal(shape)
    return M, M


class TestMaxSingVec:
    def test_matches_dense_svd_real(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((40, 30))
        u, v, sigma = max_sing_vec(M, tol=1e-10)
        U, s, Vh = np.linalg.svd(M)
        assert sigma == pytest.approx(s[0], rel=1e-10)
        assert _aligned(U[:, 0], u, 1e-7)
        assert _aligned(Vh[0].conj(), v, 1e-7)

    def test_matches_dense_svd_complex(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((25, 35)) + 1j * rng.standard_normal((25, 35))
        u, v, sigma = max_sing_vec(M, tol=1e-10)
        s = np.linalg.svd(M, compute_uv=False)
        assert sigma == pytest.approx(s[0], rel=1e-10)
        # residuals certify the pair without fixing a phase convention
        assert np.linalg.norm(M @ v - sigma * u) <= 1e-9 * sigma
        assert np.linalg.norm(M.conj().T @ u - sigma * v) <= 1e-9 * sigma

    def test_diagonal_example(self):
        M = np.diag([1.0, 5.0, 3.0])
        u, v, sigma = max_sing_vec(M, tol=1e-12)
        assert sigma == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(u), [0, 1, 0], atol=1e-8)

    def test_phase_canonicalization(self):
        # largest-magnitude entry of u comes back real positive
        rng = np.random.default_rng(2)
        M = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
        u, _, _ = max_sing_vec(M, tol=1e-10)
        top = u[np.argmax(np.abs(u))]
        assert abs(top.imag) <= 1e-10 * abs(top)
        assert top.real > 0

    def test_same_seed_same_output(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((20, 15))
        out1 = max_sing_vec(M, tol=1e-10, seed=(4, 2))
        out2 = max_sing_vec(M, tol=1e-10, seed=(4, 2))
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1], out2[1])
        assert out1[2] == out2[2]

    def test_implicit_equals_dense_route(self):
        rng = np.random.default_rng(4)
        rows, cols = random_mask(rng, 15, 11, 0.6)
        op = EntrySamplingOperator(15, 11, rows, cols)
        z = rng.standard_normal(op.d)
        G = np.zeros((15, 11))
        G[rows, cols] = z
        u_i, v_i, s_i = max_sing_vec(ImplicitGradientMatrix(op, z), tol=1e-10)
        u_d, v_d, s_d = max_sing_vec(G, tol=1e-10)
        assert s_i == pytest.approx(s_d, rel=1e-10)
        assert _aligned(u_i, u_d, 1e-7)

    def test_complex_z_on_real_operator_raises_at_first_product(self):
        op = EntrySamplingOperator(4, 4, [0, 1], [0, 1])
        G = ImplicitGradientMatrix(op, np.array([1.0, 2.0j]))
        assert not G.iscomplex
        for product in (G.matvec, G.rmatvec):
            with pytest.raises(DimensionMismatch, match="complex"):
                product(np.ones(4))

    def test_zero_gradient_raises(self):
        op = EntrySamplingOperator(4, 4, [0, 1], [0, 1])
        with pytest.raises(ZeroGradient):
            max_sing_vec(ImplicitGradientMatrix(op, np.zeros(2)))
        # sigma = 0 decides, for an implicit and a dense zero matrix alike
        with pytest.raises(ZeroGradient):
            max_sing_vec(np.zeros((5, 3)))

    def test_budget_exhaustion_raises(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((50, 50))
        with pytest.raises(NoConvergence):
            max_sing_vec(M, tol=1e-14, max_iters=2)

    def test_krylov_cap_is_not_configurable(self):
        with pytest.raises(TypeError):
            SpectralConfig(krylov_dim=48)
        # the oracle takes its settings as plain arguments, not as a config
        H = np.eye(4)
        for routine in (min_eig, max_sing_vec):
            with pytest.raises(TypeError):
                routine(H, cfg=SpectralConfig())
            with pytest.raises(TypeError):
                routine(H, start_seed=(0, 1))

    def test_residual_certificate(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((30, 30))
        tol = 1e-9
        u, v, sigma = max_sing_vec(M, tol=tol)
        assert np.linalg.norm(M @ v - sigma * u) <= tol * sigma
        assert np.linalg.norm(M.T @ u - sigma * v) <= tol * sigma

    @pytest.mark.parametrize("name", _CERTIFICATE_CASES)
    def test_residual_certificate_across_shapes(self, name):
        G, M = _certificate_case(name)
        tol = 1e-9
        u, v, sigma = max_sing_vec(G, tol=tol)
        assert sigma == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)
        assert np.linalg.norm(M @ v - sigma * u) <= tol * sigma
        assert np.linalg.norm(M.conj().T @ u - sigma * v) <= tol * sigma

    @pytest.mark.parametrize("shape, iscomplex", [((40, 30), False), ((25, 35), True)])
    def test_workspace_is_one_n_side_basis(self, monkeypatch, shape, iscomplex):
        rng = np.random.default_rng(7)
        M = rng.standard_normal(shape)
        if iscomplex:
            M = M + 1j * rng.standard_normal(shape)
        charges = recorded_charges(monkeypatch)
        max_sing_vec(M, tol=1e-10)
        n = shape[1]
        cap = min(sketchycgm.spectral._KRYLOV_DIM, n)
        width = 2 if iscomplex else 1
        assert charges == [("spectral", width * n * cap + 4 * cap)]

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 100.0))
    def test_homogeneity(self, seed, scale):
        # scaling the matrix scales sigma and leaves the vectors unchanged
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((10, 8))
        u1, v1, s1 = max_sing_vec(M, tol=1e-10)
        u2, v2, s2 = max_sing_vec(scale * M, tol=1e-10)
        assert s2 == pytest.approx(scale * s1, rel=1e-7)
        assert _aligned(u1, u2, 1e-6)


class TestMinEig:
    def test_matches_dense_eigh(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((25, 25))
        H = 0.5 * (A + A.T)
        lam, u = min_eig(H, tol=1e-10)
        w, Q = np.linalg.eigh(H)
        assert lam == pytest.approx(w[0], rel=1e-9, abs=1e-9)
        assert _aligned(Q[:, 0], u, 1e-6)

    def test_complex_hermitian(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
        H = 0.5 * (A + A.conj().T)
        lam, u = min_eig(H, tol=1e-10)
        w = np.linalg.eigvalsh(H)
        assert lam == pytest.approx(w[0], rel=1e-9)
        assert np.linalg.norm(H @ u - lam * u) <= 1e-8 * np.abs(w).max()

    def test_diagonal_example(self):
        H = np.diag([4.0, -2.0, 1.0])
        lam, u = min_eig(H, tol=1e-12)
        assert lam == pytest.approx(-2.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(u), [0, 1, 0], atol=1e-8)

    def test_positive_definite_bottom(self):
        # bottom of a pd matrix is positive; the solver uses the sign to
        # decide whether the psd step direction is zero
        H = np.diag([1.0, 2.0, 3.0]) + 0.1
        lam, _ = min_eig(H, tol=1e-10)
        assert lam > 0

    @pytest.mark.parametrize("routine", [min_eig, max_sing_vec], ids=["min_eig", "max_sing_vec"])
    def test_nonpositive_settings_raise(self, routine):
        A = np.random.default_rng(11).standard_normal((30, 30))
        with pytest.raises(ValueError, match="tol"):
            routine(A + A.T, tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            routine(A + A.T, tol=np.inf)
        with pytest.raises(ValueError, match="max_iters"):
            routine(A + A.T, max_iters=0)

    def test_requires_square(self):
        rng = np.random.default_rng(9)
        with pytest.raises(Exception):
            min_eig(rng.standard_normal((4, 5)))

    def test_implicit_route(self):
        op = CodedDiffractionOperator(10, 3, seed=2)
        rng = np.random.default_rng(10)
        z = rng.standard_normal(op.d)
        G = ImplicitGradientMatrix(op, z)
        lam, u = min_eig(G, tol=1e-9)
        # adjoint of a real z under this family is Hermitian; check residual
        resid = G.matvec(u) - lam * u
        scale = max(abs(lam), np.linalg.norm(G.matvec(u)))
        assert np.linalg.norm(resid) <= 1e-7 * max(scale, 1e-30)


def _gram_schmidt_passes(monkeypatch):
    """Row count of the basis at each Gram-Schmidt pass the Lanczos cycles run."""
    rows = []
    gs_pass = sketchycgm.spectral._gram_schmidt_pass

    def recording(B, w):
        rows.append(B.shape[0])
        gs_pass(B, w)

    monkeypatch.setattr(sketchycgm.spectral, "_gram_schmidt_pass", recording)
    return rows


def _repeated_passes(rows):
    # a step's passes all see the same basis; the next step sees one more row
    return sum(a == b for a, b in zip(rows, rows[1:]))


class TestReorthogonalization:
    def test_exhausted_krylov_space_takes_the_second_pass(self, monkeypatch):
        # rank 8: the Krylov space runs out after a few steps, and the last
        # step's vector is roundoff that one pass cancels almost entirely
        A = np.random.default_rng(12).standard_normal((300, 8))
        H = -(A @ A.T)
        # at tol 1e-16 no Ritz check can stop the call before the space runs
        # out, whatever the check cadence
        rows = _gram_schmidt_passes(monkeypatch)
        lam, u = min_eig(H, tol=1e-16)
        w = np.linalg.eigvalsh(H)
        assert lam == pytest.approx(w[0], rel=1e-10)
        assert np.linalg.norm(H @ u - lam * u) <= 1e-10 * np.abs(w).max()
        assert _repeated_passes(rows) >= 1

    def test_one_pass_while_the_space_grows(self, monkeypatch):
        M = np.random.default_rng(13).standard_normal((400, 400))
        rows = _gram_schmidt_passes(monkeypatch)
        min_eig(M + M.T, tol=1e-8)
        assert len(rows) > sketchycgm.spectral._KRYLOV_DIM
        assert _repeated_passes(rows) == 0


class TestRestart:
    """A call that outgrows the Krylov cap restarts over the same basis."""

    CAP = sketchycgm.spectral._KRYLOV_DIM
    CHARGE = ("spectral", 400 * CAP + 4 * CAP)

    def _matrix(self):
        M = np.random.default_rng(13).standard_normal((400, 400))
        return M + M.T

    def test_a_restarting_call_charges_one_basis(self, monkeypatch):
        H = self._matrix()
        rows = _gram_schmidt_passes(monkeypatch)
        charges = recorded_charges(monkeypatch)
        before = ledger.live()
        lam, _ = min_eig(H, tol=1e-8)
        assert len(rows) > self.CAP  # the call did restart
        assert charges == [self.CHARGE]
        assert ledger.live() == before
        assert lam == pytest.approx(np.linalg.eigvalsh(H)[0], rel=1e-9)

    def test_a_budget_spent_mid_cycle_raises_after_exactly_max_iters_steps(self, monkeypatch):
        rows = _gram_schmidt_passes(monkeypatch)
        charges = recorded_charges(monkeypatch)
        with pytest.raises(NoConvergence):
            min_eig(self._matrix(), tol=1e-14, max_iters=self.CAP + 2)
        # one Gram-Schmidt pass per step, so CAP + 2 steps; each cycle's first
        # step sees a one-row basis, so 2 cycles, the second cut short
        assert _repeated_passes(rows) == 0
        assert len(rows) == self.CAP + 2
        assert rows.count(1) == 2
        assert charges == [self.CHARGE]


class TestCheckEveryStep:
    """Every Lanczos step ends in a convergence check: one eigensolve of the
    step's J-by-J tridiagonal matrix."""

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("routine", [min_eig, max_sing_vec], ids=["min_eig", "max_sing_vec"])
    def test_each_step_eigensolves_its_tridiagonal(self, monkeypatch, routine, n):
        rows = _gram_schmidt_passes(monkeypatch)
        sizes = []
        eigh = np.linalg.eigh

        def recording(T):
            sizes.append(T.shape[0])
            return eigh(T)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        op = CodedDiffractionOperator(n, 4, seed=3)
        G = ImplicitGradientMatrix(op, np.random.default_rng(3).standard_normal(op.d))
        routine(G)
        assert _repeated_passes(rows) == 0
        assert len(rows) > 5
        # step J of a cycle sees a J-row basis and checks the J-by-J matrix
        assert sizes == rows


def _symmetric_entry_sampling(rng, n, frac):
    """Implicit Hermitian matrix over a mirrored entry sample with mirrored values."""
    rows, cols = random_mask(rng, n, n, frac)
    keep = rows <= cols
    rows, cols = rows[keep], cols[keep]
    off = rows < cols
    op = EntrySamplingOperator(n, n, np.r_[rows, cols[off]], np.r_[cols, rows[off]])
    vals = rng.standard_normal(rows.size)
    return ImplicitGradientMatrix(op, np.r_[vals, vals[off]])


def _gate_case(name, hermitian):
    rng = np.random.default_rng(11)
    if name == "dense-real":
        A = rng.standard_normal((60, 60) if hermitian else (60, 45))
        return 0.5 * (A + A.T) if hermitian else A
    if name == "dense-complex":
        shape = (50, 50) if hermitian else (50, 35)
        A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return 0.5 * (A + A.conj().T) if hermitian else A
    if name == "entry-sampling":
        if hermitian:
            return _symmetric_entry_sampling(rng, 50, 0.5)
        rows, cols = random_mask(rng, 60, 45, 0.5)
        op = EntrySamplingOperator(60, 45, rows, cols)
        return ImplicitGradientMatrix(op, rng.standard_normal(op.d))
    op = CodedDiffractionOperator(64, 4, seed=3)
    return ImplicitGradientMatrix(op, rng.standard_normal(op.d))


def _counted(routine, G, tol):
    counted = CountingLinop(G)
    return routine(counted, tol=tol), counted.calls


_GATE_NAMES = ("dense-real", "dense-complex", "entry-sampling", "coded-diffraction")


class TestRitzGate:
    """The gate skips explicit residuals that cannot pass and changes no output.

    The gate sits at the tolerance itself, so a check runs its explicit
    residual only once the free Ritz estimate meets the bound; the opened
    gate runs it at every check.
    """

    @pytest.mark.parametrize("name", _GATE_NAMES)
    @pytest.mark.parametrize("routine", [min_eig, max_sing_vec], ids=["min_eig", "max_sing_vec"])
    def test_gate_keeps_outputs_and_saves_matvecs(self, monkeypatch, routine, name):
        G = _gate_case(name, hermitian=routine is min_eig)
        gated, gated_calls = _counted(routine, G, 1e-10)
        # the reference runs the explicit residual at every check
        monkeypatch.setattr(sketchycgm.spectral, "_RITZ_GATE", np.inf)
        opened, opened_calls = _counted(routine, G, 1e-10)
        assert len(gated) == len(opened)
        for a, b in zip(gated, opened):
            np.testing.assert_array_equal(a, b)
        # a skipped check never stops a cycle, so a saving shows that the run
        # made at least two checks and the gate held one of them back
        if name == "coded-diffraction":
            assert gated_calls < opened_calls
        else:
            assert gated_calls <= opened_calls


class TestWarmStart:
    """A warm vector shifts the start of the first cycle and nothing else."""

    @pytest.mark.parametrize("name", ("dense-real", "dense-complex", "coded-diffraction"))
    @pytest.mark.parametrize("routine", [min_eig, max_sing_vec], ids=["min_eig", "max_sing_vec"])
    def test_none_or_zero_warm_is_the_cold_start(self, routine, name):
        G = _gate_case(name, hermitian=routine is min_eig)
        n = G.shape[1]
        cold = routine(G, tol=1e-10, seed=(0, 3))
        for warm in (None, np.zeros(n), np.zeros(n, dtype=complex)):
            got = routine(G, tol=1e-10, seed=(0, 3), warm=warm)
            for a, b in zip(got, cold):
                np.testing.assert_array_equal(a, b)

    def test_warm_start_near_the_answer_saves_matvecs(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((120, 120))
        H = A + A.T
        P = rng.standard_normal((120, 120))
        nearby = H + 1e-3 * (P + P.T)
        _, previous = min_eig(nearby, tol=1e-10)
        _, cold_calls = _counted(min_eig, H, 1e-10)
        counted = CountingLinop(H)
        lam, u = min_eig(counted, tol=1e-10, warm=previous)
        assert counted.calls < cold_calls
        w = np.linalg.eigvalsh(H)
        assert lam == pytest.approx(w[0], rel=1e-9)
        assert np.linalg.norm(H @ u - lam * u) <= 1e-10 * np.abs(w).max()

    def test_warm_vector_orthogonal_to_the_answer_still_finds_it(self):
        # a start in the second eigenvector alone would never leave it; the
        # seeded random part of the start keeps the bottom one reachable
        H = np.diag(np.linspace(-1.0, 1.0, 60))
        warm = np.zeros(60)
        warm[1] = 1.0
        lam, u = min_eig(H, tol=1e-10, warm=warm)
        assert lam == pytest.approx(-1.0, rel=1e-12)
        assert abs(u[0]) == pytest.approx(1.0, rel=1e-9)

    def test_implicit_gradient_matrix_counts_its_products(self):
        G = _gate_case("coded-diffraction", hermitian=False)
        counted = CountingLinop(G)
        max_sing_vec(counted, tol=1e-8)
        assert G.calls == counted.calls > 0
