"""Two-sided and psd Nystrom sketches: loop invariants, exactness, reconstruction contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchycgm import (
    DimensionMismatch,
    FactoredMatrix,
    NonFiniteInput,
    RankDeficientPsiQ,
    Sketch,
    ledger,
)
from helpers import recorded_charges


def _rand_pair(rng, m, n, complex_field):
    if complex_field:
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        u, v = rng.standard_normal(m), rng.standard_normal(n)
    return u, v


def test_sketch_dims():
    sk = Sketch(10, 7, 2, field="real", seed=0)
    assert (sk.m, sk.n, sk.r) == (10, 7, 2)
    assert sk.Omega.shape == (7, 2 * 2 + 1)
    assert sk.Psi.shape == (4 * 2 + 3, 10)
    with pytest.raises(ValueError, match="dimensions"):
        Sketch(0, 7, 1)
    for r in (0, 8):
        with pytest.raises(ValueError, match="rank"):
            Sketch(10, 7, r)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rank_r_exactness(field):
    rng = np.random.default_rng(3)
    m, n, r = 25, 18, 3
    complex_field = field == "complex"
    sk = Sketch(m, n, r, field=field, seed=5)
    X = np.zeros((m, n), dtype=sk.field)
    for _ in range(r):
        u, v = _rand_pair(rng, m, n, complex_field)
        sk.linear_update(1.0, 1.0, u, v)
        X += np.outer(u, np.conj(v))
    Xhat = sk.reconstruct().dense()
    assert np.linalg.norm(X - Xhat) <= 1e-10 * np.linalg.norm(X)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 12))
def test_linear_update_tracks_dense_shadow(seed, steps):
    # Y and W must stay exactly X @ Omega and Psi @ X for the dense shadow X
    rng = np.random.default_rng(seed)
    m, n, r = 9, 6, 2
    sk = Sketch(m, n, r, field="real", seed=seed)
    X = np.zeros((m, n))
    for _ in range(steps):
        b1, b2 = rng.uniform(-1.5, 1.5, size=2)
        u, v = _rand_pair(rng, m, n, False)
        sk.linear_update(b1, b2, u, v)
        X = b1 * X + b2 * np.outer(u, v)
    np.testing.assert_allclose(sk.Y, X @ sk.Omega, atol=1e-10)
    np.testing.assert_allclose(sk.W, sk.Psi @ X, atol=1e-10)


def test_cgm_update_is_convex_combination():
    rng = np.random.default_rng(11)
    m, n = 8, 5
    a = Sketch(m, n, 2, field="real", seed=1)
    b = Sketch(m, n, 2, field="real", seed=1)
    u0, v0 = _rand_pair(rng, m, n, False)
    u1, v1 = _rand_pair(rng, m, n, False)
    for sk in (a, b):
        sk.linear_update(1.0, 1.0, u0, v0)
    a.cgm_update(u1, v1, 0.25)
    b.linear_update(0.75, 0.25, u1, v1)
    np.testing.assert_array_equal(a.Y, b.Y)
    np.testing.assert_array_equal(a.W, b.W)


def test_cgm_update_eta_domain():
    sk = Sketch(4, 4, 1, field="real", seed=0)
    with pytest.raises(ValueError, match="eta"):
        sk.cgm_update(np.ones(4), np.ones(4), 1.5)


def test_zero_sketch_reconstructs_zero():
    sk = Sketch(6, 4, 2, field="real", seed=2)
    f = sk.reconstruct()
    assert f.rank == 2
    np.testing.assert_array_equal(f.dense(), np.zeros((6, 4)))
    # the reconstruction rank is the sketch's own, and psd is set at construction
    with pytest.raises(TypeError):
        sk.reconstruct(r=1)
    with pytest.raises(TypeError):
        sk.reconstruct(psd=True)


def test_complex_factors_rejected_on_real_sketch():
    sk = Sketch(4, 4, 1, field="real", seed=0)
    with pytest.raises(DimensionMismatch):
        sk.linear_update(1.0, 1.0, np.ones(4) * 1j, np.ones(4))


def test_nonfinite_update_rejected():
    sk = Sketch(4, 4, 1, field="real", seed=0)
    with pytest.raises(NonFiniteInput):
        sk.linear_update(1.0, np.nan, np.ones(4), np.ones(4))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [12, 40])  # 12 < 6r + 4: Omega holds all n columns
def test_psd_reconstruction_is_exact(n, field):
    rng = np.random.default_rng(7)
    r = 3
    A = rng.standard_normal((n, r))
    if field == "complex":
        A = A + 1j * rng.standard_normal((n, r))
    Q = np.linalg.qr(A)[0]
    lam = np.array([3.0, 1.0, 0.5])
    X = (Q * lam) @ Q.conj().T
    sk = Sketch(n, n, r, field=field, seed=9, psd=True)
    assert sk.Omega.shape == (n, min(6 * r + 4, n))
    for j in range(r):
        sk.linear_update(1.0, lam[j], Q[:, j], Q[:, j])
    f = sk.reconstruct()
    np.testing.assert_array_equal(f.U, f.V)
    assert np.all(f.S >= 0)
    np.testing.assert_allclose(f.dense(), X, atol=1e-10)


def test_psd_reconstruction_pads_to_rank():
    # one update leaves a rank-one sketch; the factors keep r columns
    sk = Sketch(12, 12, 3, field="real", seed=1, psd=True)
    u = np.random.default_rng(4).standard_normal(12)
    sk.cgm_update(u, u, 0.5)
    f = sk.reconstruct()
    assert f.U.shape == (12, 3) and f.rank == 3
    np.testing.assert_allclose(f.S, [0.5 * (u @ u), 0.0, 0.0], rtol=1e-12)
    np.testing.assert_allclose(f.dense(), 0.5 * np.outer(u, u), atol=1e-12)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sketch_stores_its_shadows_and_psi(field):
    # Omega is drawn again when needed, so neither sketch counts it
    m, n, r = 48, 64, 2
    k, ell = 2 * r + 1, 4 * r + 3
    width = 2 if field == "complex" else 1
    two_sided = Sketch(m, n, r, field=field, seed=0)
    assert two_sided.scalars == width * (m * k + ell * n + ell * m)
    psd = Sketch(n, n, r, field=field, seed=0, psd=True)
    assert psd.Psi.size == psd.W.size == 0
    assert psd.scalars == width * n * (k + ell)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("psd", [False, True])
def test_omega_is_the_construction_time_draw(psd, field):
    # the expression that drew Omega and then Psi at construction, and kept both
    m, n, r, seed = 40, 30, 2, 17
    k = min(6 * r + 4, n) if psd else 2 * r + 1
    ell = 0 if psd else 4 * r + 3
    rng = np.random.default_rng(seed)
    if field == "complex":
        scale = 1.0 / np.sqrt(2.0)
        omega = scale * (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        psi = scale * (rng.standard_normal((ell, n if psd else m))
                       + 1j * rng.standard_normal((ell, n if psd else m)))
    else:
        omega = rng.standard_normal((n, k))
        psi = rng.standard_normal((ell, n if psd else m))
    sk = Sketch(n if psd else m, n, r, field=field, seed=seed, psd=psd)
    for _ in range(2):
        assert sk.Omega.dtype == omega.dtype and sk.Omega.tobytes() == omega.tobytes()
    assert sk.Psi.dtype == psi.dtype and sk.Psi.tobytes() == psi.tobytes()
    # no attribute keeps Omega: the only n x k array is the psd sketch's Y
    held = [name for name, a in vars(sk).items()
            if isinstance(a, np.ndarray) and a.shape == (n, k)]
    assert held == (["Y"] if psd else [])
    with pytest.raises(AttributeError):
        sk.Omega = omega


def test_unseeded_sketch_draws_one_omega():
    # seed=None takes fresh entropy once; the updates and the reconstruction
    # must all see the same Omega
    sk = Sketch(25, 18, 3, field="real", seed=None)
    np.testing.assert_array_equal(sk.Omega, sk.Omega)
    rng = np.random.default_rng(8)
    X = np.zeros((25, 18))
    for _ in range(3):
        u, v = _rand_pair(rng, 25, 18, False)
        sk.linear_update(1.0, 1.0, u, v)
        X += np.outer(u, v)
    np.testing.assert_allclose(sk.Y, X @ sk.Omega, atol=1e-10)
    assert np.linalg.norm(X - sk.reconstruct().dense()) <= 1e-10 * np.linalg.norm(X)


def test_psd_reconstruction_needs_square():
    with pytest.raises(DimensionMismatch):
        Sketch(5, 4, 1, field="real", seed=0, psd=True)


def test_rank_deficient_psiq_detected():
    sk = Sketch(6, 6, 2, field="real", seed=0)
    sk.linear_update(1.0, 1.0, np.ones(6), np.ones(6))
    # collapse Psi so Psi @ Q cannot be inverted against W
    sk.Psi = np.outer(np.ones(4 * 2 + 3), np.eye(6)[0])
    with pytest.raises(RankDeficientPsiQ):
        sk.reconstruct()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_reconstruction_solve_matches_lstsq(field):
    # the thin-SVD solve of (Psi Q) B = W against a least-squares solver
    rng = np.random.default_rng(11)
    m, n, r = 40, 30, 5
    sk = Sketch(m, n, r, field=field, seed=2)
    for _ in range(2 * r):
        sk.linear_update(0.9, 1.0, *_rand_pair(rng, m, n, field == "complex"))
    Q = np.linalg.qr(sk.Y)[0]
    B = np.linalg.lstsq(sk.Psi @ Q, sk.W, rcond=None)[0]
    Ub, s, Vh = np.linalg.svd(B, full_matrices=False)
    expect = (Q @ Ub[:, :r] * s[:r]) @ Vh[:r]
    got = sk.reconstruct().dense()
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "m, n, r, psd", [(2000, 1500, 5, False), (600, 900, 3, False), (1000, 1000, 4, True)]
)
def test_reconstruct_charge_bounds_traced_peak(monkeypatch, m, n, r, psd, field):
    # the scratch charge covers every array a reconstruction allocates, and
    # not by more than a factor two; at these shapes the interpreter's own
    # objects are a small part of the traced peak
    rng = np.random.default_rng(12)
    sk = Sketch(m, n, r, field=field, seed=3, psd=psd)
    for _ in range(2 * r):
        u, v = _rand_pair(rng, m, n, field == "complex")
        sk.linear_update(0.9, 1.0, u, u if psd else v)
    charges = recorded_charges(monkeypatch)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sk.reconstruct()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [(tag, charged)] = charges
    traced = (peak - start) / 8
    assert tag == "sketch"
    assert traced <= charged <= 2 * traced


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "m, n, r, psd", [(2000, 1500, 5, False), (600, 900, 3, False), (1000, 1000, 4, True)]
)
def test_linear_update_charge_bounds_traced_peak(monkeypatch, m, n, r, psd, field):
    # the update charges the Omega it draws and its rank-one products while
    # it holds them, and the charge is within a factor two of the traced
    # peak. The ledger counts arrays: numpy's iterator buffers (one
    # per broadcast input of an outer product) and the interpreter's own
    # objects are outside it, and they do not grow with the sketch
    uncounted = 2 * np.getbufsize() + 1024
    rng = np.random.default_rng(13)
    sk = Sketch(m, n, r, field=field, seed=4, psd=psd)
    u, v = _rand_pair(rng, m, n, field == "complex")
    if psd:
        v = u
    sk.linear_update(1.0, 1.0, u, v)
    before = ledger.live()
    charges = recorded_charges(monkeypatch)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sk.linear_update(0.9, 1.0, u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ledger.live() == before
    [(tag, charged)] = charges
    traced = (peak - start) / 8
    assert tag == "sketch"
    assert traced - uncounted <= charged <= 2 * traced


class TestFactoredMatrix:
    def _factors(self, complex_field=False):
        rng = np.random.default_rng(21)
        U = np.linalg.qr(rng.standard_normal((7, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        if complex_field:
            U = U.astype(complex) * np.exp(0.3j)
            V = V.astype(complex) * np.exp(-0.1j)
        return FactoredMatrix(U, [2.0, 0.5], V)

    def test_entries_match_dense(self):
        f = self._factors()
        rows = np.array([0, 3, 6])
        cols = np.array([1, 4, 2])
        np.testing.assert_allclose(
            f.entries(rows, cols), f.dense()[rows, cols], atol=1e-14
        )

    def test_top_vector(self):
        f = self._factors()
        np.testing.assert_allclose(f.top_vector(), f.U[:, 0] * np.sqrt(2.0))

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_save_load_round_trip(self, tmp_path, complex_field):
        f = self._factors(complex_field)
        f.save(tmp_path)
        g = FactoredMatrix.load(tmp_path)
        np.testing.assert_allclose(g.dense(), f.dense(), atol=1e-12)

    def test_unsorted_weights_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            FactoredMatrix(np.eye(3, 2), [1.0, 2.0], np.eye(3, 2))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            FactoredMatrix(np.eye(3, 1), [-1.0], np.eye(3, 1))
