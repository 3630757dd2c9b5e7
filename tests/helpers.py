"""Shared oracles and instance builders for the test suite.

The dense sensing matrix is the independent oracle for every measurement
family: column (i*n + j) holds the measurement of the basis matrix
e_i e_j^T, so A @ X.ravel() measures X without going through any of the
rank-one fast paths under test.
"""

import numpy as np

from sketchycgm import (
    EntrySamplingOperator,
    Loss,
    ProblemSpec,
    SpectralConfig,
    ledger,
)
from sketchycgm.spectral import _as_linop


def dense_sensing_matrix(op) -> np.ndarray:
    """d x (m*n) matrix with columns 𝒜(e_i e_j^T), built entry by entry."""
    m, n = op.m, op.n
    cols = np.empty((op.d, m * n), dtype=complex)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = 1.0
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = 1.0
            cols[:, i * n + j] = op.apply_rank_one(ei, ej)
    if op.field == np.float64:
        assert np.abs(cols.imag).max() == 0.0
        return cols.real
    return cols


def adjoint_via_dense(op, z) -> np.ndarray:
    A = dense_sensing_matrix(op)
    return (A.conj().T @ np.asarray(z)).reshape(op.m, op.n)


class CountingLinop:
    """Counts the matvec and rmatvec calls made on a linear operator.

    Wraps anything the spectral routines accept (a dense array, or an object
    with shape, iscomplex, matvec and rmatvec) and applies it unchanged.
    """

    def __init__(self, G):
        self.inner = _as_linop(G)
        self.shape, self.iscomplex = self.inner.shape, self.inner.iscomplex
        self.calls = 0

    def matvec(self, v):
        self.calls += 1
        return self.inner.matvec(v)

    def rmatvec(self, u):
        self.calls += 1
        return self.inner.rmatvec(u)


def recorded_charges(monkeypatch) -> list:
    """List of every (tag, count) the process ledger tracks from now on."""
    charges = []
    track = ledger.track

    def recording(tag, count):
        charges.append((tag, count))
        return track(tag, count)

    monkeypatch.setattr(ledger, "track", recording)
    return charges


def random_mask(rng, m, n, frac):
    """Duplicate-free index pair sample covering round(frac * m * n) entries."""
    count = max(1, int(round(frac * m * n)))
    flat = rng.choice(m * n, size=count, replace=False)
    return flat // n, flat % n


def spiked_completion_problem(
    seed,
    m=30,
    n=20,
    obs_fraction=0.9,
    alpha=0.5,
    rank=3,
    spike=2.0,
    eps=1e-300,
    max_iters=200,
    spectral=None,
):
    """Gauss completion instance whose data is dominated by one rank-one spike.

    With alpha far below the spike's strength the linear minimization step
    selects essentially the same extreme point at every iteration.  The dense
    oracle follows the sketched run's vertices bit for bit on this family as
    on any other; the loop-invariant and gap-soundness acceptance checks run
    on it.
    """
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(m)
    u0 /= np.linalg.norm(u0)
    v0 = rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    B = 0.1 * rng.standard_normal((m, n)) + spike * np.outer(u0, v0)
    rows, cols = random_mask(rng, m, n, obs_fraction)
    values = B[rows, cols]
    op = EntrySamplingOperator(m, n, rows, cols)
    loss = Loss("gauss", values, normalization=1.0 / values.size)
    return ProblemSpec(
        op=op,
        loss=loss,
        alpha=alpha,
        rank=rank,
        template="schatten1",
        eps=eps,
        max_iters=max_iters,
        spectral=spectral if spectral is not None else SpectralConfig(),
    )


def nuclear_ball_projection_objective(B, rows, cols, values, alpha, tol=1e-12):
    """Optimal value of min 0.5/d * ||P(X) - b||^2 over ||X||_S1 <= alpha.

    Only valid when every entry is observed (P = identity on the masked
    entries covering the full matrix): the minimizer is the Euclidean
    projection of B onto the nuclear-norm ball, computed by soft-thresholding
    the singular values with a bisected threshold.
    """
    m, n = B.shape
    assert values.size == m * n, "projection oracle needs full observation"
    U, s, Vh = np.linalg.svd(B, full_matrices=False)
    if s.sum() <= alpha:
        return 0.0
    lo, hi = 0.0, s[0]
    while hi - lo > tol * max(1.0, s[0]):
        mid = 0.5 * (lo + hi)
        if np.maximum(s - mid, 0.0).sum() > alpha:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    X = (U * np.maximum(s - t, 0.0)) @ Vh
    resid = X[rows, cols] - values
    return float(0.5 * np.dot(resid, resid) / values.size)
