"""Dense reference solver and evaluation metrics.

The reference solver drives the sketched solver's own conditional gradient
loop (``solver._cgm_loop``) but carries the full matrix iterate, so tests
can compare the implicit state against ground truth. It is deliberately
guarded to small problems: its role is oracle, not production path. It
runs the spec as given, to spec.max_iters; a spec with the poisson loss
carries z by the sketched solver's recurrence instead of re-measuring the
dense iterate. With spectral_mode="lanczos" it calls the same seeded
linear minimization oracle as the sketched solver, so both produce
identical direction sequences; spectral_mode="dense" swaps in full
factorizations for runs that must reach very small gaps without
iterative-solver stalls. Either way the extreme pair becomes a vertex
through the one shared ``solver.vertex`` routine.

Metrics: effective rank of a spectrum, phase-aligned relative error for
phase retrieval, PSNR, and held-out entrywise test error evaluated from
factors without densifying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooLargeForDense, ZeroTruth
from .losses import LOSS_KINDS, Loss
from .memory import ledger
from .sketch import FactoredMatrix
from .solver import Direction, ProblemSpec, _cgm_loop, _initial_z, update_direction, vertex
from .spectral import _canonical_phase

__all__ = [
    "DENSE_GUARD",
    "DenseIterate",
    "EvalSpec",
    "measure_dense",
    "dense_adjoint",
    "cgm_dense_solve",
    "record_spectra",
    "save_spectra_csv",
    "eps_rank",
    "phase_aligned_error",
    "psnr",
    "test_error",
]

DENSE_GUARD = 1_000_000  # max m*n the dense oracle will touch


@dataclass
class DenseIterate:
    """Snapshot handed to solve callbacks; X is a live view, copy before storing."""

    X: np.ndarray
    t: int
    gap: float


@dataclass
class EvalSpec:
    """Held-out entries (rows, cols, values) and the penalty that scores them.

    loss_kind picks the entrywise penalty for test_error. When the training
    index set is supplied the constructor enforces that the two sets are
    disjoint.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    loss_kind: str = "gauss"
    train_rows: np.ndarray | None = None
    train_cols: np.ndarray | None = None

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.intp)
        self.cols = np.asarray(self.cols, dtype=np.intp)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.rows.size == 0:
            raise ValueError("test set is empty")
        if not (self.rows.shape == self.cols.shape == self.values.shape):
            raise DimensionMismatch("rows, cols, values must have equal length")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if (self.train_rows is None) != (self.train_cols is None):
            raise ValueError("supply both train index arrays or neither")
        if self.train_rows is not None:
            train_rows = np.asarray(self.train_rows, dtype=np.intp).ravel()
            train_cols = np.asarray(self.train_cols, dtype=np.intp).ravel()
            if train_rows.size != train_cols.size:
                raise DimensionMismatch("train_rows and train_cols must have equal length")
            if train_rows.size:
                # flat indices on a grid wide enough for every column of both sets
                width = int(np.concatenate((self.cols.ravel(), train_cols)).max()) + 1
                train = np.sort(train_rows * width + train_cols)
                test = self.rows.ravel() * width + self.cols.ravel()
                nearest = np.minimum(np.searchsorted(train, test), train.size - 1)
                if np.any(train[nearest] == test):
                    raise ValueError("test entries overlap the training set")


def measure_dense(op, X: np.ndarray) -> np.ndarray:
    """Apply the operator to a dense matrix using only its rank-one primitive."""
    X = np.asarray(X)
    if X.shape != (op.m, op.n):
        raise DimensionMismatch(f"X has shape {X.shape}, expected {(op.m, op.n)}")
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    z = np.zeros(op.d, dtype=np.result_type(op.field, np.float64))
    for j in range(s.size):
        if s[j] == 0.0:
            break
        z = z + s[j] * op.apply_rank_one(U[:, j], Vh[j].conj())
    return z


def dense_adjoint(op, z: np.ndarray) -> np.ndarray:
    """Materialize the adjoint image of z, one basis column at a time."""
    if op.m * op.n > DENSE_GUARD:
        raise TooLargeForDense(f"{op.m}x{op.n} exceeds the dense guard")
    G = np.zeros((op.m, op.n), dtype=np.result_type(op.field, np.float64))
    e = np.zeros(op.n, dtype=op.field)
    for j in range(op.n):
        e[j] = 1.0
        G[:, j] = op.right_apply_adjoint(z, e)
        e[j] = 0.0
    return G


def _dense_real(z: np.ndarray) -> np.ndarray:
    # measurement families here are real valued; imaginary residue is roundoff
    return z.real if np.iscomplexobj(z) else z


def _exact_direction(spec: ProblemSpec, grad: np.ndarray, t: int) -> Direction:
    """Vertex from a full factorization, canonicalized like the iterative path."""
    G = dense_adjoint(spec.op, grad)
    if spec.template == "psd":
        w, P = np.linalg.eigh(0.5 * (G + G.conj().T))
        u = P[:, 0]
        return vertex(spec, u * _canonical_phase(u), lam=float(w[0]))
    U, _s, Vh = np.linalg.svd(G)
    u, v = U[:, 0], Vh[0].conj()
    ph = _canonical_phase(u)
    return vertex(spec, u * ph, v * ph)


def cgm_dense_solve(
    spec: ProblemSpec,
    spectral_mode: str = "lanczos",
    trace_every: int = 1,
    callback=None,
):
    """Dense conditional gradient run; returns (X, trace).

    Stops when the duality gap reaches spec.eps or after spec.max_iters
    updates. callback(DenseIterate) fires at every recorded iterate, before
    the update is applied. Like solve, it charges the operator's storage
    only while it runs.
    """
    op = spec.op
    if op.m * op.n > DENSE_GUARD:
        raise TooLargeForDense(f"{op.m}x{op.n} exceeds the dense guard {DENSE_GUARD}")
    if spectral_mode not in ("lanczos", "dense"):
        raise ValueError(f"unknown spectral_mode {spectral_mode!r}")
    m, n = op.m, op.n
    width = 2 if np.issubdtype(np.dtype(op.field), np.complexfloating) else 1
    k = min(m, n)
    X = np.zeros((m, n), dtype=op.field)
    poisson = spec.variant == "poisson"

    def advance(z, vert, eta):
        X[:] = (1.0 - eta) * X + eta * np.outer(vert.left, vert.right.conj())
        if poisson:
            return (1.0 - eta) * z + eta * vert.h
        return _dense_real(measure_dense(op, X))

    def observe(record):
        if callback is not None:
            callback(DenseIterate(X=X, t=record.t, gap=record.gap))

    direction = update_direction if spectral_mode == "lanczos" else _exact_direction
    trace = []
    dense = width * (2 * m * n + k * (m + n + 1))
    with ledger.track("operators", op.scalars), ledger.track("dense_cgm", dense):
        _cgm_loop(spec, _initial_z(spec), direction, advance, observe, trace_every, trace)
    return X, trace


def record_spectra(spec: ProblemSpec, every=1):
    """Dense run that also collects the singular spectrum of each recorded iterate."""
    rows: list[tuple[int, np.ndarray]] = []

    def grab(it: DenseIterate):
        rows.append((it.t, np.linalg.svd(it.X, compute_uv=False)))

    X, trace = cgm_dense_solve(spec, trace_every=every, callback=grab)
    return X, trace, rows


def save_spectra_csv(path, rows) -> None:
    """Write (iteration, sigma1..sigmak) rows as CSV."""
    k = len(rows[0][1]) if rows else 0
    with open(path, "w", encoding="utf-8") as f:
        f.write("iteration," + ",".join(f"sigma{j + 1}" for j in range(k)) + "\n")
        for t, s in rows:
            f.write(f"{t}," + ",".join(f"{x:.17g}" for x in s) + "\n")


def eps_rank(singular_values, eps: float) -> int:
    """Count of singular values exceeding eps times the largest."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    s = np.asarray(singular_values, dtype=np.float64)
    if s.size == 0:
        return 0
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        raise ValueError("singular values must be nonnegative and sorted descending")
    return int(np.count_nonzero(s > eps * s[0]))


def phase_aligned_error(xhat, x) -> float:
    """Relative error minimized over a global phase rotation of xhat."""
    xhat = np.asarray(xhat)
    x = np.asarray(x)
    if xhat.shape != x.shape:
        raise DimensionMismatch(f"shapes {xhat.shape} and {x.shape} differ")
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ZeroTruth("reference signal is zero")
    gap = np.linalg.norm(xhat) ** 2 + nx**2 - 2.0 * abs(np.vdot(xhat, x))
    return float(np.sqrt(max(gap, 0.0)) / nx)


def psnr(xhat, x, peak: float) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs give +inf."""
    xhat = np.asarray(xhat)
    x = np.asarray(x)
    if xhat.shape != x.shape:
        raise DimensionMismatch(f"shapes {xhat.shape} and {x.shape} differ")
    if not peak > 0:
        raise ValueError("peak must be positive")
    rmse = np.linalg.norm((xhat - x).ravel()) / np.sqrt(x.size)
    if rmse == 0.0:
        return float("inf")
    return float(20.0 * np.log10(peak / rmse))


def test_error(factors: FactoredMatrix, spec: EvalSpec) -> float:
    """Mean entrywise penalty on held-out entries, straight from factors."""
    m, n = factors.shape
    if spec.rows.size and (spec.rows.max() >= m or spec.cols.max() >= n):
        raise DimensionMismatch("test indices exceed the factor shape")
    pred = factors.entries(spec.rows, spec.cols)
    if np.iscomplexobj(pred):
        pred = pred.real
    probe = Loss(spec.loss_kind, spec.values, normalization=1.0 / spec.values.size)
    return float(probe.value(pred))
