"""Dense reference solver and evaluation metrics.

The reference solver drives the sketched solver's own conditional gradient
loop (``solver._cgm_loop``) but carries the full matrix iterate, so tests
can compare the implicit state against ground truth. It is deliberately
guarded to small problems: its role is oracle, not production path. It
runs the spec as given, to spec.max_iters. The shared loop steps z by its
own recurrence and the dense X moves by the same vertices, never measured
back into z, so X stays the ground truth that z and the sketch are checked
against. With spectral_mode="lanczos" it calls the same seeded linear
minimization oracle as the sketched solver, warm-started the same way, so
the run shadows the sketched one bit for bit; spectral_mode="dense" swaps
in full factorizations for runs that must reach very small gaps without
iterative-solver stalls. Either way the extreme pair becomes a vertex
through the one shared ``solver.vertex`` routine. Its callback has solve's
shape, callback(record, X), with X the dense iterate: a live view, to copy
before storing.

Metrics: effective rank of a spectrum, phase-aligned relative error for
phase retrieval, PSNR, and held-out entrywise test error evaluated from
factors without densifying.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, TooLargeForDense, ZeroTruth
from .losses import Loss
from .memory import ledger, nscalars
from .sketch import FactoredMatrix
from .solver import Direction, ProblemSpec, _cgm_loop, _initial_z, update_direction, vertex
from .spectral import _canonical_phase

__all__ = [
    "DENSE_GUARD",
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
class EvalSpec:
    """Held-out entries (rows, cols, values) and the penalty that scores them.

    Values are real and finite, and indices 0-based and never negative;
    test_error checks the indices' upper bounds against the factors.
    loss_kind picks the entrywise penalty: the constructor builds it once,
    as the Loss ``loss`` over values with normalization 1/size, and
    test_error scores with it. When the training index set is supplied the
    constructor enforces that the two sets are disjoint; it is not kept, so
    a copy made with dataclasses.replace is not re-checked against training
    entries. replace reads the training arguments' None defaults from the
    class attributes dataclasses leave for them.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    loss_kind: str = "gauss"
    train_rows: InitVar[np.ndarray | None] = None
    train_cols: InitVar[np.ndarray | None] = None
    loss: Loss = field(init=False, repr=False, compare=False)

    def __post_init__(self, train_rows, train_cols):
        self.rows = np.asarray(self.rows, dtype=np.intp)
        self.cols = np.asarray(self.cols, dtype=np.intp)
        if self.rows.size == 0:
            raise ValueError("test set is empty")
        if not (self.rows.shape == self.cols.shape == np.shape(self.values)):
            raise DimensionMismatch("rows, cols, values must have equal length")
        self.loss = Loss(self.loss_kind, self.values, normalization=1.0 / self.rows.size)
        self.values = self.loss.b
        if self.rows.min() < 0 or self.cols.min() < 0:
            raise IndexOutOfRange("held-out indices must be non-negative")
        if (train_rows is None) != (train_cols is None):
            raise ValueError("supply both train index arrays or neither")
        if train_rows is not None:
            train_rows = np.asarray(train_rows, dtype=np.intp).ravel()
            train_cols = np.asarray(train_cols, dtype=np.intp).ravel()
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


def _exact_direction(spec: ProblemSpec, grad: np.ndarray, t: int, previous=None) -> Direction:
    """Vertex from a full factorization, canonicalized like the iterative path.

    A full factorization needs no start vector, so previous is ignored. Its
    workspace counts under "spectral", the tag of the Krylov oracle, while
    the call runs.
    """
    op = spec.op
    m, n = op.m, op.n
    width = 2 if op.field.kind == "c" else 1
    # an upper bound on the arrays live at once: G beside its full SVD, or G
    # beside its Hermitian part and eigh's factors
    with ledger.track("spectral", width * (m * n + m * m + n * n + min(m, n))):
        G = dense_adjoint(op, grad)
        if spec.template == "psd":
            w, P = np.linalg.eigh(0.5 * (G + G.conj().T))
            u = P[:, 0]
            return vertex(spec, u * _canonical_phase(u), rho=float(w[0]))
        U, s, Vh = np.linalg.svd(G)
        u, v = U[:, 0], Vh[0].conj()
        ph = _canonical_phase(u)
        return vertex(spec, u * ph, v * ph, float(s[0]))


def cgm_dense_solve(
    spec: ProblemSpec,
    spectral_mode: str = "lanczos",
    trace_every: int = 1,
    callback=None,
):
    """Dense conditional gradient run; returns (X, trace).

    Stops when the duality gap reaches spec.eps or after spec.max_iters
    updates. The dense X is the shadow it hands to solve's own loop, which
    steps and charges z, so with spectral_mode="lanczos" the trace is
    solve's bit for bit, wall_ms aside. X moves in place beside one m x n
    outer product, and those two arrays are all it charges ("dense_cgm")
    besides the operator; the loop state is charged as in solve.
    callback(record, X) fires at every recorded iterate, before the update
    is applied, with the record that then joins the trace and X the dense
    iterate, a live view to copy before storing.
    """
    op = spec.op
    if op.m * op.n > DENSE_GUARD:
        raise TooLargeForDense(f"{op.m}x{op.n} exceeds the dense guard {DENSE_GUARD}")
    if spectral_mode not in ("lanczos", "dense"):
        raise ValueError(f"unknown spectral_mode {spectral_mode!r}")
    X = np.zeros((op.m, op.n), dtype=op.field)

    def shadow(left, v, eta):
        nonlocal X  # the in-place operators rebind X to itself
        P = np.outer(left, v.conj())
        P *= eta
        X *= 1.0 - eta
        X += P

    def observe(record):
        if callback is not None:
            callback(record, X)

    direction = update_direction if spectral_mode == "lanczos" else _exact_direction
    trace = []
    with ledger.track("operators", op.scalars), ledger.track("dense_cgm", 2 * nscalars(X)):
        _cgm_loop(spec, _initial_z(spec), direction, shadow, observe, trace_every, trace)
    return X, trace


def record_spectra(spec: ProblemSpec, every=1):
    """Dense run that also collects the singular spectrum of each recorded iterate."""
    rows: list[tuple[int, np.ndarray]] = []

    def grab(record, X):
        rows.append((record.t, np.linalg.svd(X, compute_uv=False)))

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
    """Mean entrywise penalty on held-out entries, straight from real factors."""
    m, n = factors.shape
    if spec.rows.size and (spec.rows.max() >= m or spec.cols.max() >= n):
        raise DimensionMismatch("test indices exceed the factor shape")
    return float(spec.loss.value(factors.entries(spec.rows, spec.cols)))
