"""Two-sided randomized sketch of an implicitly maintained matrix.

For a target rank r the sketch draws fixed Gaussian test matrices
Omega (n by k) and Psi (ell by m) with k = 2r + 1 and ell = 4r + 3, and
tracks the shadows of an m-by-n matrix X that is never formed:

    Y = X Omega        (m by k)
    W = Psi X          (ell by n)

Rank-one linear updates X <- beta1 X + beta2 u v* cost Theta(r (m + n)).
Reconstruction orthogonalizes Y into a range basis Q, solves the least
squares system (Psi Q) B = W through one thin SVD of Psi Q, and truncates
the SVD of B to rank r, giving a factorization of Q [B]_r without any
m-by-n intermediate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, RankDeficientPsiQ
from .memory import ledger, nscalars

__all__ = ["SketchDims", "Sketch", "FactoredMatrix"]

_PSIQ_RCOND = 1e-12


@dataclass(frozen=True)
class SketchDims:
    """Test-matrix shapes for a rank-r sketch of an m-by-n matrix."""

    m: int
    n: int
    r: int

    def __post_init__(self):
        if min(self.m, self.n) < 1:
            raise ValueError("matrix dimensions must be positive")
        if not 1 <= self.r <= min(self.m, self.n):
            raise ValueError("rank must satisfy 1 <= r <= min(m, n)")

    @property
    def k(self) -> int:
        return 2 * self.r + 1

    @property
    def ell(self) -> int:
        return 4 * self.r + 3


def _normalize_field(field) -> np.dtype:
    if field in ("real", np.float64, float):
        return np.dtype(np.float64)
    if field in ("complex", np.complex128, complex):
        return np.dtype(np.complex128)
    raise ValueError(f"unsupported field {field!r}")


@dataclass(eq=False)
class FactoredMatrix:
    """Rank-r factorization X = U diag(S) V* with orthonormal U, V columns.

    For psd reconstructions U and V coincide and S holds eigenvalues. Zero
    reconstructions carry all-zero factors, in which case orthonormality is
    vacuous.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U)
        self.S = np.asarray(self.S, dtype=float).ravel()
        self.V = np.asarray(self.V)
        r = self.S.size
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise DimensionMismatch("U and V must be 2-D")
        if self.U.shape[1] != r or self.V.shape[1] != r:
            raise DimensionMismatch("factor column counts must match len(S)")
        if np.any(self.S < 0):
            raise ValueError("S must be nonnegative")
        if np.any(np.diff(self.S) > 1e-12 * max(self.S[0] if r else 0.0, 1e-300)):
            raise ValueError("S must be sorted in descending order")

    @property
    def rank(self) -> int:
        return self.S.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[0])

    def dense(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.conj().T

    def entries(self, rows, cols) -> np.ndarray:
        """Entries X[rows[i], cols[i]] evaluated from the factors."""
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        if rows.size != cols.size:
            raise DimensionMismatch("rows and cols must have the same length")
        return ((self.U[rows] * self.S) * np.conj(self.V[cols])).sum(axis=1)

    def top_vector(self) -> np.ndarray:
        """Leading factor column scaled by the root of its weight."""
        return self.U[:, 0] * np.sqrt(self.S[0])

    def save(self, dirpath) -> None:
        os.makedirs(dirpath, exist_ok=True)
        _write_matrix_csv(os.path.join(dirpath, "U.csv"), self.U)
        _write_matrix_csv(os.path.join(dirpath, "S.csv"), self.S.reshape(-1, 1))
        _write_matrix_csv(os.path.join(dirpath, "V.csv"), self.V)

    @classmethod
    def load(cls, dirpath) -> "FactoredMatrix":
        U = _read_matrix_csv(os.path.join(dirpath, "U.csv"))
        S = _read_matrix_csv(os.path.join(dirpath, "S.csv")).ravel().real
        V = _read_matrix_csv(os.path.join(dirpath, "V.csv"))
        return cls(U, S, V)


def _write_matrix_csv(path, M) -> None:
    # complex values go out as paired (re, im) columns
    M = np.atleast_2d(np.asarray(M))
    if np.iscomplexobj(M):
        flat = np.empty((M.shape[0], 2 * M.shape[1]))
        flat[:, 0::2] = M.real
        flat[:, 1::2] = M.imag
        header = ",".join(f"re{j},im{j}" for j in range(M.shape[1]))
    else:
        flat = M
        header = ",".join(f"c{j}" for j in range(M.shape[1]))
    np.savetxt(path, flat, delimiter=",", header=header, comments="")


def _read_matrix_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if header.startswith("re"):
        return data[:, 0::2] + 1j * data[:, 1::2]
    return data


class Sketch:
    """Randomized two-sided sketch with rank-one update and reconstruction."""

    def __init__(self, m: int, n: int, r: int, field="real", seed=0):
        self.dims = SketchDims(m, n, r)
        self.field = _normalize_field(field)
        rng = np.random.default_rng(seed)
        k, ell = self.dims.k, self.dims.ell
        if self.field == np.complex128:
            scale = 1.0 / np.sqrt(2.0)
            self.Omega = scale * (
                rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            )
            self.Psi = scale * (
                rng.standard_normal((ell, m)) + 1j * rng.standard_normal((ell, m))
            )
        else:
            self.Omega = rng.standard_normal((n, k))
            self.Psi = rng.standard_normal((ell, m))
        self.Y = np.zeros((m, k), dtype=self.field)
        self.W = np.zeros((ell, n), dtype=self.field)
        ledger.add("sketch", nscalars(self.Omega, self.Psi, self.Y, self.W))

    @property
    def m(self) -> int:
        return self.dims.m

    @property
    def n(self) -> int:
        return self.dims.n

    def _check_pair(self, u, v):
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != (self.m,):
            raise DimensionMismatch(f"u has shape {u.shape}, expected ({self.m},)")
        if v.shape != (self.n,):
            raise DimensionMismatch(f"v has shape {v.shape}, expected ({self.n},)")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NonFiniteInput("update factors contain non-finite entries")
        if self.field == np.float64 and (np.iscomplexobj(u) or np.iscomplexobj(v)):
            raise DimensionMismatch("complex update factors on a real-field sketch")
        return u, v

    def linear_update(self, beta1: float, beta2: float, u, v) -> None:
        """Shadow the update X <- beta1 X + beta2 u v*."""
        u, v = self._check_pair(u, v)
        if not (np.isfinite(beta1) and np.isfinite(beta2)):
            raise NonFiniteInput("update coefficients must be finite")
        self.Y *= beta1
        self.Y += beta2 * np.outer(u, np.conj(v) @ self.Omega)
        self.W *= beta1
        self.W += beta2 * np.outer(self.Psi @ u, np.conj(v))

    def cgm_update(self, u, v, eta: float) -> None:
        """Shadow the convex-combination update X <- (1 - eta) X + eta u v*."""
        if not 0.0 <= eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        self.linear_update(1.0 - eta, eta, u, v)

    def reconstruct(self, psd: bool = False) -> FactoredMatrix:
        """Best rank-r factorization consistent with the sketch, r = dims.r.

        With ``psd=True`` the result is additionally symmetrized and its
        negative eigenvalues are clipped, all in factored form; U and V of
        the returned factorization then coincide (columns are eigenvectors).
        """
        dims = self.dims
        r = dims.r
        if psd and dims.m != dims.n:
            raise DimensionMismatch("psd reconstruction needs a square matrix")
        if np.linalg.norm(self.Y) == 0.0 and np.linalg.norm(self.W) == 0.0:
            zero_u = np.zeros((dims.m, r), dtype=self.field)
            zero_v = zero_u if psd else np.zeros((dims.n, r), dtype=self.field)
            return FactoredMatrix(zero_u, np.zeros(r), zero_v)
        width = 2 if self.field == np.complex128 else 1
        m, n, k, ell = dims.m, dims.n, dims.k, dims.ell
        # an upper bound on the arrays live at once: the QR of Y (two m x k),
        # the k x n solve B beside U* W and then beside Vh, the small factors
        # of Psi Q and B, and the rank-r result; the psd clip adds its m x 2r
        # stack J, the QR of J and the rotated eigenvectors
        scratch = 2 * m * k + 2 * k * n + r * (m + n) + 2 * ell * k + 3 * k * k
        if psd:
            scratch += 7 * m * r
        scratch *= width
        with ledger.track("sketch", scratch):
            Q, _ = np.linalg.qr(self.Y)
            # one SVD of Psi Q both certifies its rank and solves (Psi Q) B = W
            Up, sv, Vph = np.linalg.svd(self.Psi @ Q, full_matrices=False)
            if sv[-1] <= _PSIQ_RCOND * sv[0]:
                raise RankDeficientPsiQ(
                    f"smallest singular value ratio {sv[-1] / sv[0]:.3e} "
                    f"below {_PSIQ_RCOND:.0e}"
                )
            B = (Vph.conj().T / sv) @ (Up.conj().T @ self.W)
            Ub, s, Vh = np.linalg.svd(B, full_matrices=False)
            U = Q @ Ub[:, :r]
            S = s[:r].copy()
            V = Vh[:r].conj().T
            if psd:
                return _symmetrize_clip(U, S, V, r)
        return FactoredMatrix(U, S, V)

    def release(self) -> None:
        """Return this sketch's scalars to the ledger."""
        ledger.sub("sketch", nscalars(self.Omega, self.Psi, self.Y, self.W))

    def __repr__(self) -> str:
        d = self.dims
        return (
            f"Sketch(m={d.m}, n={d.n}, r={d.r}, k={d.k}, ell={d.ell}, "
            f"field={self.field.name})"
        )


def _symmetrize_clip(U, S, V, r) -> FactoredMatrix:
    """Factored form of clipping the Hermitian part of U diag(S) V* to psd."""
    J = np.concatenate([U, V], axis=1)
    Q2, _ = np.linalg.qr(J)
    A = Q2.conj().T @ U
    B = Q2.conj().T @ V
    small = 0.5 * ((A * S) @ B.conj().T + (B * S) @ A.conj().T)
    small = 0.5 * (small + small.conj().T)
    w, P = np.linalg.eigh(small)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    vecs = Q2 @ P[:, order]
    take = min(r, w.size)
    out_u = np.zeros((U.shape[0], r), dtype=vecs.dtype)
    out_s = np.zeros(r)
    out_u[:, :take] = vecs[:, :take]
    out_s[:take] = w[:take]
    return FactoredMatrix(out_u, out_s, out_u)
