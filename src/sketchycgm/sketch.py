"""Randomized sketch of an implicitly maintained matrix.

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

A sketch built with ``psd=True`` shadows a psd matrix and is the one-sided
Nystrom sketch of Tropp, Yurtsever, Udell and Cevher (NeurIPS 2017): the
co-range is empty and Omega takes its columns, min(k + ell, n) =
min(6r + 4, n) of them. Reconstruction is the shifted Nystrom approximation
Y_nu (Omega* Y_nu)^+ Y_nu* - nu I with Y_nu = Y + nu Omega, truncated to
rank r, which is psd by construction.

Omega is never stored: it is drawn again from the seed each time an update
or a Nystrom reconstruction needs it, bit for bit the matrix drawn first.
The sketch stores Y, W and Psi, width*(m k + ell n + ell m) scalars for
width 1 (real) or 2 (complex); the psd sketch stores Y alone, width*n*k.
Psi follows Omega in the seed's stream, so a two-sided sketch draws Omega
once at construction to reach it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, RankDeficientPsiQ
from .memory import ledger, nscalars

__all__ = ["Sketch", "FactoredMatrix"]

_PSIQ_RCOND = 1e-12


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


def _gaussian(rng, shape, field) -> np.ndarray:
    """Standard Gaussian test matrix of the given field drawn from rng.

    A complex draw is (x + 1j y) / sqrt(2), x drawn before y. Each part is
    scaled on its own, in one buffer; that gives the bits of
    scale * (x + 1j * y), whose complex products only add exact zeros.
    """
    if field != np.complex128:
        return rng.standard_normal(shape)
    scale = 1.0 / np.sqrt(2.0)
    out = np.empty(shape, dtype=field)
    part = rng.standard_normal(shape)
    np.multiply(part, scale, out=out.real)
    rng.standard_normal(out=part)
    np.multiply(part, scale, out=out.imag)
    return out


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
    """Randomized sketch with rank-one update and reconstruction.

    Shadows an m-by-n matrix at target rank r, all three kept as
    attributes. Two-sided by default; ``psd=True`` builds the Nystrom sketch
    of a psd matrix, which needs m = n. ``scalars`` counts the stored
    shadows Y, W and Psi; a solve charges it while it holds the sketch, and
    an update or reconstruction charges the Omega it draws while it holds it.
    """

    def __init__(self, m: int, n: int, r: int, field="real", seed=0, psd: bool = False):
        if min(m, n) < 1:
            raise ValueError("matrix dimensions must be positive")
        if not 1 <= r <= min(m, n):
            raise ValueError("rank must satisfy 1 <= r <= min(m, n)")
        self.m, self.n, self.r = m, n, r
        self.field = _normalize_field(field)
        self.psd = psd
        k, ell = 2 * r + 1, 4 * r + 3
        if psd:
            if m != n:
                raise DimensionMismatch("a psd sketch needs a square matrix")
            k, ell = min(k + ell, n), 0
        # held as a SeedSequence, so that seed=None takes its entropy once and
        # every later draw of Omega repeats the first
        self.k, self.seed = k, np.random.SeedSequence(seed)
        if psd:
            self.Psi = np.zeros((0, m), dtype=self.field)
        else:
            # Psi follows Omega in the seed's stream
            rng = np.random.default_rng(self.seed)
            _gaussian(rng, (n, k), self.field)
            self.Psi = _gaussian(rng, (ell, m), self.field)
        self.Y = np.zeros((m, k), dtype=self.field)
        self.W = np.zeros((ell, n), dtype=self.field)
        self.scalars = nscalars(self.Psi, self.Y, self.W)

    @property
    def Omega(self) -> np.ndarray:
        """The n-by-k range test matrix, drawn again from the seed."""
        return _gaussian(np.random.default_rng(self.seed), (self.n, self.k), self.field)

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
        width = 2 if self.field == np.complex128 else 1
        m, n, k, ell = self.m, self.n, self.k, self.Psi.shape[0]
        # an upper bound on the arrays live at once: the draw of Omega (a
        # complex one also holds a real part), then Omega beside conj(v), then
        # the two m x k or the two ell x n rank-one products beside their
        # factors, all beside the k-vector conj(v) Omega
        draw = 3 * n * k if width == 2 else n * k
        scratch = max(draw, width * (n * k + n), width * 2 * m * k,
                      width * (2 * ell * n + ell + n)) + width * k
        with ledger.track("sketch", scratch):
            Omega = self.Omega
            vo = np.conj(v) @ Omega
            del Omega
            self.Y *= beta1
            self.Y += beta2 * np.outer(u, vo)
            self.W *= beta1
            self.W += beta2 * np.outer(self.Psi @ u, np.conj(v))

    def cgm_update(self, u, v, eta: float) -> None:
        """Shadow the convex-combination update X <- (1 - eta) X + eta u v*."""
        if not 0.0 <= eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        self.linear_update(1.0 - eta, eta, u, v)

    def reconstruct(self) -> FactoredMatrix:
        """Best rank-r factorization consistent with the sketch.

        A psd sketch returns its psd Nystrom approximation: U and V coincide
        (columns are eigenvectors) and S holds the eigenvalues, zero-padded
        to r columns when the sketch has lower rank.
        """
        m, n, r = self.m, self.n, self.r
        if np.linalg.norm(self.Y) == 0.0 and np.linalg.norm(self.W) == 0.0:
            zero_u = np.zeros((m, r), dtype=self.field)
            zero_v = zero_u if self.psd else np.zeros((n, r), dtype=self.field)
            return FactoredMatrix(zero_u, np.zeros(r), zero_v)
        if self.psd:
            return self._nystrom()
        width = 2 if self.field == np.complex128 else 1
        k, ell = self.k, self.Psi.shape[0]
        # an upper bound on the arrays live at once: the QR of Y (two m x k),
        # the k x n solve B beside U* W and then beside Vh, the small factors
        # of Psi Q and B, and the rank-r result
        scratch = width * (2 * m * k + 2 * k * n + r * (m + n) + 2 * ell * k + 3 * k * k)
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
        return FactoredMatrix(U, S, V)

    def _nystrom(self) -> FactoredMatrix:
        n, r, k = self.n, self.r, self.k
        width = 2 if self.field == np.complex128 else 1
        # an upper bound on the arrays live at once: Omega beside Y_nu and the
        # conjugate of Omega (its draw holds less), Y_nu beside the
        # factor F, F beside its left singular vectors, the rank-r result, and
        # the k x k matrices
        scratch = width * (3 * n * k + n * r + 3 * k * k)
        with ledger.track("sketch", scratch):
            # the shift keeps Omega* Y_nu positive definite; nu comes off again below
            nu = np.sqrt(n) * np.finfo(float).eps * np.linalg.norm(self.Y, 2)
            Omega = self.Omega
            Ynu = nu * Omega
            Ynu += self.Y
            # eigh reads one triangle of the Hermitian Omega* Y_nu; its
            # pseudo-inverse drops eigenvalues below the two-sided solve's cut
            w, P = np.linalg.eigh(Omega.conj().T @ Ynu)
            del Omega
            keep = w > _PSIQ_RCOND * w[-1]
            F = Ynu @ (P[:, keep] / np.sqrt(w[keep]))
            del Ynu
            U, s = np.linalg.svd(F, full_matrices=False)[:2]
            del F
            take = min(r, s.size)
            out_u = np.zeros((n, r), dtype=self.field)
            out_s = np.zeros(r)
            out_u[:, :take] = U[:, :take]
            out_s[:take] = np.maximum(s[:take] ** 2 - nu, 0.0)
        return FactoredMatrix(out_u, out_s, out_u)

    def __repr__(self) -> str:
        return (
            f"Sketch(m={self.m}, n={self.n}, r={self.r}, k={self.k}, "
            f"ell={self.Psi.shape[0]}, field={self.field.name}, psd={self.psd})"
        )
