"""Extreme singular triples and eigenpairs of the implicit gradient matrix.

The matrix G = adjoint(z) built from a gradient vector z is reached only
through one-sided products G v and G* u supplied by a measurement operator;
it is never materialized. One Krylov engine serves both templates:
``min_eig`` runs restarted Hermitian Lanczos tridiagonalization with full
reorthogonalization and reads off the minimum Ritz vector u with its
Rayleigh quotient u* G u; because Krylov spaces are shift invariant this
coincides with shifting by a norm estimate and chasing the top of the
shifted matrix, and the norm estimate survives as the residual scale.
``max_sing_vec`` takes the bottom eigenvector v of -G* G from ``min_eig``
(Golub-Kahan bidiagonalization in exact arithmetic) and closes with one
product u = G v / sigma. Each Lanczos step on -G* G costs one G v and one
G* u, and only the n-side basis is stored: each call allocates and charges
one basis of cap = min(``_KRYLOV_DIM`` = 40, max_iters, n) rows, and a
cycle that fills it without converging restarts in place from its bottom
Ritz vector. Start vectors are drawn from a seeded generator so that
independent runs reproduce identical direction sequences.

A caller that holds an earlier answer may pass it as ``warm``: the first
cycle then starts from warm/|warm| + ``_WARM_MIX`` q, normalized, where q
is the seeded random unit vector. Successive conditional gradient
gradients change little, so the previous vertex is close to the next
extreme vector, and the random part keeps every eigenvector reachable. A
missing or all-zero warm vector gives the cold start q itself.

The basis is stored one contiguous row per Lanczos vector. After the
three-term recurrence each step runs one classical Gram-Schmidt pass
against the whole basis, as one product B conj(w) and one update
w -= c B, so the basis is never copied in conjugated form. A second pass
runs only when the first leaves less than ``_DGKS_RATIO`` = 1/sqrt(2) of
the vector's norm (the test of Daniel, Gragg, Kaufman and Stewart, 1976):
"twice is enough", and once is enough unless the pass cancelled most of
the vector, which in measured runs happened only as the Krylov space ran
out.

The loop checks convergence at every step, so a call stops at its first
converged step. The explicit residual, one
extra product with the Hermitian matrix, is the only stopping test short
of an exhausted Krylov space. The free Ritz estimate, beta_J times the
last component of the small Ritz vector, only decides whether a check is
worth that product: a check runs it once the estimate itself meets the
tolerance (``_RITZ_GATE`` = 1). With full reorthogonalization the two
agree to roundoff, so a looser gate mostly buys residuals that then fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, ZeroGradient
from .memory import ledger

__all__ = [
    "SpectralConfig",
    "ImplicitGradientMatrix",
    "max_sing_vec",
    "min_eig",
]

_BREAKDOWN = 1e-14
# Krylov cap: the most Lanczos vectors a cycle stores before it restarts
_KRYLOV_DIM = 40
# A Gram-Schmidt pass that leaves less than this fraction of the vector's
# norm cancelled too much to trust, so it is repeated once (the DGKS test).
_DGKS_RATIO = 1 / np.sqrt(2)
# A convergence check runs its explicit residual only when the free Ritz
# estimate is within this factor of the tolerance.
_RITZ_GATE = 1.0
# Weight of the seeded random vector added to a warm start vector.
_WARM_MIX = 0.25


@dataclass(frozen=True)
class SpectralConfig:
    tol: float = 1e-8
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        _check_settings(self.tol, self.max_iters)


def _check_settings(tol, max_iters):
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")


class ImplicitGradientMatrix:
    """The m-by-n matrix adjoint(z), applied through operator primitives.

    ``calls`` counts the products (matvec and rmatvec) applied so far.
    """

    def __init__(self, op, z):
        z = np.asarray(z)
        if z.shape != (op.d,):
            raise DimensionMismatch(f"z has shape {z.shape}, expected ({op.d},)")
        self.op = op
        self.g = z
        self.shape = (op.m, op.n)
        self.iscomplex = op.field.kind == "c"
        self.calls = 0

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.calls += 1
        return self.op.right_apply_adjoint(self.g, v)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        self.calls += 1
        # rows of the conjugate transpose are conjugated left actions
        out = self.op.left_apply_adjoint(self.g, u)
        return np.conj(out, out=out)


class _DenseLinop:
    """Adapter so dense arrays can feed the same iterations in tests."""

    def __init__(self, M: np.ndarray):
        self.M = np.asarray(M)
        self.shape = self.M.shape
        self.iscomplex = np.iscomplexobj(self.M)

    def matvec(self, v):
        return self.M @ v

    def rmatvec(self, u):
        return self.M.conj().T @ u


def _as_linop(G):
    if isinstance(G, np.ndarray):
        return _DenseLinop(G)
    return G


def _start_vector(size: int, iscomplex: bool, seed, warm=None) -> np.ndarray:
    """Seeded random unit vector q, or normalize(warm/|warm| + _WARM_MIX q)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size)
    if iscomplex:
        v = v + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    scale = 0.0 if warm is None else np.linalg.norm(warm)
    if scale == 0.0:
        return v
    v = warm / scale + _WARM_MIX * v
    return v / np.linalg.norm(v)


def _canonical_phase(u: np.ndarray):
    """Unit scalar that rotates u's largest-magnitude entry to the positive reals."""
    i = int(np.argmax(np.abs(u)))
    p = u[i]
    if p == 0:
        return 1.0
    return np.conj(p / abs(p))


class _NegatedGram:
    """The n-by-n Hermitian matrix -G* G, applied as one G v and one G* u."""

    def __init__(self, G):
        self.G = G
        self.shape = (G.shape[1], G.shape[1])
        self.iscomplex = G.iscomplex

    def matvec(self, v):
        return -self.G.rmatvec(self.G.matvec(v))


def max_sing_vec(G, tol=SpectralConfig.tol, seed=SpectralConfig.seed,
                 max_iters=SpectralConfig.max_iters, warm=None):
    """Top singular triple (u, v, sigma) of an implicit matrix.

    G has shape, matvec, rmatvec and iscomplex, or is a dense ndarray. tol,
    seed, max_iters and warm (an n-vector near v, such as an earlier v) go
    to ``min_eig`` on -G* G, whose bottom eigenvector is v. Its residual
    bound ``|G* G v - sigma^2 v| <= tol * sigma^2`` gives ``max(|G v - sigma
    u|, |G* u - sigma v|) <= tol * sigma`` for u = G v / sigma. u's
    largest-magnitude entry is real positive. Raises ``ZeroGradient`` when
    sigma = 0 and ``NoConvergence`` if the budget runs out.
    """
    G = _as_linop(G)
    _, v = min_eig(_NegatedGram(G), tol, seed, max_iters, warm)
    p = G.matvec(v)
    sigma = np.linalg.norm(p)
    if sigma == 0.0:
        raise ZeroGradient("top singular value is zero; the matrix is numerically zero")
    u = p / sigma
    ph = _canonical_phase(u)
    return u * ph, v * ph, float(sigma)


def min_eig(G, tol=SpectralConfig.tol, seed=SpectralConfig.seed,
            max_iters=SpectralConfig.max_iters, warm=None):
    """Minimum eigenpair (rho, u) of an implicit Hermitian matrix.

    The caller guarantees G is Hermitian (matvec only is used). Within
    max_iters Lanczos steps, u satisfies ``|G u - lam u| <= tol *
    norm_estimate`` for its Ritz value lam, with the norm estimated from the
    extreme Ritz values, and its largest-magnitude entry is real positive.
    rho = Re(u* G u), its Rayleigh quotient, is read from G u in that
    residual. A nonzero warm vector, such as an earlier u, starts the first
    cycle from normalize(warm/|warm| + _WARM_MIX q) instead of the random
    unit vector q drawn from seed; None or an all-zero vector gives q
    itself. The defaults are ``SpectralConfig``'s.
    """
    _check_settings(tol, max_iters)
    G = _as_linop(G)
    n, n2 = G.shape
    if n != n2:
        raise DimensionMismatch("min_eig needs a square matrix")
    q0 = _start_vector(n, G.iscomplex, seed, warm)
    dt, width = (np.complex128, 2) if G.iscomplex else (np.float64, 1)
    cap = int(min(_KRYLOV_DIM, max_iters, n))
    with ledger.track("spectral", width * n * cap + 4 * cap):
        Q = np.zeros((cap, n), dtype=dt)  # row j is the j-th Lanczos vector
        alphas = np.zeros(cap)
        betas = np.zeros(cap)
        Q[0] = q0
        j = 0
        for used in range(1, max_iters + 1):
            w = G.matvec(Q[j])
            alphas[j] = float(np.real(np.vdot(Q[j], w)))
            # a new array, so the in-place updates below never write into G's output
            w = w - alphas[j] * Q[j]
            if j > 0:
                w -= betas[j - 1] * Q[j - 1]
            b = np.linalg.norm(w)
            for _ in range(2):
                _gram_schmidt_pass(Q[: j + 1], w)
                before, b = b, np.linalg.norm(w)
                if b >= _DGKS_RATIO * before:
                    break
            J = j + 1
            # betas[j:] are left over from an earlier cycle, so they stay out
            scale = max(float(np.abs(alphas[:J]).max()), float(betas[:j].max(initial=0.0)), 1e-300)
            exhausted = b <= _BREAKDOWN * scale
            final = exhausted or J == cap or used == max_iters
            # eigh reads only the lower triangle (UPLO="L"), so T needs no upper diagonal
            T = np.diag(alphas[:J]) + np.diag(betas[: J - 1], -1)
            evals, evecs = np.linalg.eigh(T)
            lam = evals[0]
            bound = tol * max(abs(float(evals[0])), abs(float(evals[-1])), 1e-300)
            # G u - lam u = b * evecs[J-1, 0] * (next Lanczos vector)
            if final or b * abs(evecs[J - 1, 0]) <= _RITZ_GATE * bound:
                u = evecs[:, 0] @ Q[:J]
                Gu = G.matvec(u)
                if exhausted or np.linalg.norm(Gu - lam * u) <= bound:
                    return float(np.real(np.vdot(u, Gu))), u * _canonical_phase(u)
                if final:
                    # restart in place from the cycle's bottom Ritz vector
                    Q[0] = u / np.linalg.norm(u)
                    j = 0
                    continue
            betas[j] = b
            np.divide(w, b, out=Q[j + 1])
            j += 1
    raise NoConvergence(f"minimum eigenpair not resolved in {max_iters} Lanczos steps")


def _gram_schmidt_pass(B, w):
    """Subtract from w, in place, its projection on the orthonormal rows of B."""
    # B conj(w) is the conjugate of the coefficients B* w; on a real field
    # np.conj copies the same values
    w -= np.conj(B @ np.conj(w)) @ B
