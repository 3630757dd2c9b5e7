"""Synthetic problem generators.

Generators are deterministic under their seed: every random ingredient
(signal, operator modulations, observation mask, noise) draws from its own
child of one seed sequence, so changing the noise realization never
perturbs the signal.

SNR convention: the power ratio of the clean measurement vector to the
noise vector in decibels. Gaussian noise is rescaled to hit the target
exactly per realization. Poisson noise uses a photon scale c with
measurements Poisson(c * clean) / c, whose expected noise power is
sum(clean)/c, so c solves the target SNR in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import Loss
from .operators import CodedDiffractionOperator, EntrySamplingOperator
from .reference import EvalSpec
from .solver import ProblemSpec
from .spectral import SpectralConfig

__all__ = [
    "SyntheticPhaseSpec",
    "SyntheticCompletionSpec",
    "gen_phase_problem",
    "gen_completion_problem",
    "poisson_photon_scale",
    "NOISE_KINDS",
    "BINARIZE_THRESHOLD",
]

NOISE_KINDS = ("none", "gaussian", "poisson")
# ratings strictly above this are +1 labels for the logistic loss, the rest -1
BINARIZE_THRESHOLD = 3.5


@dataclass(frozen=True)
class SyntheticPhaseSpec:
    """Phase retrieval instance recipe: signal length n, s modulation views."""

    n: int
    views: int = 10
    noise_kind: str = "none"
    snr_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.views < 1:
            raise ValueError("n and views must be positive")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if self.noise_kind != "none" and not self.snr_db > 0:
            raise ValueError("snr_db must be positive for noisy instances")


@dataclass(frozen=True)
class SyntheticCompletionSpec:
    """Low-rank completion recipe with a held-out test split.

    obs_fraction is the fraction of all m*n entries observed; test_fraction
    is the share of those observations held out for evaluation. noise is
    the standard deviation of additive Gaussian corruption on observed
    values.
    """

    m: int
    n: int
    true_rank: int
    obs_fraction: float = 0.3
    noise: float = 0.0
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        if not 1 <= self.true_rank <= min(self.m, self.n):
            raise ValueError("true_rank must lie in [1, min(m, n)]")
        if not 0.0 < self.obs_fraction <= 1.0:
            raise ValueError("obs_fraction must lie in (0, 1]")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")
        if self.noise < 0.0:
            raise ValueError("noise must be nonnegative")


def poisson_photon_scale(clean: np.ndarray, snr_db: float) -> float:
    """Photon scale c with expected SNR of Poisson(c*clean)/c at the target.

    Expected noise power of the scaled count vector is sum(clean)/c, so
    c = 10^(snr/10) * sum(clean) / |clean|^2 hits the target exactly.
    """
    clean = np.asarray(clean, dtype=float)
    power = float(clean @ clean)
    total = float(clean.sum())
    if power == 0.0 or total == 0.0:
        raise ValueError("clean measurements are identically zero")
    return 10.0 ** (snr_db / 10.0) * total / power


def gen_phase_problem(
    spec: SyntheticPhaseSpec,
    loss_kind: str | None = None,
    rank: int = 1,
    eps: float = 1e-10,
    max_iters: int = 300,
    spectral: SpectralConfig | None = None,
    sketch_seed: int = 0,
):
    """Build a coded-diffraction phase retrieval instance.

    Returns (ProblemSpec, x_true). The signal is complex standard normal,
    measurements are the intensities of its modulated spectra, and the
    trace bound comes from the measurement-mean heuristic rescaled by n:
    with the unitary transform convention each measurement carries an
    expected 1/n share of the signal energy, so n * mean(b) estimates the
    trace of the true rank-one matrix.
    """
    if loss_kind is None:
        loss_kind = "poisson" if spec.noise_kind == "poisson" else "gauss"
    ss = np.random.SeedSequence(spec.seed)
    sig_seed, op_seed, noise_seed = ss.spawn(3)
    rng = np.random.default_rng(sig_seed)
    x = (rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)) / np.sqrt(2.0)
    op = CodedDiffractionOperator(spec.n, spec.views, seed=op_seed)
    clean = op.psd_measure(x)
    nrng = np.random.default_rng(noise_seed)
    if spec.noise_kind == "none":
        b = clean
    elif spec.noise_kind == "gaussian":
        g = nrng.standard_normal(op.d)
        scale = np.linalg.norm(clean) / np.linalg.norm(g) * 10.0 ** (-spec.snr_db / 20.0)
        b = clean + scale * g
    else:
        c = poisson_photon_scale(clean, spec.snr_db)
        b = nrng.poisson(c * clean).astype(float) / c
    alpha = op.n * float(np.mean(b))
    prob = ProblemSpec(
        op=op,
        loss=Loss(loss_kind, b, normalization=1.0),
        alpha=alpha,
        rank=rank,
        template="psd",
        eps=eps,
        max_iters=max_iters,
        spectral=spectral or SpectralConfig(),
        sketch_seed=sketch_seed,
    )
    return prob, x


def _nuclear_norm_from_factors(G1: np.ndarray, G2: np.ndarray) -> float:
    # Schatten-1 norm of G1 @ G2.T from the small r x r core
    R1 = np.linalg.qr(G1, mode="r")
    R2 = np.linalg.qr(G2, mode="r")
    return float(np.linalg.svd(R1 @ R2.T, compute_uv=False).sum())


def gen_completion_problem(
    spec: SyntheticCompletionSpec,
    loss_kind: str = "gauss",
    rank: int | None = None,
    alpha: float | None = None,
    eps: float = 1e-10,
    max_iters: int = 1000,
    spectral: SpectralConfig | None = None,
    sketch_seed: int = 0,
):
    """Build a low-rank matrix completion instance.

    Returns (ProblemSpec, (G1, G2), EvalSpec) where the truth is
    G1 @ G2.T. Observed entries are drawn uniformly without replacement
    and split into disjoint train/test sets; the training entries, and so
    the measurements, come in row-major order. alpha defaults to the exact
    Schatten-1 norm of the truth. The values are real Gaussian, so only the
    gauss and huber losses apply.
    """
    if loss_kind not in ("gauss", "huber"):
        raise ValueError(
            f"synthetic completion supports the gauss and huber losses, not {loss_kind!r}"
        )
    ss = np.random.SeedSequence(spec.seed)
    fac_seed, mask_seed, noise_seed = ss.spawn(3)
    rng = np.random.default_rng(fac_seed)
    G1 = rng.standard_normal((spec.m, spec.true_rank))
    G2 = rng.standard_normal((spec.n, spec.true_rank))

    total = spec.m * spec.n
    count = max(1, int(round(spec.obs_fraction * total)))
    mrng = np.random.default_rng(mask_seed)
    flat = mrng.choice(total, size=count, replace=False)
    rows = flat // spec.n
    cols = flat % spec.n

    values = np.einsum("ij,ij->i", G1[rows], G2[cols])
    if spec.noise > 0.0:
        values = values + spec.noise * np.random.default_rng(noise_seed).standard_normal(count)

    n_test = int(round(spec.test_fraction * count))
    n_test = min(n_test, count - 1)  # keep at least one training entry
    # one permutation of distinct entries: the two sets are disjoint by construction
    perm = mrng.permutation(count)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    # row-major order is the operator's fast layout: one row run per occupied row
    train_idx = train_idx[np.argsort(flat[train_idx])]

    op = EntrySamplingOperator(spec.m, spec.n, rows[train_idx], cols[train_idx])
    b_train = values[train_idx]
    loss = Loss(loss_kind, b_train, normalization=1.0 / b_train.size)
    if alpha is None:
        alpha = _nuclear_norm_from_factors(G1, G2)
    prob = ProblemSpec(
        op=op,
        loss=loss,
        alpha=float(alpha),
        rank=spec.true_rank if rank is None else rank,
        template="schatten1",
        eps=eps,
        max_iters=max_iters,
        spectral=spectral or SpectralConfig(),
        sketch_seed=sketch_seed,
    )
    eval_spec = None
    if n_test > 0:
        eval_spec = EvalSpec(
            rows=rows[test_idx],
            cols=cols[test_idx],
            values=values[test_idx],
            loss_kind=loss_kind,
        )
    return prob, (G1, G2), eval_spec
