"""Separable convex losses paired with measurement data.

A loss is a sum over measurements of a scalar map psi(z_i; b_i), times a
fixed normalization (1/d for completion-style objectives, 1 for
phase-retrieval-style objectives):

    gauss      0.5 * (z - b)^2
    huber      quadratic within +-HUBER_DELTA of b, linear outside
    logistic   log(1 + exp(-b z)),  labels b in {-1, +1}
    poisson    z - b log z,         counts b >= 0, z clamped below
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NonFiniteInput

__all__ = ["Loss", "LOSS_KINDS", "HUBER_DELTA", "POISSON_FLOOR"]

LOSS_KINDS = ("gauss", "huber", "logistic", "poisson")

#: half-width of the quadratic zone of the huber loss
HUBER_DELTA = 1.0
#: lower clamp applied to the argument of the poisson loss
POISSON_FLOOR = 1e-12


@dataclass(eq=False)
class Loss:
    kind: str
    b: np.ndarray
    normalization: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        b = np.asarray(self.b, dtype=float).ravel()
        if b.size == 0:
            raise DimensionMismatch("measurement vector is empty")
        if not np.all(np.isfinite(b)):
            raise NonFiniteInput("measurements contain non-finite entries")
        if self.kind == "logistic" and not np.all(np.isin(b, (-1.0, 1.0))):
            raise DomainError("logistic labels must be -1 or +1")
        if self.kind == "poisson" and np.any(b < 0):
            raise DomainError("poisson counts must be nonnegative")
        if not self.normalization > 0:
            raise ValueError("normalization must be positive")
        self.b = b

    @property
    def d(self) -> int:
        return self.b.size

    def _check(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != self.b.shape:
            raise DimensionMismatch(f"z has shape {z.shape}, expected {self.b.shape}")
        if not np.all(np.isfinite(z)):
            raise NonFiniteInput("z contains non-finite entries")
        return z

    def value(self, z) -> float:
        z = self._check(z)
        b = self.b
        if self.kind == "gauss":
            total = 0.5 * np.sum((z - b) ** 2)
        elif self.kind == "huber":
            e = z - b
            a = np.abs(e)
            dl = HUBER_DELTA
            total = np.sum(np.where(a <= dl, 0.5 * e * e, dl * (a - 0.5 * dl)))
        elif self.kind == "logistic":
            total = np.sum(np.logaddexp(0.0, -b * z))
        else:  # poisson
            zc = np.maximum(z, POISSON_FLOOR)
            total = np.sum(zc - b * np.log(zc))
        return float(self.normalization * total)

    def gradient(self, z) -> np.ndarray:
        z = self._check(z)
        b = self.b
        if self.kind == "gauss":
            g = z - b
        elif self.kind == "huber":
            g = np.clip(z - b, -HUBER_DELTA, HUBER_DELTA)
        elif self.kind == "logistic":
            with np.errstate(over="ignore"):
                g = -b / (1.0 + np.exp(b * z))
        else:  # poisson
            zc = np.maximum(z, POISSON_FLOOR)
            g = 1.0 - b / zc
        # every branch made g afresh, so it scales in place
        g *= self.normalization
        return g
