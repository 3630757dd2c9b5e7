"""Conditional gradient driver working in the measurement domain.

The primal matrix variable is never formed. State is the d-vector z that
tracks the measurements of the implicit iterate, plus a randomized sketch
updated with the same rank-one directions, from which a rank-r
factorization is recovered on demand: two-sided under the schatten1
template, the psd Nystrom sketch under the psd template. Each iteration
costs one extreme singular pair (schatten1 template) or one extreme
eigenpair (psd template) of the implicit gradient matrix, plus O((m+n)r)
sketch work.

Stopping uses the duality gap of the linear minimization step, evaluated
before the update, so a converged iterate is returned untouched. A problem
with the poisson loss runs the poisson variant, which changes only the
starting point (a strictly positive vector, keeping the log-domain safe)
and the step-size schedule; every other loss runs the standard one.

The iteration itself (gradient, vertex, gap, record, step size) is written
once, in ``_cgm_loop``, together with the linear minimization oracle
``update_direction`` and the ``vertex`` it returns. ``solve`` drives the
loop with the sketch update; the dense oracle in ``reference`` drives the
same loop and oracle while carrying the full matrix instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    RankDeficientPsiQ,
    ZeroGradient,
)
from .losses import Loss
from .memory import ledger, nscalars
from .operators import MeasurementOperator
from .sketch import Sketch
from .spectral import ImplicitGradientMatrix, SpectralConfig, max_sing_vec, min_eig

__all__ = [
    "ProblemSpec",
    "SolverState",
    "IterationRecord",
    "Direction",
    "learning_rate",
    "init_state",
    "vertex",
    "update_direction",
    "duality_gap",
    "solve",
]

TEMPLATES = ("schatten1", "psd")


@dataclass(frozen=True)
class ProblemSpec:
    """One convex problem instance: minimize loss(measure(X)) over a norm ball.

    template "schatten1" constrains the Schatten-1 norm of X by alpha;
    "psd" constrains to the positive semidefinite cone with trace at most
    alpha (requires a square domain). rank sets the reconstruction rank of
    the sketch. Frozen: derive a modified copy with dataclasses.replace,
    which re-validates.
    """

    op: MeasurementOperator
    loss: Loss
    alpha: float
    rank: int
    template: str = "schatten1"
    eps: float = 1e-6
    max_iters: int = 1000
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    sketch_seed: int = 0

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown template {self.template!r}")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive and finite")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be positive and finite")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.loss.d != self.op.d:
            raise DimensionMismatch(
                f"loss holds {self.loss.d} measurements, operator yields {self.op.d}"
            )
        if self.template == "psd" and self.op.m != self.op.n:
            raise ValueError("psd template needs a square matrix domain")

    @property
    def variant(self) -> str:
        """Derived from the loss: "poisson" for the poisson loss, else "standard"."""
        return "poisson" if self.loss.kind == "poisson" else "standard"


@dataclass
class SolverState:
    z: np.ndarray
    sketch: Sketch
    t: int = 0


@dataclass
class IterationRecord:
    t: int
    eta: float
    gap: float
    objective: float
    wall_ms: float = 0.0
    metrics: dict | None = None


@dataclass(frozen=True)
class Direction:
    """Rank-one update left @ right^H (scaling folded into left) and its measurements h."""

    left: np.ndarray
    right: np.ndarray
    h: np.ndarray


def learning_rate(t: int, variant: str = "standard") -> float:
    """Step size at iteration t: 2/(t+2), or 2/(t+3) for the poisson variant."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if variant == "poisson":
        return 2.0 / (t + 3.0)
    if variant == "standard":
        return 2.0 / (t + 2.0)
    raise ValueError(f"unknown variant {variant!r}")


def _initial_z(spec: ProblemSpec) -> np.ndarray:
    d = spec.op.d
    if spec.variant == "poisson":
        # start strictly positive so the log-domain loss is defined at t=0
        return np.full(d, 1.0 / np.sqrt(d))
    return np.zeros(d)


def init_state(spec: ProblemSpec) -> SolverState:
    sk = Sketch(spec.op.m, spec.op.n, spec.rank, field=spec.op.field,
                seed=spec.sketch_seed, psd=spec.template == "psd")
    return SolverState(z=_initial_z(spec), sketch=sk)


def vertex(spec: ProblemSpec, u=None, v=None, lam: float = 0.0) -> Direction:
    """Vertex of the constraint set at an extreme pair of the gradient matrix.

    schatten1: -alpha u v^H for the top singular pair (u, v). psd: alpha u u^H
    for the bottom eigenvector u, or the zero matrix when its eigenvalue lam
    is positive. u=None also gives the zero matrix: the gradient vanishes and
    the iterate is already optimal.
    """
    op = spec.op
    if u is None or lam > 0:
        return Direction(
            left=np.zeros(op.m, dtype=op.field),
            right=np.zeros(op.n, dtype=op.field),
            h=np.zeros(op.d),
        )
    if spec.template == "psd":
        return Direction(left=spec.alpha * u, right=u, h=spec.alpha * op.psd_measure(u))
    return Direction(left=-spec.alpha * u, right=v, h=-spec.alpha * op.apply_rank_one(u, v))


def update_direction(spec: ProblemSpec, grad, t: int) -> Direction:
    """Linear minimization over the constraint set at gradient grad.

    The extreme pair comes from the seeded Krylov routines, with start seed
    (spec.spectral.seed, t), so the direction depends on (spec, grad, t) only.
    """
    G = ImplicitGradientMatrix(spec.op, grad)
    seed = (spec.spectral.seed, t)
    try:
        if spec.template == "psd":
            lam, u = min_eig(G, spec.spectral, start_seed=seed)
            return vertex(spec, u, lam=lam)
        u, v, _sigma = max_sing_vec(G, spec.spectral, start_seed=seed)
        return vertex(spec, u, v)
    except ZeroGradient:
        return vertex(spec)


def duality_gap(z, h, grad) -> float:
    """Suboptimality certificate <z - h, grad>, real part over complex fields."""
    return float(np.real(np.vdot(z - h, grad)))


def _cgm_loop(spec: ProblemSpec, z, direction, advance, observe, trace_every: int, trace: list):
    """The conditional gradient iteration shared by solve and the dense oracle.

    From the measurement vector z each pass takes the loss gradient, the
    vertex direction(spec, grad, t) and the duality gap. Iterates with
    t % trace_every == 0, and always the terminal one, get an
    IterationRecord that observe(record) sees before the update. The run
    stops once the gap reaches spec.eps or t reaches spec.max_iters;
    otherwise advance(z, vertex, eta) moves the caller's iterate and returns
    the next z. The loss data count as live storage while the loop runs.
    Records go to the caller's list ``trace``, so they outlive a failure
    inside the loop.
    """
    if trace_every < 1:
        raise ValueError("trace_every must be at least 1")
    loss = spec.loss
    started = time.perf_counter()
    t = 0
    with ledger.track("losses", nscalars(loss.b)):
        while True:
            grad = loss.gradient(z)
            vert = direction(spec, grad, t)
            gap = duality_gap(z, vert.h, grad)
            terminal = gap <= spec.eps or t >= spec.max_iters
            eta = learning_rate(t, spec.variant)
            if terminal or t % trace_every == 0:
                record = IterationRecord(
                    t=t,
                    eta=eta,
                    gap=gap,
                    objective=float(loss.value(z)),
                    wall_ms=(time.perf_counter() - started) * 1e3,
                )
                observe(record)
                trace.append(record)
            if terminal:
                return
            z = advance(z, vert, eta)
            t += 1


def _apply_update(state: SolverState, direction: Direction, eta: float) -> np.ndarray:
    state.z = (1.0 - eta) * state.z + eta * direction.h
    state.sketch.cgm_update(direction.left, direction.right, eta)
    state.t += 1
    return state.z


def solve(spec: ProblemSpec, trace_every: int = 1, eval_fn=None, callback=None):
    """Run until the duality gap falls to eps or max_iters updates elapse.

    Returns (factors, trace): the rank-r reconstruction from the sketch and
    the list of IterationRecord. Records are kept every trace_every
    iterations plus always at the terminal iterate; when eval_fn is given
    it receives the current reconstruction at each recorded iterate and its
    dict lands in record.metrics. callback(record, state) fires after each
    record. Hitting max_iters is not an error: trace[-1].gap tells whether
    the run reached eps. A NoConvergence from the spectral routines and a
    NonFiniteInput from a non-finite iterate carry the reconstruction and
    the records made so far in .result, or (None, records so far) when that
    reconstruction is rank deficient; a RankDeficientPsiQ from a
    reconstruction (schatten1 template only) carries (None, records so far).
    The operator and the sketch count as live storage only while solve
    runs, so the ledger's live counts after it are those before it.
    """
    state = init_state(spec)

    def observe(record):
        if eval_fn is not None:
            record.metrics = eval_fn(state.sketch.reconstruct())
        if callback is not None:
            callback(record, state)

    trace: list[IterationRecord] = []
    with ledger.track("operators", spec.op.scalars), ledger.track("sketch", state.sketch.scalars):
        try:
            with ledger.track("solver", 3 * spec.op.d):
                _cgm_loop(
                    spec, state.z, update_direction,
                    lambda _z, vert, eta: _apply_update(state, vert, eta),
                    observe, trace_every, trace,
                )
            factors = state.sketch.reconstruct()
        except (NoConvergence, RankDeficientPsiQ, NonFiniteInput) as exc:
            factors = None
            if not isinstance(exc, RankDeficientPsiQ):
                try:
                    factors = state.sketch.reconstruct()
                except RankDeficientPsiQ:
                    pass
            exc.result = (factors, trace)
            raise
    return factors, trace

