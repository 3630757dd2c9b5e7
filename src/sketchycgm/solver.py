"""Conditional gradient driver working in the measurement domain.

The primal matrix variable is never formed. State is the d-vector z that
tracks the measurements of the implicit iterate, plus a randomized sketch
updated with the same rank-one directions, from which a rank-r
factorization is recovered on demand: two-sided under the schatten1
template, the psd Nystrom sketch under the psd template. Each iteration
costs one extreme singular pair (schatten1 template) or one extreme
eigenpair (psd template) of the implicit gradient matrix, plus O((m+n)r)
sketch work. The oracle warm-starts its Krylov iteration from the previous
iteration's vertex, which the loop still holds, so this stores nothing
new; each record carries the number of operator products the oracle
spent since the previous record.

Stopping uses the duality gap of the linear minimization step, evaluated
before the update, so a converged iterate is returned untouched. It is
Re<z, g> minus the value <vertex, G> that the oracle returns with its
vertex (Jaggi, ICML 2013), so only the update measures the vertex and the
loop holds two d-vectors. The oracle is inexact on purpose, after Jaggi's
approximate oracle: ``update_direction`` states its tolerance schedule. So
the gap falls short of the exact gap by alpha times the amount by which the
vertex's Rayleigh quotient misses the extreme eigenvalue (or singular
value).

A problem with the poisson loss runs the poisson variant, which changes
only the starting point (a strictly positive vector, keeping the
log-domain safe) and the step-size schedule; every other loss runs the
standard one.

The iteration itself (gradient, vertex, gap, record, step size, the step
of z) is written once, in ``_cgm_loop``, together with the linear
minimization oracle ``update_direction`` and the ``vertex`` it returns. The
loop owns z and charges it; ``solve`` hands it the sketch as the shadow of
the iterate, and the dense oracle in ``reference`` hands it the full
matrix instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, RankDeficientPsiQ, ZeroGradient
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
    "solve",
]

TEMPLATES = ("schatten1", "psd")

# The oracle's residual tolerance at iteration t is spec.spectral.tol times
# max(1, _TOL_RAMP / (t + 2)), so it reaches spec.spectral.tol at t = 998.
# The ramp is relative to the tolerance on purpose: an absolute one moves the
# gaps of the small psd instances in test_reference.py past their rtol.
_TOL_RAMP = 1000


@dataclass(frozen=True)
class ProblemSpec:
    """One convex problem instance: minimize loss(measure(X)) over a norm ball.

    template "schatten1" constrains the Schatten-1 norm of X by alpha;
    "psd" constrains to the positive semidefinite cone with trace at most
    alpha (requires a square domain). rank, in [1, min(m, n)], sets the
    reconstruction rank of the sketch. Frozen: derive a modified copy with
    dataclasses.replace, which re-validates.
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
        top = min(self.op.m, self.op.n)
        if not 1 <= self.rank <= top:
            raise ValueError(f"rank {self.rank} must lie in [1, min(m, n)] = [1, {top}]")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.loss.d != self.op.d:
            raise DimensionMismatch(
                f"loss holds {self.loss.d} measurements, operator yields {self.op.d}"
            )
        if self.template == "psd" and self.op.m != self.op.n:
            raise ValueError("psd template needs a square matrix domain")
        if self.template == "schatten1" and self.op.field.kind == "c":
            raise ValueError("schatten1 template needs a real-field operator")

    @property
    def variant(self) -> str:
        """Derived from the loss: "poisson" for the poisson loss, else "standard"."""
        return "poisson" if self.loss.kind == "poisson" else "standard"


@dataclass
class SolverState:
    z: np.ndarray
    sketch: Sketch


@dataclass
class IterationRecord:
    t: int
    eta: float
    gap: float
    objective: float
    wall_ms: float = 0.0
    lmo_products: int = 0  # summed over the oracle calls since the previous record
    metrics: dict | None = None


@dataclass(frozen=True)
class Direction:
    """Vertex weight * u v^H (v is u for psd), left = weight * u, and its value Re<vertex, G>.

    products counts the operator products the oracle spent to find it.
    """

    u: np.ndarray
    v: np.ndarray
    weight: float
    value: float
    products: int = 0

    @property
    def left(self) -> np.ndarray:
        return self.weight * self.u


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


def vertex(spec: ProblemSpec, u=None, v=None, rho: float = 0.0) -> Direction:
    """Vertex of the constraint set at an extreme pair of the gradient matrix G.

    rho = Re(u* G v) is the pair's Rayleigh quotient. schatten1: -alpha u v^H
    for the top singular pair (u, v), with rho = sigma. psd: alpha u u^H for
    the bottom eigenvector u, with rho = u* G u, or the zero matrix when rho
    is positive. u=None also gives the zero matrix: the gradient vanishes
    and the iterate is already optimal. The vertex's value is weight * rho.
    """
    op, psd = spec.op, spec.template == "psd"
    if u is None or (psd and rho > 0):
        return Direction(np.zeros(op.m, dtype=op.field), np.zeros(op.n, dtype=op.field), 0.0, 0.0)
    weight = spec.alpha if psd else -spec.alpha
    return Direction(u, u if psd else v, weight, weight * rho)


def update_direction(spec: ProblemSpec, grad, t: int,
                     previous: Direction | None = None) -> Direction:
    """Linear minimization over the constraint set at gradient grad.

    An all-zero gradient gives the zero vertex, which is then optimal, at
    no operator product. Otherwise the extreme pair comes from the seeded
    Krylov routines, called with tolerance spec.spectral.tol * max(1, 1000
    / (t + 2)), seed (spec.spectral.seed, t) and spec.spectral.max_iters,
    and warm-started from the previous vertex's v (u for psd; schatten1's
    Krylov iteration runs on the n side). So the direction depends on
    (spec, grad, t, previous) only; previous=None, or the zero vertex,
    starts cold. The result's products counts the operator products spent.
    """
    G = ImplicitGradientMatrix(spec.op, grad)  # first, so a misshapen grad still raises
    if not np.any(grad):
        return vertex(spec)
    cfg = spec.spectral
    tol = cfg.tol * max(1.0, _TOL_RAMP / (t + 2))
    seed = (cfg.seed, t)
    # the Krylov iteration runs on the n side, where v lives; v is u for psd
    warm = None if previous is None else previous.v
    try:
        if spec.template == "psd":
            rho, u = min_eig(G, tol=tol, seed=seed, max_iters=cfg.max_iters, warm=warm)
            vert = vertex(spec, u, rho=rho)
        else:
            u, v, sigma = max_sing_vec(G, tol=tol, seed=seed, max_iters=cfg.max_iters, warm=warm)
            vert = vertex(spec, u, v, sigma)
    except ZeroGradient:
        vert = vertex(spec)
    return replace(vert, products=G.calls)


def _step(spec: ProblemSpec, z: np.ndarray, vert: Direction, eta: float) -> None:
    """z <- (1 - eta) z + eta h in place, where h measures the vertex (0 at the zero vertex)."""
    z *= 1.0 - eta
    if vert.weight != 0.0:
        if spec.template == "psd":
            h = vert.weight * spec.op.psd_measure(vert.u)
        else:
            h = vert.weight * spec.op.apply_rank_one(vert.u, vert.v)
        h *= eta
        z += h


def _cgm_loop(spec: ProblemSpec, z, direction, shadow, observe, trace_every: int, trace: list):
    """The conditional gradient iteration shared by solve and the dense oracle.

    From the measurement vector z each pass takes the loss gradient g, the
    vertex direction(spec, g, t, previous), where previous is the vertex of
    pass t - 1 (None at t = 0), and the gap Re<z, g> - vertex.value, then
    releases g. Iterates with t % trace_every == 0, and always the terminal
    one, get an IterationRecord that observe(record) sees before the
    update. The run stops once the gap reaches spec.eps or t reaches
    spec.max_iters; otherwise shadow(vertex.left, vertex.v, eta), with the
    contract of Sketch.cgm_update, moves the caller's copy of the iterate,
    and then z steps in place by the same vertex. The loop is the one owner
    of z: it charges the loss data and its two d-vectors (z beside the
    gradient or the vertex's measurements) while it runs, and the caller
    charges only what its shadow holds. Records go to the caller's list
    ``trace``, so they outlive a failure inside the loop.
    """
    if trace_every < 1:
        raise ValueError("trace_every must be at least 1")
    loss = spec.loss
    started = time.perf_counter()
    t = 0
    vert = None
    products = 0
    with ledger.track("losses", nscalars(loss.b)), ledger.track("solver", 2 * spec.op.d):
        while True:
            grad = loss.gradient(z)
            vert = direction(spec, grad, t, vert)
            products += vert.products
            # einsum, not a BLAS dot: its sum does not depend on the BLAS thread count
            gap = float(np.einsum("i,i->", z, grad)) - vert.value
            del grad
            terminal = gap <= spec.eps or t >= spec.max_iters
            eta = learning_rate(t, spec.variant)
            if terminal or t % trace_every == 0:
                record = IterationRecord(
                    t=t,
                    eta=eta,
                    gap=gap,
                    objective=float(loss.value(z)),
                    wall_ms=(time.perf_counter() - started) * 1e3,
                    lmo_products=products,
                )
                products = 0
                observe(record)
                trace.append(record)
            if terminal:
                return
            shadow(vert.left, vert.v, eta)
            _step(spec, z, vert, eta)
            t += 1


def solve(spec: ProblemSpec, trace_every: int = 1, eval_fn=None, callback=None):
    """Run until the duality gap falls to eps or max_iters updates elapse.

    Each iteration asks the linear minimization oracle ``update_direction``
    for a vertex, warm-started from the previous one, and each gap subtracts
    the value of its vertex. record.lmo_products sums the operator products
    of the oracle calls since the previous record, so a run's records sum
    to all it spent.

    Returns (factors, trace): the rank-r reconstruction from the sketch and
    the list of IterationRecord. Records are kept every trace_every
    iterations plus always at the terminal iterate; when eval_fn is given
    it receives the current reconstruction at each recorded iterate and its
    dict lands in record.metrics. callback(record, state) fires after each
    record, whose field t is the iteration. Hitting max_iters is not an
    error: trace[-1].gap tells whether the run reached eps.

    Any exception raised once the sketch exists leaves with .result set to
    (factors, records so far), factors being the reconstruction from the
    sketch as it stands, or None when that reconstruction raises
    RankDeficientPsiQ. The operator and the sketch count as live storage
    only while solve runs, so the ledger's live counts after it are those
    before it, whether it returns or raises.
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
            _cgm_loop(spec, state.z, update_direction, state.sketch.cgm_update, observe,
                      trace_every, trace)
            return state.sketch.reconstruct(), trace
        except Exception as exc:
            try:
                factors = state.sketch.reconstruct()
            except RankDeficientPsiQ:
                factors = None
            exc.result = (factors, trace)
            raise
