"""The solve workloads: each builds one instance from a seed and scores its result.

A workload never hands the solver anything but the generated ``ProblemSpec``
and the ``solve`` keyword arguments a user of that problem would pass. The
scoring function sees the truth (signal or held-out entries); the solver
does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sketchycgm import (
    ProblemSpec,
    SpectralConfig,
    SyntheticCompletionSpec,
    SyntheticPhaseSpec,
    gen_completion_problem,
    gen_phase_problem,
    phase_aligned_error,
    test_error,
)

# Far below any gap these runs reach, so every solve runs to its iteration cap
# and the trace length is known in advance.
NEVER_CONVERGED = 1e-300


@dataclass(frozen=True)
class Instance:
    prob: ProblemSpec
    trace_every: int
    eval_fn: Callable | None
    score: Callable  # factors -> recovery error against the truth


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Instance]
    iterations: int
    records: int
    ceiling: float  # recovery error above this counts as a failed solve


def phase_workload(name, n, noise_kind, loss_kind, iterations, ceiling,
                   views=10, spectral=None) -> Workload:
    """Coded-diffraction phase retrieval, psd template, scored by phase-aligned error."""

    def generate(seed: int) -> Instance:
        spec = SyntheticPhaseSpec(n=n, views=views, noise_kind=noise_kind, snr_db=20.0, seed=seed)
        prob, x = gen_phase_problem(spec, loss_kind=loss_kind, eps=NEVER_CONVERGED,
                                    max_iters=iterations, spectral=spectral)
        return Instance(prob, iterations, None,
                        lambda factors: phase_aligned_error(factors.top_vector(), x))

    return Workload(name, generate, iterations, 2, ceiling)


def completion_workload(name, m, n, rank, iterations, ceiling,
                        obs_fraction=0.05, test_fraction=0.1) -> Workload:
    """Entry-sampling completion, schatten1 template, held-out error at every record."""

    def generate(seed: int) -> Instance:
        spec = SyntheticCompletionSpec(m=m, n=n, true_rank=rank, obs_fraction=obs_fraction,
                                       test_fraction=test_fraction, seed=seed)
        prob, _truth, held_out = gen_completion_problem(
            spec, loss_kind="gauss", rank=rank, eps=NEVER_CONVERGED, max_iters=iterations)
        return Instance(prob, 1, lambda factors: {"test_error": test_error(factors, held_out)},
                        lambda factors: test_error(factors, held_out))

    return Workload(name, generate, iterations, iterations + 1, ceiling)


# Why each workload exists is in README.md. A ceiling only rejects results
# that carry next to no signal: an all-zero reconstruction scores 1.0 for
# phase (so does any vector nearly orthogonal to the truth) and about 2.4
# for completion. Each sits far above the errors of several hundred sampled
# instances, rare tails included: phase8192 0.32-0.61, completion
# 0.088-0.22. The phase8192 tail is 10 iterations of
# slow convergence, not a failed LMO: the instance at 0.61 gives the same
# error with another Lanczos seed or tol 1e-9, and 0.31 after 20 iterations.
WORKLOADS = {
    w.name: w
    for w in (
        phase_workload("phase8192", n=8192, noise_kind="none", loss_kind="gauss",
                       iterations=10, ceiling=0.9,
                       spectral=SpectralConfig(tol=1e-6, max_iters=5000)),
        # held-out error at every record, the command line's completion default
        completion_workload("completion2000x1500-monitored", m=2000, n=1500, rank=5,
                            iterations=200, ceiling=0.5),
    )
}

#: A second workload seed on which any claimed gain must also hold.
CONFIRMATION_SEED = 1


def instance_seed(seed: int, i: int) -> int:
    """Seed of the i-th instance of a run: the workload seed itself, then derived ones."""
    if i == 0:
        return seed
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0] >> 1)


def check(workload: Workload, factors, trace, recovery_err: float) -> list[str]:
    """Reasons this solve's result is wrong; empty when it passes."""
    problems = []
    if len(trace) != workload.records or trace[-1].t != workload.iterations:
        problems.append(
            f"trace has {len(trace)} records ending at t={trace[-1].t if trace else None}, "
            f"expected {workload.records} ending at t={workload.iterations}"
        )
    if trace and not math.isfinite(trace[-1].gap):
        problems.append(f"final gap {trace[-1].gap} is not finite")
    if not all(np.all(np.isfinite(a)) for a in (factors.U, factors.S, factors.V)):
        problems.append("factors hold non-finite entries")
    if not recovery_err < workload.ceiling:
        problems.append(f"recovery error {recovery_err} not below {workload.ceiling}")
    return problems
