"""Storage-optimal convex low-rank matrix optimization.

Solves norm-constrained problems of the form minimize loss(measure(X))
without ever storing the matrix variable: the iterate lives as a small
measurement-domain vector plus a randomized sketch (two-sided, or the
Nystrom sketch for psd problems), and a rank-r factorization is
reconstructed on demand. Includes the two measurement operator families
of the paper's experiments (entry sampling for matrix completion, coded
diffraction for phase retrieval), the four losses, a dense reference
solver for oracle testing, synthetic problem generators, and a CLI.
"""

from .errors import (
    DimensionMismatch,
    DomainError,
    ImaginaryLeakage,
    IndexOutOfRange,
    NoConvergence,
    NonFiniteInput,
    ParseError,
    RankDeficientPsiQ,
    TooLargeForDense,
    ZeroGradient,
    ZeroTruth,
)
from .losses import HUBER_DELTA, LOSS_KINDS, Loss, POISSON_FLOOR
from .memory import AllocationLedger, ledger, nscalars
from .operators import (
    CodedDiffractionOperator,
    EntrySamplingOperator,
    MeasurementOperator,
    entry_sampling_from_file,
    read_triples,
    write_triples,
)
from .probgen import (
    BINARIZE_THRESHOLD,
    NOISE_KINDS,
    SyntheticCompletionSpec,
    SyntheticPhaseSpec,
    gen_completion_problem,
    gen_phase_problem,
    poisson_photon_scale,
)
from .reference import (
    EvalSpec,
    cgm_dense_solve,
    dense_adjoint,
    eps_rank,
    measure_dense,
    phase_aligned_error,
    psnr,
    record_spectra,
    save_spectra_csv,
    test_error,
)
from .sketch import FactoredMatrix, Sketch
from .solver import (
    IterationRecord,
    ProblemSpec,
    SolverState,
    init_state,
    learning_rate,
    solve,
    update_direction,
)
from .spectral import ImplicitGradientMatrix, SpectralConfig, max_sing_vec, min_eig

__version__ = "0.1.0"

__all__ = [
    "AllocationLedger",
    "CodedDiffractionOperator",
    "DimensionMismatch",
    "DomainError",
    "EntrySamplingOperator",
    "EvalSpec",
    "FactoredMatrix",
    "HUBER_DELTA",
    "ImaginaryLeakage",
    "ImplicitGradientMatrix",
    "IndexOutOfRange",
    "IterationRecord",
    "LOSS_KINDS",
    "Loss",
    "POISSON_FLOOR",
    "MeasurementOperator",
    "NoConvergence",
    "NonFiniteInput",
    "ParseError",
    "ProblemSpec",
    "RankDeficientPsiQ",
    "Sketch",
    "SolverState",
    "SpectralConfig",
    "SyntheticCompletionSpec",
    "SyntheticPhaseSpec",
    "BINARIZE_THRESHOLD",
    "NOISE_KINDS",
    "poisson_photon_scale",
    "TooLargeForDense",
    "ZeroGradient",
    "ZeroTruth",
    "cgm_dense_solve",
    "dense_adjoint",
    "entry_sampling_from_file",
    "eps_rank",
    "gen_completion_problem",
    "gen_phase_problem",
    "init_state",
    "learning_rate",
    "ledger",
    "max_sing_vec",
    "measure_dense",
    "min_eig",
    "nscalars",
    "phase_aligned_error",
    "psnr",
    "read_triples",
    "record_spectra",
    "save_spectra_csv",
    "solve",
    "test_error",
    "update_direction",
    "write_triples",
]
