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

# each module's __all__ is the one list of its public names; cli, the
# console entry point, stays out of the package namespace
from . import errors, losses, memory, operators, probgen, reference, sketch, solver, spectral
from .errors import *
from .losses import *
from .memory import *
from .operators import *
from .probgen import *
from .reference import *
from .sketch import *
from .solver import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *losses.__all__, *memory.__all__, *operators.__all__, *probgen.__all__,
    *reference.__all__, *sketch.__all__, *solver.__all__, *spectral.__all__,
]
