"""Exception types shared across the toolkit."""


class DimensionMismatch(ValueError):
    """Shapes of the inputs are incompatible."""


class NonFiniteInput(ValueError):
    """An input vector contains NaN or infinity.

    When a non-finite iterate raises it inside the solver, ``result`` holds
    (factors or None, trace so far), as for ``NoConvergence``.
    """

    result = None


class DomainError(ValueError):
    """Data lies outside the domain of the selected loss."""


class IndexOutOfRange(ValueError):
    """An entry index falls outside the matrix dimensions."""


class ParseError(ValueError):
    """A data file line could not be parsed. Carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ImaginaryLeakage(RuntimeError):
    """A measurement that must be real has a non-negligible imaginary part."""


class RankDeficientPsiQ(RuntimeError):
    """The least-squares system coupling the co-range sketch to the range basis
    is numerically rank-deficient, indicating a degenerate test-matrix draw.

    When raised inside the solver, ``result`` holds (None, trace so far): no
    reconstruction exists, but the records made up to the failure survive.
    """

    result = None


class ZeroGradient(RuntimeError):
    """The gradient is identically zero, so no ascent direction exists."""


class NoConvergence(RuntimeError):
    """Iteration budget exhausted before the requested tolerance was reached.

    When raised by the solver this carries the partial result, so callers
    still get the reconstruction.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class TooLargeForDense(ValueError):
    """Problem exceeds the dense-oracle size guard."""


class ZeroTruth(ValueError):
    """Reference signal is identically zero."""
