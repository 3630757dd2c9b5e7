"""Exception types shared across the toolkit."""

__all__ = [
    "DimensionMismatch",
    "NonFiniteInput",
    "DomainError",
    "IndexOutOfRange",
    "ParseError",
    "ImaginaryLeakage",
    "RankDeficientPsiQ",
    "ZeroGradient",
    "NoConvergence",
    "TooLargeForDense",
    "ZeroTruth",
]


class DimensionMismatch(ValueError):
    """Shapes or fields of the inputs are incompatible."""


class NonFiniteInput(ValueError):
    """An input vector contains NaN or infinity."""


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
    Only the two-sided sketch (schatten1 template) raises it; the psd
    Nystrom sketch has no co-range.
    """


class ZeroGradient(RuntimeError):
    """The gradient is identically zero, so no ascent direction exists."""


class NoConvergence(RuntimeError):
    """Iteration budget exhausted before the requested tolerance was reached."""


class TooLargeForDense(ValueError):
    """Problem exceeds the dense-oracle size guard."""


class ZeroTruth(ValueError):
    """Reference signal is identically zero."""
