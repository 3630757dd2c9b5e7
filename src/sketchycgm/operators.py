"""Measurement operators behind a three-primitive black-box interface.

A measurement operator takes m-by-n matrices to d scalars. Solvers never
touch a dense matrix: every interaction goes through the image of a rank-one
matrix and the two one-sided actions of the adjoint,

    apply_rank_one(u, v)       the d measurements of the matrix u v*
    left_apply_adjoint(z, u)   the n-vector  u* (adjoint of z)
    right_apply_adjoint(z, v)  the m-vector  (adjoint of z) v

so that, writing ip(a, b) for the inner product conjugating the first slot,

    ip(apply_rank_one(u, v), z) == left_apply_adjoint(z, u) @ v
                                == ip(u, right_apply_adjoint(z, v)).

Two families are provided, the two of the paper's experiments: entry
sampling (matrix completion over the reals) and coded diffraction (random
modulations followed by unitary DFTs, for phase retrieval). Coded
diffraction measures quadratic forms diag(A X A*) for a tall sensing
matrix A applied by FFT; A is never built densely. Operators are immutable
after construction and store Theta(d) parameters.

A real-field operator such as entry sampling refuses a complex vector with
``DimensionMismatch``, as the real-field sketch and the losses do; coded
diffraction, a complex-field operator, takes real or complex vectors.

Entry sampling keeps the caller's measurement order and is fastest on a
row-grouped index set (row-major order, as the loaders and the completion
generator give): it then stores about d index scalars. Unsorted input stays
correct but is slower and can cost up to 4d index scalars.

DFTs are unitary throughout. Entry indices in text files are 1-based; in
memory everything is 0-based.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    ImaginaryLeakage,
    IndexOutOfRange,
    NonFiniteInput,
    ParseError,
)
from .losses import _real
from .memory import nscalars

__all__ = [
    "MeasurementOperator",
    "EntrySamplingOperator",
    "CodedDiffractionOperator",
    "entry_sampling_from_file",
    "read_triples",
    "write_triples",
]

# psd measurements whose imaginary part exceeds this share of their norm
# come from a non-Hermitian operator and are rejected
_LEAKAGE_RTOL = 1e-8


class MeasurementOperator:
    """Linear map from m-by-n matrices to d measurements.

    Subclasses implement the three primitives and set ``scalars``, the count
    of real scalars they store, which a solve charges while it runs.
    ``psd_measure`` is derived: it measures the psd rank-one matrix u u*,
    asserts that the result is real up to roundoff, and returns the real part.
    """

    def __init__(self, m: int, n: int, d: int, field: np.dtype):
        if min(m, n, d) < 1:
            raise ValueError("operator dimensions must be positive")
        self.m = int(m)
        self.n = int(n)
        self.d = int(d)
        self.field = np.dtype(field)

    def _check_vector(self, x, size: int, name: str, finite: bool = True) -> np.ndarray:
        """x as a size-vector; a real field refuses complex x and takes real x as float."""
        x = np.asarray(x)
        if x.shape != (size,):
            raise DimensionMismatch(f"{name} has shape {x.shape}, expected ({size},)")
        if self.field.kind != "c":
            x = _real(x, name)
        if finite and not np.all(np.isfinite(x)):
            raise NonFiniteInput(f"{name} contains non-finite entries")
        return x

    def apply_rank_one(self, u, v) -> np.ndarray:
        """Measurements of the rank-one matrix with entries u_i * conj(v_j)."""
        raise NotImplementedError

    def left_apply_adjoint(self, z, u) -> np.ndarray:
        """Row vector u*(adjoint of z), returned as an n-vector."""
        raise NotImplementedError

    def right_apply_adjoint(self, z, v) -> np.ndarray:
        """Column vector (adjoint of z) v, an m-vector."""
        raise NotImplementedError

    def psd_measure(self, u) -> np.ndarray:
        """Real measurements of the psd rank-one matrix u u*.

        Requires a square matrix domain. Raises ``ImaginaryLeakage`` if the
        imaginary residue of the measurements exceeds ``_LEAKAGE_RTOL`` times
        their norm.
        """
        if self.m != self.n:
            raise DimensionMismatch("psd measurement needs a square matrix domain")
        out = self.apply_rank_one(u, u)
        if np.iscomplexobj(out):
            scale = np.linalg.norm(out)
            residue = np.linalg.norm(out.imag)
            if scale > 0 and residue > _LEAKAGE_RTOL * scale:
                raise ImaginaryLeakage(
                    f"imaginary residue {residue:.3e} exceeds "
                    f"{_LEAKAGE_RTOL:.1e} * {scale:.3e}"
                )
            out = out.real.copy()
        return out

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(m={self.m}, n={self.n}, d={self.d}, "
            f"field={self.field.name})"
        )


class EntrySamplingOperator(MeasurementOperator):
    """Picks individual matrix entries at a fixed, duplicate-free index set.

    Measurements follow the caller's index order. The index set is stored as
    its columns plus its row runs, the maximal stretches of equal row index,
    kept as start, row and length arrays; ``rows`` is expanded from the runs
    on demand. Both adjoints work a run at a time: the right one sums each
    run with ``np.add.reduceat`` and scatters one value per run, the left one
    repeats each picked entry of u over its run. So no random row gather or
    scatter over the d measurements remains.

    A row-grouped index set (row-major order, for one) has one run per
    occupied row: it is the fastest and costs d plus 3 scalars per occupied
    row. Any other order stays correct but can have up to d runs, so it is
    slower and costs up to 4d scalars.
    """

    def __init__(self, m: int, n: int, rows, cols):
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        if rows.size != cols.size:
            raise DimensionMismatch("rows and cols must have the same length")
        if rows.size == 0:
            raise ValueError("the sampled index set is empty")
        if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
            raise IndexOutOfRange("entry index outside the m-by-n grid")
        flat = np.sort(rows * np.intp(n) + cols)
        if np.any(flat[1:] == flat[:-1]):
            raise ValueError("duplicate (row, col) pairs are not allowed")
        super().__init__(m, n, rows.size, np.float64)
        self.cols = cols
        self.run_starts = np.flatnonzero(np.diff(rows, prepend=-1))
        self.run_rows = rows[self.run_starts]
        self.run_lengths = np.diff(self.run_starts, append=rows.size)
        self.scalars = nscalars(cols, self.run_starts, self.run_rows, self.run_lengths)

    @property
    def rows(self) -> np.ndarray:
        """Row index of each measurement, expanded from the row runs."""
        return np.repeat(self.run_rows, self.run_lengths)

    def _expand(self, u: np.ndarray) -> np.ndarray:
        # u[rows], one gather per run
        return np.repeat(u[self.run_rows], self.run_lengths)

    def apply_rank_one(self, u, v) -> np.ndarray:
        u = self._check_vector(u, self.m, "u")
        v = self._check_vector(v, self.n, "v")
        return self._expand(u) * v[self.cols]

    def left_apply_adjoint(self, z, u) -> np.ndarray:
        z = self._check_vector(z, self.d, "z", finite=False)
        u = self._check_vector(u, self.m, "u", finite=False)
        picked = self._expand(u)
        return np.bincount(self.cols, np.multiply(z, picked, out=picked), self.n)

    def right_apply_adjoint(self, z, v) -> np.ndarray:
        z = self._check_vector(z, self.d, "z", finite=False)
        v = self._check_vector(v, self.n, "v", finite=False)
        picked = v[self.cols]
        run_sums = np.add.reduceat(np.multiply(z, picked, out=picked), self.run_starts)
        return np.bincount(self.run_rows, run_sums, self.m)


class CodedDiffractionOperator(MeasurementOperator):
    """``views`` modulated unitary-DFT snapshots of length-n signals; d = views * n.

    The measurements are diag(A X A*) of an n-by-n matrix X for the tall
    sensing matrix A that stacks the views; A is applied by FFT and never
    formed. Rows of A are the measurement vectors, so a rank-one input u v*
    measures to (A u) .* conj(A v).

    Each modulation entry is the product of a phase uniform on the fourth
    roots of unity and a magnitude equal to sqrt(2)/2 with probability 0.8
    or sqrt(3) with probability 0.2.
    """

    def __init__(self, n: int, views: int, seed=0):
        if n < 1 or views < 1:
            raise ValueError("n and views must be positive")
        rng = np.random.default_rng(seed)
        phases = rng.choice(np.array([1.0, 1.0j, -1.0, -1.0j]), size=(views, n))
        mags = np.where(rng.random((views, n)) < 0.8, np.sqrt(2.0) / 2.0, np.sqrt(3.0))
        super().__init__(n, n, views * n, np.complex128)
        self.views = views
        phases *= mags
        self.modulations = phases
        self.modulations.setflags(write=False)
        self.scalars = nscalars(self.modulations)

    def _sense(self, x: np.ndarray) -> np.ndarray:
        """A x, a d-vector."""
        buf = self.modulations * x[None, :]
        return np.fft.fft(buf, axis=1, norm="ortho", out=buf).ravel()

    def _sense_adjoint(self, y: np.ndarray) -> np.ndarray:
        """A* y, an n-vector: the reference the fused adjoints are tested against."""
        blocks = np.fft.ifft(y.reshape(self.views, self.n), axis=1, norm="ortho")
        return (np.conj(self.modulations) * blocks).sum(axis=0)

    def apply_rank_one(self, u, v) -> np.ndarray:
        u = self._check_vector(u, self.m, "u")
        v = self._check_vector(v, self.n, "v")
        au = self._sense(u)
        # psd_measure's u u* senses its one vector once
        av = au if v is u else self._sense(v)
        return au * np.conj(av)

    def _conj_gram(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """conj(A* diag(z) A x), in one views-by-n work array."""
        buf = self.modulations * x[None, :]
        np.fft.fft(buf, axis=1, norm="ortho", out=buf)
        # z on the left: complex products are not bitwise commutative under FMA
        np.multiply(z.reshape(self.views, self.n), buf, out=buf)
        np.fft.ifft(buf, axis=1, norm="ortho", out=buf)
        # conj(D) * y == conj(D * conj(y)), so the conjugated modulations are never formed
        np.conj(buf, out=buf)
        np.multiply(self.modulations, buf, out=buf)
        return buf.sum(axis=0)

    def left_apply_adjoint(self, z, u) -> np.ndarray:
        z = self._check_vector(z, self.d, "z", finite=False)
        u = self._check_vector(u, self.m, "u", finite=False)
        return self._conj_gram(np.conj(z) if np.iscomplexobj(z) else z, u)

    def right_apply_adjoint(self, z, v) -> np.ndarray:
        z = self._check_vector(z, self.d, "z", finite=False)
        v = self._check_vector(v, self.n, "v", finite=False)
        out = self._conj_gram(z, v)
        return np.conj(out, out=out)


def read_triples(path):
    """Parse whitespace-separated ``i j value`` lines with 1-based indices.

    Blank lines and ``#`` comments are skipped. Returns 0-based index
    arrays and the float values. Raises ``ParseError`` with the offending
    line number, or ``IndexOutOfRange`` for indices below 1.
    """
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(lineno, f"expected 'i j value', got {line!r}")
            try:
                i, j, val = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
            if i < 1 or j < 1:
                raise IndexOutOfRange(f"line {lineno}: indices are 1-based, got ({i}, {j})")
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(val)
    if not rows:
        raise ParseError(0, "file contains no data rows")
    return (
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp),
        np.asarray(vals, dtype=float),
    )


def write_triples(path, rows, cols, values) -> None:
    """Write ``i j value`` lines, converting 0-based indices to 1-based."""
    rows = np.asarray(rows, dtype=np.intp).ravel()
    cols = np.asarray(cols, dtype=np.intp).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if not rows.size == cols.size == values.size:
        raise DimensionMismatch("rows, cols and values must have the same length")
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, val in zip(rows, cols, values):
            fh.write(f"{i + 1} {j + 1} {val:.17g}\n")


def entry_sampling_from_file(path, m: int | None = None, n: int | None = None):
    """Load an entry-sampling operator from a triples file.

    Values are returned alongside the operator; they are consumed by losses
    and evaluation, not by the operator itself. Entries come in row-major
    order, the operator's fastest layout, whatever the file order.
    Dimensions default to the largest index seen.
    """
    rows, cols, values = read_triples(path)
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    m = int(rows.max()) + 1 if m is None else int(m)
    n = int(cols.max()) + 1 if n is None else int(n)
    return EntrySamplingOperator(m, n, rows, cols), values
