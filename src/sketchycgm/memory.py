"""Live-scalar accounting used to verify storage claims.

Counters track real scalars held by the major data structures; a complex
entry counts as two. Workspaces are counted at their allocated capacity so
measurements are deterministic. Diagnostic records such as iteration traces
are excluded on purpose: the claims under test concern algorithm state, not
logging. Every charge is a ``track`` block around the code that holds the
storage: operators and sketches only record their count in ``scalars``,
and ``solve`` and the dense oracle charge it while they run. So a solve
leaves the live counts as it found them, whenever the caller reset the
ledger. Measured code resets the ledger, runs, and reads ``peak``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["AllocationLedger", "ledger", "nscalars"]


def nscalars(*arrays) -> int:
    """Count of real scalars needed to store the given arrays."""
    total = 0
    for arr in arrays:
        arr = np.asarray(arr)
        total += int(arr.size) * (2 if np.iscomplexobj(arr) else 1)
    return total


class AllocationLedger:
    """Thread-safe per-module counters of live scalars with a running peak."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: dict[str, int] = {}
        self._peak = 0

    def add(self, tag: str, count: int) -> None:
        if count < 0:
            raise ValueError("allocation count must be nonnegative")
        with self._lock:
            self._live[tag] = self._live.get(tag, 0) + int(count)
            total = sum(self._live.values())
            if total > self._peak:
                self._peak = total

    def sub(self, tag: str, count: int) -> None:
        if count < 0:
            raise ValueError("allocation count must be nonnegative")
        with self._lock:
            left = self._live.get(tag, 0) - int(count)
            if left < 0:
                raise ValueError(f"ledger counter {tag!r} would go negative")
            if left:
                self._live[tag] = left
            else:
                # a tag back at zero is gone, so a balanced track leaves live() as it was
                self._live.pop(tag, None)

    @contextmanager
    def track(self, tag: str, count: int):
        """Count ``count`` scalars as live for the duration of a block."""
        # charge through self.add: the benchmark's tracing patches add on the
        # instance to take per-tag high-water marks
        self.add(tag, count)
        try:
            yield
        finally:
            self.sub(tag, count)

    @property
    def peak(self) -> int:
        with self._lock:
            return self._peak

    def live(self) -> dict[str, int]:
        with self._lock:
            return dict(self._live)

    def reset(self) -> None:
        with self._lock:
            self._live.clear()
            self._peak = 0


#: Process-wide ledger. The command line front end resets it around runs.
ledger = AllocationLedger()
