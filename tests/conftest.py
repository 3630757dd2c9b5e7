"""Test-session setup: one BLAS thread, as the benchmark runs.

Set before numpy loads. With two-thread BLAS, two suites on a two-core host
oversubscribe the cores and the wall-time bounds of the acceptance tests
stop meaning anything.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
