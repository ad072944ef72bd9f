"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared machine the speed of one core drifts by tens of percent within
minutes as other tenants' load comes and goes, and process CPU time drifts
with it.  The benchmark runs this kernel before the first solve of a pass and
after every solve, and reports each solve's times at the reference speed:
its CPU seconds times ``NOMINAL_S`` over the mean of the two kernel times
around it.  The kernel is the benchmark's own code, so a change to the
program moves the solve times and not the reference.

The kernel is a Python loop of small numpy operations over the rows of a
sparse matrix, the kind of work the solvers' dual passes do.  A kernel that
also ran whole-vector operations, as the primal passes do, tracked the
solvers' speed less well across runs, on the high-dimensional workload too.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median CPU time on the 2-core Xeon the benchmark was set up on
NOMINAL_S = 0.05

_ROWS, _COLS, _ROW_NNZ = 2000, 100, 20
_REPEATS = 5


def at_reference_speed(cpu_s: float, reference_s: float) -> float:
    """CPU seconds measured while the kernel took ``reference_s``, scaled to
    the kernel's nominal speed."""
    return cpu_s * NOMINAL_S / reference_s


class ReferenceKernel:
    """Fixed inputs, built once; each call runs the kernel once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.indptr = np.arange(0, _ROWS * _ROW_NNZ + 1, _ROW_NNZ)
        self.indices = rng.integers(0, _COLS, _ROWS * _ROW_NNZ)
        self.data = rng.standard_normal(_ROWS * _ROW_NNZ)
        self.w = rng.standard_normal(_COLS)

    def __call__(self) -> float:
        """CPU seconds of one run of the kernel."""
        t0 = time.process_time()
        indptr, indices, data, w = self.indptr, self.indices, self.data, self.w
        for _ in range(_REPEATS):
            v = np.zeros(_COLS)
            for i in range(_ROWS):
                lo, hi = indptr[i], indptr[i + 1]
                s = float(np.dot(data[lo:hi], w[indices[lo:hi]]))
                step = max(-1.0, min(1.0, 0.1 * s))
                v[indices[lo:hi]] += step * data[lo:hi]
        return time.process_time() - t0
