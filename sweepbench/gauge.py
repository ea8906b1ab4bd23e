"""Host-speed gauge: a fixed reference LU timed at intervals during a pass.

The benchmark runs on a few cores of a shared host.  Other tenants load the
host, and its throughput drifts by 20% or more within minutes: the same
narrowgap pass took 42 s and 53 s a few minutes apart, with CPU time equal
to wall time.  Wall time alone then measures the host as much as the
program.

So an untraced pass carries a gauge.  A SIGALRM timer fires every
``PERIOD_S`` seconds, and its handler times one sparse LU of a fixed
matrix: the 5-point Laplacian on a ``REF_GRID`` x ``REF_GRID`` grid, with
scipy's default ordering, the same kind of work that dominates a narrowgap
solve.  Python runs the handler in the main thread between bytecodes, so a
sample waits for the workload's current C call to end and never runs at the
same time as the workload.  The handler's own time is subtracted from the
pass's wall time.  Dividing that wall time by the mean sample gives the time
to verdict in reference-LU units, which follows the program and not the
host's load at the moment.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_GRID = 80           # 6400 unknowns: about 0.02 s per sample
PERIOD_S = 0.5          # about 4% of a pass goes to the gauge
WARMUP = 3              # samples taken and dropped before the timer starts


def reference_matrix(n: int = REF_GRID):
    import scipy.sparse as sp

    return sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-n, -1, 0, 1, n],
                    shape=(n * n, n * n), format="csc")


class Gauge:
    """Context manager that samples the reference LU while its body runs.

    ``samples`` holds the time of each reference LU and ``spent`` the time
    the handler took in all, which the caller subtracts from its wall time.
    One gauge may be entered several times in turn; its samples add up.
    The body must run on the main thread, on which Python runs signal
    handlers.
    """

    def __init__(self, period: float = PERIOD_S, n: int = REF_GRID):
        from scipy.sparse.linalg import splu

        self._splu = splu
        self._matrix = reference_matrix(n)
        self._period = period
        self._previous = None
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self._splu(self._matrix)
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(WARMUP):
            self._splu(self._matrix)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def mean(self) -> float:
        """Mean reference-LU time in seconds over every sample so far."""
        return statistics.fmean(self.samples)
