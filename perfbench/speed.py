"""Machine-speed calibration for the timed runs.

On a shared host the speed of one core drifts by up to a third over minutes,
so the same items on the same code ran 30 % slower in one run than in a run a
few minutes earlier.  A fixed kernel that never touches ``qsteer`` (small
complex linear algebra, a three-operand einsum and a Python loop, the mix the
workloads run) is timed before every item and after the last.  Its wall time
tracks the host's speed: over 3-second windows of a ``mub_scan`` run the two
slowdowns correlated at 0.92.  Item times are scaled to the speed at which
the kernel takes ``REFERENCE_S``.
"""

import math
from time import perf_counter

import numpy as np

# The kernel's typical wall time on a 2-core host with Python 3.11.7 and
# numpy 2.4.6 / OpenBLAS 0.3.31, one BLAS thread.
REFERENCE_S = 0.5e-3

_rng = np.random.default_rng(0)
_M = _rng.normal(size=(6, 6)) + 1j * _rng.normal(size=(6, 6))
_E, _F = (_rng.normal(size=(4, 4, 4)) + 0j for _ in range(2))
_R = _rng.normal(size=(4, 4, 4, 4)) + 0j


def kernel_seconds():
    """Wall time of one run of the fixed calibration kernel."""
    t0 = perf_counter()
    for _ in range(8):
        m = _M @ _M.conj().T
        np.linalg.eigvalsh(m)
        np.einsum("aij,bkl,jlik->ab", _E, _F, _R)
        s = 0.0
        for i in range(100):
            s += math.sqrt(i)
        np.clip(m.real, 0.0, None).sum()
    return perf_counter() - t0


def scaled(times, kernel_s):
    """Scale each item time by the mean of the kernel times around it."""
    return [t * REFERENCE_S / (0.5 * (a + b)) for t, a, b in zip(times, kernel_s, kernel_s[1:])]
