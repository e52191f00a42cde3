"""Host-speed correction: a fixed reference kernel timed between cases.

The benchmark shares a few cores of a host with other tenants, and the
speed it gets drifts by 20% and more over seconds to minutes (NOTES.md).
A timed pass therefore measures the host as much as the program.  To take
the host out, a fixed kernel that uses no package code is timed in a
short block before the first case and after every stretch of at least
SEGMENT_S seconds of cases, and each pass is converted to reference
seconds:

    reference seconds = pass seconds * REFERENCE_S / mean kernel seconds

with the mean over the kernels timed just before, inside and just after
the pass.  A reference second is a second on a host that runs the kernel
in REFERENCE_S; a change to the program moves the case times and not the
kernel, so it shows in full.  A mean, not a median: the host switches
between a fast and a slow state, and the mean follows the share of time
spent in each.

The kernel mixes what the workloads spend their time on: a fresh sparse
LU factorization with a triangular solve (keldysh, mixed2d), an
interpreter-bound loop (profile1d, gas, cli) and small NumPy array
operations.
"""

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

REFERENCE_S = 0.03  # one kernel on the baseline host (NOTES.md), rounded
BLOCK = 8           # kernels per block
SEGMENT_S = 1.0     # case seconds between two blocks, at least

_N = 65


def _operator():
    """5-point convection-diffusion operator on an _N x _N grid, nonsymmetric."""
    main = sp.diags([-1.2, 2.0, -0.8], [-1, 0, 1], shape=(_N, _N))
    eye = sp.identity(_N)
    return (sp.kron(eye, main) + sp.kron(main, eye)).tocsc()


_A = _operator()
_B = np.linspace(0.0, 1.0, _N * _N)
_X = np.linspace(0.0, 1.0, 4096)


def kernel():
    """One run of the fixed reference work."""
    splu(_A).solve(_B)
    acc = 0.0
    for i in range(100000):
        acc += (i % 7) * 0.5 - acc * 1e-6
    x = _X
    for _ in range(200):
        x = np.sqrt(x * x + 1.0) - 0.999
    return acc + float(x[0])


def block():
    """Times of BLOCK kernels, in seconds."""
    times = []
    for _ in range(BLOCK):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


class Probe:
    """Kernel blocks between cases, and each pass in reference seconds.

    ``after_case(seconds)`` goes after every case and ``close_pass(seconds)``
    after every pass; the latter returns the pass in reference seconds."""

    def __init__(self):
        self.samples = block()
        self._pass = list(self.samples)  # kernels around the current pass
        self._since = 0.0

    def after_case(self, seconds):
        self._since += seconds
        if self._since >= SEGMENT_S:
            self._block()

    def _block(self):
        times = block()
        self.samples += times
        self._pass += times
        self._since = 0.0

    def close_pass(self, seconds):
        if self._since > 0.0:
            self._block()
        ref = seconds * REFERENCE_S / statistics.fmean(self._pass)
        self._pass = self._pass[-BLOCK:]  # the last block also precedes the next pass
        return ref
