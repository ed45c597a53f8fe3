"""Reference kernel that measures how fast the machine runs right now.

The benchmark's host is a shared VM whose speed drifts by up to 1.5x for
tens of seconds at a time, CPU time included (so it is not steal time). A
run interleaves this fixed kernel with its items and rescales each item time
by REFERENCE_S over the kernel's local time (stats.rescale): the end-to-end
time metrics read as seconds at the machine's reference speed, and a change
to uinf moves them while a drift of the host does not. The kernel is the
benchmark's own code and never calls uinf. Its two parts follow the work of
the in-process workloads: interpreter overhead and numpy calls on arrays of
a 13 x 25 grid. (A third part of vector arithmetic on 64k nodes was tried
and dropped: it followed the drift of neither workload.)
"""

import os
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

# about the kernel's time on the reference machine (2-core x86-64 VM, Python
# 3.11.7, numpy 2.4.6, one BLAS thread); a fixed value that only sets the
# scale of the rescaled times
REFERENCE_S = 0.010

_rng = np.random.default_rng(0)
_GRID = _rng.standard_normal((13, 25))
_MIX = _rng.standard_normal((25, 25)) * 0.1


def _interpreter():
    table = {}
    acc = 0
    for i in range(30000):
        acc = (acc + i * i) % 1000003
        table[i & 127] = acc
    return acc


def _small_arrays():
    x = _GRID
    for _ in range(500):
        x = np.sin(x) * 0.5 + (_GRID @ _MIX) * 1e-3
    return float(x.sum())


def reference():
    """One run of the kernel: (monotonic start time, seconds it took)."""
    started = time.monotonic()
    t0 = time.perf_counter()
    _interpreter()
    _small_arrays()
    return started, time.perf_counter() - t0


def speed_samples(count):
    """`count` kernel runs back to back, after one untimed run."""
    reference()
    return [reference() for _ in range(count)]
