"""Fixed calibration loops that measure how fast the host runs right now.

On a shared host the same op on the same input ran 0.41 s in one stretch of
a run and 0.82 s in another, while its CPU time tracked its wall time: the
host slowed down, not the program.  The slowdowns hit interpreter-bound work
and memory-bound BLAS work at different times, so there is one loop of each
kind.  Neither shares code with sinkeq, so a change to the program cannot
change them.  ``REFERENCE_S`` is each loop's typical time (the median over
150-s recordings) on a 2-vCPU 2.1 GHz Xeon; ``run.py`` scales an op's wall
time by REFERENCE_S over the loop's time measured right after the op.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

REFERENCE_S = {"interpreter": 0.042, "blas": 0.040}

_SMALL = np.random.default_rng(0).random(4096)
_dense = None


def interpreter() -> float:
    """Seconds for small numpy calls, dicts, tuples and a JSON dump."""
    gc.disable()  # the program's heap must not slow the loop
    try:
        start = time.perf_counter()
        rows = []
        for i in range(3000):
            k = np.flatnonzero(_SMALL[(i * 7) % 4000 : (i * 7) % 4000 + 8] > 0.5)
            rows.append(tuple(sorted({int(j): 1.0 / (1 + k.size) for j in k}.items())))
        json.dumps(rows)
        return time.perf_counter() - start
    finally:
        gc.enable()


def blas() -> float:
    """Seconds for 25 vector-matrix products with a 2000 x 2000 matrix (32 MB).

    The matrix is made on the first call; run this in a process whose
    memory is not measured.
    """
    global _dense
    if _dense is None:
        _dense = np.random.default_rng(0).random((2000, 2000))
    start = time.perf_counter()
    v = np.ones(2000)
    for _ in range(25):
        v = v @ _dense
        v /= v.sum()
    return time.perf_counter() - start
