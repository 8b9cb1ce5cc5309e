"""Host speed, measured by a fixed piece of work that imports nothing of gapfem.

On a small shared machine the host's speed drifts by up to 1.8x for tens of
seconds to minutes at a time, and gapfem's run time follows it.  run.py times
this calibration in its own process just before and just after each plain
repetition, on the CPU the worker runs on, and scales the repetition's times
to a host on which the calibration takes REFERENCE_S.  Program changes still
show in full, because the calibration's code and inputs never change with
gapfem; only the host's speed at that moment is divided out.

The work mixes the three kinds of code gapfem spends its time in: the Python
interpreter (mesh refinement, closure), numpy vector operations (assembly,
estimators) and a SuperLU factorisation and solve (the solvers).
"""

import gc
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

# About the median calibration time on the 2-core Xeon machine the bounds
# were set on, so that scaled times read close to its typical wall times.
REFERENCE_S = 0.035
SAMPLES = 5

_GRID = 64
_LINE = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
_MATRIX = (sp.kron(_LINE, sp.eye(_GRID)) + sp.kron(sp.eye(_GRID), _LINE)).tocsc()
_RHS = np.ones(_GRID * _GRID)
_VALUES = np.random.default_rng(0).random(120_000)


def _work():
    counts = {}
    for i in range(60_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    sorted(str(v) for v in counts.values())
    order = np.argsort(_VALUES)
    np.bincount((_VALUES[order] * 997).astype(np.int64), weights=_VALUES)
    sla.splu(_MATRIX).solve(_RHS)


def seconds():
    """Median time of SAMPLES runs of the calibration work, with the
    collector paused so that nothing of this process's heap is timed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
