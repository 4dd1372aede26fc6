"""Host-speed calibration: every timing is also given at a reference speed.

The benchmark runs on a few cores of a shared host.  There the speed of one
core moves by up to 2x from one tenth of a second to the next and drifts
over minutes with the other tenants' load, so wall times of the same work
differ from run to run far more than any change worth measuring.  The
calibration kernel below is fixed work that does not depend on the program:
LU factorisations and solves of a dense matrix the size of the largest
``conj_noisy`` KKT system, and small vector operations like one solver
iteration.  Timing it right before and right after a call estimates the
speed the call ran at, and the call's time at the reference speed is

    wall seconds * REFERENCE_S / mean(kernel seconds before, after).

A change to the program moves the call's wall time but not the kernel's, so
it shows in full.  The kernel was chosen by how well it follows the
program's own slow-downs: over five minutes of each workload on a 2-core
x86 container, cut into 20 s windows, the window median of the job time
grew with the kernel time to the power 0.86 (``conj_noisy``) and 1.06
(``monitor_long``) for these LU solves, 0.66 and 0.90 for the vector
operations, and only 0.56 and 0.59 for pure-Python recursion, which
over-corrects.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import scipy.linalg

# Kernel time on an unloaded core of the 2.1 GHz Xeon the bounds were set
# on; it only fixes the scale, so reference seconds read like wall seconds
# there.
REFERENCE_S = 0.030
KKT_SIZE = 274              # 70 variables + 204 rows, the largest conj_noisy problem
LU_ROUNDS = 12
SOLVES_PER_LU = 20
VECTOR_ROUNDS = 1000


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    scaled to the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class HostSpeed:
    """Runs the kernel between timed calls and keeps every kernel time."""

    def __init__(self, span=None):
        self.span = span or (lambda name: contextlib.nullcontext())
        rng = np.random.default_rng(0)
        self._kkt = rng.standard_normal((KKT_SIZE, KKT_SIZE)) + KKT_SIZE * np.eye(KKT_SIZE)
        self._rhs = rng.standard_normal(KKT_SIZE)
        self._a = rng.standard_normal((204, 70))
        self._z = rng.standard_normal(204)
        self.samples: list[float] = []
        self.last: float | None = None

    def sample(self) -> float:
        """Time one run of the kernel; it becomes the ``before`` of the next call."""
        with self.span("bench.calibrate"):
            t0 = time.perf_counter()
            acc = 0.0
            eye = np.eye(KKT_SIZE)
            for i in range(LU_ROUNDS):
                lu = scipy.linalg.lu_factor(self._kkt + i * eye, check_finite=False)
                for _ in range(SOLVES_PER_LU):
                    acc += float(scipy.linalg.lu_solve(lu, self._rhs, check_finite=False)[0])
            for _ in range(VECTOR_ROUNDS):
                z = np.minimum(np.maximum(1.5 * self._z, -1.0), 1.0)
                acc += float(np.linalg.norm(self._a.T @ z, np.inf))
            seconds = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("calibration kernel gave a non-finite result")
        self.samples.append(seconds)
        self.last = seconds
        return seconds

    def around(self, fn):
        """Run ``fn()`` between two kernel samples.

        Returns ``(result, wall seconds of fn, scale)``; a time measured
        during the call, multiplied by ``scale``, is at the reference speed.
        """
        before = self.last if self.last is not None else self.sample()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.sample()
        return result, wall, at_reference(1.0, before, after)
