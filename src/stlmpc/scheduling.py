"""Witness-instant scheduling for eventually/until operators.

Each eventually/until operator needs one concrete witness instant k1 per
evaluation step.  A single period ``delta`` and one baseline per operator
are precomputed; operator i's witnesses then live on the arithmetic grid
``{baseline_i + j*delta}``.  The period equals the shortest discrete window
length plus one, which guarantees the grid meets every shifted window, and
the baselines are spread ``eta`` apart so distinct operators never collide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stl import SamplingGrid, omega, sampled_window

__all__ = ["Schedule", "ScheduleInfeasibleError", "compute_schedule", "k1_at", "k1_many"]


class ScheduleInfeasibleError(ValueError):
    """More eventually/until operators than slots in one period."""


@dataclass(frozen=True)
class Schedule:
    """Period, per-operator baselines, and the windows they serve."""

    delta: int
    baselines: tuple[int, ...]
    eta: int
    op_windows: tuple[tuple[float, float], ...]
    grid: SamplingGrid

    @property
    def n_ops(self) -> int:
        return len(self.baselines)

    def k1_at(self, op_index: int, k_prime: int) -> int:
        return k1_at(self, op_index, k_prime)


def compute_schedule(windows: list[tuple[float, float]] | tuple[tuple[float, float], ...],
                     grid: SamplingGrid) -> Schedule:
    """Period and baselines for the given eventually/until intervals.

    Raises :class:`~stlmpc.stl.EmptyWindowError` for a window without a
    sampling instant and :class:`ScheduleInfeasibleError` for more operators
    than the period (the sample count of the shortest window).
    """
    windows = tuple((float(a), float(b)) for a, b in windows)
    if not windows:
        raise ValueError("no eventually/until windows given")
    n_ops = len(windows)
    k_min: list[int] = []
    d: list[int] = []
    for a, b in windows:
        om = sampled_window(a, b, grid)
        k_min.append(om[0])
        d.append(om[-1] - om[0])
    delta = min(d) + 1
    if n_ops > delta:
        raise ScheduleInfeasibleError(
            f"{n_ops} eventually/until operators need at least {n_ops} slots "
            f"but the shortest window only provides {delta}")
    eta = delta // n_ops
    k0_first = min(k_min)
    baselines = tuple(k0_first + i * eta for i in range(n_ops))
    return Schedule(delta, baselines, eta, windows, grid)


def k1_at(sched: Schedule, op_index: int, k_prime: int) -> int:
    """Witness instant for operator ``op_index`` at evaluation step ``k_prime``.

    Returns the smallest point of the operator's baseline grid that falls in
    the window anchored at ``k_prime``; the existence of such a point is
    guaranteed because the period never exceeds the window length.
    """
    return int(k1_many(sched, op_index, [k_prime])[0])


def k1_many(sched: Schedule, op_index: int, k_primes) -> np.ndarray:
    """:func:`k1_at` for an array of evaluation steps at once.

    Raises an AssertionError for the first step whose window the baseline
    grid misses.
    """
    a, b = sched.op_windows[op_index]
    base = omega(a, b, sched.grid)
    k_primes = np.asarray(k_primes, dtype=np.int64)
    lo = k_primes + base[0]
    hi = k_primes + base[-1]
    k0 = sched.baselines[op_index]
    # -((k0 - lo) // delta) is ceil((lo - k0) / delta) in integers
    k1 = k0 + np.maximum(0, -((k0 - lo) // sched.delta)) * sched.delta
    miss = np.flatnonzero(k1 > hi)
    if miss.size:
        i = miss[0]
        raise AssertionError(
            f"baseline grid misses window [{lo[i]}, {hi[i]}] for operator {op_index}; "
            "this cannot happen for feasible schedules")
    return k1
