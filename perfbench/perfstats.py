"""Summary statistics the benchmark reports: percentiles, the tail rule, ratios.

Pure functions over plain lists of numbers, so the tests can check them
without running a workload.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Percentiles the tail rule may pick from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported as the tail only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile (numpy's default method); 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass(frozen=True)
class Tail:
    """The highest ladder percentile, up to a cap, with at least MIN_BEYOND
    samples beyond it.

    ``label`` is e.g. ``"p90"``; with too few samples for any ladder
    percentile it is ``"max"`` and ``value`` is the largest sample.
    """

    label: str
    value: float
    n: int
    beyond: int

    def describe(self) -> str:
        return f"{self.label} of n={self.n}, {self.beyond} beyond"


def tail(values, highest: float = TAIL_LADDER[-1]) -> Tail:
    """``highest`` caps the percentile, so that runs of one workload whose
    sample counts differ report the same percentile."""
    xs = sorted(values)
    if not xs:
        return Tail("max", 0.0, 0, 0)
    best = Tail("max", xs[-1], len(xs), 0)
    for p in (p for p in TAIL_LADDER if p <= highest):
        v = percentile(xs, p)
        beyond = sum(1 for x in xs if x > v)
        if beyond >= MIN_BEYOND:
            label = f"p{p:g}"
            best = Tail(label, v, len(xs), beyond)
    return best


def mean(values) -> float:
    xs = list(values)
    return sum(xs) / len(xs) if xs else 0.0


@dataclass(frozen=True)
class Ratio:
    """A ratio that keeps its base: ``num / den``, 0.0 when the base is empty."""

    num: float
    den: float

    @property
    def value(self) -> float:
        return self.num / self.den if self.den else 0.0

    def describe(self) -> str:
        if not self.den:
            return f"n/a ({_fmt(self.num)}/{_fmt(self.den)})"
        return f"{self.value:.6g} ({_fmt(self.num)}/{_fmt(self.den)})"


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:.6g}"


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
