"""Empirical CDFs and percentiles over probe-group metrics."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile (0 < p ≤ 100) with linear interpolation.

    Matches the convention of numpy's default ("linear") method, which is
    what measurement papers conventionally report, down to numpy's
    two-sided lerp: interpolating from the nearer endpoint keeps the
    result monotone in ``p`` where ``a * (1 - f) + b * f`` underflows
    (two equal subnormals would otherwise give 0.0 at p=50 only).
    """
    if not values:
        raise ValueError("percentile of empty data is undefined")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100]: {p!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    a, b = ordered[lo], ordered[hi]
    if frac < 0.5:
        return a + (b - a) * frac
    return b - (b - a) * (1.0 - frac)


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical distribution over one metric."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("an empirical CDF needs at least one value")
        object.__setattr__(self, "values", tuple(sorted(self.values)))

    @classmethod
    def of(cls, values: list[float]) -> "EmpiricalCDF":
        return cls(values=tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    def fraction_at(self, x: float) -> float:
        """P(X ≤ x)."""
        return bisect.bisect_right(self.values, x) / len(self.values)

    def fraction_above(self, x: float) -> float:
        """P(X > x), e.g. the share of groups over 100 ms (§5.2)."""
        return 1.0 - self.fraction_at(x)

    def percentile(self, p: float) -> float:
        return percentile(list(self.values), p)

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    def series(self, max_points: int = 200) -> list[tuple[float, float]]:
        """(value, cumulative fraction) pairs for plotting, downsampled."""
        n = len(self.values)
        step = max(1, n // max_points)
        points = [
            (self.values[i], (i + 1) / n) for i in range(0, n, step)
        ]
        if points[-1][1] < 1.0:
            points.append((self.values[-1], 1.0))
        return points
