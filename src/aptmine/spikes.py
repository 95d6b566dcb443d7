"""Spike detection over per-period incident counts.

A period spikes at threshold k when its count reaches the trailing moving
average plus k moving (population) standard deviations, and strictly
exceeds the moving average.  The window covers the previous ``window``
periods only, never the current one, so nothing can be emitted before
period window + 1.  Thresholds are cumulative: a count clearing the 2.0
threshold also clears 1.0 and yields both emissions.  k is the decimal
``repr(k)`` spells, and the test runs in integers, so a count that exactly
reaches the threshold spikes on every Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True, slots=True)
class SpikeConfig:
    window: int = 4
    thresholds: tuple[float, ...] = (1.0, 2.0)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if not self.thresholds:
            raise ValueError("at least one threshold is required")
        if not all(0 < k < math.inf for k in self.thresholds):
            raise ValueError(f"thresholds must be positive and finite, got {self.thresholds}")
        if tuple(sorted(set(self.thresholds))) != self.thresholds:
            raise ValueError(f"thresholds must be strictly ascending, got {self.thresholds}")


def spike_atoms(counts: Sequence[int], config: SpikeConfig) -> list[tuple[int, float]]:
    """The ``(period, threshold)`` spikes of a count series (period 1 first),
    ordered by period, then threshold.

    Periods 1..window are never emitted, and neither is a count equal to a
    flat window's value (sigma = 0), because the count must strictly exceed
    the moving average.  With S and Q the sum and the sum of squares of the
    w window counts and k = p/q, count c spikes at k iff w*c - S > 0 and
    (q*(w*c - S))**2 >= p**2 * (w*Q - S**2): the float test times w*q, squared.
    """
    # Imported here so that the commands that never detect spikes skip fractions and decimal.
    from fractions import Fraction

    w = config.window
    ratios = [(k, *Fraction(repr(k)).as_integer_ratio()) for k in config.thresholds]
    out: list[tuple[int, float]] = []
    for t in range(w + 1, len(counts) + 1):
        recent = counts[t - 1 - w : t - 1]
        total = sum(recent)
        excess = w * counts[t - 1] - total
        if excess <= 0:
            continue
        spread = w * sum(c * c for c in recent) - total * total
        out.extend((t, k) for k, p, q in ratios if (q * excess) ** 2 >= p * p * spread)
    return out
