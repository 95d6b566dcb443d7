"""Spike detection over per-period incident counts.

A period spikes at threshold k when its count reaches the trailing moving
average plus k moving (population) standard deviations, and strictly
exceeds the moving average.  The window covers the previous ``window``
periods only, never the current one, so nothing can be emitted before
period window + 1.  Thresholds are cumulative: a count clearing the 2.0
threshold also clears 1.0 and yields both emissions.
"""

from __future__ import annotations

import math
import statistics
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

    Periods 1..window are never emitted; a flat window (sigma = 0) emits
    nothing because the count must strictly exceed the moving average.
    """
    out: list[tuple[int, float]] = []
    for t in range(config.window + 1, len(counts) + 1):
        recent = counts[t - 1 - config.window : t - 1]
        mean, sigma = statistics.fmean(recent), statistics.pstdev(recent)
        value = counts[t - 1]
        if value <= mean:
            continue
        out.extend((t, k) for k in config.thresholds if value >= mean + k * sigma)
    return out
