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

from .model import AptmineError


class InsufficientHistoryError(AptmineError):
    """Too few previous periods to fill the moving window."""


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


@dataclass(frozen=True, slots=True)
class CountSeries:
    """Per-period counts for one (activity, theater) key, period 1 first."""

    key: tuple[str, str]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        for c in self.counts:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"counts must be non-negative integers, got {c!r}")


@dataclass(frozen=True, slots=True)
class SpikeEmission:
    """One spike: the series key spiked at `period` at level `threshold`."""

    period: int
    key: tuple[str, str]
    threshold: float


def moving_stats(series: CountSeries, window: int, t: int) -> tuple[float, float]:
    """Mean and population std dev of the window counts before period t.

    Requires t > window (enough history) and t <= len(counts).
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if t > len(series.counts):
        raise ValueError(f"period {t} beyond series of length {len(series.counts)}")
    if t <= window:
        raise InsufficientHistoryError(
            f"period {t} has only {t - 1} previous period(s), window needs {window}"
        )
    recent = series.counts[t - 1 - window : t - 1]
    return statistics.fmean(recent), statistics.pstdev(recent)


def spike_atoms(series: CountSeries, config: SpikeConfig) -> list[SpikeEmission]:
    """All spike emissions for one series, ordered by (period, threshold).

    Periods 1..window are never emitted; a flat window (sigma = 0) emits
    nothing because the count must strictly exceed the moving average.
    """
    out: list[SpikeEmission] = []
    for t in range(config.window + 1, len(series.counts) + 1):
        mean, sigma = moving_stats(series, config.window, t)
        value = series.counts[t - 1]
        if value <= mean:
            continue
        for k in config.thresholds:
            if value >= mean + k * sigma:
                out.append(SpikeEmission(t, series.key, k))
    return out
