"""Spike detection over count series."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aptmine import (
    CountSeries,
    InsufficientHistoryError,
    SpikeConfig,
    SpikeEmission,
    moving_stats,
    spike_atoms,
)

KEY = ("armedAtk", "Iraq")


def series(*counts):
    return CountSeries(KEY, tuple(counts))


def test_worked_example_spikes_at_both_thresholds():
    # Window [1, 3, 1, 3]: mean 2, population sigma 1.  The count 8 clears
    # mean + 2 sigma, and cumulatively mean + 1 sigma.
    emissions = spike_atoms(series(1, 3, 1, 3, 8), SpikeConfig(window=4, thresholds=(1.0, 2.0)))
    assert emissions == [
        SpikeEmission(5, KEY, 1.0),
        SpikeEmission(5, KEY, 2.0),
    ]


def test_moving_stats_worked_example():
    assert moving_stats(series(1, 3, 1, 3, 8), 4, 5) == (2.0, 1.0)


def test_constant_series_never_spikes():
    emissions = spike_atoms(series(*[5] * 12), SpikeConfig(window=4))
    assert emissions == []


def test_flat_window_with_a_jump_clears_every_threshold():
    # Sigma 0 makes every threshold degenerate; the strict-mean guard is
    # what separates a genuine jump from the constant case above.
    emissions = spike_atoms(series(2, 2, 2, 2, 3), SpikeConfig(window=4, thresholds=(1.0, 2.0)))
    assert emissions == [
        SpikeEmission(5, KEY, 1.0),
        SpikeEmission(5, KEY, 2.0),
    ]


def test_window_excludes_the_current_period():
    # Period 5 is judged against [1, 3, 1, 3], not against itself; period 6
    # then sees the spike in its trailing window [3, 1, 3, 8] and stays quiet.
    emissions = spike_atoms(series(1, 3, 1, 3, 8, 4), SpikeConfig(window=4, thresholds=(1.0,)))
    assert emissions == [SpikeEmission(5, KEY, 1.0)]


def test_insufficient_history():
    with pytest.raises(InsufficientHistoryError, match="window needs 4"):
        moving_stats(series(1, 2, 3, 4), 4, 4)
    with pytest.raises(ValueError, match="beyond series"):
        moving_stats(series(1, 2, 3, 4, 5), 4, 6)


def test_spike_config_validation():
    with pytest.raises(ValueError, match="window"):
        SpikeConfig(window=0)
    with pytest.raises(ValueError, match="threshold"):
        SpikeConfig(thresholds=())
    with pytest.raises(ValueError, match="positive"):
        SpikeConfig(thresholds=(0.0, 1.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SpikeConfig(thresholds=(1.0, bad))
    with pytest.raises(ValueError, match="ascending"):
        SpikeConfig(thresholds=(2.0, 1.0))
    with pytest.raises(ValueError, match="ascending"):
        SpikeConfig(thresholds=(1.0, 1.0))


def test_count_series_validation():
    with pytest.raises(ValueError, match="non-negative"):
        CountSeries(KEY, (1, -2))
    with pytest.raises(ValueError, match="non-negative"):
        CountSeries(KEY, (1, True))


counts_series = st.lists(st.integers(min_value=0, max_value=50), min_size=5, max_size=40)


@given(counts_series)
def test_thresholds_are_cumulative(counts):
    config = SpikeConfig(window=4, thresholds=(1.0, 2.0, 3.0))
    emitted = {(e.period, e.threshold) for e in spike_atoms(series(*counts), config)}
    for period, threshold in emitted:
        for lower in (1.0, 2.0, 3.0):
            if lower < threshold:
                assert (period, lower) in emitted


@given(counts_series, st.integers(min_value=1, max_value=9))
def test_emissions_are_scale_invariant(counts, factor):
    """Multiplying every count by a constant moves mean and sigma together."""
    config = SpikeConfig(window=4, thresholds=(1.0, 2.0))
    base = spike_atoms(series(*counts), config)
    scaled = spike_atoms(series(*[c * factor for c in counts]), config)
    assert [(e.period, e.threshold) for e in base] == [(e.period, e.threshold) for e in scaled]


@given(counts_series, st.integers(min_value=0, max_value=50))
def test_appending_a_period_never_rewrites_history(counts, extra):
    config = SpikeConfig(window=4)
    before = spike_atoms(series(*counts), config)
    after = spike_atoms(series(*counts, extra), config)
    assert after[: len(before)] == before
    assert all(e.period == len(counts) + 1 for e in after[len(before) :])


@given(counts_series)
def test_nothing_emitted_before_the_window_fills(counts):
    config = SpikeConfig(window=4)
    assert all(e.period >= 5 for e in spike_atoms(series(*counts), config))


@given(counts_series)
def test_every_emission_is_justified_by_the_window(counts):
    config = SpikeConfig(window=4, thresholds=(1.0, 2.0))
    s = series(*counts)
    for e in spike_atoms(s, config):
        mean, sigma = moving_stats(s, config.window, e.period)
        value = counts[e.period - 1]
        assert value > mean
        assert value >= mean + e.threshold * sigma


def test_deterministic_for_equal_input():
    rng = random.Random(5)
    counts = [rng.randrange(20) for _ in range(30)]
    config = SpikeConfig()
    assert spike_atoms(series(*counts), config) == spike_atoms(series(*counts), config)
