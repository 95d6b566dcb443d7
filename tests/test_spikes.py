"""Spike detection over count series."""

import random
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aptmine import SpikeConfig, spike_atoms


def test_worked_example_spikes_at_both_thresholds():
    # Window [1, 3, 1, 3]: mean 2, population sigma 1.  The count 8 clears
    # mean + 2 sigma, and cumulatively mean + 1 sigma.
    emissions = spike_atoms((1, 3, 1, 3, 8), SpikeConfig(window=4, thresholds=(1.0, 2.0)))
    assert emissions == [(5, 1.0), (5, 2.0)]


def test_constant_series_never_spikes():
    emissions = spike_atoms([5] * 12, SpikeConfig(window=4))
    assert emissions == []


def test_flat_window_with_a_jump_clears_every_threshold():
    # Sigma 0 makes every threshold degenerate; the strict-mean guard is
    # what separates a genuine jump from the constant case above.
    emissions = spike_atoms((2, 2, 2, 2, 3), SpikeConfig(window=4, thresholds=(1.0, 2.0)))
    assert emissions == [(5, 1.0), (5, 2.0)]


def test_window_excludes_the_current_period():
    # Period 5 is judged against [1, 3, 1, 3], not against itself; period 6
    # then sees the spike in its trailing window [3, 1, 3, 8] and stays quiet.
    emissions = spike_atoms((1, 3, 1, 3, 8, 4), SpikeConfig(window=4, thresholds=(1.0,)))
    assert emissions == [(5, 1.0)]


@pytest.mark.parametrize("counts", [(0, 0, 0, 1, 2, 3), (0, 0, 0, 2, 4, 6)])
def test_a_count_exactly_at_the_threshold_spikes(counts):
    # Window [0, 0, 0, 1, 2]: mean 0.6, sigma 0.8, so 3 sigma lands exactly
    # on the count 3; floats give 3.0000000000000004.  Doubling keeps the tie.
    assert spike_atoms(counts, SpikeConfig(window=5, thresholds=(3.0,))) == [(6, 3.0)]


def test_the_threshold_is_the_decimal_written():
    # Window [0, 20]: mean 10, sigma 10.  The count 11 is exactly 0.1 sigma
    # above the mean, and the binary 0.1 is a little above one tenth.
    assert spike_atoms((0, 20, 11), SpikeConfig(window=2, thresholds=(0.1,))) == [(3, 0.1)]


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
    # A long --thresholds list is echoed clipped, as every diagnostic clips.
    with pytest.raises(ValueError, match=r"ascending, got \(1\.0, 1\.0, .*\.\.\. \(15000 characters\)$"):
        SpikeConfig(thresholds=(1.0,) * 3000)


counts_series = st.lists(st.integers(min_value=0, max_value=50), min_size=5, max_size=40)


@given(counts_series)
def test_thresholds_are_cumulative(counts):
    config = SpikeConfig(window=4, thresholds=(1.0, 2.0, 3.0))
    emitted = set(spike_atoms(counts, config))
    for period, threshold in emitted:
        for lower in (1.0, 2.0, 3.0):
            if lower < threshold:
                assert (period, lower) in emitted


@given(counts_series, st.integers(min_value=1, max_value=9))
def test_emissions_are_scale_invariant(counts, factor):
    """Multiplying every count by a constant moves mean and sigma together."""
    config = SpikeConfig(window=4, thresholds=(1.0, 2.0))
    base = spike_atoms(counts, config)
    scaled = spike_atoms([c * factor for c in counts], config)
    assert base == scaled


@given(counts_series, st.integers(min_value=0, max_value=50))
def test_appending_a_period_never_rewrites_history(counts, extra):
    config = SpikeConfig(window=4)
    before = spike_atoms(counts, config)
    after = spike_atoms([*counts, extra], config)
    assert after[: len(before)] == before
    assert all(period == len(counts) + 1 for period, _ in after[len(before) :])


@given(counts_series)
def test_nothing_emitted_before_the_window_fills(counts):
    config = SpikeConfig(window=4)
    assert all(period >= 5 for period, _ in spike_atoms(counts, config))


@given(counts_series)
def test_every_emission_is_justified_by_the_window(counts):
    config = SpikeConfig(window=4, thresholds=(1.0, 2.0))
    for period, threshold in spike_atoms(counts, config):
        window = counts[period - 1 - config.window : period - 1]
        mean, sigma = statistics.fmean(window), statistics.pstdev(window)
        value = counts[period - 1]
        assert value > mean
        assert value >= mean + threshold * sigma


def test_deterministic_for_equal_input():
    rng = random.Random(5)
    counts = [rng.randrange(20) for _ in range(30)]
    config = SpikeConfig()
    assert spike_atoms(counts, config) == spike_atoms(counts, config)
