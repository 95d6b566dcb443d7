# Spike detection over weekly incident counts.
#
# A period "spikes" when its count clears the trailing moving average by
# k moving standard deviations.  The window never includes the current
# period, thresholds are cumulative, and flat history can never spike.

# %%
import statistics

from aptmine import SpikeConfig, spike_atoms

config = SpikeConfig(window=4, thresholds=(1.0, 2.0))
counts = (1, 3, 1, 3, 8, 2, 2, 2, 2, 9)  # armedAtk in Iraq, period 1 first

# %%
# Period 5 looks back at [1, 3, 1, 3]: mean 2.0, population sigma 1.0.
window = counts[0:4]
print(f"window before t=5: mean={statistics.fmean(window)}, sigma={statistics.pstdev(window)}")
print(f"count at t=5 is {counts[4]}, so both 1-sigma and 2-sigma fire")

# %%
for period, threshold in spike_atoms(counts, config):
    print(f"t={period}: armedAtk(Iraq) spiked at {threshold:g} sigma")

# %%
# A constant series never spikes: sigma is 0 and the count never strictly
# exceeds the mean, which is exactly the guard that keeps mean + k*0 from
# firing on flat history.
print("flat series emissions:", spike_atoms((2,) * 10, config))

# %%
# Doubling every count changes nothing: the rule is scale-free.
doubled = tuple(2 * c for c in counts)
assert spike_atoms(doubled, config) == spike_atoms(counts, config)
print("scale invariance holds")
