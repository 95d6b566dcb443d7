# The full ingestion pipeline on a tiny hand-written event log.
#
# Events arrive as CSV rows (date, predicate, arg1, arg2, actor).  They are
# bucketed into 7-day periods from the epoch, per-theater count series are
# built for each activity, spikes become action atoms, and the result is a
# thread ready for mining.  Bad rows land in a reject report, never on the
# floor.

# %%
import datetime as dt
import io

from aptmine import (
    CorpusConfig,
    ExtractParams,
    SpikeConfig,
    build_corpus,
    parse_events,
    pf_rule_compare,
    pf_rule_extract,
)

EPOCH = dt.date(2014, 6, 8)


def day(week: int, offset: int = 0) -> str:
    return (EPOCH + dt.timedelta(days=7 * (week - 1) + offset)).isoformat()


# Nine weeks of events.  armedAtk in Mosul ticks along at one per week and
# explodes in weeks 6 and 9; recon sweeps happen the week before each
# surge.  One row has a broken date and one names an unmapped city.
rows = ["date,predicate,arg1,arg2,actor"]
for week in range(1, 9):
    rows.append(f"{day(week)},armedAtk,Mosul,,ISIS")
for week in (5, 8):
    rows.append(f"{day(week, 2)},recon,Mosul,,ISIS")
for week in (6, 9):
    for _ in range(4):
        rows.append(f"{day(week, 3)},armedAtk,Mosul,,ISIS")
rows += [
    "not-a-date,IED,Raqqa,,",
    f"{day(2)},IED,Atlantis,,",
]
csv_text = "\n".join(rows) + "\n"

config = CorpusConfig(
    epoch=EPOCH,
    location_map={"Mosul": "Iraq", "Raqqa": "Syria"},
    spike_config=SpikeConfig(window=4, thresholds=(1.0, 2.0)),
)

events, parse_rejects = parse_events(io.BytesIO(csv_text.encode()))
corpus, build_rejects = build_corpus(events, config)

print(f"parsed {len(events)} events; {len(parse_rejects)} parse reject(s), "
      f"{len(build_rejects)} build reject(s)")
for reject in parse_rejects + build_rejects:
    print(f"  rejected ({reject.reason}): {reject.detail}")

# %%
print(f"\nthread: {corpus.thread.t_max} periods, {len(corpus.registry)} atoms")
print("armedAtk Iraq counts:", corpus.count_series[("armedAtk", "Iraq")])
for t in range(1, corpus.thread.t_max + 1):
    names = sorted(corpus.registry.render(a) for a in corpus.thread.world(t))
    print(f"  week {t}: {', '.join(names) if names else '(empty)'}")

# %%
# The surges became armedAtkSpike action atoms; mine what precedes them
# and keep the top 3 per consequence.
report = pf_rule_extract(corpus.thread, corpus.registry,
                         ExtractParams(max_dim=2, supp_lb=2, min_prob=0.5))
ranked = pf_rule_compare(corpus.thread, report.rules, k=3)
print(f"\nextracted {len(report.rules)} rules; top 3 per consequence:")
for group in ranked.values():
    for scored in group:
        pre = scored.rule.precondition.render(corpus.registry)
        label = corpus.registry.render(scored.rule.consequence)
        eps = "unscored" if scored.is_unscored else f"{scored.eps_avg:.3f}"
        print(f"  {pre} ~> {label}: eps_avg={eps} p={scored.stats.p:.3f}")
