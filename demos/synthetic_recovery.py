# Planting a rule in synthetic noise and mining it back out.
#
# The generator scatters background atoms independently per period, then
# co-places the planted precondition at scheduled periods; the consequence
# follows one period later with the firing probability.  We then extract
# prima facie rules and rank them by eps_avg to see the plant surface.

# %%
from aptmine import (
    AptRule,
    Conjunction,
    ExtractParams,
    PlantedRule,
    Predicate,
    SynthSpec,
    generate_synthetic,
    pf_rule_compare,
    pf_rule_extract,
)

spec = SynthSpec(
    n_env=10,
    t_max=200,
    planted=(PlantedRule(precondition=(0,), consequence="raid", fire_prob=0.9, placements=20),),
    density=0.1,
    seed=11,
)
corpus = generate_synthetic(spec)
consequence = corpus.registry.find(Predicate("act", 1), ("raid",))
target = AptRule(Conjunction([0]), consequence)
print(f"{corpus.thread.t_max} periods, {len(corpus.registry)} atoms")

# %%
# Thresholds scaled to a 200-period corpus: support grows with t_max, and
# background dilution drags the planted rule's measured probability well
# below its 0.9 firing probability.
params = ExtractParams(max_dim=3, supp_lb=5, min_prob=0.35)
report = pf_rule_extract(corpus.thread, corpus.registry, params)
print(f"extracted {len(report.rules)} rules "
      f"({report.combinations_explored} frequent candidates evaluated)")

# %%
ranked = pf_rule_compare(corpus.thread, report.rules)
group = ranked[consequence]
for position, scored in enumerate(group[:5], start=1):
    label = corpus.registry.render(scored.rule.consequence)
    pre = scored.rule.precondition.render(corpus.registry)
    flag = "  <-- planted" if scored.rule == target else ""
    print(f"#{position} {pre} ~> {label}: eps_avg={scored.eps_avg:.3f} "
          f"p={scored.stats.p:.3f} support={scored.stats.support}{flag}")

assert group[0].rule == target, "the planted rule should rank first"
print("planted rule recovered at rank 1")
