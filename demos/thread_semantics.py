# A tour of threads, conjunctions, and the four rule statistics.
#
# We build the six-period worked example by hand, ask which atoms hold
# when, and read off each statistic the way the mining engine does.

# %%
from aptmine import (
    AtomRegistry,
    Conjunction,
    Predicate,
    Thread,
    AptRule,
    evaluate_rule,
    negative_probability,
    prior,
    rule_probability,
    support,
)

registry = AtomRegistry()
a = registry.intern(Predicate("a", 0))
b = registry.intern(Predicate("b", 0))
g = registry.intern(Predicate("g", 0))
for atom in (a, b, g):
    registry.mark_env(atom)
registry.mark_action(g)
registry.freeze()

# Six worlds, indexed 1..6.  Time 6 is deliberately empty.
thread = Thread([{a, b}, {g}, {b}, {g, a}, {b}, ()])
print(f"t_max = {thread.t_max}")

# %%
# A world is the set of atom ids true in that period; a conjunction
# holds wherever all of its atoms do.
print("g holds at t=2:", g in thread.world(2))
print("a or b holds at t=6:", bool({a, b} & thread.world(6)))
print("{a,b} holds at t=1:", set(Conjunction([a, b])) <= thread.world(1))
print("times of {a,b}:", bin(thread.times_mask([a, b])))  # bit t-1 <=> holds at t

# %%
# The prior is the unconditional rate of an atom across all periods.
print("prior of g:", prior(thread, g))  # 2 of 6 periods

# The rule probability conditions on the precondition and looks one step
# ahead; the final period has no successor, so it never enters the count.
print("p({a} ~> g):", rule_probability(thread, Conjunction([a]), g))
print("p({a,b} ~> g):", rule_probability(thread, Conjunction([a, b]), g))

# The negative probability asks how often g arrives *without* the
# precondition in the previous period; an occurrence at t=1 counts, since
# nothing precedes it.
print("p*({b}, g):", negative_probability(thread, Conjunction([b]), g))

# Support is the plain occurrence count of the whole precondition.
print("support({a,b}):", support(thread, Conjunction([a, b])))

# %%
# One call bundles all four statistics for a rule.
rule = AptRule(Conjunction([a]), g)
print("evaluate_rule({a} ~> g):", evaluate_rule(thread, rule))
