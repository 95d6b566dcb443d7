"""The four rule statistics, frozen against the worked six-period example."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aptmine import (
    AptRule,
    Conjunction,
    RuleStats,
    Thread,
    evaluate_rule,
    negative_probability,
    prior,
    rule_probability,
    rule_sort_key,
    support,
)
from aptmine.oracle import (
    exact_negative_probability,
    exact_prior,
    exact_rule_probability,
    exact_support,
)
from aptmine.model import Atom
from aptmine.stats import ConsequenceCounter

from conftest import corpora


def test_priors_on_worked_example(t1):
    thread, registry, a, b, g = t1
    assert prior(thread, a) == 1 / 3
    assert prior(thread, b) == 1 / 2
    assert prior(thread, g) == 1 / 3


def test_rule_probability_on_worked_example(t1):
    thread, registry, a, b, g = t1
    assert rule_probability(thread, Conjunction([a]), g) == 1 / 2
    assert rule_probability(thread, Conjunction([b]), g) == 2 / 3
    assert rule_probability(thread, Conjunction([a, b]), g) == 1.0
    assert rule_probability(thread, Conjunction([b]), a) == 1 / 3


def test_rule_probability_zero_is_not_the_marker(t1):
    thread, registry, a, b, g = t1
    # g occurs within the horizon but a never follows it: a real zero.
    value = rule_probability(thread, Conjunction([g]), a)
    assert value == 0.0
    assert value is not None


def test_rule_probability_marker_when_precondition_never_fires(t1):
    thread, registry, a, b, g = t1
    # b and g never co-occur anywhere.
    assert rule_probability(thread, Conjunction([b, g]), a) is None


def test_final_period_occurrence_counts_for_support_not_probability():
    thread = Thread([set(), set(), {0}])
    only_last = Conjunction([0])
    assert support(thread, only_last) == 1
    assert rule_probability(thread, only_last, 1) is None


def test_single_period_thread_has_no_rule_evidence():
    thread = Thread([{0, 1}])
    assert rule_probability(thread, Conjunction([0]), 1) is None
    assert negative_probability(thread, Conjunction([0]), 1) == 1.0  # vacuous at t = 1


def test_negative_probability_on_worked_example(t1):
    thread, registry, a, b, g = t1
    assert negative_probability(thread, Conjunction([b]), g) == 0.0
    assert negative_probability(thread, Conjunction([a]), g) == 1 / 2
    assert negative_probability(thread, Conjunction([a, b]), g) == 1 / 2
    # a at t = 1 has no predecessor world, so it counts as unpreceded.
    assert negative_probability(thread, Conjunction([g]), a) == 1.0
    assert negative_probability(thread, Conjunction([a]), b) == 2 / 3


def test_negative_probability_marker_when_consequence_never_occurs(t1):
    thread, registry, a, b, g = t1
    assert negative_probability(thread, Conjunction([a]), 99) is None


def test_support_counts_the_full_range(t1):
    thread, registry, a, b, g = t1
    assert support(thread, Conjunction([a])) == 2
    assert support(thread, Conjunction([b])) == 3
    assert support(thread, Conjunction([a, b])) == 1
    assert support(thread, Conjunction([b, g])) == 0


def test_evaluate_rule_bundles_all_four(t1):
    thread, registry, a, b, g = t1
    stats = evaluate_rule(thread, AptRule(Conjunction([b]), g))
    assert stats == RuleStats(p=2 / 3, p_star=0.0, rho=1 / 3, support=3)


def test_consequence_counter_on_worked_example(t1):
    thread, registry, a, b, g = t1
    to_g = ConsequenceCounter(thread, g)
    assert (to_g.horizon, to_g.goal, to_g.rho) == (0b11111, 2, 1 / 3)
    assert to_g.qualifying == thread.time_mask(g) >> 1
    # hits = (mask & qualifying).bit_count(); p = hits / fired, p* = (goal - hits) / goal
    b_mask, ab_mask = thread.times_mask([b]), thread.times_mask([a, b])
    assert to_g.stats(b_mask) == RuleStats(2 / 3, 0.0, 1 / 3, 3)
    assert to_g.stats(ab_mask) == RuleStats(1.0, 1 / 2, 1 / 3, 1)
    assert to_g.p(b_mask) == 2 / 3 and to_g.p(ab_mask) == 1.0
    to_a = ConsequenceCounter(thread, a)
    assert to_a.stats(thread.times_mask([g])) == RuleStats(0.0, 1.0, 1 / 3, 2)
    # An occurrence at t_max counts for support but never fires.
    last = ConsequenceCounter(Thread([{1}, set(), {0}]), 1)
    assert last.stats(0b100) == RuleStats(None, 1.0, 1 / 3, 1) and last.p(0b100) is None
    # A mask asked for again gets the same object back.
    assert to_g.stats(b_mask) is to_g.stats(b_mask)


def test_rule_rejects_consequence_in_precondition():
    with pytest.raises(ValueError, match="its own precondition"):
        AptRule(Conjunction([1, 2]), 2)


def test_rule_sort_key_orders_by_consequence_then_atoms():
    r1 = AptRule(Conjunction([5]), 1)
    r2 = AptRule(Conjunction([0, 1]), 2)
    r3 = AptRule(Conjunction([0, 3]), 2)
    assert sorted([r3, r2, r1], key=rule_sort_key) == [r1, r2, r3]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=1.5, p_star=0.0, rho=0.0, support=0),
        dict(p=0.5, p_star=-0.1, rho=0.0, support=0),
        dict(p=0.5, p_star=0.0, rho=2.0, support=0),
        dict(p=0.5, p_star=0.0, rho=0.0, support=-1),
        dict(p=0.5, p_star=0.0, rho=None, support=0),
    ],
)
def test_rule_stats_validation(kwargs):
    with pytest.raises(ValueError):
        RuleStats(**kwargs)


def test_rule_stats_accept_the_marker():
    stats = RuleStats(p=None, p_star=None, rho=0.0, support=0)
    assert stats.p is None


# ------------------------------------------- agreement with the exact oracle


@st.composite
def corpus_and_rule(draw):
    thread, registry = draw(corpora())
    n = len(registry)
    atoms = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    consequence = draw(st.integers(0, n - 1))
    return thread, Conjunction(atoms), consequence


@given(corpus_and_rule())
def test_statistics_match_the_fraction_oracle(case):
    """Float results are correctly rounded quotients, so equality is exact."""
    thread, c, g = case
    p = rule_probability(thread, c, g)
    exact_p = exact_rule_probability(thread, c.atoms, g)
    assert (p is None) == (exact_p is None)
    if exact_p is not None:
        assert p == float(exact_p)

    p_star = negative_probability(thread, c, g)
    exact_ps = exact_negative_probability(thread, c.atoms, g)
    assert (p_star is None) == (exact_ps is None)
    if exact_ps is not None:
        assert p_star == float(exact_ps)

    assert prior(thread, g) == float(exact_prior(thread, Atom(g)))
    assert support(thread, c) == exact_support(thread, c.atoms)


@given(corpora(), st.data())
def test_consequence_counter_matches_a_scan_of_the_worlds(corpus, data):
    """Any mask, not only a conjunction's: pair_probs counts second & ~first."""
    thread, registry = corpus
    t_max = thread.t_max
    g = data.draw(st.integers(0, len(registry) - 1))
    mask = data.draw(st.integers(0, 2**t_max - 1))
    counter = ConsequenceCounter(thread, g)

    times = {t for t in range(1, t_max + 1) if mask >> (t - 1) & 1}
    fired = [t for t in times if t < t_max]
    hits = sum(g in thread.world(t + 1) for t in fired)
    goal = [t for t in range(1, t_max + 1) if g in thread.world(t)]
    unpreceded = sum(t - 1 not in times for t in goal)
    exact_p = Fraction(hits, len(fired)) if fired else None
    exact_ps = Fraction(unpreceded, len(goal)) if goal else None

    assert counter.p(mask) == (None if exact_p is None else float(exact_p))
    stats = counter.stats(mask)
    assert stats.p == counter.p(mask)
    assert stats.p_star == (None if exact_ps is None else float(exact_ps))
    assert stats.rho == len(goal) / t_max and stats.support == len(times)
    assert (mask & counter.qualifying).bit_count() == hits
    assert counter.goal == len(goal)


@given(corpus_and_rule())
def test_statistics_stay_in_range(case):
    thread, c, g = case
    for value in (
        rule_probability(thread, c, g),
        negative_probability(thread, c, g),
        prior(thread, g),
    ):
        if value is not None:
            assert 0.0 <= value <= 1.0
    assert 0 <= support(thread, c) <= thread.t_max


@given(corpus_and_rule())
def test_certain_rules_are_always_followed(case):
    thread, c, g = case
    if rule_probability(thread, c, g) == 1.0:
        for t in range(1, thread.t_max):
            if set(c.atoms) <= thread.world(t):
                assert g in thread.world(t + 1)


@given(corpus_and_rule(), st.data())
def test_support_shrinks_under_extension(case, data):
    thread, c, g = case
    extra = data.draw(st.integers(0, 7))
    assert support(thread, Conjunction([*c.atoms, extra])) <= support(thread, c)
