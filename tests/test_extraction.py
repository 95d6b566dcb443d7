"""Prima facie rule extraction: gates, candidates, counters, pruning."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from aptmine import (
    AptRule,
    AtomRegistry,
    Conjunction,
    EmptyConsequenceError,
    ExtractParams,
    FrozenRegistryError,
    Predicate,
    RuleStats,
    SynthSpec,
    PlantedRule,
    Thread,
    brute_force_extract,
    candidate_preconditions,
    evaluate_rule,
    frequent_env_atoms,
    generate_synthetic,
    pf_rule_extract,
    sparse_benchmark_corpus,
    subset_count,
)

from aptmine.model import Atom
from aptmine.oracle import (
    exact_negative_probability,
    exact_prior,
    exact_rule_probability,
    exact_support,
)

from conftest import corpora, random_corpus, random_params

DEFAULTS = ExtractParams()


def test_default_parameters():
    assert DEFAULTS == ExtractParams(max_dim=3, supp_lb=3, min_prob=0.5)


@pytest.mark.parametrize(
    "kwargs", [dict(max_dim=0), dict(supp_lb=0), dict(min_prob=-0.1), dict(min_prob=1.5)]
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ExtractParams(**kwargs)


def test_subset_count():
    assert subset_count(3, 2) == 6
    assert subset_count(3, 3) == 7
    assert subset_count(2, 5) == 3  # cap beyond n is harmless
    assert subset_count(0, 3) == 0
    with pytest.raises(ValueError):
        subset_count(-1, 2)


def test_frequent_env_atoms_by_support(t1):
    thread, registry, a, b, g = t1
    assert frequent_env_atoms(thread, registry, 1) == {a, b, g}
    assert frequent_env_atoms(thread, registry, 3) == {b}
    assert frequent_env_atoms(thread, registry, 4) == frozenset()
    with pytest.raises(ValueError):
        frequent_env_atoms(thread, registry, 0)


def walk(thread, g, params, frequent):
    """The candidates' atom tuples, each mask checked against times_mask."""
    out = []
    for atoms, mask in candidate_preconditions(thread, g, params, frequent):
        assert mask == thread.times_mask(atoms)
        out.append(atoms)
    return out


def test_candidates_on_worked_example(t1):
    thread, registry, a, b, g = t1
    frequent = frequent_env_atoms(thread, registry, 1)
    got = walk(thread, g, ExtractParams(max_dim=2, supp_lb=1), frequent)
    assert got == sorted([(a,), (b,), (a, b)])

    got = walk(thread, g, ExtractParams(max_dim=1, supp_lb=1), frequent)
    assert got == sorted([(a,), (b,)])

    narrow = frequent_env_atoms(thread, registry, 3)
    got = walk(thread, g, DEFAULTS, narrow)
    assert got == [(b,)]


def test_candidates_never_contain_the_consequence(t1):
    thread, registry, a, b, g = t1
    frequent = frequent_env_atoms(thread, registry, 1)  # includes g itself
    got = walk(thread, g, ExtractParams(max_dim=3, supp_lb=1), frequent)
    assert got
    for atoms in got:
        assert g not in atoms


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), max_dim=st.integers(min_value=1, max_value=4))
def test_walk_yields_the_sorted_subsets_of_qualifying_worlds(seed, max_dim):
    thread, registry = random_corpus(seed)
    params = ExtractParams(max_dim=max_dim, supp_lb=1 + seed % 3)
    frequent = frequent_env_atoms(thread, registry, params.supp_lb)
    for g in sorted(registry.action_set):
        if not thread.time_mask(g):
            continue
        pool = frequent - {g}
        expect = set()
        for t in range(1, thread.t_max):
            if g in thread.world(t + 1):
                active = sorted(thread.world(t) & pool)
                for m in range(1, max_dim + 1):
                    expect.update(combinations(active, m))
        # The walk cuts every set below supp_lb: support only shrinks as a set grows.
        expect = {s for s in expect if thread.times_mask(s).bit_count() >= params.supp_lb}
        assert walk(thread, g, params, frequent) == sorted(expect)


def test_walk_cuts_a_qualifying_pair_below_the_support_bound():
    # a and b each hold twice and meet qualifying times (g follows t = 1, 3, 5),
    # but together they hold only at t = 1: the pair meets a qualifying time
    # with support 1 < supp_lb = 2, so it is neither yielded nor counted.
    registry = AtomRegistry()
    for name in "abg":
        registry.mark_env(registry.intern(Predicate(name, 0)))
    registry.mark_action(2)
    registry.freeze()
    thread = Thread([{0, 1}, {2}, {0}, {2}, {1}, {2}])
    params = ExtractParams(max_dim=2, supp_lb=2, min_prob=0.0)
    frequent = frequent_env_atoms(thread, registry, params.supp_lb)
    assert walk(thread, 2, params, frequent) == [(0,), (1,)]
    report = pf_rule_extract(thread, registry, params)
    assert report.combinations_explored == 2
    assert [rule.precondition.atoms for rule, _ in report.rules] == [(0,), (1,)]


def test_sparse_benchmark_counters_are_pinned():
    # 686,839 nodes meet a qualifying time; only 41,110 of them also clear supp_lb.
    report = pf_rule_extract(*sparse_benchmark_corpus(), ExtractParams())
    assert report.combinations_explored == 41_110
    assert len(report.rules) == 12_702


def test_rules_of_a_consequence_with_equal_statistics_share_one_stats_object():
    report = pf_rule_extract(*sparse_benchmark_corpus(), ExtractParams())
    first: dict[tuple[int, RuleStats], RuleStats] = {}
    for rule, stats in report.rules:
        assert first.setdefault((rule.consequence, stats), stats) is stats
    assert len(first) < len(report.rules)


def test_candidates_for_absent_consequence(t1):
    thread, registry, a, b, g = t1
    with pytest.raises(EmptyConsequenceError):
        candidate_preconditions(thread, 99, DEFAULTS, frozenset([a, b]))


def test_extract_on_worked_example_default_params(t1):
    thread, registry, a, b, g = t1
    report = pf_rule_extract(thread, registry, DEFAULTS)
    assert report.rules == (
        (AptRule(Conjunction([b]), g), RuleStats(p=2 / 3, p_star=0.0, rho=1 / 3, support=3)),
    )
    assert report.combinations_explored == 1
    assert report.active_env_counts == (2, 1, 1, 2, 1, 0)
    assert report.candidate_atom_counts == (1, 0, 1, 0, 1, 0)
    assert report.consequence_period_pairs == 2
    assert report.n_env == 3


def test_extract_on_worked_example_loose_params(t1):
    thread, registry, a, b, g = t1
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1))
    assert report.rule_set() == {
        AptRule(Conjunction([a]), g),
        AptRule(Conjunction([b]), g),
        AptRule(Conjunction([a, b]), g),
    }
    assert report.combinations_explored == 3

    # Raising the support bound drops only the two-atom rule (support 1).
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=2))
    assert report.rule_set() == {AptRule(Conjunction([a]), g), AptRule(Conjunction([b]), g)}

    # A min_prob above every candidate probability empties the output.
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=1, supp_lb=1, min_prob=0.75))
    assert report.rules == ()
    assert report.combinations_explored == 2


def test_extract_requires_a_frozen_registry(t1):
    thread = t1[0]
    registry = AtomRegistry()
    for name in "abg":
        registry.mark_env(registry.intern(Predicate(name, 0)))
    registry.mark_action(2)
    with pytest.raises(FrozenRegistryError, match="freeze"):
        pf_rule_extract(thread, registry, DEFAULTS)


def test_never_occurring_action_atom_heads_no_rules():
    registry = AtomRegistry()
    for name in ("a", "b", "g", "h"):
        registry.mark_env(registry.intern(Predicate(name, 0)))
    registry.mark_action(2)
    registry.mark_action(3)  # h never appears in any world
    registry.freeze()
    thread = Thread([{0, 1}, {2}, {1}, {2, 0}, {1}, ()])
    report = pf_rule_extract(thread, registry, DEFAULTS)
    assert {rule.consequence for rule in report.rule_set()} == {2}


def test_rules_come_out_in_canonical_order():
    thread, registry = random_corpus(3)
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1, min_prob=0.25))
    keys = [(rule.consequence, rule.precondition.atoms) for rule, _ in report.rules]
    assert keys == sorted(keys)
    again = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1, min_prob=0.25))
    assert again.rules == report.rules


def test_report_bounds_order_on_worked_example(t1):
    thread, registry, a, b, g = t1
    report = pf_rule_extract(thread, registry, DEFAULTS)
    assert report.per_period_bound() == 2 * subset_count(1, 3)
    assert report.naive_bound() == subset_count(3, 3)
    assert report.combinations_explored <= report.per_period_bound()


@pytest.mark.parametrize("seed", range(40))
def test_extraction_matches_the_brute_force_oracle(seed):
    thread, registry = random_corpus(seed)
    params = random_params(seed)
    report = pf_rule_extract(thread, registry, params)
    oracle = brute_force_extract(thread, registry, params)

    assert report.rule_set() == set(oracle.rules)
    for rule, stats in report.rules:
        expect = oracle.rules[rule]
        assert stats.p == float(expect.p)
        assert stats.p_star == float(expect.p_star)
        assert stats.rho == float(expect.rho)
        assert stats.support == expect.support
    # Qualifying-period pruning explores no more than exhaustive enumeration.
    assert report.combinations_explored <= oracle.combinations_explored
    assert report.combinations_explored <= report.per_period_bound()


@pytest.mark.parametrize("seed", range(40))
def test_every_extracted_rule_clears_the_gates(seed):
    thread, registry = random_corpus(seed)
    params = random_params(seed)
    report = pf_rule_extract(thread, registry, params)
    frequent = frequent_env_atoms(thread, registry, params.supp_lb)
    for rule, stats in report.rules:
        assert rule.consequence in registry.action_set
        assert rule.precondition.dimension <= params.max_dim
        assert set(rule.precondition.atoms) <= frequent
        assert stats.support >= params.supp_lb
        assert stats.p > stats.rho
        assert stats.p >= params.min_prob


@settings(deadline=None)
@given(
    corpus=corpora(),
    max_dim=st.integers(min_value=1, max_value=3),
    supp_lb=st.integers(min_value=1, max_value=3),
    min_prob=st.sampled_from((0.0, 0.25, 0.5)),
)
def test_rules_with_equal_counts_share_the_stats_evaluate_rule_gives(corpus, max_dim, supp_lb, min_prob):
    thread, registry = corpus
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim, supp_lb, min_prob))
    first: dict[tuple[int, int, int, int], RuleStats] = {}
    for rule, stats in report.rules:
        assert evaluate_rule(thread, rule) == stats
        atoms, g = rule.precondition.atoms, rule.consequence
        exact = (
            exact_rule_probability(thread, atoms, g),
            exact_negative_probability(thread, atoms, g),
            exact_prior(thread, Atom(g)),
        )
        for value, fraction in zip((stats.p, stats.p_star, stats.rho), exact):
            assert abs(value - fraction) <= 1e-12
        assert stats.support == exact_support(thread, atoms)
        times = [t for t in range(1, thread.t_max + 1) if set(atoms) <= thread.world(t)]
        fired = [t for t in times if t < thread.t_max]
        hits = sum(g in thread.world(t + 1) for t in fired)
        assert first.setdefault((g, len(times), len(fired), hits), stats) is stats
    # Rules whose counts differ hold different objects.
    assert len({id(stats) for stats in first.values()}) == len(first)


def test_planted_two_atom_rule_is_extracted_at_defaults():
    spec = SynthSpec(
        n_env=10,
        t_max=200,
        planted=(PlantedRule((0, 3), "planted", 0.9, 20),),
        density=0.1,
        seed=1,
    )
    corpus = generate_synthetic(spec)
    report = pf_rule_extract(corpus.thread, corpus.registry, DEFAULTS)
    planted_id = corpus.registry.find(Predicate("act", 1), ("planted",))
    assert AptRule(Conjunction([0, 3]), planted_id) in report.rule_set()
