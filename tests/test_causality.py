"""Relatedness, pairwise probabilities, group scoring, and ranking."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aptmine import (
    AptRule,
    AtomRegistry,
    Conjunction,
    ExtractParams,
    PairProbs,
    Predicate,
    RuleStats,
    Thread,
    UnrelatedRulesError,
    brute_force_scores,
    causal_scores,
    evaluate_rule,
    pair_probs,
    pf_rule_compare,
    pf_rule_extract,
    related,
)
import aptmine.causality as causality

from conftest import random_corpus, random_params


def rules_of(t1, *preconditions):
    _, registry, a, b, g = t1
    return [AptRule(Conjunction(atoms), g) for atoms in preconditions]


def test_related_on_worked_example(t1):
    thread, registry, a, b, g = t1
    r_a, r_b = rules_of(t1, [a], [b])
    assert related(thread, r_a, r_b)
    assert related(thread, r_b, r_a)


def test_related_requires_distinct_rules(t1):
    thread, registry, a, b, g = t1
    (r_b,) = rules_of(t1, [b])
    with pytest.raises(ValueError, match="distinct"):
        related(thread, r_b, r_b)


def test_rules_with_different_consequences_are_unrelated(t1):
    thread, registry, a, b, g = t1
    assert not related(thread, AptRule(Conjunction([b]), g), AptRule(Conjunction([b]), a))


def test_rules_that_never_cofire_are_unrelated(t1):
    thread, registry, a, b, g = t1
    # b and g never co-occur, so the pair never jointly precedes a.
    assert not related(thread, AptRule(Conjunction([g]), a), AptRule(Conjunction([b]), a))
    with pytest.raises(UnrelatedRulesError):
        pair_probs(thread, AptRule(Conjunction([g]), a), AptRule(Conjunction([b]), a))


def test_pair_probs_on_worked_example(t1):
    thread, registry, a, b, g = t1
    r_a, r_b = rules_of(t1, [a], [b])
    assert pair_probs(thread, r_a, r_b) == PairProbs(1.0, 0.5, False)
    # Orientation matters: the conditioning complement flips.
    assert pair_probs(thread, r_b, r_a) == PairProbs(1.0, 0.0, False)


def test_pair_probs_never_separated(t1):
    thread, registry, a, b, g = t1
    r_b, r_ab = rules_of(t1, [b], [a, b])
    # a & b never occurs without b: p_notfirst is pinned to 0 and flagged.
    assert pair_probs(thread, r_b, r_ab) == PairProbs(1.0, 0.0, True)


def test_causal_scores_on_worked_example_pair(t1):
    thread, registry, a, b, g = t1
    r_a, r_b = rules_of(t1, [a], [b])
    pool = [r_a, r_b]
    sa = causal_scores(thread, r_a, pool)
    sb = causal_scores(thread, r_b, pool)
    assert (sa.eps_avg, sa.eps_min, sa.eps_frac, sa.related_count) == (0.5, 0.5, 1.0, 1)
    assert (sb.eps_avg, sb.eps_min, sb.eps_frac, sb.related_count) == (1.0, 1.0, 1.0, 1)
    assert sa.never_separated_count == sb.never_separated_count == 0


def test_causal_scores_on_worked_example_triple(t1):
    thread, registry, a, b, g = t1
    r_a, r_b, r_ab = pool = rules_of(t1, [a], [b], [a, b])
    sa = causal_scores(thread, r_a, pool)
    sb = causal_scores(thread, r_b, pool)
    sab = causal_scores(thread, r_ab, pool)
    assert (sa.eps_avg, sa.eps_min, sa.never_separated_count) == (0.75, 0.5, 1)
    assert (sb.eps_avg, sb.eps_min, sb.never_separated_count) == (1.0, 1.0, 1)
    assert (sab.eps_avg, sab.eps_min, sab.never_separated_count) == (0.75, 0.5, 0)
    assert sa.related_count == sb.related_count == sab.related_count == 2


def test_causal_scores_requires_pool_membership(t1):
    thread, registry, a, b, g = t1
    r_a, r_b = rules_of(t1, [a], [b])
    with pytest.raises(ValueError, match="member"):
        causal_scores(thread, r_a, [r_b])


def test_rule_alone_in_its_group_is_unscored(t1):
    thread, registry, a, b, g = t1
    (r_b,) = rules_of(t1, [b])
    scored = causal_scores(thread, r_b, [r_b])
    assert scored.is_unscored
    assert scored.eps_avg is None and scored.eps_min is None and scored.eps_frac is None
    assert scored.related_count == 0


def test_compare_ranks_the_worked_example(t1):
    thread, registry, a, b, g = t1
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1))
    ranked = pf_rule_compare(thread, report.rules)
    assert list(ranked) == [g]
    preconditions = [sr.rule.precondition for sr in ranked[g]]
    # eps_avg 1.0 first; the 0.75 tie breaks on higher p.
    assert preconditions == [Conjunction([b]), Conjunction([a, b]), Conjunction([a])]
    assert [sr.eps_avg for sr in ranked[g]] == [1.0, 0.75, 0.75]

    top = pf_rule_compare(thread, report.rules, k=1)
    assert [sr.rule.precondition for sr in top[g]] == [Conjunction([b])]
    top2 = pf_rule_compare(thread, report.rules, k=2)
    assert [sr.rule.precondition for sr in top2[g]] == [Conjunction([b]), Conjunction([a, b])]


def test_compare_rejects_duplicates_and_bad_k(t1):
    thread, registry, a, b, g = t1
    (r_b,) = rules_of(t1, [b])
    stats = evaluate_rule(thread, r_b)
    with pytest.raises(ValueError, match="duplicate"):
        pf_rule_compare(thread, [(r_b, stats), (r_b, stats)])
    for bad in (0, -1, True):
        with pytest.raises(ValueError, match="k must be"):
            pf_rule_compare(thread, [(r_b, stats)], k=bad)


def unscored_fixture():
    """Three one-atom rules for one consequence; atom 3 never co-fires."""
    registry = AtomRegistry()
    for name in ("c0", "c1", "g", "c3"):
        registry.mark_env(registry.intern(Predicate(name, 0)))
    registry.mark_action(2)
    registry.freeze()
    thread = Thread([{0, 1}, {2}, {0, 1}, {2}, {3}, {2}])
    rules = [AptRule(Conjunction([atom]), 2) for atom in (0, 1, 3)]
    pairs = [(r, evaluate_rule(thread, r)) for r in rules]
    return thread, pairs


def test_unscored_rules_sort_last_and_drop_from_top_k():
    thread, pairs = unscored_fixture()
    ranked = pf_rule_compare(thread, pairs)
    group = ranked[2]
    assert [sr.rule.precondition.atoms for sr in group] == [(0,), (1,), (3,)]
    assert not group[0].is_unscored and not group[1].is_unscored
    assert group[2].is_unscored

    top = pf_rule_compare(thread, pairs, k=10)
    assert [sr.rule.precondition.atoms for sr in top[2]] == [(0,), (1,)]


def test_groups_are_scored_independently():
    thread, registry = random_corpus(17)
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1, min_prob=0.25))
    by_group = {}
    for rule, stats in report.rules:
        by_group.setdefault(rule.consequence, []).append((rule, stats))
    if len(by_group) < 2:
        pytest.skip("corpus produced a single consequence group")
    ranked_all = pf_rule_compare(thread, report.rules)
    for g, members in by_group.items():
        alone = pf_rule_compare(thread, members)
        assert ranked_all[g] == alone[g]


def test_single_period_thread_scores_nothing():
    thread = Thread([{0, 1, 2}])
    rule = AptRule(Conjunction([0]), 2)
    other = AptRule(Conjunction([1]), 2)
    stats = RuleStats(None, None, 1.0, 1)
    ranked = pf_rule_compare(thread, [(rule, stats), (other, stats)])
    assert all(sr.is_unscored for sr in ranked[2])


@pytest.mark.parametrize("seed", range(25))
def test_batched_path_is_bit_identical_to_scalar(seed):
    thread, registry = random_corpus(seed)
    report = pf_rule_extract(thread, registry, random_params(seed))
    ranked = pf_rule_compare(thread, report.rules)
    by_group = {}
    for rule, stats in report.rules:
        by_group.setdefault(rule.consequence, []).append(rule)
    for g, group in ranked.items():
        for sr in group:
            reference = causal_scores(thread, sr.rule, by_group[g])
            assert sr == reference  # floats compared exactly, not approximately


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_row_chunking_does_not_change_results(monkeypatch, block_rows):
    thread, registry = random_corpus(5)
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1, min_prob=0.25))
    largest = max(Counter(rule.consequence for rule, _ in report.rules).values())
    assert largest > block_rows and (block_rows == 1 or largest % block_rows)  # a partial last block
    whole = pf_rule_compare(thread, report.rules)
    monkeypatch.setattr(causality, "_BLOCK_ROWS", block_rows)
    chunked = pf_rule_compare(thread, report.rules)
    assert whole == chunked


@pytest.mark.parametrize("seed", range(25))
def test_scores_match_the_fraction_oracle(seed):
    thread, registry = random_corpus(seed)
    report = pf_rule_extract(thread, registry, random_params(seed))
    ranked = pf_rule_compare(thread, report.rules)
    expect = brute_force_scores(thread, report.rule_set())
    for group in ranked.values():
        for sr in group:
            want = expect[sr.rule]
            assert sr.related_count == want.related_count
            assert sr.never_separated_count == want.never_separated_count
            if want.eps_avg is None:
                assert sr.is_unscored
                continue
            assert abs(sr.eps_avg - float(want.eps_avg)) <= 1e-12
            assert abs(sr.eps_min - float(want.eps_min)) <= 1e-12
            assert abs(sr.eps_frac - float(want.eps_frac)) <= 1e-12


def _bits(rows):
    return np.array(rows, dtype=np.uint8).reshape(len(rows), -1)


@given(arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=9), elements=st.integers(0, 1)))
@example(_bits([[0, 0, 0], [0, 0, 0]]))             # no keys in any block
@example(_bits([[1, 0, 1], [0, 0, 0], [0, 0, 0], [1, 1, 0]]))  # an all-empty middle block
@example(_bits([[1, 0, 0], [1, 0, 1]]))             # an all-zero column
@example(_bits([[1, 1]]))                           # n = 1
@example(_bits([[0]]))                              # n = 1, width 1, empty
@example(_bits([[1], [0], [1]]))                    # width 1
def test_co_counts_equal_the_matrix_product(bits):
    index = causality._time_index(bits)
    want = bits.astype(np.int64) @ bits.T.astype(np.int64)
    n = bits.shape[0]
    for start in range(n):
        for stop in range(start + 1, n + 1):
            got = causality._co_counts(bits, index, start, stop)
            assert got.dtype == np.int64
            assert np.array_equal(got, want[start:stop])


@pytest.mark.parametrize("block_rows", [1, 2])
def test_a_block_of_rules_firing_only_at_t_max_scores_like_the_scalar_path(
    monkeypatch, block_rows
):
    # g = 2.  Atoms 3 and 4 occur only at t_max = 5, so the horizon rows of
    # (3,), (3, 4) and (4,) are empty: with two rows per block, the whole
    # second block and the partial last one have nothing to expand.
    thread = Thread([{0, 1}, {2}, {1}, {2}, {0, 1, 3, 4}])
    rules = [AptRule(Conjunction(atoms), 2) for atoms in [(0,), (1,), (3,), (3, 4), (4,)]]
    monkeypatch.setattr(causality, "_BLOCK_ROWS", block_rows)
    ranked = pf_rule_compare(thread, [(r, evaluate_rule(thread, r)) for r in rules])
    assert {sr.rule for sr in ranked[2]} == set(rules)
    for sr in ranked[2]:
        assert sr == causal_scores(thread, sr.rule, rules)
    assert [sr.is_unscored for sr in ranked[2]] == [False, False, True, True, True]
