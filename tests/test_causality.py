"""Relatedness, pairwise probabilities, group scoring, and ranking."""

import math
import random
from collections import Counter
from itertools import product

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
    PlantedRule,
    Predicate,
    RuleStats,
    SynthSpec,
    Thread,
    UnrelatedRulesError,
    brute_force_scores,
    causal_scores,
    evaluate_rule,
    generate_synthetic,
    pair_probs,
    pf_rule_compare,
    pf_rule_extract,
    related,
    rule_sort_key,
)
import aptmine.causality as causality
from aptmine.stats import ConsequenceCounter

from conftest import corpora, random_corpus, random_params


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


@pytest.mark.parametrize("seed", range(25))
def test_rule_order_does_not_change_the_ranking(seed):
    # Each group's members are scored in the order given; repr tells -0.0 from 0.0.
    thread, registry = random_corpus(seed)
    report = pf_rule_extract(thread, registry, random_params(seed))
    shuffled = list(report.rules)
    random.Random(seed).shuffle(shuffled)
    for k in (None, 2):
        want = pf_rule_compare(thread, report.rules, k)
        assert repr(pf_rule_compare(thread, shuffled, k)) == repr(want)


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_row_chunking_does_not_change_results(monkeypatch, block_rows):
    thread, registry = random_corpus(5)
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1, min_prob=0.25))
    # Blocks are over a group's distinct horizon-cut fired masks, not its rules.
    masks = {}
    for rule, _ in report.rules:
        horizon = ConsequenceCounter(thread, rule.consequence).horizon
        masks.setdefault(rule.consequence, set()).add(thread.times_mask(rule.precondition.atoms) & horizon)
    largest = max(map(len, masks.values()))
    assert largest > block_rows and (block_rows == 1 or largest % block_rows)  # a partial last block
    whole = pf_rule_compare(thread, report.rules)
    monkeypatch.setattr(causality, "_BLOCK_ROWS", block_rows)
    for expansions in (causality._BLOCK_EXPANSIONS, 1):
        monkeypatch.setattr(causality, "_BLOCK_EXPANSIONS", expansions)
        assert pf_rule_compare(thread, report.rules) == whole


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


def _row(width, *times):
    return [int(c + 1 in times) for c in range(width)]


@given(
    arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=9), elements=st.integers(0, 1)),
    st.integers(min_value=0),
)
@example(_bits([[0, 0, 0], [0, 0, 0]]), 0b111)             # no keys in any block
@example(_bits([[1, 0, 1], [0, 0, 0], [0, 0, 0], [1, 1, 0]]), 0b100)  # an all-empty middle block
@example(_bits([[1, 0, 0], [1, 0, 1]]), 0b110)             # an all-zero column
@example(_bits([[1, 1]]), 0b10)                            # n = 1
@example(_bits([[0]]), 0b1)                                # n = 1, width 1, empty
@example(_bits([[1], [0], [1]]), 0b1)                      # width 1
@example(_bits([_row(130, 1, 65, 130), _row(130, 65, 130), _row(130, 1)]), 1 << 64 | 1 << 129)  # past 64 bits
@example(_bits([[1, 1, 0], [0, 1, 0], [1, 1, 0]]), 0b011)  # every set bit at a goal time
@example(_bits([[1, 1, 0], [0, 1, 0], [1, 1, 0]]), 0b100)  # no set bit at a goal time
def test_co_counts_equal_the_matrix_product(bits, goal):
    n, width = bits.shape
    goal &= (1 << width) - 1
    masks = [sum(int(bit) << c for c, bit in enumerate(row)) for row in bits]
    index = causality._time_index(masks, goal)
    wide = bits.astype(np.int64)
    goal_cols = np.array([goal >> c & 1 for c in range(width)], dtype=np.int64)
    want_occur = wide @ wide.T
    want_fired = (wide * goal_cols) @ wide.T
    for start in range(n):
        for stop in range(start + 1, n + 1):
            cells, fire, occ = causality._co_counts(index, start, stop)
            assert cells.dtype == fire.dtype == occ.dtype == np.int64
            # The related cells on or above the diagonal, ascending, with
            # their counts read off both products.
            upper = np.triu(want_fired[start:stop], start)
            assert np.array_equal(cells, np.flatnonzero(upper))
            assert np.array_equal(fire, want_fired[start:stop].take(cells))
            assert np.array_equal(occ, want_occur[start:stop].take(cells))
            if not upper.any():
                assert cells.size == fire.size == occ.size == 0


@given(
    arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=9), elements=st.integers(0, 1)),
    st.integers(1, 4),
    st.integers(1, 30),
)
@example(_bits([[1, 1], [1, 1], [0, 0], [1, 0]]), 2, 1)  # rows over the cap alone; an empty row
def test_blocks_cut_the_rows_in_order_at_either_cap(bits, block_rows, expansions):
    n = bits.shape[0]
    masks = [sum(int(bit) << c for c, bit in enumerate(row)) for row in bits]
    wide = bits.astype(np.int64)
    made = np.triu(wide @ wide.T).sum(axis=1)  # row k expands into the rows from k on
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(causality, "_BLOCK_ROWS", block_rows)
        mp.setattr(causality, "_BLOCK_EXPANSIONS", expansions)
        blocks = list(causality._blocks(causality._time_index(masks, 0)))
    assert [start for start, _ in blocks] == [0, *(stop for _, stop in blocks[:-1])]
    assert blocks[-1][1] == n
    for start, stop in blocks:
        assert stop - start <= block_rows
        assert stop - start == 1 or made[start:stop].sum() <= expansions
        # A block ends only where the next row would break a cap.
        assert stop == n or stop - start == block_rows or made[start:stop + 1].sum() > expansions


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
    for expansions in (causality._BLOCK_EXPANSIONS, 1):
        monkeypatch.setattr(causality, "_BLOCK_EXPANSIONS", expansions)
        ranked = pf_rule_compare(thread, [(r, evaluate_rule(thread, r)) for r in rules])
        assert {sr.rule for sr in ranked[2]} == set(rules)
        for sr in ranked[2]:
            assert sr == causal_scores(thread, sr.rule, rules)
        assert [sr.is_unscored for sr in ranked[2]] == [False, False, True, True, True]


@pytest.mark.parametrize("block_rows", [causality._BLOCK_ROWS, 3])
def test_long_threads_score_like_the_scalar_path(monkeypatch, block_rows):
    # t_max = 150: most set bits lie past the first 64-bit word of a mask.
    monkeypatch.setattr(causality, "_BLOCK_ROWS", block_rows)
    params = ExtractParams(max_dim=3, supp_lb=3, min_prob=0.3)
    plant = PlantedRule((0, 1), "g0", 0.9, 20)
    for seed in range(3):
        spec = SynthSpec(n_env=12, t_max=150, planted=(plant,), density=0.25, seed=seed)
        corpus = generate_synthetic(spec)
        report = pf_rule_extract(corpus.thread, corpus.registry, params)
        by_group = {}
        for rule, _ in report.rules:
            by_group.setdefault(rule.consequence, []).append(rule)
        assert max(map(len, by_group.values())) > block_rows
        ranked = pf_rule_compare(corpus.thread, report.rules)
        scored = [sr for group in ranked.values() for sr in group]
        assert any(not sr.is_unscored for sr in scored)
        for sr in scored:
            assert sr == causal_scores(corpus.thread, sr.rule, by_group[sr.rule.consequence])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(causality, "_BLOCK_EXPANSIONS", 1)
            assert pf_rule_compare(corpus.thread, report.rules) == ranked


@st.composite
def shared_mask_groups(draw):
    """A corpus thread with one atom copied, and one consequence group on it.

    The copy holds exactly when atom a does, so the rules {a}, {copy} and
    {a, copy} always share a fired mask, and so does a drawn {a, b} when b
    holds wherever a does.
    """
    thread, registry = draw(corpora())
    n = len(registry)
    a = draw(st.integers(0, n - 1))
    g = draw(st.sampled_from([x for x in range(n) if x != a]))
    worlds = [thread.world(t) for t in range(1, thread.t_max + 1)]
    worlds = [world | {n} if a in world else world for world in worlds]
    atoms = st.sampled_from([x for x in range(n + 1) if x != g])
    drawn = draw(st.lists(st.sets(atoms, min_size=1, max_size=2)))
    preconditions = {frozenset(atoms) for atoms in [{a}, {n}, {a, n}, *drawn]}
    return Thread(worlds), [AptRule(Conjunction(atoms), g) for atoms in preconditions]


# g = 3 below.  The horizon is t <= t_max - 1 and a hit is a time whose
# successor world holds g.
@given(shared_mask_groups())
@example((  # class {0}, {1}, {0, 1} fires at 1 and 3 with no hit: unrelated to itself
    Thread([{0, 1}, {2}, {0, 1, 4}, {2, 4}, {3}]),
    [AptRule(Conjunction(atoms), 3) for atoms in [(0,), (1,), (0, 1), (2,), (4,)]],
))
@example((  # the singleton class {2} is related to both members of {0}, {1}
    Thread([{0, 1, 2}, {3}, {0, 1}, {3}, {2}, {3}]),
    [AptRule(Conjunction(atoms), 3) for atoms in [(0,), (1,), (2,)]],
))
@example((  # one class: atom 1 differs from atom 0 only at t_max, past the horizon
    Thread([{0, 1}, {3}, {0, 1}, {1, 3}]),
    [AptRule(Conjunction(atoms), 3) for atoms in [(0,), (1,), (0, 1)]],
))
def test_mask_classes_score_like_the_scalar_path(case):
    thread, rules = case
    (g,) = {rule.consequence for rule in rules}
    horizon = ConsequenceCounter(thread, g).horizon
    sizes = Counter(thread.times_mask(rule.precondition.atoms) & horizon for rule in rules)
    assert max(sizes.values()) > 1  # some members share a mask class
    pairs = [(rule, evaluate_rule(thread, rule)) for rule in rules]
    caps = product((causality._BLOCK_ROWS, 1, 2), (causality._BLOCK_EXPANSIONS, 1))
    for block_rows, expansions in caps:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(causality, "_BLOCK_ROWS", block_rows)
            mp.setattr(causality, "_BLOCK_EXPANSIONS", expansions)
            ranked = pf_rule_compare(thread, pairs)
        assert len(ranked[g]) == len(rules)
        for sr in ranked[g]:
            assert sr == causal_scores(thread, sr.rule, rules)


@pytest.mark.parametrize("seed", range(10))
def test_scores_are_plain_python_numbers(seed):
    # Equality with the scalar path cannot see np.float64 against float.
    thread, registry = random_corpus(seed)
    report = pf_rule_extract(thread, registry, random_params(seed))
    for group in pf_rule_compare(thread, report.rules).values():
        for sr in group:
            assert {type(sr.eps_avg), type(sr.eps_min), type(sr.eps_frac)} <= {float, type(None)}
            assert type(sr.related_count) is int and type(sr.never_separated_count) is int


def test_exact_sums_past_64_bits_score_like_the_scalar_path():
    # t_max = 3000: a delta scaled to an integer takes 65 bits and a third limb.
    plant = PlantedRule((0, 1), "g0", 0.9, 200)
    corpus = generate_synthetic(SynthSpec(n_env=10, t_max=3000, planted=(plant,), density=0.1))
    thread = corpus.thread
    assert causality._exact_shift(thread.t_max) == 65
    report = pf_rule_extract(thread, corpus.registry, ExtractParams(max_dim=2, supp_lb=3, min_prob=0.3))
    (group,) = {rule.consequence for rule, _ in report.rules}
    rules = sorted((rule for rule, _ in report.rules), key=rule_sort_key)
    ranked = pf_rule_compare(thread, report.rules)
    assert sum(not sr.is_unscored for sr in ranked[group]) > 1
    for sr in ranked[group]:
        assert sr == causal_scores(thread, sr.rule, rules)

    def deltas(rule):
        pairs = (pair_probs(thread, rule, r2) for r2 in rules if r2 != rule and related(thread, rule, r2))
        return [pp.p_both - pp.p_notfirst for pp in pairs]

    # Adding the deltas in float64, in the scalar path's order, would not do.
    assert any(sum(d) != math.fsum(d) for d in map(deltas, rules))


def test_a_small_negative_delta_on_a_three_limb_thread_sums_exactly():
    # t_max = 3000, so K = 65 and the top limb is worth 2**64 / 2**65 = 1/2
    # of a unit.  {0} against {1}: p_both = 1/10 and p_notfirst = 2/10, so the
    # pair's delta is -fl(0.1), whose low bits all lie below that top limb.
    worlds = [set() for _ in range(3000)]
    for k in range(10):
        worlds[100 * k] = {0, 1}
        worlds[1500 + 100 * k] = {1}
    worlds[101] = worlds[1501] = worlds[1601] = {2}
    thread = Thread(worlds)
    assert causality._exact_shift(thread.t_max) == 65
    rules = [AptRule(Conjunction([atom]), 2) for atom in (0, 1)]
    assert pair_probs(thread, *rules) == PairProbs(0.1, 0.2, False)
    ranked = pf_rule_compare(thread, [(r, evaluate_rule(thread, r)) for r in rules])
    assert {sr.rule: sr.eps_avg for sr in ranked[2]} == {rules[0]: 0.1 - 0.2, rules[1]: 0.1}
    for sr in ranked[2]:
        assert sr == causal_scores(thread, sr.rule, rules)


@given(st.integers(54, 96), st.lists(st.floats(-1.0, 1.0), max_size=20))
@example(65, [0.1 - 0.2, 0.1])                   # a negative delta under half the top limb's unit
@example(54, [-1.0, 1.0, 0.0, -math.ldexp(1, -54)])
@example(96, [-1.0, 1.0, -math.ldexp(1, -96), -math.ldexp(1, -32)])  # limb edges
def test_limbs_sum_to_the_scaled_delta(shift, floats):
    # Deltas are whole multiples of 2**-shift, at most 1 in magnitude.
    deltas = [math.ldexp(math.floor(math.ldexp(x, shift)), -shift) for x in floats]
    limbs = causality._limbs(np.array(deltas, dtype=float), shift)
    assert limbs.dtype == np.int64 and limbs.shape == (-(-shift // 32), len(deltas))
    assert np.abs(limbs).max(initial=0) <= 2**32
    for k, delta in enumerate(deltas):
        exact = sum(int(limb) << 32 * m for m, limb in enumerate(limbs[:, k]))
        assert exact == int(math.ldexp(delta, shift))


@st.composite
def consequence_groups(draw):
    """A corpus thread and a few rules of one consequence on it."""
    thread, registry = draw(corpora())
    n = len(registry)
    g = draw(st.integers(0, n - 1))
    atoms = st.sets(st.sampled_from([x for x in range(n) if x != g]), min_size=1, max_size=2)
    preconditions = draw(st.lists(atoms, min_size=1, max_size=8, unique_by=frozenset))
    return thread, [AptRule(Conjunction(atoms), g) for atoms in preconditions]


@given(consequence_groups())
@example((  # t_max = 7: p_both = 1/6, whose last float bit is worth 2**-55
    Thread([{0, 1}, {0, 1, 2}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, set()]),
    [AptRule(Conjunction([0]), 2), AptRule(Conjunction([1]), 2)],
))
def test_every_delta_is_a_whole_multiple_of_2_to_the_minus_k(case):
    thread, rules = case
    k = causality._exact_shift(thread.t_max)
    for r, r2 in product(rules, rules):
        if r != r2 and related(thread, r, r2):
            pp = pair_probs(thread, r, r2)
            scaled = math.ldexp(pp.p_both - pp.p_notfirst, k)
            assert scaled.is_integer() and abs(scaled) <= 2**k
