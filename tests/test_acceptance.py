"""Acceptance gate: one test per shipped claim, one printed line per result.

Run ``pytest tests/test_acceptance.py -v -s`` to see the [PASS]/[FAIL]
lines.  Tolerances are stated inline: statistic agreement is exact or
within 1e-12 as noted, worked-example numbers are exact, and the wall
clock limits bound each test's whole body.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from aptmine import (
    AptRule,
    Conjunction,
    ExtractParams,
    PairProbs,
    PlantedRule,
    Predicate,
    SpikeConfig,
    SynthSpec,
    brute_force_extract,
    brute_force_scores,
    causal_scores,
    generate_synthetic,
    negative_probability,
    pair_probs,
    pf_rule_compare,
    pf_rule_extract,
    prior,
    rule_probability,
    sparse_benchmark_corpus,
    spike_atoms,
    subset_count,
    support,
    t1_corpus,
)

from conftest import random_corpus, random_params

TOL = Fraction(1, 10**12)


@contextmanager
def criterion(number, summary):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {summary}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {summary} ({elapsed:.1f}s)")


def test_criterion_1_extraction_equals_brute_force():
    """200 random corpora: identical rule sets, statistics within 1e-12, < 60 s."""
    with criterion(1, "extraction matches the exhaustive oracle on 200 random corpora"):
        start = time.perf_counter()
        for seed in range(200):
            thread, registry = random_corpus(seed, max_atoms=12, max_t=20)
            params = random_params(seed)
            report = pf_rule_extract(thread, registry, params)
            oracle = brute_force_extract(thread, registry, params)
            assert report.rule_set() == set(oracle.rules), f"rule sets differ at seed {seed}"
            for rule, stats in report.rules:
                want = oracle.rules[rule]
                assert abs(stats.p - want.p) <= TOL
                assert abs(stats.p_star - want.p_star) <= TOL
                assert abs(stats.rho - want.rho) <= TOL
                assert stats.support == want.support
            assert report.combinations_explored <= oracle.combinations_explored
            assert report.combinations_explored <= report.per_period_bound()
        assert time.perf_counter() - start < 60.0


def test_criterion_2_scores_equal_brute_force():
    """Same 200 corpora: scores within 1e-12, counts and flags exact, < 60 s."""
    with criterion(2, "group scoring matches the exact-fraction oracle on the same corpora"):
        start = time.perf_counter()
        for seed in range(200):
            thread, registry = random_corpus(seed, max_atoms=12, max_t=20)
            report = pf_rule_extract(thread, registry, random_params(seed))
            ranked = pf_rule_compare(thread, report.rules)
            expect = brute_force_scores(thread, report.rule_set())
            seen = 0
            for group in ranked.values():
                for sr in group:
                    want = expect[sr.rule]
                    seen += 1
                    assert sr.related_count == want.related_count
                    assert sr.never_separated_count == want.never_separated_count
                    if want.eps_avg is None:
                        assert sr.is_unscored
                        continue
                    assert abs(sr.eps_avg - want.eps_avg) <= TOL
                    assert abs(sr.eps_min - want.eps_min) <= TOL
                    assert abs(sr.eps_frac - want.eps_frac) <= TOL
            assert seen == len(report.rules)
        assert time.perf_counter() - start < 60.0


def test_criterion_3_worked_example_numbers():
    """The six-period example reproduces every documented value exactly."""
    with criterion(3, "worked-example statistics, extraction, and scores are exact"):
        thread, registry = t1_corpus()
        a, b, g = 0, 1, 2
        assert prior(thread, g) == 1 / 3
        assert rule_probability(thread, Conjunction([a]), g) == 1 / 2
        assert rule_probability(thread, Conjunction([b]), g) == 2 / 3
        assert rule_probability(thread, Conjunction([a, b]), g) == 1.0
        assert negative_probability(thread, Conjunction([b]), g) == 0.0
        assert negative_probability(thread, Conjunction([g]), a) == 1.0
        assert support(thread, Conjunction([b])) == 3

        report = pf_rule_extract(thread, registry, ExtractParams())
        assert [(r.precondition.atoms, r.consequence) for r, _ in report.rules] == [((b,), g)]

        report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1))
        assert report.rule_set() == {
            AptRule(Conjunction([a]), g),
            AptRule(Conjunction([b]), g),
            AptRule(Conjunction([a, b]), g),
        }

        r_a, r_b = AptRule(Conjunction([a]), g), AptRule(Conjunction([b]), g)
        assert pair_probs(thread, r_a, r_b) == PairProbs(1.0, 0.5, False)
        assert causal_scores(thread, r_b, [r_a, r_b]).eps_avg == 1.0
        ranked = pf_rule_compare(thread, report.rules)
        assert [sr.rule.precondition.atoms for sr in ranked[g]] == [(b,), (a, b), (a,)]
        assert [sr.eps_avg for sr in ranked[g]] == [1.0, 0.75, 0.75]


def test_criterion_4_spike_detection():
    """Worked spike series, flat series, and scale invariance over 100 series."""
    with criterion(4, "spike emissions match the worked example and are scale invariant"):
        config = SpikeConfig(window=4, thresholds=(1.0, 2.0))
        assert spike_atoms((1, 3, 1, 3, 8), config) == [(5, 1.0), (5, 2.0)]
        assert spike_atoms((4,) * 10, config) == []

        rng = random.Random(4242)
        for _ in range(100):
            counts = tuple(rng.randrange(31) for _ in range(rng.randrange(5, 41)))
            base = spike_atoms(counts, config)
            assert base == spike_atoms(tuple(3 * c for c in counts), config)


def test_criterion_5_planted_rule_recovery():
    """A planted rule ranks first by eps_avg in at least 45 of 50 seeds, < 2 min."""
    with criterion(5, "planted-rule recovery at eps_avg rank 1 in >= 45/50 seeds"):
        start = time.perf_counter()
        plant = PlantedRule((0,), "planted", 0.9, 20)
        mine = ExtractParams(max_dim=3, supp_lb=5, min_prob=0.35)
        hits = 0
        for seed in range(50):
            corpus = generate_synthetic(
                SynthSpec(n_env=10, t_max=200, planted=(plant,), density=0.1, seed=seed)
            )
            consequence = corpus.registry.find(Predicate("act", 1), ("planted",))
            report = pf_rule_extract(corpus.thread, corpus.registry, mine)
            ranked = pf_rule_compare(corpus.thread, report.rules)
            group = ranked.get(consequence, [])
            if group and group[0].rule == AptRule(Conjunction([0]), consequence):
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits >= 45, f"recovered rank-1 in only {hits}/50 seeds"
        assert elapsed < 120.0
        print(f"  recovered {hits}/50 seeds in {elapsed:.1f}s")


def test_criterion_6_sparse_corpus_efficiency():
    """The 980-atom sparse corpus mines in < 5 min with the counters ordered."""
    with criterion(6, "sparse benchmark mines within budget and the bound chain holds"):
        start = time.perf_counter()
        thread, registry = sparse_benchmark_corpus()
        report = pf_rule_extract(thread, registry, ExtractParams())
        ranked = pf_rule_compare(thread, report.rules)
        elapsed = time.perf_counter() - start

        assert max(report.active_env_counts) == 93
        peak = max(report.candidate_atom_counts)
        assert 40 <= peak <= 47, peak
        pairs = report.consequence_period_pairs
        assert report.combinations_explored <= report.per_period_bound()
        assert report.per_period_bound() == pairs * subset_count(peak, 3)
        assert report.per_period_bound() <= pairs * subset_count(93, 3)
        assert pairs * subset_count(93, 3) < report.naive_bound()
        assert report.rules and ranked
        assert elapsed < 300.0
        print(
            f"  explored {report.combinations_explored} pairs"
            f" <= bound {report.per_period_bound()}"
            f" << naive {report.naive_bound()} per consequence; {elapsed:.1f}s"
        )


def _run_pipeline(workdir):
    """synth -> mine -> compare -> report with fixed filenames; returns bytes."""
    names = ("corpus.thread", "corpus.rules", "corpus.scored", "corpus.report")
    thread, rules, scored, rendered = (workdir / n for n in names)
    steps = [
        ("synth", "--out", thread, "--seed", "13", "--n-env", "10", "--t-max", "120",
         "--density", "0.1", "--plant", "0,1:0.9:15"),
        ("mine", thread, "--out", rules, "--supp-lb", "3", "--min-prob", "0.5"),
        ("compare", rules, thread, "--out", scored, "--k", "all"),
        ("report", scored, "--out", rendered),
    ]
    for step in steps:
        result = subprocess.run(
            [sys.executable, "-m", "aptmine", *map(str, step)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
    return {n: (workdir / n).read_bytes() for n in names}


def test_criterion_7_pipeline_determinism(tmp_path):
    """Two subprocess pipeline runs produce byte-identical output files."""
    with criterion(7, "repeated pipeline runs are byte-identical"):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        first_dir.mkdir()
        second_dir.mkdir()
        first = _run_pipeline(first_dir)
        second = _run_pipeline(second_dir)
        assert first == second
        assert all(content for content in first.values())
