"""The brute-force oracle and the synthetic corpus generators."""

import csv
import datetime as dt
import io
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from aptmine import (
    AptRule,
    AtomRegistry,
    Conjunction,
    CorpusConfig,
    EmptyCorpusError,
    ExtractParams,
    OracleGuardError,
    PlantedRule,
    Predicate,
    SpikeConfig,
    SynthSpec,
    Thread,
    brute_force_extract,
    brute_force_scores,
    build_corpus,
    generate_synthetic,
    load_location_map,
    parse_events,
    sparse_benchmark_corpus,
    t1_corpus,
)
from aptmine.formats import format_thread
from aptmine.oracle import (
    OracleRuleStats,
    exact_negative_probability,
    exact_prior,
    exact_rule_probability,
    exact_support,
    reference_ingest,
)
from aptmine.model import Atom


def test_t1_corpus_shape():
    thread, registry = t1_corpus()
    assert thread.t_max == 6
    assert len(registry) == 3
    assert registry.env_set == {0, 1, 2}
    assert registry.action_set == {2}
    assert registry.frozen
    assert thread.world(1) == {0, 1}
    assert thread.world(6) == frozenset()


def test_exact_statistics_on_worked_example():
    thread, registry = t1_corpus()
    a, b, g = 0, 1, 2
    assert exact_prior(thread, Atom(g)) == Fraction(1, 3)
    assert exact_rule_probability(thread, [a], g) == Fraction(1, 2)
    assert exact_rule_probability(thread, [b], g) == Fraction(2, 3)
    assert exact_rule_probability(thread, [a, b], g) == Fraction(1)
    assert exact_rule_probability(thread, [b, g], a) is None
    assert exact_negative_probability(thread, [b], g) == Fraction(0)
    assert exact_negative_probability(thread, [g], a) == Fraction(1)
    assert exact_negative_probability(thread, [a], 99) is None
    assert exact_support(thread, [b]) == 3
    assert exact_support(thread, [a, b]) == 1


def test_brute_force_extract_on_worked_example():
    thread, registry = t1_corpus()
    result = brute_force_extract(thread, registry, ExtractParams())
    assert result.combinations_explored == 1
    assert result.rules == {
        AptRule(Conjunction([1]), 2): OracleRuleStats(
            Fraction(2, 3), Fraction(0), Fraction(1, 3), 3
        )
    }


def test_brute_force_scores_on_worked_example():
    thread, registry = t1_corpus()
    rules = [AptRule(Conjunction(atoms), 2) for atoms in ([0], [1], [0, 1])]
    scores = brute_force_scores(thread, rules)
    by_atoms = {r.precondition.atoms: s for r, s in scores.items()}
    assert by_atoms[(1,)].eps_avg == Fraction(1)
    assert by_atoms[(0,)].eps_avg == Fraction(3, 4)
    assert by_atoms[(0, 1)].eps_avg == Fraction(3, 4)
    assert by_atoms[(0,)].never_separated_count == 1
    assert by_atoms[(1,)].never_separated_count == 1
    assert by_atoms[(0, 1)].never_separated_count == 0
    assert all(s.related_count == 2 for s in scores.values())


def test_guard_refuses_oversized_instances():
    # 230 occurring consequences over 30 frequent atoms estimate to
    # 230 * 4525 = 1,040,750 candidate pairs, past the default guard.
    registry = AtomRegistry()
    pred = Predicate("e", 1)
    for i in range(260):
        atom = registry.intern(pred, (str(i),))
        if i < 30:
            registry.mark_env(atom)
        else:
            registry.mark_action(atom)
    registry.freeze()
    frequent_worlds = [set(range(30))] * 3
    thread = Thread([*frequent_worlds, set(range(30, 260))])
    with pytest.raises(OracleGuardError, match="1040750"):
        brute_force_extract(thread, registry, ExtractParams())


# ------------------------------------------------------ synthetic corpora


def snapshot(corpus):
    registry = corpus.registry
    return (
        corpus.thread,
        [str(registry.atom(a)) for a in registry.ids()],
        registry.action_set,
    )


def test_generation_is_seed_deterministic():
    spec = SynthSpec(n_env=8, t_max=40, planted=(PlantedRule((1,), "x", 0.9, 10),), seed=7)
    assert snapshot(generate_synthetic(spec)) == snapshot(generate_synthetic(spec))
    different = SynthSpec(n_env=8, t_max=40, planted=(PlantedRule((1,), "x", 0.9, 10),), seed=8)
    assert generate_synthetic(different).thread != generate_synthetic(spec).thread


def test_zero_density_without_plants_is_silent():
    corpus = generate_synthetic(SynthSpec(n_env=5, t_max=10, density=0.0, seed=3))
    assert corpus.thread.t_max == 10
    assert not any(corpus.thread.world(t) for t in range(1, 11))
    assert corpus.count_series == {}


def test_zero_density_plant_has_perfect_statistics():
    """With no background and certain firing, construction forces p = 1."""
    plant = PlantedRule((0, 2), "planted", 1.0, 20)
    corpus = generate_synthetic(SynthSpec(n_env=5, t_max=50, planted=(plant,), density=0.0, seed=11))
    consequence = corpus.registry.find(Predicate("act", 1), ("planted",))
    assert consequence == 5  # environmental atoms claim ids 0..4 first
    assert exact_support(corpus.thread, plant.precondition) == 20
    assert exact_rule_probability(corpus.thread, plant.precondition, consequence) == Fraction(1)
    assert exact_negative_probability(corpus.thread, plant.precondition, consequence) == Fraction(0)
    assert len(corpus.thread.occurrences(consequence)) == 20


def test_planted_consequences_are_action_and_environmental():
    plant = PlantedRule((0,), "x", 0.5, 5)
    corpus = generate_synthetic(SynthSpec(n_env=3, t_max=20, planted=(plant,), seed=0))
    consequence = corpus.registry.find(Predicate("act", 1), ("x",))
    assert consequence in corpus.registry.action_set
    assert consequence in corpus.registry.env_set
    assert corpus.registry.frozen


@pytest.mark.parametrize(
    "make",
    [
        lambda: PlantedRule((), "x", 0.5, 5),
        lambda: PlantedRule((0, 0), "x", 0.5, 5),
        lambda: PlantedRule((0,), "x", 1.5, 5),
        lambda: PlantedRule((0,), "x", 0.5, 0),
        lambda: SynthSpec(n_env=0, t_max=10),
        lambda: SynthSpec(n_env=5, t_max=1),
        lambda: SynthSpec(n_env=5, t_max=10, density=1.5),
        lambda: SynthSpec(
            n_env=5, t_max=10,
            planted=(PlantedRule((0,), "x", 0.5, 5), PlantedRule((1,), "x", 0.5, 5)),
        ),
        lambda: SynthSpec(n_env=2, t_max=10, planted=(PlantedRule((0, 1, 2), "x", 0.5, 5),)),
        lambda: SynthSpec(n_env=5, t_max=10, planted=(PlantedRule((9,), "x", 0.5, 5),)),
        lambda: SynthSpec(n_env=5, t_max=10, planted=(PlantedRule((0,), "x", 0.5, 10),)),
    ],
)
def test_synthetic_validation(make):
    with pytest.raises(ValueError):
        make()


def test_sparse_benchmark_corpus_shape():
    thread, registry = sparse_benchmark_corpus()
    assert thread.t_max == 30
    assert len(registry) == 980
    assert registry.action_set == set(range(6))
    core = set(range(200))
    for t in range(1, 31):
        world = thread.world(t)
        assert len(world) == 93
        assert len(world & core) == 47
    for atom in range(6):
        assert len(thread.occurrences(atom)) == 7
    for atom in range(200, 980):
        assert len(thread.occurrences(atom)) <= 2

    again, _ = sparse_benchmark_corpus()
    assert again == thread


# ------------------------------------------------------- reference ingest

EPOCH = dt.date(2014, 6, 8)
MAP_TEXT = "Mosul,Iraq\nRaqqa,Syria\n\n Falluja , Iraq\n"
EVENT_ROWS = st.tuples(
    st.integers(min_value=-3, max_value=60).map(lambda d: (EPOCH + dt.timedelta(days=d)).isoformat()),
    st.sampled_from(["bomb", "recon", "kidnap"]),
    st.sampled_from([("Mosul", ""), ("ISIS", "Mosul"), ("Raqqa", ""), ("ISIS", "Raqqa"),
                     ("Falluja", ""), ("Atlantis", ""), ("ISIS", "Atlantis"), ("", ""),
                     ("", "Mosul")]),
    st.sampled_from(["", "ISIS", "multi\nline", 'say "hi"']),
).map(lambda row: [row[0], row[1], *row[2], row[3]])
TEXTS = st.sampled_from([
    "", "bomb", "Mosul", " Mosul ", "Atlantis", "armedSpike", "re(con", "two\nlines", "a,b", "t\tab",
    "2014-06-09", " 2014-06-10 ", "2014-06-11\n", "2014-13-01", "2014-02-30", "0000-01-01",
    "20140608", "2014-6-8", "２０１４-06-08",
])
ROWS = st.integers(min_value=0, max_value=9).flatmap(
    lambda kind: EVENT_ROWS if kind < 6  # mostly usable; some unmapped, arity conflicts, gaps
    else st.lists(TEXTS, min_size=5, max_size=5) if kind < 8  # damage anywhere
    else st.lists(TEXTS, min_size=1, max_size=6).filter(lambda cells: len(cells) != 5)
    if kind < 9
    else st.just([])  # a blank line
)


@st.composite
def event_csvs(draw):
    """A UTF-8 event CSV whose rows repeat, as (text, bytes the engine reads)."""
    rows = draw(st.lists(ROWS, min_size=1, max_size=25))
    for i in draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1), max_size=10)):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), rows[i])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(["date", "predicate", "arg1", "arg2", "actor"])
    writer.writerows(rows)
    text = ("\ufeff" if draw(st.booleans()) else "") + out.getvalue()
    return text, text.encode("utf-8")


# Weekly bomb counts 0, 0, 0, 1, 2, 3: at window 5 and k = 3 the last count
# exactly reaches mean 0.6 plus 3 sigma (2.4), which floats put at 3.0000000000000004.
TIE_CSV = "date,predicate,arg1,arg2,actor\n" + "".join(
    f"{(EPOCH + dt.timedelta(days=d)).isoformat()},bomb,Mosul,,ISIS\n"
    for d in (21, 28, 29, 35, 36, 37)
)


def outcome(ingest):
    """(thread text, count series, rejects) of an ingest, or the type of its error."""
    try:
        corpus, rejects = ingest()
    except (EmptyCorpusError, ValueError) as exc:
        return type(exc)
    lines = list(format_thread(corpus.thread, corpus.registry, {}))
    return lines, dict(corpus.count_series), rejects


@settings(max_examples=300, deadline=None)
@given(
    source=event_csvs(),
    period_days=st.integers(min_value=1, max_value=10),
    window=st.integers(min_value=1, max_value=6),
    thresholds=st.sampled_from([(1.0, 2.0), (0.5,), (0.1, 1.5), (3.0,), (0.2,)]),
    spike_series=st.one_of(
        st.none(),
        st.sets(st.sampled_from(["bomb", "recon", "kidnap", "nosuch"]), min_size=1).map(
            lambda names: tuple(sorted(names))
        ),
    ),
)
@example(
    source=(TIE_CSV, TIE_CSV.encode()), period_days=7, window=5, thresholds=(3.0,), spike_series=None
)
def test_engine_ingest_matches_the_reference(source, period_days, window, thresholds, spike_series):
    text, data = source
    config = CorpusConfig(
        epoch=EPOCH,
        location_map=load_location_map(io.BytesIO(MAP_TEXT.encode())),
        period_days=period_days,
        spike_config=SpikeConfig(window=window, thresholds=thresholds),
        spike_series=spike_series,
    )

    def engine(adapt):
        records, parse_rejects = parse_events(io.BytesIO(data))
        corpus, build_rejects = build_corpus(adapt(records), config)
        return corpus, [*parse_rejects, *build_rejects]

    expected = outcome(lambda: reference_ingest(text, MAP_TEXT, config))
    assert outcome(lambda: engine(lambda table: table)) == expected
    # Materialised records take the adapter path: build_corpus puts them in a table.
    assert outcome(lambda: engine(list)) == expected
