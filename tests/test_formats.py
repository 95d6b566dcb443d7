"""Versioned file formats: round trips are exact, damage is a FormatError."""

import datetime as dt
import math

import pytest
from hypothesis import given, settings, strategies as st

from aptmine import (
    AtomRegistry,
    CorpusConfig,
    EventRecord,
    ExtractParams,
    FormatError,
    Predicate,
    Reject,
    Thread,
    build_corpus,
    load_rules,
    load_scored,
    load_thread,
    pf_rule_compare,
    pf_rule_extract,
    save_rules,
    save_scored,
    save_thread,
    t1_corpus,
)
from aptmine.formats import (
    RULES_MAGIC,
    THREAD_MAGIC,
    format_counts,
    format_rejects,
    format_rules,
    format_scored,
    format_thread,
    write_atomic,
)

from conftest import random_corpus, random_params

PARAMS = {"epoch": "2014-06-08", "window": "4"}


def registry_snapshot(registry):
    return (
        [str(registry.atom(a)) for a in registry.ids()],
        registry.action_set,
        registry.env_set,
    )


def spiky_corpus():
    events = [
        EventRecord(dt.date(2014, 6, 8) + dt.timedelta(days=7 * week), "armedAtk",
                    ("ISIS", "Mosul"), 2)
        for week, n in enumerate([1, 3, 1, 3, 8])
        for _ in range(n)
    ]
    corpus, _ = build_corpus(
        events, CorpusConfig(epoch=dt.date(2014, 6, 8), location_map={"Mosul": "Iraq"})
    )
    return corpus


def test_thread_round_trip_is_byte_exact(t1, tmp_path):
    thread, registry, a, b, g = t1
    path = tmp_path / "t1.thread"
    save_thread(path, thread, registry, PARAMS)
    loaded_thread, loaded_registry, params = load_thread(path)
    assert loaded_thread == thread
    assert params == PARAMS
    assert registry_snapshot(loaded_registry) == registry_snapshot(registry)
    assert loaded_registry.frozen
    assert format_thread(loaded_thread, loaded_registry, params) == path.read_text()


def test_thread_round_trip_with_spike_atoms(tmp_path):
    corpus = spiky_corpus()
    path = tmp_path / "spiky.thread"
    save_thread(path, corpus.thread, corpus.registry, PARAMS)
    loaded_thread, loaded_registry, _ = load_thread(path)
    assert loaded_thread == corpus.thread
    assert registry_snapshot(loaded_registry) == registry_snapshot(corpus.registry)


def test_thread_refuses_half_marked_registries(t1):
    thread = t1[0]
    registry = AtomRegistry()
    for name in ("a", "b", "g"):
        registry.intern(Predicate(name, 0))
    registry.mark_env(0)
    registry.mark_env(1)
    registry.mark_action(2)  # action but not environmental
    with pytest.raises(ValueError, match="not environmental"):
        format_thread(thread, registry, PARAMS)
    registry2 = AtomRegistry()
    registry2.intern(Predicate("a", 0))  # not marked at all
    with pytest.raises(ValueError, match="must be environmental"):
        format_thread(Thread([{0}]), registry2, PARAMS)


def tampered(tmp_path, t1, mutate):
    thread, registry, *_ = t1
    path = tmp_path / "bad.thread"
    save_thread(path, thread, registry, PARAMS)
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda lines: lines.__setitem__(0, "aptmine-thread v999"), "expected first line"),
        (lambda lines: lines.__setitem__(1, "no params here"), "params"),
        (lambda lines: lines.__setitem__(2, "atoms\tmany"), "malformed section header"),
        (lambda lines: lines.pop(3), "atom ids must be dense"),
        (lambda lines: lines.__setitem__(3, "0\ta\t7"), "flag must be 0 or 1"),
        (lambda lines: lines.__setitem__(3, "5\ta\t0"), "dense and ascending"),
        (lambda lines: lines.__setitem__(3, "0\ta(\t0"), r"bad\.thread:4: .*reserved character"),
        (lambda lines: lines.__setitem__(7, "0 99"), "unknown atom id"),
        (lambda lines: lines.__setitem__(7, "0 x"), r"bad\.thread:8: .*must be integers"),
        (lambda lines: lines.__setitem__(7, "0 \u0661"), r"bad\.thread:8: .*'\u0661'"),
        (lambda lines: lines.__setitem__(7, "1_0"), r"bad\.thread:8: .*'1_0'"),
        (lambda lines: lines.__setitem__(7, "0 +1"), r"bad\.thread:8: .*'\+1'"),
        (lambda lines: lines.__setitem__(2, "atoms\t+3"), r"bad\.thread:3: malformed section header"),
        (lambda lines: lines.pop(), "period lines"),
        (lambda lines: lines.append("2"), "period lines"),
        (lambda lines: lines.__setitem__(slice(6, None), ["periods\t0"]), r"bad\.thread:7: .*one world"),
    ],
)
def test_damaged_thread_files_raise(tmp_path, t1, mutate, message):
    path = tampered(tmp_path, t1, mutate)
    with pytest.raises(FormatError, match=message):
        load_thread(path)


def test_rules_round_trip_exactly(tmp_path):
    thread, registry = random_corpus(9)
    report = pf_rule_extract(thread, registry, random_params(9))
    assert report.rules, "corpus should yield rules for the round trip to mean anything"
    path = tmp_path / "rules.rules"
    save_rules(path, report.rules, registry, {"max_dim": "3"})
    loaded, params = load_rules(path, registry)
    assert tuple(loaded) == report.rules  # repr() floats parse back bit-identical
    assert params == {"max_dim": "3"}


def test_rules_against_the_wrong_registry(tmp_path, t1):
    thread, registry, a, b, g = t1
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1))
    path = tmp_path / "rules.rules"
    save_rules(path, report.rules, registry, {})
    stranger = AtomRegistry()
    stranger.mark_env(stranger.intern(Predicate("other", 0)))
    stranger.freeze()
    with pytest.raises(FormatError, match="unknown atom"):
        load_rules(path, stranger)


def test_rules_dimension_mismatch(tmp_path, t1):
    thread, registry, *_ = t1
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1))
    path = tmp_path / "rules.rules"
    save_rules(path, report.rules, registry, {})
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    fields[5] = "2"  # claim two atoms, list one
    lines[2] = "\t".join(fields[:7])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="dimension"):
        load_rules(path, registry)


def line_damaged(tmp_path, t1, suffix, edits):
    """A t1 rules or scored file whose first record has the given fields replaced."""
    thread, registry, *_ = t1
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1))
    path = tmp_path / f"bad.{suffix}"
    if suffix == "rules":
        save_rules(path, report.rules, registry, {})
    else:
        save_scored(path, pf_rule_compare(thread, report.rules), registry, {})
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    for field, text in edits.items():
        fields[field] = text
    lines[2] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return path, registry


def counts_damaged(tmp_path, t1, suffix, field, text):
    return line_damaged(tmp_path, t1, suffix, {field: text})


@pytest.mark.parametrize("text", ["\u0661", "1_0", "+1", "-1"])
@pytest.mark.parametrize("suffix, field", [("rules", 3), ("rules", 5), ("scored", 3), ("scored", 8)])
def test_non_decimal_counts_in_rules_and_scored_raise(tmp_path, t1, suffix, field, text):
    path, registry = counts_damaged(tmp_path, t1, suffix, field, text)
    with pytest.raises(FormatError, match=rf"bad\.{suffix}:3: .*must be integers"):
        load_rules(path, registry) if suffix == "rules" else load_scored(path)


def test_rule_stats_out_of_range_raise_with_line(tmp_path, t1):
    path, registry = counts_damaged(tmp_path, t1, "rules", 0, "1.5")
    with pytest.raises(FormatError, match=r"bad\.rules:3: p must lie in \[0, 1\]"):
        load_rules(path, registry)


@pytest.mark.parametrize("suffix, offset", [("rules", 0), ("scored", 5)])
def test_repeated_precondition_atom_raises(tmp_path, t1, suffix, offset):
    path, registry = line_damaged(tmp_path, t1, suffix, {})
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    lines[2] = "\t".join([*fields[: offset + 5], "2", "a()", "a()"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"bad\.{suffix}:3: precondition repeats an atom"):
        load_rules(path, registry) if suffix == "rules" else load_scored(path)


def test_repeated_rule_line_raises_naming_both_lines(tmp_path, t1):
    path, registry = line_damaged(tmp_path, t1, "rules", {})
    lines = path.read_text().splitlines()
    lines.insert(4, lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"bad\.rules:5: duplicate rule, first on line 3"):
        load_rules(path, registry)


def test_rule_consequence_must_be_an_action_atom(tmp_path, t1):
    # b() is an atom of the t1 thread, but only g() is an action atom.
    path, registry = line_damaged(tmp_path, t1, "rules", {4: "b()", 6: "a()"})
    with pytest.raises(FormatError, match=r"bad\.rules:3: consequence b\(\) is not an action atom"):
        load_rules(path, registry)


def t1_artifacts():
    """The t1 thread, rules and scored files as bytes, keyed by kind."""
    thread, registry = t1_corpus()
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1))
    texts = {
        "thread": format_thread(thread, registry, PARAMS),
        "rules": format_rules(report.rules, registry, {}),
        "scored": format_scored(pf_rule_compare(thread, report.rules), registry, {}),
    }
    return {kind: text.encode() for kind, text in texts.items()}


ARTIFACTS = t1_artifacts()
T1_REGISTRY = t1_corpus()[1]


def load_artifact(path):
    """Load a t1 artifact by its suffix; rules resolve against the t1 registry."""
    kind = path.suffix[1:]
    if kind == "thread":
        return load_thread(path)
    return load_rules(path, T1_REGISTRY) if kind == "rules" else load_scored(path)


@pytest.mark.parametrize(
    "text",
    ["nan", "inf", "-inf", "1e+999", "1_0.5", "\u0661.\u0665", "0.\u0665", "+0.5", " 0.5", "0.5 ", ".5", ""],
)
@pytest.mark.parametrize(
    "suffix, field", [("rules", 0), ("rules", 2), ("scored", 0), ("scored", 2), ("scored", 5)]
)
def test_non_decimal_or_non_finite_floats_raise(tmp_path, t1, suffix, field, text):
    path, _ = counts_damaged(tmp_path, t1, suffix, field, text)
    with pytest.raises(FormatError, match=rf"bad\.{suffix}:3: .*must be finite decimal numbers"):
        load_artifact(path)


@pytest.mark.parametrize(
    "edits, message",
    [
        ({0: "1.5"}, r"eps_avg must lie in \[-1, 1\]"),
        ({1: "-1.5"}, r"eps_min must lie in \[-1, 1\]"),
        ({2: "-0.5"}, r"eps_frac must lie in \[0, 1\]"),
        ({2: "1.0000000000000002"}, r"eps_frac must lie in \[0, 1\]"),
        ({4: "7"}, "never_separated 7 exceeds related 2"),
        ({0: "na"}, "eps values must be finite"),
        ({0: "na", 1: "na", 2: "na"}, "an unscored rule must have related 0"),
        ({3: "0", 4: "0"}, "a rule related to nothing must be unscored"),
        ({5: "1.5"}, r"p must lie in \[0, 1\]"),
        ({7: "1.5"}, r"rho must lie in \[0, 1\]"),
    ],
)
def test_scored_numbers_out_of_range_raise_with_line(tmp_path, t1, edits, message):
    path, _ = line_damaged(tmp_path, t1, "scored", edits)
    with pytest.raises(FormatError, match=rf"bad\.scored:3: {message}"):
        load_scored(path)


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_bad_utf8_names_the_file_and_line(tmp_path, kind):
    lines = ARTIFACTS[kind].split(b"\n")
    lines[3] += b"\xff"
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError, match=rf"bad\.{kind}:4: not valid UTF-8"):
        load_artifact(path)


TOKENS = ["nan", "inf", "-", "+", "_", " ", "\t", "\n", "na", "0", "1", "7", ".", "1.5", "1e+16",
          "\u0661", "\u0665", "(", ")", ",", "a()", "g()", "params", "atoms\t", "periods\t"]
INSERTS = st.one_of(
    st.sampled_from(TOKENS).map(str.encode),
    st.text(max_size=3).map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.binary(max_size=2),
)


def assert_in_range(kind, loaded, blob):
    if kind == "thread":
        thread, registry, _ = loaded
        assert registry.frozen
        assert all(a < len(registry) for t in range(1, thread.t_max + 1) for a in thread.world(t))
        return
    records, _ = loaded
    if kind == "rules":
        # Each rule is new, ends in an action atom, and lists as many atoms as
        # its line's dimension field says.
        assert len({rule for rule, _ in records}) == len(records)
        assert all(T1_REGISTRY.is_action(rule.consequence) for rule, _ in records)
        rows = blob.decode().split("\n")[2:]
        for (rule, _), row in zip(records, rows):
            assert rule.precondition.dimension == int(row.split("\t")[5])
    for record in records:
        if kind == "rules":
            rule, record = record
            assert rule.precondition.dimension >= 1
        else:
            assert len(set(record.precondition)) == len(record.precondition)
        for value in (record.p, record.p_star, record.rho):
            assert math.isfinite(value) and 0.0 <= value <= 1.0
        assert record.support >= 0
        if kind == "scored":
            eps = (record.eps_avg, record.eps_min, record.eps_frac)
            assert 0 <= record.never_separated_count <= record.related_count
            if record.related_count == 0:
                assert eps == (None, None, None)
            else:
                assert all(math.isfinite(v) for v in eps)
                assert -1.0 <= record.eps_avg <= 1.0 and -1.0 <= record.eps_min <= 1.0
                assert 0.0 <= record.eps_frac <= 1.0


def line_edited(blob, data):
    """Duplicate a line after the params line, or overwrite one of its tab fields
    with the field before it, counting from the end, where the atoms are."""
    lines = blob.split(b"\n")
    last = max(len(lines) - 2, 0)  # skip the item after a final newline
    i = data.draw(st.integers(min_value=min(2, last), max_value=last))
    fields = lines[i].split(b"\t")
    if len(fields) < 2 or data.draw(st.booleans()):
        lines.insert(i, lines[i])
    else:
        k = len(fields) - 1 - data.draw(st.integers(min_value=0, max_value=len(fields) - 2))
        fields[k] = fields[k - 1]
        lines[i] = b"\t".join(fields)
    return b"\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(ARTIFACTS)), data=st.data())
def test_mutated_artifacts_load_in_range_or_raise_format_error(tmp_path_factory, kind, data):
    # Byte-level splices cover text damage and invalid UTF-8 alike; line
    # edits make repeated records and repeated atoms likely.
    blob = ARTIFACTS[kind]
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if data.draw(st.booleans()):
            blob = line_edited(blob, data)
            continue
        i = data.draw(st.integers(min_value=0, max_value=len(blob)))
        j = data.draw(st.integers(min_value=i, max_value=min(len(blob), i + 6)))
        blob = blob[:i] + data.draw(INSERTS) + blob[j:]
    path = tmp_path_factory.mktemp("mutant") / f"mutant.{kind}"
    path.write_bytes(blob)
    try:
        loaded = load_artifact(path)
    except FormatError:
        return
    assert_in_range(kind, loaded, blob)


def test_rules_magic_is_checked(tmp_path):
    path = tmp_path / "x.rules"
    path.write_text(THREAD_MAGIC + "\nparams\n")
    with pytest.raises(FormatError, match=RULES_MAGIC):
        load_rules(path, AtomRegistry())


def test_scored_round_trip_keeps_every_field(tmp_path):
    thread, registry = random_corpus(21)
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1, min_prob=0.25))
    ranked = pf_rule_compare(thread, report.rules)
    path = tmp_path / "scored.scored"
    save_scored(path, ranked, registry, {"k": "all"})
    records, params = load_scored(path)
    assert params == {"k": "all"}

    flat = [sr for g in sorted(ranked) for sr in ranked[g]]
    assert len(records) == len(flat)
    for record, sr in zip(records, flat):
        assert record.consequence == registry.render(sr.rule.consequence)
        assert record.precondition == tuple(
            registry.render(a) for a in sr.rule.precondition.atoms
        )
        assert record.eps_avg == sr.eps_avg
        assert record.eps_min == sr.eps_min
        assert record.eps_frac == sr.eps_frac
        assert record.related_count == sr.related_count
        assert record.never_separated_count == sr.never_separated_count
        assert record.p == sr.stats.p
        assert record.p_star == sr.stats.p_star
        assert record.rho == sr.stats.rho
        assert record.support == sr.stats.support


def test_scored_round_trip_includes_unscored_na(tmp_path, t1):
    thread, registry, a, b, g = t1
    report = pf_rule_extract(thread, registry, ExtractParams())
    ranked = pf_rule_compare(thread, report.rules)  # single rule: unscored
    path = tmp_path / "na.scored"
    save_scored(path, ranked, registry, {})
    records, _ = load_scored(path)
    assert len(records) == 1
    assert records[0].eps_avg is None
    assert records[0].related_count == 0
    assert "na\tna\tna" in path.read_text()


def test_counts_and_rejects_formats():
    counts = {("armedAtk", "Iraq"): (1, 3, 1), ("armedAtk", "Total"): (1, 3, 1)}
    text = format_counts(counts, {"window": "4"})
    assert text.splitlines() == [
        "aptmine-counts v1",
        "params\twindow=4",
        "armedAtk\tIraq\t1 3 1",
        "armedAtk\tTotal\t1 3 1",
    ]

    rejects = [Reject(7, "unparseable date", "June\t8th\nish")]
    text = format_rejects(rejects, {})
    assert text.splitlines() == [
        "aptmine-rejects v1",
        "params",
        "7\tunparseable date\tJune 8th ish",
    ]


def test_write_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    foreign = tmp_path / "out.txt.tmp"  # another run's temp file
    foreign.write_text("not ours\n")
    write_atomic(target, "first\n")
    write_atomic(target, "second\n")
    assert target.read_text() == "second\n"
    assert foreign.read_text() == "not ours\n"
    assert sorted(tmp_path.iterdir()) == [target, foreign]
    assert target.stat().st_mode == foreign.stat().st_mode  # the umask applies as to a plain write


def test_write_atomic_removes_its_temp_file_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        write_atomic(target, "\ud800")  # a lone surrogate cannot be encoded
    assert list(tmp_path.iterdir()) == []
