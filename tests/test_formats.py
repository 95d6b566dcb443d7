"""Versioned file formats: round trips are exact, damage is a FormatError."""

import datetime as dt
import math
import re
import tracemalloc

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
    sparse_benchmark_corpus,
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

from conftest import corpora, random_corpus, random_params

PARAMS = {"epoch": "2014-06-08", "window": "4"}


def joined(lines):
    """A formatter's lines as the file text write_atomic makes of them."""
    return "".join(f"{line}\n" for line in lines)


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
    assert joined(format_thread(loaded_thread, loaded_registry, params)) == path.read_text()


def test_thread_round_trip_with_spike_atoms(tmp_path):
    corpus = spiky_corpus()
    path = tmp_path / "spiky.thread"
    save_thread(path, corpus.thread, corpus.registry, PARAMS)
    loaded_thread, loaded_registry, _ = load_thread(path)
    assert loaded_thread == corpus.thread
    assert registry_snapshot(loaded_registry) == registry_snapshot(corpus.registry)


def test_thread_refuses_half_marked_registries(t1, tmp_path):
    thread = t1[0]
    registry = AtomRegistry()
    for name in ("a", "b", "g"):
        registry.intern(Predicate(name, 0))
    registry.mark_env(0)
    registry.mark_env(1)
    registry.mark_action(2)  # action but not environmental
    with pytest.raises(ValueError, match="must be environmental"):
        list(format_thread(thread, registry, PARAMS))
    registry2 = AtomRegistry()
    registry2.intern(Predicate("a", 0))  # not marked at all
    with pytest.raises(ValueError, match="must be environmental"):
        list(format_thread(Thread([{0}]), registry2, PARAMS))
    with pytest.raises(ValueError, match="must be environmental"):
        save_thread(tmp_path / "half.thread", thread, registry, PARAMS)
    assert list(tmp_path.iterdir()) == []


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
        (lambda lines: lines.__setitem__(4, "1\ta\tx\ty\t0"), r"bad\.thread:5: .*arity 0, got arity 2"),
        (lambda lines: lines.__setitem__(7, "0 99"), "unknown atom id"),
        (lambda lines: lines.__setitem__(7, "0 3"), r"bad\.thread:8: period references unknown atom id 3$"),
        (lambda lines: lines.__setitem__(7, "0 x"), r"bad\.thread:8: .*must be integers"),
        (lambda lines: lines.__setitem__(7, "0 \u0661"), r"bad\.thread:8: .*'\u0661'"),
        (lambda lines: lines.__setitem__(7, "0\u3000\u0661"), r"bad\.thread:8: .*'\u0661'$"),
        # Every new token is read as an integer before any is checked against the atoms.
        (lambda lines: lines.__setitem__(7, "99 x"), r"bad\.thread:8: period atom ids must be integers .*'x'$"),
        # A token checked on line 8 is not checked again; a new one on line 9 is.
        (lambda lines: lines.__setitem__(slice(7, 9), ["0 1", "1 0 99"]), r"bad\.thread:9: .*unknown atom id 99$"),
        (lambda lines: lines.__setitem__(slice(7, 9), ["0 1", "1 x"]), r"bad\.thread:9: .*'x'$"),
        # A fault on each of two lines: the first is named.
        (lambda lines: lines.__setitem__(slice(7, 9), ["99", "x"]), r"bad\.thread:8: .*unknown atom id 99$"),
        (lambda lines: lines.__setitem__(7, "1_0"), r"bad\.thread:8: .*'1_0'"),
        (lambda lines: lines.__setitem__(7, "0 +1"), r"bad\.thread:8: .*'\+1'"),
        (lambda lines: lines.__setitem__(2, "atoms\t+3"), r"bad\.thread:3: malformed section header"),
        (lambda lines: lines.pop(), "period lines"),
        (lambda lines: lines.append("2"), "period lines"),
        (lambda lines: lines.__setitem__(slice(6, None), ["periods\t0"]), r"bad\.thread:7: .*one world"),
        # Longer than int() reads.
        (lambda lines: lines.__setitem__(7, "9" * 4301), r"bad\.thread:8: period atom ids must be integers"),
        (lambda lines: lines.__setitem__(2, "atoms\t" + "9" * 4301), r"bad\.thread:3: .*: counts must be integers"),
        # Long integers that do read are echoed clipped.
        (lambda lines: lines.__setitem__(7, "9" * 4300),
         r"bad\.thread:8: period references unknown atom id 9{32}\.\.\. \(4300 characters\)$"),
        (lambda lines: lines.__setitem__(6, "periods\t" + "9" * 4300),
         r"bad\.thread:7: expected 9{32}\.\.\. \(4300 characters\) period lines, found 6$"),
        # The params line's first field is exactly "params", and its keys are distinct.
        (lambda lines: lines.__setitem__(1, "params_seed=0"), r"bad\.thread:2: expected a params line"),
        (lambda lines: lines.__setitem__(1, "paramsjunk"), r"bad\.thread:2: expected a params line"),
        (lambda lines: lines.__setitem__(1, "params\tseed=0\tseed=1"), r"bad\.thread:2: params repeat the key 'seed'"),
    ],
)
def test_damaged_thread_files_raise(tmp_path, t1, mutate, message):
    path = tampered(tmp_path, t1, mutate)
    with pytest.raises(FormatError, match=message):
        load_thread(path)


def test_repeated_atom_line_raises_naming_both_lines(tmp_path):
    # Interning the second "0 a" line returns id 0 again, which its declared
    # id matches; the header still says 3 atoms, so the period line's atom 2
    # would name an atom the registry never received.
    path = tmp_path / "repeat.thread"
    path.write_text(
        f"{THREAD_MAGIC}\nparams\natoms\t3\n0\ta\t0\n0\ta\t0\n1\tnan2\tg\t1\nperiods\t1\n0 2\n"
    )
    with pytest.raises(FormatError, match=r"^.*repeat\.thread:5: repeats the atom on line 4$"):
        load_thread(path)


def test_an_atoms_header_promising_more_lines_than_the_file_holds_is_truncated(tmp_path):
    # The header promises four atom lines; two come before the periods header.
    path = tmp_path / "short.thread"
    path.write_text(f"{THREAD_MAGIC}\nparams\natoms\t4\n0\ta\t0\n1\tg\t1\nperiods\t1\n0 1\n")
    with pytest.raises(FormatError, match=r"^.*short\.thread:3: truncated atoms section$"):
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


@pytest.mark.parametrize("text", ["\u0661", "1_0", "+1", "-1", pytest.param("9" * 4301, id="9x4301")])
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


@pytest.mark.parametrize(
    "atom, named",
    [("a" * 14, "a" * 14 + " & " + "a" * 14), ("a" * 15, "a" * 15 + " & " + "a" * 14 + "... (33 characters)")],
    ids=["31-characters-whole", "33-characters-clipped"],
)
def test_a_repeated_atom_is_named_whole_up_to_32_characters(tmp_path, t1, atom, named):
    path, registry = line_damaged(tmp_path, t1, "rules", {})
    lines = path.read_text().splitlines()
    lines[2] = "\t".join([*lines[2].split("\t")[:5], "2", atom, atom])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as raised:
        load_rules(path, registry)
    assert str(raised.value) == f"{path}:3: precondition repeats an atom: {named}"


@pytest.mark.parametrize("suffix, offset", [("rules", 0), ("scored", 5)])
def test_a_long_dimension_is_echoed_clipped(tmp_path, t1, suffix, offset):
    path, _ = line_damaged(tmp_path, t1, suffix, {offset + 5: "9" * 4300})
    clipped = re.escape("9" * 32 + "... (4300 characters)")
    with pytest.raises(FormatError, match=rf"bad\.{suffix}:3: rule dimension {clipped} != 1 atoms$"):
        load_artifact(path)


@pytest.mark.parametrize("suffix, offset", [("rules", 0), ("scored", 5)])
def test_dimension_counts_each_listed_atom(tmp_path, t1, suffix, offset):
    # a() twice makes a conjunction of one atom, but the line lists two.
    path, registry = line_damaged(tmp_path, t1, suffix, {})
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    lines[2] = "\t".join([*fields[: offset + 5], "1", "a()", "a()"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"bad\.{suffix}:3: rule dimension 1 != 2 atoms"):
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


def test_a_long_non_action_consequence_is_clipped(tmp_path):
    registry = AtomRegistry()
    a, b = registry.intern(Predicate("a", 0)), registry.intern(Predicate("b" * 98, 0))
    registry.mark_env(a)
    registry.mark_env(b)  # environmental only, so it may head no rule
    registry.freeze()
    name = registry.render(b)
    assert len(name) == 100
    path = tmp_path / "bad.rules"
    path.write_text(f"{RULES_MAGIC}\nparams\n0.5\t0.5\t0.0\t1\t{name}\t1\ta()\n")
    with pytest.raises(FormatError) as raised:
        load_rules(path, registry)
    named = "b" * 32 + "... (100 characters)"
    assert str(raised.value) == f"{path}:3: consequence {named} is not an action atom"


@pytest.mark.parametrize(
    "name, named",
    [("g", "'g()'"), ("g" * 40, repr("g" * 32) + "... (42 characters)")],
    ids=["whole", "clipped"],
)
def test_a_consequence_in_its_own_precondition_is_named_as_the_file_spells_it(tmp_path, name, named):
    # Not by its registry id (1 here), which the file never spells.
    registry = AtomRegistry()
    a, g = registry.intern(Predicate("a", 0)), registry.intern(Predicate(name, 0))
    registry.mark_env(a)
    registry.mark_env(g)
    registry.mark_action(g)
    registry.freeze()
    path = tmp_path / "bad.rules"
    path.write_text(f"{RULES_MAGIC}\nparams\n0.5\t0.5\t0.0\t1\t{name}()\t2\ta()\t{name}()\n")
    with pytest.raises(FormatError) as raised:
        load_rules(path, registry)
    assert str(raised.value) == f"{path}:3: rule consequence {named} may not appear in its own precondition"


def t1_artifacts():
    """The t1 thread, rules and scored files as bytes, keyed by kind."""
    thread, registry = t1_corpus()
    report = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1))
    texts = {
        "thread": joined(format_thread(thread, registry, PARAMS)),
        "rules": joined(format_rules(report.rules, registry, {})),
        "scored": joined(format_scored(pf_rule_compare(thread, report.rules), registry, {})),
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


def with_fields(kind, edits):
    """A t1 rules or scored artifact with fields replaced: {(line index, field): text}."""
    lines = ARTIFACTS[kind].decode().split("\n")
    for (i, field), text in edits.items():
        fields = lines[i].split("\t")
        fields[field] = text
        lines[i] = "\t".join(fields)
    return kind, "\n".join(lines).encode()


def test_rules_sharing_p_p_star_and_rho_keep_their_own_support(tmp_path):
    path = tmp_path / "shared.rules"
    path.write_bytes(with_fields("rules", {(3, 0): "0.5"})[1])  # line 4 takes line 3's p
    rules, _ = load_rules(path, T1_REGISTRY)
    assert [stats.support for _, stats in rules] == [2, 1, 3]


@pytest.mark.parametrize(
    "kind, edits, message",
    [
        ("rules", {(3, 0): "0.5", (3, 3): "2", (3, 5): "1"}, "rule dimension 1 != 2 atoms"),
        ("rules", {(3, 0): "0.5", (3, 3): "2", (3, 6): "z()"}, "unknown atom 'z\\(\\)'"),
        (
            "scored",
            {(3, 5): "0.6666666666666666", (3, 6): "0.0", (3, 8): "3", (3, 10): "1"},
            "rule dimension 1 != 2 atoms",
        ),
    ],
)
def test_a_repeated_statistics_text_still_checks_its_own_line(tmp_path, kind, edits, message):
    # Line 4 spells line 3's statistics, so it shares line 3's RuleStats.
    path = tmp_path / f"repeat.{kind}"
    path.write_bytes(with_fields(kind, edits)[1])
    with pytest.raises(FormatError, match=rf"repeat\.{kind}:4: {message}"):
        load_artifact(path)


def test_scoring_keeps_each_line_s_spelling_of_a_statistic(tmp_path):
    # -0.0 == 0.0, but each rule's p* keeps the spelling its rules line gave it.
    edits = {(2, 1): "-0.0", (3, 0): "0.5", (3, 1): "0.0", (3, 3): "2"}
    path = tmp_path / "zeros.rules"
    path.write_bytes(with_fields("rules", edits)[1])
    rules, _ = load_rules(path, T1_REGISTRY)
    thread, registry = t1_corpus()
    lines = list(format_scored(pf_rule_compare(thread, rules), registry, {}))
    p_star = {tuple(f[11:]): f[6] for f in (line.split("\t") for line in lines[2:])}
    assert p_star == {("a()",): "-0.0", ("a()", "b()"): "0.0", ("b()",): "0.0"}


@pytest.mark.parametrize(
    "text",
    ["nan", "inf", "-inf", "1e+999", "1_0.5", "\u0661.\u0665", "0.\u0665", "+0.5", " 0.5", "0.5 ", ".5", ""],
)
@pytest.mark.parametrize(
    "suffix, field",
    [("rules", 0), ("rules", 2), ("scored", 0), ("scored", 2), ("scored", 5), ("scored", 7)],
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
        ({6: "2.0"}, r"p_star must lie in \[0, 1\]"),
        ({3: "9" * 4299 + "8", 4: "9" * 4300},
         r"never_separated 9{32}\.\.\. \(4300 characters\) exceeds related 9{32}\.\.\. \(4300 characters\)$"),
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
        assert all(rule.consequence in T1_REGISTRY.action_set for rule, _ in records)
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


def with_period_line(text):
    """The t1 thread's bytes with its first period line (file line 8) replaced."""
    lines = ARTIFACTS["thread"].decode().split("\n")
    lines[7] = text
    return "\n".join(lines).encode()


# Tokens load_thread must refuse; "\u00b2" is a digit to str.isdigit().
BAD_TOKENS = ["x", "\u0661", "\u00b2", "+1", "-1", "1_0", "1.0", "0x1", "9" * 4301]


@settings(max_examples=200, deadline=None)
@given(corpus=corpora(), data=st.data())
def test_respelled_period_tokens_load_the_same_worlds_or_name_the_bad_line(
    tmp_path_factory, corpus, data
):
    # Each id is spelled once or twice, with up to two leading zeros, in any
    # order and between any whitespace.  At most one bad token is planted: an
    # id past the atoms or a text that is no integer.  However the tokens
    # before it were checked, the load must name its line and its text.
    thread, registry = corpus
    n = len(registry)
    lines = joined(format_thread(thread, registry, PARAMS)).split("\n")
    zeros = st.integers(min_value=0, max_value=2).map("0".__mul__)
    bodies = []
    for t in range(1, thread.t_max + 1):
        spellings = st.lists(zeros, min_size=1, max_size=2)
        tokens = [z + str(a) for a in sorted(thread.world(t)) for z in data.draw(spellings)]
        bodies.append(data.draw(st.permutations(tokens)))
    bad = None
    if data.draw(st.booleans()):
        t = data.draw(st.integers(min_value=1, max_value=thread.t_max))
        text = data.draw(
            st.sampled_from(BAD_TOKENS) | st.integers(min_value=n, max_value=10**30).map(str)
        )
        at = data.draw(st.integers(min_value=0, max_value=len(bodies[t - 1])))
        bodies[t - 1].insert(at, text)
        bad = 4 + n + t, text  # the file line of period t
    for lineno, tokens in enumerate(bodies, start=5 + n):
        lines[lineno - 1] = data.draw(st.sampled_from([" ", "  ", "\t", "\u3000"])).join(tokens)
    path = tmp_path_factory.mktemp("respelled") / "respelled.thread"
    path.write_text("\n".join(lines), encoding="utf-8")
    if bad is None:
        loaded, loaded_registry, _ = load_thread(path)
        assert loaded == thread
        assert registry_snapshot(loaded_registry) == registry_snapshot(registry)
        return
    lineno, text = bad
    with pytest.raises(FormatError) as raised:
        load_thread(path)
    message = str(raised.value)
    assert message.startswith(f"{path}:{lineno}: "), message[:200]
    if text in BAD_TOKENS:
        assert "period atom ids must be integers" in message and repr(text[:32]) in message
    else:
        assert message.endswith(f": period references unknown atom id {text}")


@pytest.mark.parametrize(
    "kind, edits, message",
    [
        ("rules", {(2, 3): "1_0", (3, 0): "1.5"}, "rule counts must be integers"),
        ("rules", {(2, 0): "1.5", (3, 3): "1_0"}, r"p must lie in \[0, 1\]"),
        ("scored", {(2, 8): "1_0", (3, 5): "1.5"}, "rule counts must be integers"),
        ("scored", {(2, 5): "1.5", (3, 8): "1_0"}, r"p must lie in \[0, 1\]"),
    ],
)
def test_the_first_faulty_line_names_the_diagnostic(tmp_path, kind, edits, message):
    path = tmp_path / f"two.{kind}"
    path.write_bytes(with_fields(kind, edits)[1])
    with pytest.raises(FormatError, match=rf"two\.{kind}:3: {message}"):
        load_artifact(path)


@pytest.fixture(scope="module")
def sparse_scored():
    """The sparse benchmark corpus's registry, rules and every scored rule."""
    thread, registry = sparse_benchmark_corpus()
    rules = pf_rule_extract(thread, registry, ExtractParams()).rules
    return registry, rules, pf_rule_compare(thread, rules, k=None)


def test_loaders_agree_with_the_per_line_checks_at_real_size(tmp_path, sparse_scored):
    # The sparse benchmark corpus: 12,702 rules sharing 27 statistics texts.
    registry, mined, ranked = sparse_scored
    rules_path, scored_path = tmp_path / "sparse.rules", tmp_path / "sparse.scored"
    save_rules(rules_path, mined, registry, {})
    save_scored(scored_path, ranked, registry, {})
    rules, _ = load_rules(rules_path, registry)
    records, _ = load_scored(scored_path)
    assert tuple(rules) == mined
    assert len(rules) == len(records) == 12702
    assert len({id(stats) for _, stats in rules}) == 27  # one RuleStats per statistics text


@pytest.mark.parametrize("kind", ["rules", "scored"])
def test_writers_stream_their_lines(tmp_path, sparse_scored, kind):
    # A writer that held its whole file (joined, then encoded) would peak at
    # several times the bytes it writes; one that streams holds a few lines.
    registry, rules, ranked = sparse_scored
    path = tmp_path / f"sparse.{kind}"
    save, records = (save_rules, rules) if kind == "rules" else (save_scored, ranked)
    tracemalloc.start()
    try:
        save(path, records, registry, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4, (peak, path.stat().st_size)


@pytest.mark.parametrize(
    "text, world",
    [("0\u30001", {0, 1}), ("1 1", {1}), ("\u2003", set()), (" 2\t0 ", {0, 2}), ("01 2", {1, 2}),
     ("02 2 002", {2})],
)
def test_period_lines_split_on_any_whitespace(tmp_path, text, world):
    path = tmp_path / "t.thread"
    path.write_bytes(with_period_line(text))
    thread, _, _ = load_thread(path)
    assert thread.world(1) == world


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
    assert list(format_counts(counts, {"window": "4"})) == [
        "aptmine-counts v1",
        "params\twindow=4",
        "armedAtk\tIraq\t1 3 1",
        "armedAtk\tTotal\t1 3 1",
    ]

    rejects = [Reject(7, "unparseable date", "June\t8th\nish")]
    assert list(format_rejects(rejects, {})) == [
        "aptmine-rejects v1",
        "params",
        "7\tunparseable date\tJune 8th ish",
    ]


def test_rejects_keep_one_record_per_line():
    # The tab, then every line boundary str.splitlines() recognises.
    separators = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    rejects = [Reject(n, "reserved character", f"bomb{ch}x") for n, ch in enumerate(separators, start=2)]
    lines = joined(format_rejects(rejects, {})).splitlines()
    assert len(lines) == 2 + len(rejects)
    assert lines[2:] == [f"{n}\treserved character\tbomb x" for n in range(2, 2 + len(separators))]


def test_write_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    foreign = tmp_path / "out.txt.tmp"  # another run's temp file
    foreign.write_text("not ours\n")
    write_atomic(target, ["first"])
    write_atomic(target, ["second"])
    assert target.read_text() == "second\n"
    assert foreign.read_text() == "not ours\n"
    assert sorted(tmp_path.iterdir()) == [target, foreign]
    assert target.stat().st_mode == foreign.stat().st_mode  # the umask applies as to a plain write


def test_write_atomic_removes_its_temp_file_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        write_atomic(target, ["\ud800"])  # a lone surrogate cannot be encoded
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fault", ["raise", "surrogate"])
def test_a_stream_that_fails_midway_leaves_the_target_as_it_was(tmp_path, fault):
    target = tmp_path / "out.txt"
    target.write_bytes(b"before\n")

    def lines():
        yield from (f"line {n}" for n in range(10_000))  # past the write buffer
        if fault == "raise":
            raise RuntimeError("the stream broke")
        yield "\ud800"  # a lone surrogate cannot be encoded
        yield "never written"

    with pytest.raises(RuntimeError if fault == "raise" else UnicodeEncodeError):
        write_atomic(target, lines())
    assert target.read_bytes() == b"before\n"
    assert list(tmp_path.iterdir()) == [target]


def test_write_atomic_refuses_a_bare_str(tmp_path):
    with pytest.raises(TypeError, match="not a str"):
        write_atomic(tmp_path / "out.txt", "text")  # would be written one character per line
    assert list(tmp_path.iterdir()) == []
