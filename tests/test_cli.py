"""End-to-end command line tests, run through the real subprocess boundary."""

import re
import subprocess
import sys

import pytest

from aptmine import ExtractParams, pf_rule_extract, save_rules, save_thread, t1_corpus
from aptmine.formats import RULES_MAGIC, SCORED_MAGIC, THREAD_MAGIC


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "aptmine", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def t1_thread(tmp_path):
    thread, registry = t1_corpus()
    path = tmp_path / "t1.thread"
    save_thread(path, thread, registry, {"case": "t1"})
    return path


def test_version_flag():
    result = run("--version")
    assert result.returncode == 0
    assert "aptmine" in result.stdout


def test_usage_errors_exit_two(tmp_path):
    assert run().returncode == 2
    assert run("mine", tmp_path / "x.thread", "--out", tmp_path / "o", "--supp-lb", "0").returncode == 2
    assert run("mine", tmp_path / "x.thread", "--out", tmp_path / "o", "--max-dim", "0").returncode == 2
    assert run("compare", "r", "t", "--out", "o", "--k", "0").returncode == 2
    assert run("synth", "--out", "o", "--plant", "nonsense").returncode == 2
    assert run("ingest", tmp_path / "e.csv", "--out", "o").returncode == 2  # missing required flags


def test_mine_compare_report_on_the_worked_example(t1_thread, tmp_path):
    rules_path = tmp_path / "t1.rules"
    result = run("mine", t1_thread, "--out", rules_path, "--max-dim", "2", "--supp-lb", "1")
    assert result.returncode == 0, result.stderr
    assert "extracted 3 rules" in result.stdout
    lines = rules_path.read_text().splitlines()
    assert lines[0] == RULES_MAGIC
    assert len(lines) == 2 + 3

    scored_path = tmp_path / "t1.scored"
    result = run("compare", rules_path, t1_thread, "--out", scored_path, "--k", "1")
    assert result.returncode == 0, result.stderr
    assert "scored 1 rules in 1 consequence group(s)" in result.stdout
    body = scored_path.read_text().splitlines()
    assert body[0] == SCORED_MAGIC
    assert len(body) == 3
    assert body[2].startswith("1.0\t")  # eps_avg of the b() rule

    result = run("report", scored_path)
    assert result.returncode == 0
    assert "consequence: g()" in result.stdout
    assert "eps_avg" in result.stdout
    assert "b()" in result.stdout

    out_path = tmp_path / "report.txt"
    result = run("report", scored_path, "--out", out_path)
    assert result.returncode == 0
    assert "b()" in out_path.read_text()


def test_compare_k_all_keeps_unscored(t1_thread, tmp_path):
    thread, registry = t1_corpus()
    report = pf_rule_extract(thread, registry, ExtractParams())
    rules_path = tmp_path / "narrow.rules"
    save_rules(rules_path, report.rules, registry, {})
    scored_path = tmp_path / "narrow.scored"
    result = run("compare", rules_path, t1_thread, "--out", scored_path, "--k", "all")
    assert result.returncode == 0, result.stderr
    assert "na\tna\tna" in scored_path.read_text()  # single rule per group: unscored


def test_synth_mine_compare_pipeline(tmp_path):
    thread_path = tmp_path / "synth.thread"
    result = run(
        "synth", "--out", thread_path, "--seed", "4", "--n-env", "10", "--t-max", "120",
        "--density", "0.1", "--plant", "0:0.9:20",
    )
    assert result.returncode == 0, result.stderr
    assert thread_path.read_text().startswith(THREAD_MAGIC)

    rules_path = tmp_path / "synth.rules"
    result = run(
        "mine", thread_path, "--out", rules_path,
        "--max-dim", "3", "--supp-lb", "5", "--min-prob", "0.35",
    )
    assert result.returncode == 0, result.stderr

    scored_path = tmp_path / "synth.scored"
    result = run("compare", rules_path, thread_path, "--out", scored_path)
    assert result.returncode == 0, result.stderr

    result = run("report", scored_path)
    assert result.returncode == 0
    assert "consequence: act(g0)" in result.stdout


def test_synth_is_deterministic(tmp_path):
    args = ("--seed", "9", "--n-env", "6", "--t-max", "30", "--plant", "0,1:0.8:6")
    first = tmp_path / "a.thread"
    second = tmp_path / "b.thread"
    assert run("synth", "--out", first, *args).returncode == 0
    assert run("synth", "--out", second, *args).returncode == 0
    assert first.read_bytes() == second.read_bytes()


def test_ingest_writes_thread_rejects_and_counts(tmp_path):
    events = tmp_path / "events.csv"
    rows = ["date,predicate,arg1,arg2,actor"]
    epoch_days = {0: 1, 7: 3, 14: 1, 21: 3, 28: 8}
    import datetime as dt

    for offset, n in epoch_days.items():
        date = (dt.date(2014, 6, 8) + dt.timedelta(days=offset)).isoformat()
        rows.extend(f"{date},armedAtk,ISIS,Mosul,ISIS" for _ in range(n))
    rows.append("June 8,armedAtk,ISIS,Mosul,ISIS")  # unparseable date
    rows.append("2014-06-09,armedAtk,ISIS,Atlantis,ISIS")  # unmapped location
    events.write_text("\n".join(rows) + "\n")
    locations = tmp_path / "locations.csv"
    locations.write_text("Mosul,Iraq\n")

    thread_path = tmp_path / "events.thread"
    counts_path = tmp_path / "events.counts"
    result = run(
        "ingest", events, "--location-map", locations, "--epoch", "2014-06-08",
        "--out", thread_path, "--emit-counts", counts_path,
    )
    assert result.returncode == 0, result.stderr
    assert "2 reject(s)" in result.stdout

    thread_text = thread_path.read_text()
    assert thread_text.startswith(THREAD_MAGIC)
    assert "armedAtkSpike\tIraq\t2sigma" in thread_text
    assert "1 3 1 3 8" in counts_path.read_text()

    rejects_text = (tmp_path / "events.thread.rejects").read_text()
    assert "unparseable date" in rejects_text
    assert "unmapped location" in rejects_text

    nan_path = tmp_path / "nan.thread"
    result = run(
        "ingest", events, "--location-map", locations, "--epoch", "2014-06-08",
        "--out", nan_path, "--thresholds", "nan",
    )
    assert result.returncode == 1 and "finite" in result.stderr and not nan_path.exists()


@pytest.mark.parametrize(
    "events, locations, message",
    [
        (b"date,predicate,arg1,arg2,actor\n", b"Mosul,Iraq\nRaqqa\n", r"locations\.csv:2: expected city,theater"),
        (b"date,predicate,arg1,arg2,actor\n", b"Mosul,Iraq\nRaqqa,Narnia\n", r"locations\.csv:2: theater must"),
        (b"date,predicate,arg1,arg2,actor\n", b"Mosul,Iraq\n\nMosul,Syria\n", r"locations\.csv:3: conflicting"),
        (b"date,predicate,arg1,arg2,actor\n", b'"Mos\nul",Iraq\nRaqqa,Narnia\n', r"locations\.csv:3: theater must"),
        (b"date,predicate,arg1,arg2,actor\n", b"Mosul,Iraq\nMos\xffl,Iraq\n", r"locations\.csv:2: not valid UTF-8"),
        (b"when,what\n", b"Mosul,Iraq\n", r"events\.csv:1: bad header"),
        (b"", b"Mosul,Iraq\n", r"events\.csv:1: event file is empty"),
        (b"date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mos\xe9l,,\n", b"Mosul,Iraq\n",
         r"events\.csv:2: not valid UTF-8"),
        (b"date,predicate,arg1,arg2,actor\n2014-06-08,recon," + b"x" * 140_000 + b",,\n",
         b"Mosul,Iraq\n", r"events\.csv:2: field larger than field limit"),
        (b"date,predicate,arg1,arg2,actor\n", b"x" * 140_000 + b",Iraq\n",
         r"locations\.csv:1: field larger than field limit"),
    ],
    ids=["map-fields", "map-theater", "map-conflict", "map-quoted-newline", "map-utf8", "header", "empty", "events-utf8",
         "events-long-field", "map-long-field"],
)
def test_ingest_diagnostics_name_the_file_and_line(tmp_path, events, locations, message):
    (tmp_path / "events.csv").write_bytes(events)
    (tmp_path / "locations.csv").write_bytes(locations)
    out = tmp_path / "never.thread"
    result = run(
        "ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
        "--epoch", "2014-06-08", "--out", out,
    )
    assert result.returncode == 1
    assert re.search(rf"^error: \S*{message}", result.stderr), result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "date, flags",
    [("2014-06-08", ["--epoch", "2014-06-08", "--period-days", "10000000"]),
     ("9999-12-30", ["--epoch", "9999-12-30"])],
    ids=["huge-period", "last-dates"],
)
def test_ingest_survives_dates_near_the_calendar_end(tmp_path, date, flags):
    (tmp_path / "events.csv").write_text(f"date,predicate,arg1,arg2,actor\n{date},recon,Mosul,,\n")
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    out = tmp_path / "events.thread"
    result = run("ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                 *flags, "--out", out)
    assert result.returncode == 0, result.stderr
    assert "into 1 periods" in result.stdout
    assert out.read_text().startswith(THREAD_MAGIC)


def test_ingest_rejects_name_the_line_their_row_starts_on(tmp_path):
    (tmp_path / "events.csv").write_text(
        'date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mosul,,"ISIS\nfighters"\n'
        "bad-date,recon,Mosul,,x\n2014-06-09,recon,Atlantis,,x\n"
    )
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    out = tmp_path / "events.thread"
    result = run("ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                 "--epoch", "2014-06-08", "--out", out)
    assert result.returncode == 0, result.stderr
    records = (tmp_path / "events.thread.rejects").read_text().splitlines()[2:]
    assert records == ["4\tunparseable date\tbad-date", "5\tunmapped location\tAtlantis"]


@pytest.mark.parametrize("flag", ["--rejects", "--emit-counts"])
def test_failed_ingest_write_leaves_no_outputs(tmp_path, flag):
    (tmp_path / "events.csv").write_text("date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mosul,,\n")
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    target = tmp_path / "nodir" / "never.txt"
    result = run("ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                 "--epoch", "2014-06-08", "--out", tmp_path / "never.thread", flag, target)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and f"{target}'" in result.stderr, result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "locations.csv"]


def test_ingest_rejects_predicates_named_like_spike_atoms(tmp_path):
    (tmp_path / "events.csv").write_text(
        "date,predicate,arg1,arg2,actor\n"
        + "".join(f"2014-06-{day:02},armedAtk,Mosul,,x\n" for day in (8, 15))
        + "2014-06-15,armedAtkSpike,Iraq,1sigma,x\n"
        + "2014-06-15,armedAtkSpike,Mosul,,x\n"
    )
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    for flags in (["--spike-series", "armedAtk"], []):
        out = tmp_path / "events.thread"
        result = run("ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                     "--epoch", "2014-06-08", "--out", out, *flags)
        assert result.returncode == 0, result.stderr
        assert "armedAtkSpike" not in out.read_text()
        records = (tmp_path / "events.thread.rejects").read_text().splitlines()[2:]
        assert records == ["4\treserved predicate\tarmedAtkSpike", "5\treserved predicate\tarmedAtkSpike"]


def test_ingest_rejects_unknown_spike_series(tmp_path):
    (tmp_path / "events.csv").write_text("date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mosul,,\n")
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    out = tmp_path / "never.thread"
    result = run("ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                 "--epoch", "2014-06-08", "--out", out, "--spike-series", "recon,nosuch",
                 "--emit-counts", tmp_path / "never.counts")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "nosuch" in result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "locations.csv"]


@pytest.mark.parametrize("epoch", ["20140608", "2014-W23-1"])
def test_ingest_epoch_must_be_year_month_day(tmp_path, epoch):
    out = tmp_path / "never.thread"
    result = run("ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                 "--epoch", epoch, "--out", out)
    assert result.returncode == 2
    assert "expected YYYY-MM-DD" in result.stderr
    assert not out.exists()


def test_compare_rejects_repeated_and_non_action_rules(t1_thread, tmp_path):
    rules_path = tmp_path / "t1.rules"
    assert run("mine", t1_thread, "--out", rules_path, "--max-dim", "2", "--supp-lb", "1").returncode == 0
    lines = rules_path.read_text().splitlines()
    fields = lines[2].split("\t")
    fields[4] = "b()"  # an environmental atom of t1, not an action atom
    for body, message in (
        ([*lines[2:], lines[3]], "t1.rules:6: duplicate rule, first on line 4"),
        (["\t".join(fields), *lines[3:]], "t1.rules:3: consequence b() is not an action atom"),
    ):
        rules_path.write_text("\n".join([*lines[:2], *body]) + "\n")
        result = run("compare", rules_path, t1_thread, "--out", tmp_path / "never.scored")
        assert result.returncode == 1
        assert message in result.stderr
        assert not (tmp_path / "never.scored").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["mine", "T", "--out", "T"], "--out T is the same file as thread T"),
        (["compare", "R", "T", "--out", "R"], "--out R is the same file as rules R"),
        (["compare", "R", "T", "--out", "T"], "--out T is the same file as thread T"),
        (["ingest", "E", "--location-map", "M", "--epoch", "2014-06-08", "--out", "E"],
         "--out E is the same file as events E"),
        (["ingest", "E", "--location-map", "M", "--epoch", "2014-06-08", "--out", "O",
          "--emit-counts", "O"], "--emit-counts O is the same file as --out O"),
        (["ingest", "E", "--location-map", "M", "--epoch", "2014-06-08", "--out", "O",
          "--rejects", "O"], "--rejects O is the same file as --out O"),
        (["report", "S", "--out", "S"], "--out S is the same file as scored S"),
    ],
    ids=["mine", "compare-rules", "compare-thread", "ingest-events", "counts-out", "rejects-out",
         "report"],
)
def test_outputs_may_not_overwrite_inputs_or_each_other(t1_thread, tmp_path, args, message):
    files = {"T": t1_thread, "R": tmp_path / "t1.rules", "S": tmp_path / "t1.scored",
             "E": tmp_path / "events.csv", "M": tmp_path / "locations.csv", "O": tmp_path / "o.thread"}
    assert run("mine", t1_thread, "--out", files["R"], "--max-dim", "2", "--supp-lb", "1").returncode == 0
    assert run("compare", files["R"], t1_thread, "--out", files["S"]).returncode == 0
    files["E"].write_text("date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mosul,,\n")
    files["M"].write_text("Mosul,Iraq\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    result = run(*(files.get(arg, arg) for arg in args))
    assert result.returncode == 1
    # The two sides name their files as given on the command line.
    for name, path in files.items():
        message = message.replace(f" {name}", f" {path}")
    assert message in result.stderr, result.stderr
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_missing_input_exits_one_without_partial_output(tmp_path):
    out = tmp_path / "never.rules"
    result = run("mine", tmp_path / "missing.thread", "--out", out)
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_malformed_thread_exits_one(tmp_path):
    bad = tmp_path / "bad.thread"
    bad.write_text("not a thread file\n")
    out = tmp_path / "never.rules"
    result = run("mine", bad, "--out", out)
    assert result.returncode == 1
    assert "expected first line" in result.stderr
    assert not out.exists()


def test_semantic_validation_exits_one(tmp_path):
    result = run("synth", "--out", tmp_path / "x.thread", "--plant", "0:1.5:5")
    assert result.returncode == 1
    assert "fire_prob" in result.stderr
    assert not (tmp_path / "x.thread").exists()


def test_report_on_an_empty_scored_file(tmp_path):
    from aptmine import save_scored, AtomRegistry

    path = tmp_path / "empty.scored"
    registry = AtomRegistry()
    registry.freeze()
    save_scored(path, {}, registry, {"k": "all"})
    result = run("report", path)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0].startswith("No.")


def test_report_rejects_a_scored_file_with_bad_numbers(t1_thread, tmp_path):
    rules_path, scored_path = tmp_path / "t1.rules", tmp_path / "t1.scored"
    assert run("mine", t1_thread, "--out", rules_path, "--max-dim", "2", "--supp-lb", "1").returncode == 0
    assert run("compare", rules_path, t1_thread, "--out", scored_path, "--k", "all").returncode == 0
    lines = scored_path.read_text().splitlines()
    out = tmp_path / "report.txt"
    for field, text in ((0, "nan"), (5, "1.5"), (0, "1_0.5"), (4, "7")):
        fields = lines[2].split("\t")
        fields[field] = text
        scored_path.write_text("\n".join([*lines[:2], "\t".join(fields), *lines[3:]]) + "\n")
        result = run("report", scored_path, "--out", out)
        assert result.returncode == 1, text
        assert "t1.scored:3:" in result.stderr
        assert not out.exists()


def test_cli_import_leaves_numpy_unloaded():
    # Only compare scores; ingest, mine and report should not pay for numpy.
    code = "import sys, aptmine.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
