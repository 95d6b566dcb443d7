"""End-to-end command line tests, run through the real subprocess boundary."""

import datetime as dt
import io
import operator
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import corpora
from hypothesis import assume, given, settings, strategies as st
from test_oracle import MAP_TEXT, event_csvs

from aptmine import (
    ExtractParams,
    cli,
    pf_rule_compare,
    pf_rule_extract,
    save_rules,
    save_scored,
    save_thread,
    t1_corpus,
)
from aptmine.formats import (
    REJECTS_MAGIC,
    RULES_MAGIC,
    SCORED_MAGIC,
    THREAD_MAGIC,
    _named,
    _read_lines,
    load_rules,
    load_scored,
    load_thread,
)


def run(*args, text=True):
    return subprocess.run(
        [sys.executable, "-m", "aptmine", *map(str, args)],
        capture_output=True,
        text=text,
    )


def run_in_process(*args):
    """(exit code, stdout, stderr) of cli.main on the args; argparse's exit gives its code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(list(map(str, args)))
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


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
    assert out_path.read_bytes() == run("report", scored_path, text=False).stdout


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
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert re.search(rf"^error: \S*{message}", result.stderr), result.stderr
    assert not out.exists()


def test_an_ingest_left_with_only_unmapped_rows_names_the_location_map(tmp_path):
    (tmp_path / "events.csv").write_text("date,predicate,arg1,arg2,actor\n"
                                         "2014-06-08,recon,Mosul,,\n2014-06-09,recon,Raqqa,,\n")
    (tmp_path / "locations.csv").write_text("Baghdad,Iraq\n")
    out = tmp_path / "never.thread"
    result = run(
        "ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
        "--epoch", "2014-06-08", "--out", out,
    )
    assert result.returncode == 1
    assert result.stderr == (
        f"error: {_named(tmp_path / 'events.csv')}: all 2 rows rejected; first: line 2, unmapped location "
        f"Mosul, not in --location-map {_named(tmp_path / 'locations.csv')}\n"
    )
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


def weekly_bombings(tmp_path):
    """A weekly bombing series in Mosul whose ninth week spikes, plus its location map."""
    counts = [1, 1, 1, 1, 1, 1, 1, 1, 6, 1, 1, 1]
    epoch = dt.date(2014, 6, 8)
    dates = [epoch + dt.timedelta(weeks=week) for week, n in enumerate(counts) for _ in range(n)]
    (tmp_path / "events.csv").write_text(
        "date,predicate,arg1,arg2,actor\n" + "".join(f"{d},bombing,Mosul,,x\n" for d in dates)
    )
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    return ["ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
            "--epoch", "2014-06-08"]


def test_ingest_rejects_thresholds_that_share_a_sigma_label(tmp_path):
    result = run(*weekly_bombings(tmp_path), "--out", tmp_path / "never.thread",
                 "--thresholds", "1.0000001,1.0000002")
    assert result.returncode == 1
    assert "thresholds 1.0000001 and 1.0000002 both render as 1sigma" in result.stderr, result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "locations.csv"]


@pytest.mark.parametrize("series", ["", ",", " , "])
def test_ingest_spike_series_must_name_a_predicate(tmp_path, series):
    result = run(*weekly_bombings(tmp_path), "--out", tmp_path / "never.thread", "--spike-series", series)
    assert result.returncode == 1
    assert result.stderr == "error: spike_series must name at least one predicate\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "locations.csv"]


def test_ingest_records_the_parsed_spike_series(tmp_path):
    ingest = weekly_bombings(tmp_path)
    out = tmp_path / "events.thread"
    texts = []
    for series in ("bombing", "bombing,,bombing", "bombing, bombing "):
        result = run(*ingest, "--out", out, "--spike-series", series)
        assert result.returncode == 0, result.stderr
        texts.append(out.read_text())
    assert len(set(texts)) == 1
    assert "\tspike_series=bombing\n" in texts[0]
    assert "bombingSpike\tIraq\t1sigma" in texts[0]

    with (tmp_path / "events.csv").open("a") as events:
        events.write("2014-06-08,recon,Mosul,,x\n")
    result = run(*ingest, "--out", out, "--spike-series", "bombing, recon")
    assert result.returncode == 0, result.stderr
    assert "\tspike_series=bombing,recon\n" in out.read_text()


def test_ingest_lists_build_rejects_by_line(tmp_path):
    # recon(Mosul) on line 3 is interned first (period 1); lines 4 and 2
    # conflict with its arity in period order, but are listed by line.
    (tmp_path / "events.csv").write_text(
        "date,predicate,arg1,arg2,actor\n2014-06-22,recon,X,Mosul,a\n"
        "2014-06-08,recon,Mosul,,a\n2014-06-15,recon,Y,Mosul,a\n"
    )
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    out = tmp_path / "events.thread"
    result = run("ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                 "--epoch", "2014-06-08", "--out", out)
    assert result.returncode == 0, result.stderr
    records = (tmp_path / "events.thread.rejects").read_text().splitlines()[2:]
    assert [record.split("\t")[:2] for record in records] == [
        ["2", "uninternable atom"], ["4", "uninternable atom"]
    ]


@pytest.mark.parametrize(
    "rows, message",
    [
        ("2014-06-01,recon,Mosul,,x\n2014-05-01,recon,Mosul,,x\n",
         "all 2 rows rejected; first: line 2, date before epoch 2014-06-01"),
        ("2014-02-30,recon,Mosul,,x\n\nJune 9,recon,Mosul,,x\n2014-06-07,recon,Mosul,,x\n",
         "all 3 rows rejected; first: line 2, unparseable date 2014-02-30"),
        ('2014-06-09,recon,"Mos\nul",x\n',
         "all 1 rows rejected; first: line 2, wrong field count 2014-06-09,recon,Mos ul,x"),
        ("", "the file has no event rows"),
        ("D" * 100 + ",recon,Mosul,,x\n",
         "all 1 rows rejected; first: line 2, unparseable date " + "D" * 32 + "... (100 characters)"),
    ],
    ids=["before-epoch", "mixed-reasons", "quoted-newline", "header-only", "long-detail"],
)
def test_ingest_says_why_every_row_was_rejected(tmp_path, rows, message):
    events = tmp_path / "events.csv"
    events.write_text("date,predicate,arg1,arg2,actor\n" + rows)
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    out = tmp_path / "never.thread"
    result = run("ingest", events, "--location-map", tmp_path / "locations.csv",
                 "--epoch", "2014-06-08", "--out", out)
    assert result.returncode == 1
    assert result.stderr == f"error: {events}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "locations.csv"]


@pytest.mark.parametrize("epoch", ["20140608", "2014-W23-1"])
def test_ingest_epoch_must_be_year_month_day(tmp_path, epoch):
    out = tmp_path / "never.thread"
    result = run("ingest", tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                 "--epoch", epoch, "--out", out)
    assert result.returncode == 2
    assert "expected YYYY-MM-DD" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("mine", flag) for flag in ("--max-dim", "--supp-lb", "--min-prob")]
    + [("compare", "--k")]
    + [("ingest", flag) for flag in ("--period-days", "--window", "--epoch", "--thresholds", "--spike-series")]
    + [("synth", flag) for flag in ("--seed", "--n-env", "--t-max", "--density", "--plant")],
)
def test_a_long_flag_value_is_quoted_briefly(tmp_path, command, flag):
    (tmp_path / "events.csv").write_text("date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mosul,,\n")
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    inputs = {
        "mine": [tmp_path / "in.thread"],
        "compare": [tmp_path / "in.rules", tmp_path / "in.thread"],
        "ingest": [tmp_path / "events.csv", "--location-map", tmp_path / "locations.csv",
                   "--epoch", "2014-06-08"],
        "synth": [],
    }[command]
    out = tmp_path / "never.out"
    result = run(command, *inputs, "--out", out, flag, "x" * 5000)
    assert result.returncode == (1 if flag == "--spike-series" else 2), result.stderr[-300:]
    # argparse prints its usage text first; the diagnostic is the last line.
    last = result.stderr.splitlines()[-1]
    assert flag.lstrip("-") in last.replace("_", "-") and len(last.encode()) <= 200, last[:300]
    assert not out.exists()


@pytest.mark.parametrize("length", [32, 5000])
@pytest.mark.parametrize(
    "case",
    ["unrecognized-argument", "invalid-choice", "unknown-flag", "long-output-path", "output-is-input"],
)
def test_a_long_argument_is_quoted_briefly(t1_thread, tmp_path, case, length):
    # The argument is `length` characters long; a path holds it as one part.
    token = "x" * length
    long_path = tmp_path / token
    args = {
        "unrecognized-argument": ["mine", t1_thread, "--out", tmp_path / "o.rules", token],
        "invalid-choice": [token],
        "unknown-flag": ["mine", t1_thread, "--out", tmp_path / "o.rules", f"--bogus-{token[8:]}"],
        "long-output-path": ["mine", t1_thread, "--out", long_path / "y"],
        "output-is-input": ["report", long_path, "--out", long_path],
    }[case]
    result = run(*args)
    assert result.returncode in (1, 2), result.stderr[-300:]
    last = result.stderr.splitlines()[-1]
    assert len(last.encode()) <= 300, last[:300]
    # Named whole when short, as argparse and OSError name it (a path of up to
    # 120 bytes counts as short); clipped with its length when long.
    assert (token[8:] in last and "characters)" not in last) == (length == 32), last
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t1.thread"]


# A long or odd argument: a short text of any characters, or a short piece of
# one repeated up to 10,000 characters.
TOKENS = st.text(max_size=40) | st.builds(
    operator.mul, st.text(min_size=1, max_size=4), st.integers(min_value=9, max_value=2500)
)
# Flags whose values are parsed before any file is read.  synth's --n-env and
# --t-max are left out: a valid huge value would make synth run for long.
FLAGS = (
    [("mine", flag) for flag in ("--max-dim", "--supp-lb", "--min-prob")]
    + [("compare", "--k")]
    + [("ingest", flag) for flag in ("--period-days", "--window", "--epoch", "--thresholds", "--spike-series")]
    + [("synth", flag) for flag in ("--seed", "--density", "--plant")]
)


@pytest.fixture(scope="module")
def token_dir(tmp_path_factory):
    """A directory holding the t1 thread, beside which nothing is ever written."""
    path = tmp_path_factory.mktemp("tokens")
    thread, registry = t1_corpus()
    save_thread(path / "t1.thread", thread, registry, {"case": "t1"})
    return path


@settings(deadline=None)
@given(token=TOKENS, place=st.sampled_from(["flag-value", "positional", "unknown-flag", "output-path"]),
       data=st.data())
def test_a_drawn_argument_fails_with_a_short_diagnostic(token_dir, token, place, data):
    # Every command fails: its inputs are missing, or it writes under a missing
    # directory.  So a valid token still exits 1, and nothing is ever written.
    thread, missing = token_dir / "t1.thread", token_dir / "missing"
    inputs = {
        "mine": [missing / "in.thread"],
        "compare": [missing / "in.rules", missing / "in.thread"],
        "ingest": [missing / "events.csv", "--location-map", missing / "map.csv", "--epoch", "2014-06-08"],
        "synth": [],
    }
    out = ["--out", missing / "never.out"]
    if place == "flag-value":
        command, flag = data.draw(st.sampled_from(FLAGS))
        args = [command, *inputs[command], *out, f"{flag}={token}"]
    elif place == "positional":
        slot = data.draw(st.sampled_from(["command", "input", "extra"]))
        assume(slot != "command" or not token.startswith("-"))  # that would be a flag
        args = {"command": [token], "input": ["mine", *out, "--", token],
                "extra": ["mine", thread, *out, "--", token]}[slot]
    elif place == "unknown-flag":
        args = ["mine", thread, *out, f"--bogus-{token}"]
    else:  # joined as text: a token "/x" must not make the path absolute
        args = ["mine", thread, "--out", f"{missing}/{token}/y", "--max-dim", "1"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(list(map(str, args)))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (1, 2), stderr.getvalue()[-300:]
    last = stderr.getvalue().rstrip("\n").split("\n")[-1]
    assert last and len(last.encode()) <= 300, last[:300]
    assert sorted(p.name for p in token_dir.iterdir()) == ["t1.thread"]


def test_two_clipped_paths_fit_one_line(tmp_path, monkeypatch):
    # A clipped path takes at most 120 bytes, its length included, even when
    # each character takes four.
    monkeypatch.chdir(tmp_path)
    path = "\U0001F600" * 40
    code, _, stderr = run_in_process("report", path, "--out", path)
    assert code == 1
    assert stderr.count("\n") == 1 and len(stderr.encode()) <= 300, stderr
    assert stderr.count("... (40 characters)") == 2, stderr
    assert list(tmp_path.iterdir()) == []


def test_a_section_header_is_quoted_once(t1_thread, tmp_path, monkeypatch):
    lines = t1_thread.read_text().splitlines()
    lines[2] = "atoms\t" + "\U0001F600" * 40
    monkeypatch.chdir(tmp_path)
    Path("t.thread").write_text("\n".join(lines) + "\n")
    code, _, stderr = run_in_process("mine", "t.thread", "--out", "never.rules")
    assert code == 1
    assert stderr.startswith("error: t.thread:3: malformed section header 'atoms\\t"), stderr
    assert stderr.count("\n") == 1 and len(stderr.encode()) <= 300, stderr
    assert stderr.count("\U0001F600") < 32, stderr  # its count is not quoted again
    assert not Path("never.rules").exists()


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_a_long_plant_count_is_quoted_briefly(tmp_path, sign):
    out = tmp_path / "never.thread"
    code, _, stderr = run_in_process("synth", "--out", out, "--plant", f"0:0.5:{sign}{'9' * 4000}")
    assert code == 1, stderr[-300:]
    last = stderr.rstrip("\n").split("\n")[-1]
    assert "characters)" in last and len(last.encode()) <= 300, last[:300]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["thread", "rules", "scored", "events", "location-map", "bad-utf-8"])
def test_a_long_input_path_is_named_briefly(t1_thread, tmp_path, kind):
    # About 3,000 characters, in nested directories: each name stays under NAME_MAX.
    deep = tmp_path.joinpath(*(f"{i:02d}" + "d" * 98 for i in range(29)))
    deep.mkdir(parents=True)
    (tmp_path / "events.csv").write_text("date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mosul,,\n")
    (tmp_path / "locations.csv").write_text("Mosul,Iraq\n")
    bad = deep / "input"
    bad.write_bytes(b"\xff\n" if kind == "bad-utf-8" else b"not,an,artifact\n")
    ingest = ["--epoch", "2014-06-08"]
    args = {
        "thread": ["mine", bad],
        "rules": ["compare", bad, t1_thread],
        "scored": ["report", bad],
        "events": ["ingest", bad, "--location-map", tmp_path / "locations.csv", *ingest],
        "location-map": ["ingest", tmp_path / "events.csv", "--location-map", bad, *ingest],
        "bad-utf-8": ["mine", bad],
    }[kind]
    out = tmp_path / "never.out"
    result = run(*args, "--out", out)
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) <= 300, result.stderr[:300]
    assert result.stderr.startswith(f"error: {_named(bad)}:1: "), result.stderr[:300]
    assert not out.exists()


@pytest.mark.parametrize(
    "kind", ["unknown-atom", "malformed-rule-line", "reserved-character", "arity-conflict"]
)
def test_a_diagnostic_under_a_120_byte_path_fits_one_line(t1_thread, tmp_path, kind):
    # The path shows whole, and a quoted text of 40 four-byte characters is
    # clipped so that the line still takes at most 300 bytes.
    text = "\U0001F600" * 40
    suffix = "/x.rules" if kind in ("unknown-atom", "malformed-rule-line") else "/x.thread"
    bad = Path(str(tmp_path / "d") + "d" * (120 - len(str(tmp_path / "d")) - len(suffix)) + suffix)
    bad.parent.mkdir()
    assert len(str(bad).encode()) == 120
    if kind in ("unknown-atom", "malformed-rule-line"):
        thread, registry = t1_corpus()
        rules = pf_rule_extract(thread, registry, ExtractParams()).rules
        save_rules(bad, rules, registry, {})
        head, first, *_ = bad.read_text().split("\n")[1:]
        line = first.rsplit("\t", 1)[0] + "\t" + text if kind == "unknown-atom" else text
        bad.write_text(f"{RULES_MAGIC}\n{head}\n{line}\n")
        args = ["compare", bad, t1_thread]
    else:
        atoms = f"0\t({text}\t1" if kind == "reserved-character" else f"0\t{text}\t1\n1\t{text}\ta\t1"
        n_atoms = atoms.count("\n") + 1
        bad.write_text(f"{THREAD_MAGIC}\nparams\natoms\t{n_atoms}\n{atoms}\nperiods\t1\n0\n")
        args = ["mine", bad]
    out = tmp_path / "never.out"
    code, _, stderr = run_in_process(*args, "--out", out)
    assert code == 1
    assert stderr.startswith(f"error: {bad}:"), stderr
    assert stderr.count("\n") == 1 and len(stderr.encode()) <= 300, (len(stderr.encode()), stderr)
    assert "... (4" in stderr, stderr  # the text is clipped with its length
    assert not out.exists()


# A drawn fault in a valid input file.
_NUMBER = re.compile(rb"[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?")
_RESPELLINGS = [b"", b"007", b"+3", b"-1", b"1_0", "\u0663".encode(), b"1e3", b"3.0", b"nan", b"inf",
                b" 3", b"9" * 30, b"9" * 4301]
_INSERTS = [b"\x00", b"\t", b"\r", "\u0663".encode(), b"\xff"]


def _faulty(data, blob: bytes) -> bytes:
    """blob with one drawn fault: a line dropped, repeated or swapped, a cut, an
    inserted byte or character, a field grown to 10**5 characters or a respelled number."""
    fault = data.draw(st.sampled_from(["drop", "repeat", "swap", "cut", "insert", "grow", "respell"]))
    if fault in ("drop", "repeat", "swap"):
        lines = blob.split(b"\n")  # the last is the empty text after the final line break
        i = data.draw(st.integers(min_value=0, max_value=len(lines) - 2))
        lines[i : i + 2] = {"drop": lines[i + 1 : i + 2], "repeat": [lines[i], *lines[i : i + 2]],
                            "swap": lines[i : i + 2][::-1]}[fault]
        return b"\n".join(lines)
    if fault == "cut":
        return blob[: data.draw(st.integers(min_value=0, max_value=len(blob) - 1))]
    if fault == "insert":
        at = data.draw(st.integers(min_value=0, max_value=len(blob)))
        return blob[:at] + data.draw(st.sampled_from(_INSERTS)) + blob[at:]
    if fault == "grow":
        spans = [m.span() for m in re.finditer(rb"[^\t\n\r, ]+", blob)]
        start, end = data.draw(st.sampled_from(spans))
        text = blob[start:end].decode("utf-8")
        grown = (text * (10**5 // len(text) + 1))[: 10**5].encode("utf-8")
        return blob[:start] + grown + blob[end:]
    spans = [m.span() for m in _NUMBER.finditer(blob)]
    assume(spans)
    start, end = data.draw(st.sampled_from(spans))
    return blob[:start] + data.draw(st.sampled_from(_RESPELLINGS)) + blob[end:]


@settings(deadline=None, max_examples=150)
@given(kind=st.sampled_from(["thread", "rules", "scored", "events", "location-map"]), data=st.data())
def test_a_faulty_input_file_fails_with_a_short_diagnostic(tmp_path_factory, kind, data):
    directory = tmp_path_factory.mktemp("faulty")
    out = directory / "out"
    if kind in ("events", "location-map"):
        events, locations = directory / "events.csv", directory / "locations.csv"
        events.write_bytes(data.draw(event_csvs())[1])
        locations.write_text(MAP_TEXT)
        target = events if kind == "events" else locations
        args = ["ingest", events, "--location-map", locations, "--epoch", "2014-06-08"]
    else:
        thread, registry = data.draw(corpora())
        files = {name: directory / f"in.{name}" for name in ("thread", "rules", "scored")}
        save_thread(files["thread"], thread, registry, {})
        rules = pf_rule_extract(thread, registry, ExtractParams(max_dim=2, supp_lb=1, min_prob=0.25)).rules
        save_rules(files["rules"], rules, registry, {})
        save_scored(files["scored"], pf_rule_compare(thread, rules), registry, {})
        target = files[kind]
        args = {"thread": ["mine", target], "rules": ["compare", target, files["thread"]],
                "scored": ["report", target]}[kind]
    target.write_bytes(_faulty(data, target.read_bytes()))
    inputs = sorted(p.name for p in directory.iterdir())
    code, _, stderr = run_in_process(*args, "--out", out)
    assert code in (0, 1), stderr[-300:]
    if code == 1:
        assert stderr.count("\n") == 1 and len(stderr.encode()) <= 301, stderr[:300]
        named = f"error: {_named(target)}:"
        if kind in ("events", "location-map"):
            # An ingest left with no usable row names the events file, and no
            # line, whichever file held the fault.
            assert stderr.startswith((named, f"error: {_named(events)}: ")), stderr[:300]
        else:
            assert re.match(rf"{re.escape(named)}[0-9]+: ", stderr), stderr[:300]
        assert sorted(p.name for p in directory.iterdir()) == inputs
    elif kind in ("events", "location-map"):
        load_thread(out)
        _read_lines(f"{out}.rejects", REJECTS_MAGIC)
    elif kind == "thread":
        load_rules(out, load_thread(target)[1])
    elif kind == "rules":
        load_scored(out)
    else:
        assert out.read_text(encoding="utf-8").startswith("No.")


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
    "field, text",
    [(3, "9" * 4301), (0, "1" * 5000), (None, "x" * 100_000),
     (None, "\t".join(["0.5", "0.5", "0.5", "3", "g", "2", "a" * 100_000, "a" * 100_000])),
     (5, "9" * 4300)],
    ids=["support-4301-digits", "p-5000-digits", "line-100000-chars", "repeated-atom-100000-chars",
         "dimension-4300-digits"],
)
def test_compare_diagnostics_quote_long_input_briefly(t1_thread, tmp_path, field, text):
    rules_path = tmp_path / "t1.rules"
    assert run("mine", t1_thread, "--out", rules_path, "--max-dim", "2", "--supp-lb", "1").returncode == 0
    lines = rules_path.read_text().splitlines()
    fields = lines[2].split("\t")
    if field is None:
        lines[2] = text
    else:
        fields[field] = text
        lines[2] = "\t".join(fields)
    rules_path.write_text("\n".join(lines) + "\n")
    result = run("compare", rules_path, t1_thread, "--out", tmp_path / "never.scored")
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {rules_path}:3: "), result.stderr[:300]
    assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 300, result.stderr[:300]


@pytest.mark.parametrize(
    "lineno, text",
    [(8, "9" * 4300), (7, "periods\t" + "9" * 4300)],
    ids=["period-atom-4300-digits", "period-count-4300-digits"],
)
def test_mine_diagnostics_quote_long_input_briefly(t1_thread, tmp_path, lineno, text):
    lines = t1_thread.read_text().splitlines()
    lines[lineno - 1] = text
    t1_thread.write_text("\n".join(lines) + "\n")
    result = run("mine", t1_thread, "--out", tmp_path / "never.rules")
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {t1_thread}:{lineno}: "), result.stderr[:300]
    assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 300, result.stderr[:300]


@pytest.mark.parametrize(
    "edits",
    [{3: "9" * 4299 + "8", 4: "9" * 4300}, {10: "9" * 4300}],
    ids=["never-separated-4300-digits", "dimension-4300-digits"],
)
def test_report_diagnostics_quote_long_input_briefly(t1_thread, tmp_path, edits):
    rules_path, scored_path = tmp_path / "t1.rules", tmp_path / "t1.scored"
    assert run("mine", t1_thread, "--out", rules_path, "--max-dim", "2", "--supp-lb", "1").returncode == 0
    assert run("compare", rules_path, t1_thread, "--out", scored_path, "--k", "all").returncode == 0
    lines = scored_path.read_text().splitlines()
    fields = lines[2].split("\t")
    for field, text in edits.items():
        fields[field] = text
    scored_path.write_text("\n".join([*lines[:2], "\t".join(fields), *lines[3:]]) + "\n")
    result = run("report", scored_path)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {scored_path}:3: "), result.stderr[:300]
    assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 300, result.stderr[:300]


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


def test_output_that_is_a_directory_is_named_in_the_error(t1_thread, tmp_path):
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    result = run("mine", t1_thread, "--out", outdir)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and f"'{outdir}'" in result.stderr, result.stderr
    assert ".tmp" not in result.stderr and "Traceback" not in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "t1.thread"]
    assert list(outdir.iterdir()) == []


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
    out_path = tmp_path / "report.txt"
    assert run("report", path, "--out", out_path).returncode == 0
    assert out_path.read_bytes() == run("report", path, text=False).stdout


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


def modules_after(statement):
    """The modules a fresh interpreter holds after running the statement."""
    code = f"import sys; {statement}; print(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_cli_import_leaves_the_oracle_and_fractions_unloaded():
    # Only synth uses the oracle, only spike detection needs fractions (which loads decimal),
    # and only ingest reads CSV into an event table's arrays.
    assert not modules_after("import aptmine.cli") & {"aptmine.oracle", "fractions", "decimal", "csv", "array"}


def test_formats_import_loads_only_the_model_and_stats():
    # Not ingestion or causality: the codec depends on nothing above it.
    loaded = modules_after("import aptmine.formats")
    assert {m for m in loaded if m.startswith("aptmine.")} == {"aptmine.formats", "aptmine.model", "aptmine.stats"}
    assert "csv" not in loaded


def test_a_bare_package_import_loads_no_submodule():
    assert not {m for m in modules_after("import aptmine") if m.startswith("aptmine.")}


def test_every_exported_name_is_the_object_its_home_module_defines():
    import importlib

    import aptmine

    names = [name for name in aptmine.__all__ if name != "__version__"]
    # No name is listed under two modules, and none is lost.
    assert len(names) == sum(len(listed.split()) for listed in aptmine._EXPORTS.values()) == 59
    for name in names:
        home = importlib.import_module(f"aptmine.{aptmine._HOME[name]}")
        value = getattr(aptmine, name)
        assert value is getattr(home, name), name
        # A class or function is listed under the module that defines it, not one that imports it.
        assert getattr(value, "__module__", home.__name__) in (home.__name__, "builtins"), name


def test_a_star_import_binds_every_exported_name():
    import aptmine

    namespace = {}
    exec("from aptmine import *", namespace)
    assert set(aptmine.__all__) <= namespace.keys()


def test_an_unknown_package_attribute_raises_attribute_error():
    import aptmine

    with pytest.raises(AttributeError, match="no_such_name"):
        aptmine.no_such_name
    assert not hasattr(aptmine, "no_such_name")
    # A submodule name is not an export: 'from aptmine import cli' imports the submodule.
    code = "import aptmine; print(hasattr(aptmine, 'cli')); from aptmine import cli; print(cli.__name__)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "aptmine.cli"]
