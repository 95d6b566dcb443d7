"""CSV parsing, period bucketing, spike-atom construction, rejects."""

import datetime as dt
import gc
import io
import random
import sys
import tracemalloc

import pytest

from aptmine import (
    CorpusConfig,
    EmptyCorpusError,
    EventRecord,
    FormatError,
    Predicate,
    Reject,
    SpikeConfig,
    build_corpus,
    load_location_map,
    parse_events,
)
from aptmine.formats import format_thread
from aptmine.ingestion import EXPECTED_HEADER, sigma_label

EPOCH = dt.date(2014, 6, 8)
LOCATIONS = {"Mosul": "Iraq", "Falluja": "Iraq", "Raqqa": "Syria"}


def config(**overrides):
    return CorpusConfig(epoch=EPOCH, location_map=LOCATIONS, **overrides)


def events_csv(*rows):
    return io.BytesIO(("\n".join([",".join(EXPECTED_HEADER), *rows]) + "\n").encode())


def day(offset):
    return EPOCH + dt.timedelta(days=offset)


def event(offset, predicate="armedAtk", args=("ISIS", "Mosul"), line=2):
    return EventRecord(day(offset), predicate, args, line)


# ---------------------------------------------------------------- parsing


def test_parse_happy_path():
    records, rejects = parse_events(
        events_csv(
            "2014-06-08,armedAtk,ISIS,Mosul,ISIS",
            "2014-06-09,recon,Raqqa,,",
            "2014-06-10,ceasefire,,,",
        ),
    )
    assert rejects == []
    assert list(records) == [
        EventRecord(dt.date(2014, 6, 8), "armedAtk", ("ISIS", "Mosul"), 2),
        EventRecord(dt.date(2014, 6, 9), "recon", ("Raqqa",), 3),
        EventRecord(dt.date(2014, 6, 10), "ceasefire", (), 4),
    ]


def test_parse_accepts_binary_streams():
    raw = "date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mosul,,\n"
    from_binary, _ = parse_events(io.BytesIO(raw.encode()))
    from_bom, _ = parse_events(io.BytesIO(b"\xef\xbb\xbf" + raw.encode()))
    assert list(from_binary) == list(from_bom)


def test_parse_rejects_bad_header():
    with pytest.raises(FormatError, match="header"):
        parse_events(io.BytesIO(b"when,what,a,b,who\n"))
    with pytest.raises(FormatError, match="empty"):
        parse_events(io.BytesIO(b""))


def test_parse_skips_blank_lines():
    records, rejects = parse_events(
        events_csv("2014-06-08,recon,Mosul,,", "", "2014-06-09,recon,Mosul,,"),
    )
    assert len(records) == 2 and rejects == []


@pytest.mark.parametrize(
    "row, reason",
    [
        ("2014-06-08,recon,Mosul", "wrong field count"),
        ("2014-06-08,recon,Mosul,,x,extra", "wrong field count"),
        ("June 8th,recon,Mosul,,", "unparseable date"),
        ("2014-13-40,recon,Mosul,,", "unparseable date"),
        ("20140608,recon,Mosul,,", "unparseable date"),
        ("2014-W23-1,recon,Mosul,,", "unparseable date"),
        ("2014-06-08,,Mosul,,", "missing predicate"),
        ("2014-06-08,recon,,Mosul,", "gap in arguments"),
        ("2014-06-08,re(con,Mosul,,", "reserved character"),
        ("2014-06-08,armedAtkSpike,Iraq,1sigma,", "reserved predicate"),
    ],
)
def test_parse_rejects_bad_rows(row, reason):
    records, rejects = parse_events(events_csv(row))
    assert list(records) == []
    assert len(rejects) == 1
    assert rejects[0].reason == reason
    assert rejects[0].line == 2


def test_parse_rejects_name_the_line_their_row_starts_on():
    # The first row's actor spans lines 2-3, so the next row starts on line 4;
    # a rejected row that itself spans lines 5-6 is named by line 5.
    records, rejects = parse_events(
        events_csv(
            '2014-06-08,recon,Mosul,,"ISIS\nfighters"',
            "bad-date,recon,Mosul,,x",
            'bad-date,recon,Mosul,,"a\nb"',
        )
    )
    assert list(records) == [EventRecord(dt.date(2014, 6, 8), "recon", ("Mosul",), 2)]
    assert [(r.line, r.reason) for r in rejects] == [(4, "unparseable date"), (5, "unparseable date")]


def test_every_reject_names_the_line_its_row_starts_on():
    # The first row's actor spans lines 2-3; a parse reject follows on line 4
    # and a build reject on line 5.
    records, parse_rejects = parse_events(
        events_csv(
            '2014-06-08,recon,Mosul,,"ISIS\nfighters"',
            "bad-date,recon,Mosul,,x",
            "2014-06-09,recon,Atlantis,,x",
        )
    )
    _, build_rejects = build_corpus(records, config())
    assert [(r.line, r.reason) for r in [*parse_rejects, *build_rejects]] == [
        (4, "unparseable date"),
        (5, "unmapped location"),
    ]


def test_parse_reserved_char_inside_quoted_cell():
    records, rejects = parse_events(events_csv('2014-06-08,"armed,Atk",Mosul,,'))
    assert list(records) == []
    assert rejects[0].reason == "reserved character"


def test_a_repeated_bad_date_rejects_every_row_that_has_it():
    records, rejects = parse_events(events_csv(
        "2014-02-30,recon,Mosul,,x", "2014-06-08,recon,Mosul,,x", "2014-02-30,recon,Mosul,,y"
    ))
    assert len(records) == 1
    assert rejects == [Reject(2, "unparseable date", "2014-02-30"),
                       Reject(4, "unparseable date", "2014-02-30")]


def test_a_repeated_bad_name_rejects_every_row_with_its_own_detail():
    records, rejects = parse_events(events_csv(
        "2014-06-08,recon,Mo(sul,,x", "2014-06-09,recon,Mo(sul,,y",
        "2014-06-08,,Mosul,,x", "2014-06-09,,Mosul,,y",
    ))
    assert list(records) == []
    assert rejects == [
        Reject(2, "reserved character", "Mo(sul"),
        Reject(3, "reserved character", "Mo(sul"),
        Reject(4, "missing predicate", "2014-06-08,,Mosul,,x"),
        Reject(5, "missing predicate", "2014-06-09,,Mosul,,y"),
    ]


def test_records_share_their_date_predicate_and_args():
    records, _ = parse_events(events_csv(
        "2014-06-08,armedAtk,ISIS,Mosul,a", " 2014-06-08 ,armedAtk , ISIS,Mosul,b",
        "2014-06-09,armedAtk,ISIS,Mosul,c",
    ))
    first, again, later = records
    assert again.date is first.date and again.predicate is first.predicate
    assert again.args is first.args
    assert later.args is first.args and later.date == dt.date(2014, 6, 9)


def test_parse_events_keeps_little_per_row():
    # 20,000 rows over 700 days and 200 names: a result that held one record
    # object per row kept about 110 bytes a row; columns keep under 30.
    rows = [f"{day(i % 700).isoformat()},p{i % 20},ISIS,c{i // 20 % 10},x" for i in range(20_000)]
    data = events_csv(*rows)
    gc.collect()
    tracemalloc.start()
    try:
        events, rejects = parse_events(data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(events) == 20_000 and rejects == []
    assert held <= 40 * 20_000, held / 20_000


def test_arity_rejects_skip_rows_already_rejected_before_the_epoch():
    records, _ = parse_events(events_csv(
        "2014-06-08,recon,Mosul,,a", "2014-06-01,recon,ISIS,Mosul,a", "2014-06-16,recon,ISIS,Mosul,a"
    ))
    _, rejects = build_corpus(records, config())
    assert [(r.line, r.reason) for r in rejects] == [
        (3, "date before epoch"), (4, "uninternable atom")
    ]


# --------------------------------------------------------------- building


def test_periods_are_seven_day_buckets_from_the_epoch():
    corpus, rejects = build_corpus([event(0), event(6), event(7), event(20)], config())
    assert rejects == []
    assert corpus.thread.t_max == 3
    atom = corpus.registry.find(Predicate("armedAtk", 2), ("ISIS", "Mosul"))
    assert corpus.thread.occurrences(atom) == (1, 2, 3)


def test_late_december_lands_in_period_thirty():
    corpus, _ = build_corpus([event(0), EventRecord(dt.date(2014, 12, 31), "armedAtk",
                                                    ("ISIS", "Mosul"), 3)], config())
    assert corpus.thread.t_max == 30


def test_duplicate_events_collapse_in_the_world_but_count():
    corpus, _ = build_corpus([event(0), event(1), event(2)], config())
    assert len(corpus.thread.world(1)) == 1
    assert corpus.count_series[("armedAtk", "Iraq")] == (3,)
    assert corpus.count_series[("armedAtk", "Syria")] == (0,)
    assert corpus.count_series[("armedAtk", "Total")] == (3,)


def test_events_before_the_epoch_are_rejected():
    corpus, rejects = build_corpus([event(-1), event(0)], config())
    assert len(rejects) == 1
    assert rejects[0].reason == "date before epoch"
    assert corpus.thread.t_max == 1


def test_unmapped_location_rejected_for_series_predicates():
    corpus, rejects = build_corpus([event(0), event(1, args=("ISIS", "Atlantis"))], config())
    assert [r.reason for r in rejects] == ["unmapped location"]
    assert rejects[0].detail == "Atlantis"


def test_unmapped_location_tolerated_off_series():
    cfg = config(spike_series=("armedAtk",))
    corpus, rejects = build_corpus(
        [event(0), event(1, predicate="recon", args=("Atlantis",))], cfg
    )
    assert rejects == []
    assert corpus.registry.find(Predicate("recon", 1), ("Atlantis",)) is not None
    assert ("recon", "Iraq") not in corpus.count_series


def test_spike_series_must_name_an_event_predicate():
    with pytest.raises(ValueError, match="no event has: nosuch, other$"):
        build_corpus([event(0)], config(spike_series=("armedAtk", "other", "nosuch")))
    # A predicate whose events were all rejected still gets its (empty) series.
    corpus, rejects = build_corpus(
        [event(0), event(1, predicate="recon", args=("Atlantis",))],
        config(spike_series=("armedAtk", "recon")),
    )
    assert [r.reason for r in rejects] == ["unmapped location"]
    assert corpus.count_series["recon", "Total"] == (0,)


def test_arity_conflicts_become_rejects():
    corpus, rejects = build_corpus(
        [event(0, predicate="recon", args=("Mosul",)),
         event(1, predicate="recon", args=("ISIS", "Mosul"))],
        config(),
    )
    assert [r.reason for r in rejects] == ["uninternable atom"]
    assert len(corpus.registry.env_set) == 1

    # recon(Mosul) is interned first (period 1), so both arity-2 rows are
    # rejected, listed by line although their periods run the other way.
    records, parse_rejects = parse_events(events_csv(
        "2014-06-22,recon,X,Mosul,a", "2014-06-08,recon,Mosul,,a", "2014-06-15,recon,Y,Mosul,a"
    ))
    _, rejects = build_corpus(records, CorpusConfig(epoch=EPOCH, location_map={"Mosul": "Iraq"}))
    assert parse_rejects == []
    assert [(r.line, r.reason) for r in rejects] == [(2, "uninternable atom"), (4, "uninternable atom")]


def test_arity_rejects_do_not_stretch_the_thread():
    # The rejected recon(ISIS,Mosul) row is the only one dated in period 4.
    records, _ = parse_events(events_csv("2014-06-08,recon,Mosul,,a", "2014-06-30,recon,ISIS,Mosul,a"))
    corpus, rejects = build_corpus(records, config())
    assert [(r.line, r.reason) for r in rejects] == [(3, "uninternable atom")]
    assert corpus.thread.t_max == 1
    assert corpus.count_series["recon", "Total"] == (1,)


def test_atom_ids_follow_first_period_then_predicate_and_args():
    records, _ = parse_events(events_csv(
        "2014-06-29,recon,Mosul,,x",            # period 4
        "2014-06-22,recon,Raqqa,,x",            # period 3
        "2014-06-10,kidnap,ISIS,Raqqa,x",       # period 1
        "2014-06-08,armedAtk,ISIS,Raqqa,x",     # period 1
        "2014-06-09,armedAtk,ISIS,Falluja,x",   # period 1
        "2014-06-16,recon,Mosul,,x",            # period 2: recon(Mosul) first occurs here
        "2014-06-15,armedAtk,ISIS,Mosul,x",     # period 2
    ))
    corpus, rejects = build_corpus(records, config())
    assert rejects == []
    assert [corpus.registry.render(i) for i in range(len(corpus.registry))] == [
        "armedAtk(ISIS,Falluja)",
        "armedAtk(ISIS,Raqqa)",
        "kidnap(ISIS,Raqqa)",
        "armedAtk(ISIS,Mosul)",
        "recon(Mosul)",
        "recon(Raqqa)",
    ]


def test_empty_corpus_errors():
    with pytest.raises(EmptyCorpusError):
        build_corpus([], config())
    with pytest.raises(EmptyCorpusError):
        build_corpus([event(-5), event(-9)], config())


def weekly_events(theater_city, counts, predicate="armedAtk"):
    out = []
    for week, n in enumerate(counts):
        out.extend(event(7 * week, predicate, ("ISIS", theater_city)) for _ in range(n))
    return out


def test_spike_atoms_enter_worlds_as_action_atoms():
    corpus, _ = build_corpus(weekly_events("Mosul", [1, 3, 1, 3, 8]), config())
    spike1 = corpus.registry.find(Predicate("armedAtkSpike", 2), ("Iraq", "1sigma"))
    spike2 = corpus.registry.find(Predicate("armedAtkSpike", 2), ("Iraq", "2sigma"))
    assert spike1 is not None and spike2 is not None
    assert corpus.thread.occurrences(spike1) == (5,)
    assert corpus.thread.occurrences(spike2) == (5,)
    assert {spike1, spike2} <= corpus.registry.action_set
    assert {spike1, spike2} <= corpus.registry.env_set
    # The Total series mirrors Iraq here, so it spikes identically.
    assert corpus.registry.find(Predicate("armedAtkSpike", 2), ("Total", "1sigma")) is not None


def test_total_series_can_spike_when_no_single_theater_does():
    # Iraq [4,0,4,0,5] and Syria [0,4,0,4,5] each clear one sigma only,
    # but their sum [4,4,4,4,10] sits two sigma above a flat window.
    events = weekly_events("Mosul", [4, 0, 4, 0, 5]) + weekly_events("Raqqa", [0, 4, 0, 4, 5])
    corpus, rejects = build_corpus(events, config())
    assert rejects == []
    assert corpus.count_series[("armedAtk", "Total")] == (4, 4, 4, 4, 10)

    def spike(theater, label):
        return corpus.registry.find(Predicate("armedAtkSpike", 2), (theater, label))

    assert corpus.thread.occurrences(spike("Iraq", "1sigma")) == (5,)
    assert corpus.thread.occurrences(spike("Syria", "1sigma")) == (5,)
    assert spike("Iraq", "2sigma") is None
    assert spike("Syria", "2sigma") is None
    assert corpus.thread.occurrences(spike("Total", "2sigma")) == (5,)


def test_registry_is_frozen_after_build():
    corpus, _ = build_corpus([event(0)], config())
    assert corpus.registry.frozen


def test_built_corpus_is_independent_of_event_order():
    events = (
        weekly_events("Mosul", [4, 0, 4, 0, 5])
        + weekly_events("Raqqa", [0, 4, 0, 4, 5])
        + weekly_events("Falluja", [1, 1, 0, 2, 0], predicate="recon")
        + [event(3, predicate="kidnap", args=("Mosul",))]
        # Rejected: an arity conflict, a date before the epoch, an unmapped location.
        + [event(4, predicate="kidnap", args=("Mosul", "Raqqa"), line=10),
           event(-2, line=11),
           event(5, args=("ISIS", "Atlantis"), line=12)]
    )
    reference = None
    rng = random.Random(0)
    for _ in range(5):
        shuffled = list(events)
        rng.shuffle(shuffled)
        corpus, rejects = build_corpus(shuffled, config())
        lines = list(format_thread(corpus.thread, corpus.registry, {"case": "shuffle"}))
        if reference is None:
            reference = lines, rejects
        assert (lines, rejects) == reference
    assert [(r.line, r.reason) for r in rejects] == [
        (10, "uninternable atom"), (11, "date before epoch"), (12, "unmapped location")
    ]


def test_sigma_label_formats():
    assert sigma_label(1.0) == "1sigma"
    assert sigma_label(2.0) == "2sigma"
    assert sigma_label(1.5) == "1.5sigma"


def test_config_validation():
    with pytest.raises(ValueError, match="period_days"):
        config(period_days=0)
    with pytest.raises(ValueError, match="theater"):
        CorpusConfig(epoch=EPOCH, location_map={"Mosul": "Atlantis"})
    with pytest.raises(TypeError, match="not the str"):
        config(spike_series="armedAtk")
    with pytest.raises(ValueError, match="at least one predicate"):
        config(spike_series=())
    with pytest.raises(ValueError, match=r"thresholds 1\.0000001 and 1\.0000002 both render as 1sigma"):
        config(spike_config=SpikeConfig(thresholds=(1.0000001, 1.0000002)))
    config(spike_config=SpikeConfig(thresholds=(1.0, 1.5, 2.0)))  # distinct labels


def test_load_location_map():
    mapping = load_location_map(io.BytesIO(b"Mosul,Iraq\nRaqqa,Syria\n\nMosul,Iraq\n"))
    assert mapping == {"Mosul": "Iraq", "Raqqa": "Syria"}
    assert load_location_map(io.BytesIO(b"\xef\xbb\xbfMosul,Iraq\n")) == {"Mosul": "Iraq"}
    with pytest.raises(FormatError, match="city,theater"):
        load_location_map(io.BytesIO(b"Mosul\n"))
    with pytest.raises(FormatError, match="theater"):
        load_location_map(io.BytesIO(b"Mosul,Atlantis\n"))
    with pytest.raises(FormatError, match="conflicting"):
        load_location_map(io.BytesIO(b"Mosul,Iraq\nMosul,Syria\n"))


class _Unseekable(io.BytesIO):
    def seekable(self):
        return False


_HEADER = b"date,predicate,arg1,arg2,actor\n"
_EVENT = b"2014-06-08,bomb,Mosul,,x\n"
_PADDING = _EVENT * 400  # 10 KB, so the bad byte lies past the first 8 KiB read


@pytest.mark.parametrize(
    "parse, data, where",
    [
        (parse_events, _HEADER + _EVENT + b"2014-06-09,bo\xffmb,Mosul,,x\n", "event file:3"),
        (parse_events, _HEADER + _PADDING + b"2014-06-09,bo\xffmb,Mosul,,x\n", "event file:402"),
        (load_location_map, b"Mosul,Iraq\nRa\xffqqa,Syria\n", "location map:2"),
        (load_location_map, b"Mosul,Iraq\n" * 1000 + b"Ra\xffqqa,Syria\n", "location map:1001"),
    ],
    ids=["events", "events-past-8k", "map", "map-past-8k"],
)
def test_bad_utf8_is_a_format_error_naming_the_line(parse, data, where):
    with pytest.raises(FormatError, match=rf"^{where}: not valid UTF-8 \(invalid start byte\)$"):
        parse(io.BytesIO(data))
    # A stream that cannot seek back cannot be re-read for the line.
    unnamed = where.partition(":")[0]
    with pytest.raises(FormatError, match=rf"^{unnamed}: not valid UTF-8 \(invalid start byte\)$"):
        parse(_Unseekable(data))


def _clip(text):
    return f"{text[:32]}... ({len(text)} characters)"


@pytest.mark.parametrize(
    "parse, data, message",
    [
        (parse_events, "x" * 100 + ",what\n",
         f"event file:1: bad header {_clip(repr(['x' * 100, 'what']))}, "
         "expected date,predicate,arg1,arg2,actor"),
        (load_location_map, "c" * 100 + "\n",
         f"location map:1: expected city,theater, got {_clip(repr(['c' * 100]))}"),
        (load_location_map, "Mosul," + "N" * 100 + "\n",
         f"location map:1: theater must be one of ('Iraq', 'Syria'), got {repr('N' * 32)}"
         "... (100 characters)"),
        (load_location_map, "C" * 100 + ",Iraq\n" + "C" * 100 + ",Syria\n",
         f"location map:2: conflicting theater for {repr('C' * 32)}... (100 characters)"),
    ],
    ids=["header", "row", "theater", "city"],
)
def test_diagnostics_clip_a_long_input(parse, data, message):
    with pytest.raises(FormatError) as raised:
        parse(io.BytesIO(data.encode()))
    assert str(raised.value) == message


def test_location_map_errors_name_the_line_their_row_starts_on():
    # The quoted city spans lines 1-2, so the bad theater is on line 3.
    with pytest.raises(FormatError, match="map:3: theater"):
        load_location_map(io.BytesIO(b'"Mos\nul",Iraq\nRaqqa,Atlantis\n'))


@pytest.mark.parametrize(
    "parse, data, fails",
    [
        (parse_events, _HEADER + _EVENT, False),
        (parse_events, b"when,what,a,b,who\n" + _EVENT, True),               # bad header
        (parse_events, _HEADER + b"2014-06-09,bo\xffmb,Mosul,,x\n", True),   # bad UTF-8
        (parse_events, _HEADER + b"2014-06-09,r," + b"x" * 140_000 + b",,\n", True),  # csv.Error
        (load_location_map, b"Mosul,Iraq\n", False),
        (load_location_map, b"Mosul,Iraq\nRaqqa,Atlantis\n", True),           # bad row
        (load_location_map, b"Ra\xffqqa,Syria\n", True),                      # bad UTF-8
    ],
    ids=["events", "events-header", "events-utf8", "events-csv", "map", "map-row", "map-utf8"],
)
def test_parsers_leave_a_binary_stream_open(parse, data, fails):
    stream = io.BytesIO(data)
    try:
        parse(stream)
    except FormatError:
        assert fails
    else:
        assert not fails
    gc.collect()  # whatever the parse left behind is finalized by now
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == data


@pytest.mark.parametrize("parse", [parse_events, load_location_map])
def test_parsers_refuse_a_text_stream_and_leave_it_open(parse):
    stream = io.StringIO("date,predicate,arg1,arg2,actor\n")
    with pytest.raises(TypeError, match="bytes-like object"):
        parse(stream)
    gc.collect()
    assert not stream.closed


def test_a_failed_parse_finalises_nothing_after_the_caller_closes_the_file(tmp_path, monkeypatch):
    # The traceback keeps parse_events' frame, and with it the suspended row reader,
    # alive past the caller's with block; finalising it then must not touch the closed file.
    path = tmp_path / "events.csv"
    path.write_bytes(b"when,what,a,b,who\n" + _EVENT)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with open(path, "rb") as fh:
        try:
            parse_events(fh)
        except FormatError as exc:
            error = exc
    assert "bad header" in str(error)
    del error
    gc.collect()
    assert [hook.exc_value for hook in unraisable] == []
