"""CSV parsing, period bucketing, spike-atom construction, rejects."""

import datetime as dt
import io
import random

import pytest

from aptmine import (
    CorpusConfig,
    EmptyCorpusError,
    EventRecord,
    FormatError,
    Predicate,
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
    return io.StringIO("\n".join([",".join(EXPECTED_HEADER), *rows]) + "\n")


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
    assert records == [
        EventRecord(dt.date(2014, 6, 8), "armedAtk", ("ISIS", "Mosul"), 2),
        EventRecord(dt.date(2014, 6, 9), "recon", ("Raqqa",), 3),
        EventRecord(dt.date(2014, 6, 10), "ceasefire", (), 4),
    ]


def test_parse_accepts_binary_streams():
    raw = "date,predicate,arg1,arg2,actor\n2014-06-08,recon,Mosul,,\n"
    from_binary, _ = parse_events(io.BytesIO(raw.encode()))
    from_text, _ = parse_events(io.StringIO(raw))
    from_bom, _ = parse_events(io.BytesIO(b"\xef\xbb\xbf" + raw.encode()))
    assert from_binary == from_text == from_bom


def test_parse_rejects_bad_header():
    with pytest.raises(FormatError, match="header"):
        parse_events(io.StringIO("when,what,a,b,who\n"))
    with pytest.raises(FormatError, match="empty"):
        parse_events(io.StringIO(""))


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
    assert records == []
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
    assert records == [EventRecord(dt.date(2014, 6, 8), "recon", ("Mosul",), 2)]
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
    assert records == []
    assert rejects[0].reason == "reserved character"


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
    )
    reference = None
    rng = random.Random(0)
    for _ in range(5):
        shuffled = list(events)
        rng.shuffle(shuffled)
        corpus, _ = build_corpus(shuffled, config())
        text = format_thread(corpus.thread, corpus.registry, {"case": "shuffle"})
        if reference is None:
            reference = text
        assert text == reference


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


def test_load_location_map():
    mapping = load_location_map(io.StringIO("Mosul,Iraq\nRaqqa,Syria\n\nMosul,Iraq\n"))
    assert mapping == {"Mosul": "Iraq", "Raqqa": "Syria"}
    assert load_location_map(io.BytesIO(b"\xef\xbb\xbfMosul,Iraq\n")) == {"Mosul": "Iraq"}
    with pytest.raises(FormatError, match="city,theater"):
        load_location_map(io.StringIO("Mosul\n"))
    with pytest.raises(FormatError, match="theater"):
        load_location_map(io.StringIO("Mosul,Atlantis\n"))
    with pytest.raises(FormatError, match="conflicting"):
        load_location_map(io.StringIO("Mosul,Iraq\nMosul,Syria\n"))


def test_location_map_errors_name_the_line_their_row_starts_on():
    # The quoted city spans lines 1-2, so the bad theater is on line 3.
    with pytest.raises(FormatError, match="map:3: theater"):
        load_location_map(io.StringIO('"Mos\nul",Iraq\nRaqqa,Atlantis\n'))
