"""Event ingestion: CSV parsing, period bucketing, theater aggregation,
spike detection, and thread/registry construction.

Both CSV readers take a binary stream, read it as UTF-8 and leave it open.
Parsing and building never drop a row silently: anything unusable lands in
a reject report with the CSV line its row starts on and a reason.  Only a
bad header, CSV syntax or UTF-8 is a hard failure.  Corpora are independent
of the input row order: each distinct atom is interned once, by (first
period, predicate, args), so equal event multisets yield bit-identical threads.

Parsed events are held as columns (EventTable): each distinct date and
(predicate, args) name once, and per row two indexes and a CSV line in typed
arrays, about 16 bytes a row.  A record read from the table is built when
asked and shares its date, predicate and args objects with the table.

A period spikes at threshold k when its count reaches the trailing moving
average plus k moving (population) standard deviations, and strictly
exceeds the moving average.  The window covers the previous ``window``
periods only, never the current one, so nothing can be emitted before
period window + 1.  Thresholds are cumulative: a count clearing the 2.0
threshold also clears 1.0 and yields both emissions.  k is the decimal
``repr(k)`` spells, and the test runs in integers, so a count that exactly
reaches the threshold spikes on every Python.
"""

from __future__ import annotations

import datetime as dt
import io
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, Mapping

from .formats import Reject, _at, _named, decode_utf8
from .model import (
    RESERVED_CHAR,
    AptmineError,
    AtomRegistry,
    FormatError,
    Predicate,
    Thread,
    _clipped,
    _quoted,
)

EXPECTED_HEADER = ("date", "predicate", "arg1", "arg2", "actor")
THEATERS = ("Iraq", "Syria")
TOTAL_THEATER = "Total"
SPIKE_SUFFIX = "Spike"  # spike atoms are <predicate>Spike(theater, <k>sigma)
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class EmptyCorpusError(AptmineError):
    """No usable events were left to build a corpus from; ``rejects`` says why, by line."""

    def __init__(self, message: str, rejects: Iterable[Reject] = ()) -> None:
        super().__init__(message)
        self.rejects = sorted(rejects)


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One incident: what happened, where and when, and the CSV line its row starts on."""

    date: dt.date
    predicate: str
    args: tuple[str, ...]
    line: int


class EventTable(Sequence[EventRecord]):
    """Events held as columns, in row order: per row, the index of its date in
    ``dates``, the index of its (predicate, args) in ``names`` and its CSV line.

    ``dates`` and ``names`` hold each distinct value once, and each is used by
    at least one row.  Indexing or iterating builds an EventRecord only when
    asked, and it shares its date, predicate and args objects with every other
    record of the table that spells them the same way.
    """

    __slots__ = ("dates", "names", "date_index", "name_index", "lines")

    def __init__(self, records: Iterable[EventRecord] = ()) -> None:
        from array import array  # here so that the commands that build no table skip it

        self.date_index, self.name_index, self.lines = array("I"), array("I"), array("q")
        # A dict keeps the first key it was given, so these keep the first record's objects.
        date_slots: dict[dt.date, int] = {}
        name_slots: dict[tuple[str, tuple[str, ...]], int] = {}
        for record in records:
            self.date_index.append(date_slots.setdefault(record.date, len(date_slots)))
            self.name_index.append(name_slots.setdefault((record.predicate, record.args), len(name_slots)))
            self.lines.append(record.line)
        self.dates: list[dt.date] = list(date_slots)
        self.names: list[tuple[str, tuple[str, ...]]] = list(name_slots)

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, i: int) -> EventRecord:
        return EventRecord(self.dates[self.date_index[i]], *self.names[self.name_index[i]], self.lines[i])

    def __iter__(self) -> Iterator[EventRecord]:
        dates, names = self.dates, self.names
        for d, n, line in zip(self.date_index, self.name_index, self.lines):
            yield EventRecord(dates[d], *names[n], line)


@dataclass(frozen=True, slots=True)
class SpikeConfig:
    window: int = 4
    thresholds: tuple[float, ...] = (1.0, 2.0)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if not self.thresholds:
            raise ValueError("at least one threshold is required")
        if not all(0 < k < math.inf for k in self.thresholds):
            raise ValueError(f"thresholds must be positive and finite, got {_clipped(str(self.thresholds))}")
        if tuple(sorted(set(self.thresholds))) != self.thresholds:
            raise ValueError(f"thresholds must be strictly ascending, got {_clipped(str(self.thresholds))}")


@dataclass(frozen=True)
class CorpusConfig:
    """Everything build_corpus needs beyond the events themselves.

    ``spike_series`` names the predicates to count and spike-detect, each
    in every theater and the Total; ``None`` means every observed one, and
    an empty tuple is refused.  Spike atoms are named by ``sigma_label``, so
    the thresholds must give distinct labels.
    """

    epoch: dt.date
    location_map: Mapping[str, str]
    period_days: int = 7
    spike_config: SpikeConfig = SpikeConfig()
    spike_series: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.period_days < 1:
            raise ValueError(f"period_days must be at least 1, got {self.period_days}")
        for theater in self.location_map.values():
            if theater not in THEATERS:
                raise ValueError(f"location map theater must be one of {THEATERS}, got {theater!r}")
        if isinstance(self.spike_series, str):
            raise TypeError(f"spike_series must be a tuple of names, not the str {self.spike_series!r}")
        if self.spike_series is not None and not self.spike_series:
            raise ValueError("spike_series must name at least one predicate")
        thresholds = self.spike_config.thresholds  # ascending, so equal labels are adjacent
        for low, high in zip(thresholds, thresholds[1:]):
            label = sigma_label(low)
            if label == sigma_label(high):
                raise ValueError(f"thresholds {low!r} and {high!r} both render as {label}")


@dataclass(frozen=True)
class BuiltCorpus:
    """The mined objects plus enough provenance to render reports."""

    thread: Thread
    registry: AtomRegistry
    count_series: Mapping[tuple[str, str], tuple[int, ...]] = field(default_factory=dict)


def _source_name(source: BinaryIO, default: str) -> str:
    """The file name an opened stream carries, for diagnostics, else the default."""
    name = getattr(source, "name", None)
    return name if isinstance(name, str) else default


def parse_date(text: str) -> dt.date:
    """A ``YYYY-MM-DD`` date; every other spelling is a ValueError on every Python."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")
    return dt.date.fromisoformat(text)


def _csv_rows(source: BinaryIO, where: str) -> Iterator[tuple[int, list[str]]]:
    """The binary stream's CSV rows, each with the line it starts on.

    A csv.Error becomes a FormatError naming where:line, and so does bad
    UTF-8 in a seekable stream; elsewhere it names only where.  The stream
    is left open for the caller, however the rows end.
    """
    import csv  # here so that the commands that read no CSV skip it

    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    reader = csv.reader(text)
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise _at(where, reader.line_num, exc) from None
    except UnicodeDecodeError as exc:
        if source.seekable():
            source.seek(0)
            decode_utf8(where, source.read())  # raises, naming the first bad line
        raise FormatError(f"{_named(where)}: not valid UTF-8 ({exc.reason})") from None
    finally:
        if not source.closed:  # else the caller closed it before this generator was finalised
            text.detach()  # a dropped wrapper would close the caller's stream


def _name_reject(row: list[str], predicate: str, arg1: str, arg2: str) -> tuple[str, str] | None:
    """Why a row's stripped predicate and arguments name no atom, as (reason, detail), else None."""
    if not predicate:
        return "missing predicate", ",".join(row)
    if predicate.endswith(SPIKE_SUFFIX):
        return "reserved predicate", predicate
    if arg2 and not arg1:
        return "gap in arguments", ",".join(row)
    bad = next((v for v in (predicate, arg1, arg2) if RESERVED_CHAR.search(v)), None)
    if bad is not None:
        return "reserved character", bad
    return None


def parse_events(source: BinaryIO) -> tuple[EventTable, list[Reject]]:
    """Read the event CSV: header ``date,predicate,arg1,arg2,actor``.

    Returns the parsed events, held as an EventTable's columns, and the
    rejects.  Raises FormatError only for a missing or malformed header, an
    unreadable row or bad UTF-8, naming the stream's file and line; every
    other bad row becomes a reject.  A date text or a (predicate, arguments)
    triple is checked the first time it is seen and stored once, so records
    read from the table share their ``date``, ``predicate`` and ``args``
    objects with every other record that spells them the same way.  A text
    that fails is never remembered: each row that repeats it is rejected
    with its own line and detail.
    """
    where = _source_name(source, "event file")
    reader = _csv_rows(source, where)
    expected = ",".join(EXPECTED_HEADER)
    try:
        _, header = next(reader)
    except StopIteration:
        raise _at(where, 1, f"event file is empty, expected header {expected}") from None
    if tuple(h.strip() for h in header) != EXPECTED_HEADER:
        raise _at(where, 1, f"bad header {_clipped(repr(header))}, expected {expected}")

    table = EventTable()
    rejects: list[Reject] = []
    date_slots: dict[str, int] = {}  # a date text -> its index in table.dates
    name_slots: dict[tuple[str, str, str], int] = {}  # (predicate, arg1, arg2) -> its index in table.names
    add_date, add_name, add_line = table.date_index.append, table.name_index.append, table.lines.append
    for line, row in reader:
        if not row:
            continue
        if len(row) != len(EXPECTED_HEADER):
            rejects.append(Reject(line, "wrong field count", ",".join(row)))
            continue
        raw_date = row[0].strip()
        d = date_slots.get(raw_date)
        if d is None:
            try:
                date = parse_date(raw_date)
            except ValueError:
                rejects.append(Reject(line, "unparseable date", raw_date))
                continue
            d = date_slots[raw_date] = len(table.dates)
            table.dates.append(date)
        key = (row[1].strip(), row[2].strip(), row[3].strip())
        n = name_slots.get(key)
        if n is None:
            why = _name_reject(row, *key)
            if why is not None:
                rejects.append(Reject(line, *why))
                continue
            predicate, arg1, arg2 = key
            n = name_slots[key] = len(table.names)
            table.names.append((predicate, tuple(a for a in (arg1, arg2) if a)))
        add_date(d)
        add_name(n)
        add_line(line)
    return table, rejects


def load_location_map(source: BinaryIO) -> dict[str, str]:
    """Read a ``city,theater`` file; theater must be Iraq or Syria.

    A bad row raises FormatError naming the stream's file and the line.
    """
    where = _source_name(source, "location map")
    mapping: dict[str, str] = {}
    for line, row in _csv_rows(source, where):
        if not row:
            continue
        if len(row) != 2:
            raise _at(where, line, f"expected city,theater, got {_clipped(repr(row))}")
        city, theater = (cell.strip() for cell in row)
        if theater not in THEATERS:
            raise _at(where, line, f"theater must be one of {THEATERS}, got {_quoted(theater)}")
        if city in mapping and mapping[city] != theater:
            raise _at(where, line, f"conflicting theater for {_quoted(city)}")
        mapping[city] = theater
    return mapping


def sigma_label(threshold: float) -> str:
    """Render a threshold as a spike-atom argument, e.g. 2sigma."""
    return f"{threshold:g}sigma"


def spike_atoms(counts: Sequence[int], config: SpikeConfig) -> list[tuple[int, float]]:
    """The ``(period, threshold)`` spikes of a count series (period 1 first),
    ordered by period, then threshold.

    Periods 1..window are never emitted, and neither is a count equal to a
    flat window's value (sigma = 0), because the count must strictly exceed
    the moving average.  With S and Q the sum and the sum of squares of the
    w window counts and k = p/q, count c spikes at k iff w*c - S > 0 and
    (q*(w*c - S))**2 >= p**2 * (w*Q - S**2): the float test times w*q, squared.
    """
    # Imported here so that the commands that never detect spikes skip fractions and decimal.
    from fractions import Fraction

    w = config.window
    ratios = [(k, *Fraction(repr(k)).as_integer_ratio()) for k in config.thresholds]
    out: list[tuple[int, float]] = []
    for t in range(w + 1, len(counts) + 1):
        recent = counts[t - 1 - w : t - 1]
        total = sum(recent)
        excess = w * counts[t - 1] - total
        if excess <= 0:
            continue
        spread = w * sum(c * c for c in recent) - total * total
        out.extend((t, k) for k, p, q in ratios if (q * excess) ** 2 >= p * p * spread)
    return out


def build_corpus(
    events: Iterable[EventRecord], config: CorpusConfig
) -> tuple[BuiltCorpus, list[Reject]]:
    """Bucket events into periods, detect spikes, build thread and registry.

    Period index is floor((date - epoch) / period_days) + 1; events dated
    before the epoch are rejected.  Each distinct date is bucketed, and each
    distinct (predicate, args) located, once; the rows are then read as
    EventTable columns, so any other iterable of records is first put in one.
    Worlds are sets, so repeated identical events only influence the count
    series.  Spike atoms (named ``<predicate>Spike(theater, <k>sigma)``)
    form the action set and are also environmental.  Rejects come back in
    CSV line order.
    """
    table = events if isinstance(events, EventTable) else EventTable(events)
    if not table:
        raise EmptyCorpusError("no events to build a corpus from")

    predicates = {predicate for predicate, _ in table.names}
    series_predicates = set(config.spike_series) if config.spike_series is not None else predicates
    unknown = sorted(series_predicates - predicates)
    if unknown:
        raise ValueError(f"spike_series names predicates that no event has: {_clipped(', '.join(unknown))}")

    period_of = []  # per distinct date: its period, 0 before the epoch
    for date in table.dates:
        days = (date - config.epoch).days
        period_of.append(days // config.period_days + 1 if days >= 0 else 0)
    unmapped: list[str | None] = []  # per distinct name: the location a series name has no theater for
    for predicate, args in table.names:
        # Convention: the last argument names the location.
        location = args[-1] if args else None
        theater = config.location_map.get(location) if location else None
        missing = predicate in series_predicates and theater is None
        unmapped.append((location or "<no location>") if missing else None)

    rejects: list[Reject] = []
    groups: list[list[int]] = [[] for _ in table.names]  # per distinct name: the period of each row
    for d, n, line in zip(table.date_index, table.name_index, table.lines):
        period = period_of[d]
        if not period:
            rejects.append(Reject(line, "date before epoch", table.dates[d].isoformat()))
        elif unmapped[n] is not None:
            rejects.append(Reject(line, "unmapped location", unmapped[n]))
        else:
            groups[n].append(period)

    registry = AtomRegistry()
    interned = []
    failed: dict[int, str] = {}  # a name's index -> why it could not be interned
    # Canonical order: atom ids follow (first period, predicate, args), not row order.
    order = sorted((n for n, periods in enumerate(groups) if periods),
                   key=lambda n: (min(groups[n]), table.names[n]))
    for n in order:
        predicate, args = table.names[n]
        try:
            atom = registry.intern(Predicate(predicate, len(args)), args)
        except (AptmineError, ValueError) as exc:
            # Arity conflicts and reserved characters both land here; rows
            # that came through parse_events can only hit the arity case.
            failed[n] = str(exc)
            continue
        registry.mark_env(atom)
        interned.append((atom, predicate, args, groups[n]))
    if failed:  # every row of such a name that got this far
        rejects.extend(
            Reject(line, "uninternable atom", failed[n])
            for d, n, line in zip(table.date_index, table.name_index, table.lines)
            if n in failed and period_of[d]
        )
    if not interned:
        raise EmptyCorpusError("every event was rejected", rejects)

    # Only interned atoms stretch the thread: a rejected row leaves no trace.
    t_max = max(max(periods) for *_, periods in interned)
    # Lists, not sets: each atom enters each of its periods once.
    worlds: list[list[int]] = [[] for _ in range(t_max)]
    raw_counts: dict[tuple[str, str], list[int]] = {}
    for atom, predicate, args, periods in interned:
        for period in set(periods):
            worlds[period - 1].append(atom)
        if predicate in series_predicates:  # accepted, so its location is mapped
            counts = raw_counts.setdefault((predicate, config.location_map[args[-1]]), [0] * t_max)
            for period in periods:
                counts[period - 1] += 1
    del groups, interned  # the per-row periods, freed before the thread is built

    count_series: dict[tuple[str, str], tuple[int, ...]] = {}
    zeros = [0] * t_max
    # Auto mode spikes the predicates whose events reached the thread: all were counted.
    series = series_predicates if config.spike_series is not None else {p for p, _ in raw_counts}
    for predicate in sorted(series):
        for theater in (*THEATERS, TOTAL_THEATER):
            if theater == TOTAL_THEATER:
                parts = [raw_counts.get((predicate, th), zeros) for th in THEATERS]
                counts = tuple(sum(column) for column in zip(*parts))
            else:
                counts = tuple(raw_counts.get((predicate, theater), zeros))
            count_series[predicate, theater] = counts
            for period, threshold in spike_atoms(counts, config.spike_config):
                atom = registry.intern(
                    Predicate(predicate + SPIKE_SUFFIX, 2), (theater, sigma_label(threshold))
                )
                registry.mark_action(atom)
                registry.mark_env(atom)
                worlds[period - 1].append(atom)

    registry.freeze()
    return BuiltCorpus(Thread(worlds), registry, count_series), sorted(rejects)
