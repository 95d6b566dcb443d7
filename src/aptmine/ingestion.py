"""Event ingestion: CSV parsing, period bucketing, theater aggregation,
spike detection, and thread/registry construction.

Parsing and building never drop a row silently: anything unusable lands in
a reject report with the CSV line its row starts on and a reason.  Only a
bad header, CSV syntax or UTF-8 is a hard failure.  Corpora are independent
of the input row order: each distinct atom is interned once, by (first
period, predicate, args), so equal event multisets yield bit-identical threads.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping

from .model import RESERVED, AptmineError, AtomRegistry, Predicate, Thread
from .spikes import SpikeConfig, spike_atoms

EXPECTED_HEADER = ("date", "predicate", "arg1", "arg2", "actor")
THEATERS = ("Iraq", "Syria")
TOTAL_THEATER = "Total"
SPIKE_SUFFIX = "Spike"  # spike atoms are <predicate>Spike(theater, <k>sigma)
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class FormatError(AptmineError):
    """A file violated its format contract (hard failure, not a reject)."""


class EmptyCorpusError(AptmineError):
    """No usable events were left to build a corpus from."""


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One incident: what happened, where and when, and the CSV line its row starts on."""

    date: dt.date
    predicate: str
    args: tuple[str, ...]
    line: int


@dataclass(frozen=True, slots=True, order=True)
class Reject:
    """A row that could not be used, the CSV line it starts on, and why."""

    line: int
    reason: str
    detail: str


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


def _text_stream(source: BinaryIO | io.TextIOBase) -> io.TextIOBase:
    """A binary stream decoded as UTF-8 text, BOM dropped, for the csv module."""
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(source, "mode", ""):
        return io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    return source


def _source_name(source: BinaryIO | io.TextIOBase, default: str) -> str:
    """The file name an opened stream carries, for diagnostics, else the default."""
    name = getattr(source, "name", None)
    return name if isinstance(name, str) else default


def parse_date(text: str) -> dt.date:
    """A ``YYYY-MM-DD`` date; every other spelling is a ValueError on every Python."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")
    return dt.date.fromisoformat(text)


def decode_utf8(path: str | Path, data: bytes) -> str:
    """The file's bytes as text; bad UTF-8 raises a FormatError naming path:line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})")


def _csv_rows(source: BinaryIO | io.TextIOBase, where: str) -> Iterator[tuple[int, list[str]]]:
    """The stream's CSV rows, each with the line it starts on.

    A csv.Error becomes a FormatError naming where:line, and so does bad
    UTF-8 in a seekable binary stream; elsewhere it names only where.  A
    binary stream is left open for the caller, however the rows end.
    """
    text = _text_stream(source)
    reader = csv.reader(text)
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise FormatError(f"{where}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        if text is not source and source.seekable():
            source.seek(0)
            decode_utf8(where, source.read())  # raises, naming the first bad line
        raise FormatError(f"{where}: not valid UTF-8 ({exc.reason})") from None
    finally:
        if text is not source:
            text.detach()  # a dropped wrapper would close the caller's stream


def parse_events(source: BinaryIO | io.TextIOBase) -> tuple[list[EventRecord], list[Reject]]:
    """Read the event CSV: header ``date,predicate,arg1,arg2,actor``.

    Returns the parsed records and the rejects.  Raises FormatError only
    for a missing or malformed header, an unreadable row or bad UTF-8,
    naming the stream's file and line; every other bad row becomes a reject.
    """
    where = _source_name(source, "event file")
    reader = _csv_rows(source, where)
    expected = ",".join(EXPECTED_HEADER)
    try:
        _, header = next(reader)
    except StopIteration:
        raise FormatError(f"{where}:1: event file is empty, expected header {expected}")
    if tuple(h.strip() for h in header) != EXPECTED_HEADER:
        raise FormatError(f"{where}:1: bad header {header!r}, expected {expected}")

    records: list[EventRecord] = []
    rejects: list[Reject] = []
    for line, row in reader:
        if not row:
            continue
        if len(row) != len(EXPECTED_HEADER):
            rejects.append(Reject(line, "wrong field count", ",".join(row)))
            continue
        raw_date, raw_pred, raw_a1, raw_a2, _ = (cell.strip() for cell in row)
        try:
            date = parse_date(raw_date)
        except ValueError:
            rejects.append(Reject(line, "unparseable date", raw_date))
            continue
        if not raw_pred:
            rejects.append(Reject(line, "missing predicate", ",".join(row)))
            continue
        if raw_pred.endswith(SPIKE_SUFFIX):
            rejects.append(Reject(line, "reserved predicate", raw_pred))
            continue
        if not raw_a1 and raw_a2:
            rejects.append(Reject(line, "gap in arguments", ",".join(row)))
            continue
        args = tuple(a for a in (raw_a1, raw_a2) if a)
        bad = next(
            (v for v in (raw_pred, *args) if any(ch in RESERVED for ch in v)), None
        )
        if bad is not None:
            rejects.append(Reject(line, "reserved character", bad))
            continue
        records.append(EventRecord(date, raw_pred, args, line))
    return records, rejects


def load_location_map(source: BinaryIO | io.TextIOBase) -> dict[str, str]:
    """Read a ``city,theater`` file; theater must be Iraq or Syria.

    A bad row raises FormatError naming the stream's file and the line.
    """
    where = _source_name(source, "location map")
    mapping: dict[str, str] = {}
    for line, row in _csv_rows(source, where):
        if not row:
            continue
        if len(row) != 2:
            raise FormatError(f"{where}:{line}: expected city,theater, got {row!r}")
        city, theater = (cell.strip() for cell in row)
        if theater not in THEATERS:
            raise FormatError(f"{where}:{line}: theater must be one of {THEATERS}, got {theater!r}")
        if city in mapping and mapping[city] != theater:
            raise FormatError(f"{where}:{line}: conflicting theater for {city!r}")
        mapping[city] = theater
    return mapping


def sigma_label(threshold: float) -> str:
    """Render a threshold as a spike-atom argument, e.g. 2sigma."""
    return f"{threshold:g}sigma"


def build_corpus(
    events: Iterable[EventRecord], config: CorpusConfig
) -> tuple[BuiltCorpus, list[Reject]]:
    """Bucket events into periods, detect spikes, build thread and registry.

    Period index is floor((date - epoch) / period_days) + 1; events dated
    before the epoch are rejected.  Worlds are sets, so repeated identical
    events only influence the count series.  Spike atoms (named
    ``<predicate>Spike(theater, <k>sigma)``) form the action set and are
    also environmental.  Rejects come back in CSV line order.
    """
    events = list(events)
    if not events:
        raise EmptyCorpusError("no events to build a corpus from")

    predicates = {e.predicate for e in events}
    series_predicates = set(config.spike_series) if config.spike_series is not None else predicates
    unknown = sorted(series_predicates - predicates)
    if unknown:
        raise ValueError(f"spike_series names predicates that no event has: {', '.join(unknown)}")

    rejects: list[Reject] = []
    groups = defaultdict(lambda: ([], []))  # (predicate, args) -> (periods, CSV lines)
    for event in events:
        days = (event.date - config.epoch).days
        if days < 0:
            rejects.append(Reject(event.line, "date before epoch", event.date.isoformat()))
            continue
        # Convention: the last argument names the location.
        location = event.args[-1] if event.args else None
        theater = config.location_map.get(location) if location else None
        if event.predicate in series_predicates and theater is None:
            rejects.append(Reject(event.line, "unmapped location", location or "<no location>"))
            continue
        periods, lines = groups[event.predicate, event.args]
        periods.append(days // config.period_days + 1)
        lines.append(event.line)
    t_max = max((max(periods) for periods, _ in groups.values()), default=0)

    registry = AtomRegistry()
    worlds: list[set[int]] = [set() for _ in range(t_max)]
    raw_counts: dict[tuple[str, str], list[int]] = {}
    # Canonical order: atom ids follow (first period, predicate, args), not row order.
    atoms = sorted(groups.items(), key=lambda group: (min(group[1][0]), group[0]))
    for (predicate, args), (periods, lines) in atoms:
        try:
            atom = registry.intern(Predicate(predicate, len(args)), args)
        except (AptmineError, ValueError) as exc:
            # Arity conflicts and reserved characters both land here; rows
            # that came through parse_events can only hit the arity case.
            rejects.extend(Reject(line, "uninternable atom", str(exc)) for line in lines)
            continue
        registry.mark_env(atom)
        for period in periods:
            worlds[period - 1].add(atom)
        if predicate in series_predicates:  # accepted, so its location is mapped
            counts = raw_counts.setdefault((predicate, config.location_map[args[-1]]), [0] * t_max)
            for period in periods:
                counts[period - 1] += 1
    if len(registry) == 0:
        raise EmptyCorpusError("every event was rejected")

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
                worlds[period - 1].add(atom)

    registry.freeze()
    return BuiltCorpus(Thread(worlds), registry, count_series), sorted(rejects)
