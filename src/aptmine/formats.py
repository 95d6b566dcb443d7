"""Versioned, line-oriented file formats.

Every file starts with a magic version line followed by one ``params``
line echoing the semantic parameters it was produced under (never paths or
timestamps, so equal inputs give byte-equal files).  Record lines are
tab-separated with numbers first and variable-length atom lists last;
atom arguments cannot contain tabs, parens, or commas (enforced at
interning), so the rendered form ``pred(a,b)`` needs no quoting.

Writes stream and are atomic: each formatter yields its lines, which go to
a temp file that is then moved into place, so no writer holds a whole file
in memory and a failed run leaves no partial output file.  Loaders accept
numbers only in ASCII decimal (finite, integers unsigned), but not only as
the writers spell them: leading zeros are read, and a period line may repeat
an atom id or list its ids in any order.  They check ranges.  A loader words
each fault as a ValueError, and one handler makes it the FormatError of _at,
which names path:line with the path named as cli names one (_named).

Rules and scored files are read a line at a time: each line is split on
tabs and its fields are checked in order.  Each distinct statistics text (p,
p*, rho, support) is checked once and becomes one RuleStats, shared by the
lines that spell it, and the writers render each RuleStats once.  Thread
period lines are read the same way: each is split on whitespace, and each
distinct atom id text is checked once, on the first line that spells it,
and becomes one int, shared by the worlds that list it.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .model import (
    ArityError,
    AtomId,
    AtomRegistry,
    Conjunction,
    FormatError,
    Predicate,
    Thread,
    _clipped,
    _quoted,
)
from .stats import AptRule, RuleStats

if TYPE_CHECKING:
    from .causality import ScoredRule

THREAD_MAGIC = "aptmine-thread v1"
RULES_MAGIC = "aptmine-rules v1"
SCORED_MAGIC = "aptmine-scored v1"
COUNTS_MAGIC = "aptmine-counts v1"
REJECTS_MAGIC = "aptmine-rejects v1"

UNSCORED = "na"
# The decimal forms repr(float) writes; float() alone would also read a '+'
# sign, '_', whitespace, non-ASCII digits, nan and inf.
_FLOAT = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?")


@dataclass(frozen=True, slots=True, order=True)
class Reject:
    """A row that could not be used, the CSV line it starts on, and why."""

    line: int
    reason: str
    detail: str


def decode_utf8(path: str | Path, data: bytes) -> str:
    """The file's bytes as text; bad UTF-8 raises a FormatError naming path:line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise _at(path, lineno, f"not valid UTF-8 ({exc.reason})") from None


def write_atomic(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line and a "\\n" to a unique temp file beside path, then move it to path.

    The one place an artifact line is ended and encoded.  The temp file is
    created exclusively under a random name, so concurrent writers never share
    one, and with mode 0o666 so the umask applies as it would to a plain write
    (mkstemp would make it 0o600); it is fsynced before the move.  If lines or
    the encoder raise, it is removed and path is left as it was.  An OSError
    from creating or renaming it names the target, not the temp file.
    """
    if isinstance(lines, str):  # it would be written one character per line
        raise TypeError("write_atomic takes an iterable of lines, not a str")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _params_line(params: Mapping[str, str]) -> str:
    parts = [f"{key}={value}" for key, value in params.items()]
    return "\t".join(["params", *parts])


def _read_lines(path: str | Path, magic: str) -> tuple[list[str], dict[str, str]]:
    lines = decode_utf8(path, Path(path).read_bytes()).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise _at(path, 1, f"expected first line {magic!r}")
    head, *parts = lines[1].split("\t") if len(lines) > 1 else [""]
    if head != "params":
        raise _at(path, 2, "expected a params line after the version line")
    params: dict[str, str] = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep:
            raise _at(path, 2, f"malformed params entry {_quoted(part)}")
        if key in params:
            raise _at(path, 2, f"params repeat the key {_quoted(key)}")
        params[key] = value
    return lines[2:], params


def _named(path: str | Path, show=str) -> str:
    """show(path) whole while that takes at most 120 bytes, else clipped by _clipped to as many."""
    text = str(path)
    if len(show(text).encode("utf-8", "surrogatepass")) <= 120:
        return show(text)
    return _clipped(text, show, 120 - len(f"... ({len(text)} characters)"))


def _at(path: str | Path, lineno: int, exc: object) -> FormatError:
    """The FormatError for a fault on line lineno of path, the path named as _named names it."""
    return FormatError(f"{_named(path)}:{lineno}: {exc}")


def _uint(text: str, what: str, echo: bool = True) -> int:
    """A non-negative integer field, written in ASCII decimal digits only; a fault quotes it if echo."""
    form = "in ASCII digits"
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # longer than int() reads
            form = f"of at most {sys.get_int_max_str_digits()} digits"
    raise ValueError(f"{what} must be integers {form}" + (f", got {_quoted(text)}" if echo else ""))


def _float(text: str, what: str) -> float:
    """A finite float field in the ASCII decimal form repr(float) writes."""
    if _FLOAT.fullmatch(text) and math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{what} must be finite decimal numbers, got {_quoted(text)}")


def _names(registry: AtomRegistry) -> list[str]:
    """Every atom's rendered name, indexed by id."""
    return [registry.render(a) for a in registry.ids()]


# ---------------------------------------------------------------- threads


def format_thread(thread: Thread, registry: AtomRegistry, params: Mapping[str, str]) -> Iterator[str]:
    """The lines of a thread and its registry; exact inverse of load_thread."""
    if len(registry.env_set) != len(registry):
        raise ValueError("cannot serialize registry: every atom must be environmental")
    action = registry.action_set
    yield from (THREAD_MAGIC, _params_line(params), f"atoms\t{len(registry)}")
    for atom_id in registry.ids():
        atom = registry.atom(atom_id)
        flag = "1" if atom_id in action else "0"
        yield "\t".join([str(atom_id), atom.predicate.name, *atom.args, flag])
    yield f"periods\t{thread.t_max}"
    for t in range(1, thread.t_max + 1):
        yield " ".join(map(str, sorted(thread.world(t))))


def save_thread(
    path: str | Path, thread: Thread, registry: AtomRegistry, params: Mapping[str, str]
) -> None:
    write_atomic(path, format_thread(thread, registry, params))


def load_thread(path: str | Path) -> tuple[Thread, AtomRegistry, dict[str, str]]:
    """Parse a thread file back into a frozen registry and thread."""
    lines, params = _read_lines(path, THREAD_MAGIC)
    registry = AtomRegistry()
    # Each distinct token text is checked once, where first met; a line's new
    # texts are all read as integers before any is checked against the atoms.
    ids: dict[str, int] = {}
    worlds = []
    lineno = 3
    try:
        if not lines or not lines[0].startswith("atoms\t"):
            raise ValueError("expected an atoms section")
        n_atoms = _parse_count(lines[0])
        if len(lines) < 1 + n_atoms + 1:
            raise ValueError("truncated atoms section")
        for lineno, line in enumerate(lines[1 : 1 + n_atoms], start=4):
            fields = line.split("\t")
            if len(fields) < 3:
                raise ValueError(f"malformed atom line {_quoted(line)}")
            declared, name, *rest = fields
            args, flag = rest[:-1], rest[-1]
            if flag not in ("0", "1"):
                raise ValueError(f"atom flag must be 0 or 1, got {_quoted(flag)}")
            atom_id = registry.intern(Predicate(name, len(args)), args)
            if atom_id != lineno - 4:  # interning found the atom already held
                raise ValueError(f"repeats the atom on line {atom_id + 4}")
            if str(atom_id) != declared:
                raise ValueError(f"atom ids must be dense and ascending, got {_quoted(declared)}")
            registry.mark_env(atom_id)
            if flag == "1":
                registry.mark_action(atom_id)
        lineno = 4 + n_atoms
        period_line = lines[1 + n_atoms]
        if not period_line.startswith("periods\t"):
            raise ValueError("expected a periods section")
        t_max = _parse_count(period_line)
        if t_max == 0:
            raise ValueError("a thread must contain at least one world")
        body = lines[2 + n_atoms :]
        if len(body) != t_max:
            raise ValueError(f"expected {_clipped(str(t_max))} period lines, found {len(body)}")
        for lineno, line in enumerate(body, start=lineno + 1):
            texts = line.split()
            new = {t: _uint(t, "period atom ids") for t in texts if t not in ids}
            for atom_id in new.values():
                if atom_id >= n_atoms:
                    raise ValueError(f"period references unknown atom id {_clipped(str(atom_id))}")
            ids.update(new)
            worlds.append([ids[t] for t in texts])
    except (ValueError, ArityError) as exc:
        raise _at(path, lineno, exc) from None
    registry.freeze()
    return Thread(worlds), registry, params


def _parse_count(line: str) -> int:
    """The count on an atoms or periods header line; a fault quotes the line, and not again its count."""
    return _uint(line.partition("\t")[2], f"malformed section header {_quoted(line)}: counts", echo=False)


# ------------------------------------------------------------------ rules


def _float_field(value: float) -> str:
    return repr(float(value))


def _rule_fields(
    rule: AptRule, stats: RuleStats, names: list[str], rendered: dict[int, tuple[RuleStats, str]]
) -> list[str]:
    """The columns rules and scored lines share: p, p*, rho, support, consequence, dim, atoms.

    rendered maps id(stats) to stats and its statistics text, for one call: by
    identity, as a value key would take -0.0 for 0.0, and holding stats so that
    its id is not reused.
    """
    entry = rendered.get(id(stats))
    if entry is None:
        numbers = [*map(_float_field, (stats.p, stats.p_star, stats.rho)), str(stats.support)]
        entry = rendered[id(stats)] = stats, "\t".join(numbers)
    atoms = rule.precondition.atoms
    return [entry[1], names[rule.consequence], str(len(atoms)), *(names[a] for a in atoms)]


def _parse_rule_fields(
    fields: list[str], stats_by_text: dict[tuple[str, ...], RuleStats]
) -> tuple[RuleStats, str, tuple[str, ...]]:
    """Inverse of _rule_fields: the range-checked stats, consequence text and atom texts.

    stats_by_text maps each statistics text (p, p*, rho, support) met so far to
    its RuleStats.  A text is checked only where it is first met, so a later
    line that spells it shares its RuleStats and skips only checks it passed.
    """
    key = tuple(fields[:4])
    stats = stats_by_text.get(key)
    if stats is None:
        p, p_star, rho = [_float(f, "rule statistics") for f in fields[:3]]
        supp = _uint(fields[3], "rule counts")
    dim = _uint(fields[5], "rule counts")
    atoms = tuple(fields[6:])
    if dim != len(atoms):
        raise ValueError(f"rule dimension {_clipped(str(dim))} != {len(atoms)} atoms")
    if len(set(atoms)) != dim:
        raise ValueError(f"precondition repeats an atom: {_clipped(' & '.join(atoms))}")
    if stats is None:
        stats = stats_by_text[key] = RuleStats(p, p_star, rho, supp)
    return stats, fields[4], atoms


def format_rules(
    rules: Iterable[tuple[AptRule, RuleStats]],
    registry: AtomRegistry,
    params: Mapping[str, str],
) -> Iterator[str]:
    names = _names(registry)
    rendered: dict[int, tuple[RuleStats, str]] = {}
    yield from (RULES_MAGIC, _params_line(params))
    for rule, stats in rules:
        yield "\t".join(_rule_fields(rule, stats, names, rendered))


def save_rules(
    path: str | Path,
    rules: Iterable[tuple[AptRule, RuleStats]],
    registry: AtomRegistry,
    params: Mapping[str, str],
) -> None:
    write_atomic(path, format_rules(rules, registry, params))


def load_rules(
    path: str | Path, registry: AtomRegistry
) -> tuple[list[tuple[AptRule, RuleStats]], dict[str, str]]:
    """Parse a rules file, resolving atom texts against the given registry.

    Each rule must be new to the file and have one of the registry's action
    atoms as its consequence.
    """
    lines, params = _read_lines(path, RULES_MAGIC)
    resolve = {name: a for a, name in enumerate(_names(registry))}
    action = registry.action_set
    stats_by_text: dict[tuple[str, ...], RuleStats] = {}
    first_line: dict[AptRule, int] = {}
    out: list[tuple[AptRule, RuleStats]] = []
    try:
        for lineno, line in enumerate(lines, start=3):
            fields = line.split("\t")
            if len(fields) < 7:
                raise ValueError(f"malformed rule line {_quoted(line)}")
            stats, consequence, atoms = _parse_rule_fields(fields, stats_by_text)
            try:
                rule = AptRule(Conjunction([resolve[a] for a in atoms]), resolve[consequence])
            except KeyError as exc:
                raise ValueError(f"unknown atom {_quoted(exc.args[0])} for this thread")
            except ValueError:
                quoted = _quoted(consequence)
                raise ValueError(f"rule consequence {quoted} may not appear in its own precondition")
            if rule.consequence not in action:
                raise ValueError(f"consequence {_clipped(consequence)} is not an action atom")
            if first_line.setdefault(rule, lineno) != lineno:
                raise ValueError(f"duplicate rule, first on line {first_line[rule]}")
            out.append((rule, stats))
    except ValueError as exc:
        raise _at(path, lineno, exc) from None
    return out, params


# ----------------------------------------------------------- scored rules


class ScoredRecord(NamedTuple):
    """A scored rule as stored on disk: atom texts plus the numbers."""

    consequence: str
    precondition: tuple[str, ...]
    eps_avg: float | None
    eps_min: float | None
    eps_frac: float | None
    related_count: int
    never_separated_count: int
    p: float
    p_star: float
    rho: float
    support: int


def format_scored(
    ranked: Mapping[AtomId, list[ScoredRule]],
    registry: AtomRegistry,
    params: Mapping[str, str],
) -> Iterator[str]:
    names = _names(registry)
    rendered: dict[int, tuple[RuleStats, str]] = {}
    yield from (SCORED_MAGIC, _params_line(params))
    for g in sorted(ranked):
        for sr in ranked[g]:
            eps = (
                (UNSCORED, UNSCORED, UNSCORED)
                if sr.is_unscored
                else tuple(_float_field(v) for v in (sr.eps_avg, sr.eps_min, sr.eps_frac))
            )
            counts = (str(sr.related_count), str(sr.never_separated_count))
            rule_fields = _rule_fields(sr.rule, sr.stats, names, rendered)
            yield "\t".join([*eps, *counts, *rule_fields])


def save_scored(
    path: str | Path,
    ranked: Mapping[AtomId, list[ScoredRule]],
    registry: AtomRegistry,
    params: Mapping[str, str],
) -> None:
    write_atomic(path, format_scored(ranked, registry, params))


def _parse_eps(fields: list[str]) -> tuple[float | None, float | None, float | None, int, int]:
    """The scored-only columns: eps_avg, eps_min, eps_frac, related, never_separated."""
    related_count, never_separated = [_uint(f, "scored counts") for f in fields[3:]]
    if never_separated > related_count:
        never, related = _clipped(str(never_separated)), _clipped(str(related_count))
        raise ValueError(f"never_separated {never} exceeds related {related}")
    if fields[:3] == [UNSCORED] * 3:
        if related_count:
            raise ValueError("an unscored rule must have related 0")
        return None, None, None, 0, 0
    if not related_count:
        raise ValueError("a rule related to nothing must be unscored")
    eps = [_float(f, "eps values") for f in fields[:3]]
    for name, value, low in zip(("eps_avg", "eps_min", "eps_frac"), eps, (-1.0, -1.0, 0.0)):
        if not low <= value <= 1.0:
            raise ValueError(f"{name} must lie in [{low:g}, 1], got {value!r}")
    return eps[0], eps[1], eps[2], related_count, never_separated


def load_scored(path: str | Path) -> tuple[list[ScoredRecord], dict[str, str]]:
    """Parse a scored-rules file into renderable records (registry-free)."""
    lines, params = _read_lines(path, SCORED_MAGIC)
    stats_by_text: dict[tuple[str, ...], RuleStats] = {}
    records: list[ScoredRecord] = []
    try:
        for lineno, line in enumerate(lines, start=3):
            fields = line.split("\t")
            if len(fields) < 12:
                raise ValueError(f"malformed scored line {_quoted(line)}")
            eps_and_counts = _parse_eps(fields[:5])
            stats, consequence, atoms = _parse_rule_fields(fields[5:], stats_by_text)
            numbers = stats.p, stats.p_star, stats.rho, stats.support
            records.append(ScoredRecord(consequence, atoms, *eps_and_counts, *numbers))
    except ValueError as exc:
        raise _at(path, lineno, exc) from None
    return records, params


# -------------------------------------------------------- counts, rejects


def format_counts(
    count_series: Mapping[tuple[str, str], Iterable[int]], params: Mapping[str, str]
) -> Iterator[str]:
    yield from (COUNTS_MAGIC, _params_line(params))
    for (predicate, theater) in sorted(count_series):
        counts = count_series[(predicate, theater)]
        yield "\t".join([predicate, theater, " ".join(str(c) for c in counts)])


def save_counts(
    path: str | Path,
    count_series: Mapping[tuple[str, str], Iterable[int]],
    params: Mapping[str, str],
) -> None:
    write_atomic(path, format_counts(count_series, params))


# The tab and every line boundary str.splitlines() knows: one record per line.
_DETAIL_SEPARATORS = str.maketrans(dict.fromkeys("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", " "))


def format_rejects(rejects: Iterable[Reject], params: Mapping[str, str]) -> Iterator[str]:
    yield from (REJECTS_MAGIC, _params_line(params))
    for reject in rejects:
        detail = reject.detail.translate(_DETAIL_SEPARATORS)
        yield "\t".join([str(reject.line), reject.reason, detail])


def save_rejects(path: str | Path, rejects: Iterable[Reject], params: Mapping[str, str]) -> None:
    write_atomic(path, format_rejects(rejects, params))
