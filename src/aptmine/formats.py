"""Versioned, line-oriented file formats.

Every file starts with a magic version line followed by one ``params``
line echoing the semantic parameters it was produced under (never paths or
timestamps, so equal inputs give byte-equal files).  Record lines are
tab-separated with numbers first and variable-length atom lists last;
atom arguments cannot contain tabs, parens, or commas (enforced at
interning), so the rendered form ``pred(a,b)`` needs no quoting.

Writes are atomic: content is built in memory and moved into place, so a
failed run leaves no partial output file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .model import AtomId, AtomRegistry, Conjunction, Predicate, Thread
from .stats import AptRule, RuleStats
from .causality import ScoredRule
from .ingestion import FormatError, Reject

THREAD_MAGIC = "aptmine-thread v1"
RULES_MAGIC = "aptmine-rules v1"
SCORED_MAGIC = "aptmine-scored v1"
COUNTS_MAGIC = "aptmine-counts v1"
REJECTS_MAGIC = "aptmine-rejects v1"

UNSCORED = "na"


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path via a unique, fsynced temp file in the same directory.

    The temp file is created exclusively under a random name, so concurrent
    writers never share one, and with mode 0o666 so the umask applies as it
    would to a plain write (mkstemp would make it 0o600).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _params_line(params: Mapping[str, str]) -> str:
    parts = [f"{key}={value}" for key, value in params.items()]
    return "\t".join(["params", *parts])


def _read_lines(path: str | Path, magic: str) -> tuple[list[str], dict[str, str]]:
    raw = Path(path).read_text(encoding="utf-8")
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise FormatError(f"{path}:1: expected first line {magic!r}")
    if len(lines) < 2 or not lines[1].startswith("params"):
        raise FormatError(f"{path}:2: expected a params line after the version line")
    params: dict[str, str] = {}
    for part in lines[1].split("\t")[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise FormatError(f"{path}:2: malformed params entry {part!r}")
        params[key] = value
    return lines[2:], params


def _uint(path: str | Path, lineno: int, text: str, what: str) -> int:
    """A non-negative integer field, written in ASCII decimal digits only."""
    if not (text.isascii() and text.isdigit()):
        raise FormatError(f"{path}:{lineno}: {what} must be integers in ASCII digits, got {text!r}")
    return int(text)


# ---------------------------------------------------------------- threads


def format_thread(thread: Thread, registry: AtomRegistry, params: Mapping[str, str]) -> str:
    """Serialize a thread and its registry; exact inverse of parse_thread."""
    env = registry.env_set
    action = registry.action_set
    for atom_id in action:
        if atom_id not in env:
            raise ValueError(
                f"cannot serialize registry: action atom {atom_id} is not environmental"
            )
    if len(env) != len(registry):
        raise ValueError("cannot serialize registry: every atom must be environmental")
    lines = [THREAD_MAGIC, _params_line(params), f"atoms\t{len(registry)}"]
    for atom_id in registry.ids():
        atom = registry.atom(atom_id)
        flag = "1" if atom_id in action else "0"
        lines.append("\t".join([str(atom_id), atom.predicate.name, *atom.args, flag]))
    lines.append(f"periods\t{thread.t_max}")
    for t in range(1, thread.t_max + 1):
        lines.append(" ".join(str(a) for a in sorted(thread.world(t))))
    return "\n".join(lines) + "\n"


def save_thread(
    path: str | Path, thread: Thread, registry: AtomRegistry, params: Mapping[str, str]
) -> None:
    write_atomic(path, format_thread(thread, registry, params))


def load_thread(path: str | Path) -> tuple[Thread, AtomRegistry, dict[str, str]]:
    """Parse a thread file back into a frozen registry and thread."""
    lines, params = _read_lines(path, THREAD_MAGIC)
    if not lines or not lines[0].startswith("atoms\t"):
        raise FormatError(f"{path}:3: expected an atoms section")
    n_atoms = _parse_count(path, 3, lines[0])
    if len(lines) < 1 + n_atoms + 1:
        raise FormatError(f"{path}:3: truncated atoms section")
    registry = AtomRegistry()
    action_ids: list[int] = []
    for lineno, line in enumerate(lines[1 : 1 + n_atoms], start=4):
        fields = line.split("\t")
        if len(fields) < 3:
            raise FormatError(f"{path}:{lineno}: malformed atom line {line!r}")
        declared, name, *rest = fields
        args, flag = rest[:-1], rest[-1]
        if flag not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: atom flag must be 0 or 1, got {flag!r}")
        try:
            atom_id = registry.intern(Predicate(name, len(args)), args)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}")
        if str(atom_id) != declared:
            raise FormatError(
                f"{path}:{lineno}: atom ids must be dense and ascending, got {declared!r}"
            )
        registry.mark_env(atom_id)
        if flag == "1":
            action_ids.append(atom_id)
    for atom_id in action_ids:
        registry.mark_action(atom_id)
    period_lineno = 4 + n_atoms
    period_line = lines[1 + n_atoms]
    if not period_line.startswith("periods\t"):
        raise FormatError(f"{path}:{period_lineno}: expected a periods section")
    t_max = _parse_count(path, period_lineno, period_line)
    if t_max == 0:
        raise FormatError(f"{path}:{period_lineno}: a thread must contain at least one world")
    body = lines[2 + n_atoms :]
    if len(body) != t_max:
        raise FormatError(
            f"{path}:{period_lineno}: expected {t_max} period lines, found {len(body)}"
        )
    worlds = []
    for lineno, line in enumerate(body, start=period_lineno + 1):
        members = [_uint(path, lineno, tok, "period atom ids") for tok in line.split()]
        for member in members:
            if member >= n_atoms:
                raise FormatError(f"{path}:{lineno}: period references unknown atom id {member}")
        worlds.append(members)
    registry.freeze()
    return Thread(worlds), registry, params


def _parse_count(path: str | Path, lineno: int, line: str) -> int:
    return _uint(path, lineno, line.partition("\t")[2], f"malformed section header {line!r}: counts")


# ------------------------------------------------------------------ rules


def _float_field(value: float) -> str:
    return repr(float(value))


def format_rules(
    rules: Iterable[tuple[AptRule, RuleStats]],
    registry: AtomRegistry,
    params: Mapping[str, str],
) -> str:
    lines = [RULES_MAGIC, _params_line(params)]
    for rule, stats in rules:
        lines.append(
            "\t".join(
                [
                    _float_field(stats.p),
                    _float_field(stats.p_star),
                    _float_field(stats.rho),
                    str(stats.support),
                    registry.render(rule.consequence),
                    str(rule.precondition.dimension),
                    *(registry.render(a) for a in rule.precondition.atoms),
                ]
            )
        )
    return "\n".join(lines) + "\n"


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
    """Parse a rules file, resolving atom texts against the given registry."""
    lines, params = _read_lines(path, RULES_MAGIC)
    resolve = {registry.render(a): a for a in registry.ids()}
    out: list[tuple[AptRule, RuleStats]] = []
    for lineno, line in enumerate(lines, start=3):
        fields = line.split("\t")
        if len(fields) < 7:
            raise FormatError(f"{path}:{lineno}: malformed rule line {line!r}")
        try:
            p, p_star, rho = (float(f) for f in fields[:3])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed rule numbers in {line!r}")
        supp = _uint(path, lineno, fields[3], "rule counts")
        dim = _uint(path, lineno, fields[5], "rule counts")
        atoms_text = fields[6:]
        if dim != len(atoms_text):
            raise FormatError(f"{path}:{lineno}: rule dimension {dim} != {len(atoms_text)} atoms")
        try:
            consequence = resolve[fields[4]]
            precondition = Conjunction(resolve[a] for a in atoms_text)
        except KeyError as exc:
            raise FormatError(f"{path}:{lineno}: unknown atom {exc.args[0]!r} for this thread")
        try:
            out.append((AptRule(precondition, consequence), RuleStats(p, p_star, rho, supp)))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}")
    return out, params


# ----------------------------------------------------------- scored rules


@dataclass(frozen=True, slots=True)
class ScoredRecord:
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
) -> str:
    lines = [SCORED_MAGIC, _params_line(params)]
    for g in sorted(ranked):
        for sr in ranked[g]:
            eps = (
                (UNSCORED, UNSCORED, UNSCORED)
                if sr.is_unscored
                else tuple(_float_field(v) for v in (sr.eps_avg, sr.eps_min, sr.eps_frac))
            )
            lines.append(
                "\t".join(
                    [
                        *eps,
                        str(sr.related_count),
                        str(sr.never_separated_count),
                        _float_field(sr.stats.p),
                        _float_field(sr.stats.p_star),
                        _float_field(sr.stats.rho),
                        str(sr.stats.support),
                        registry.render(sr.rule.consequence),
                        str(sr.rule.precondition.dimension),
                        *(registry.render(a) for a in sr.rule.precondition.atoms),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def save_scored(
    path: str | Path,
    ranked: Mapping[AtomId, list[ScoredRule]],
    registry: AtomRegistry,
    params: Mapping[str, str],
) -> None:
    write_atomic(path, format_scored(ranked, registry, params))


def load_scored(path: str | Path) -> tuple[list[ScoredRecord], dict[str, str]]:
    """Parse a scored-rules file into renderable records (registry-free)."""
    lines, params = _read_lines(path, SCORED_MAGIC)
    out: list[ScoredRecord] = []
    for lineno, line in enumerate(lines, start=3):
        fields = line.split("\t")
        if len(fields) < 12:
            raise FormatError(f"{path}:{lineno}: malformed scored line {line!r}")
        try:
            if fields[0] == UNSCORED:
                eps_avg = eps_min = eps_frac = None
            else:
                eps_avg, eps_min, eps_frac = (float(f) for f in fields[:3])
            p, p_star, rho = (float(f) for f in fields[5:8])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed scored numbers in {line!r}")
        related_count, never_separated, supp, dim = (
            _uint(path, lineno, fields[i], "scored counts") for i in (3, 4, 8, 10)
        )
        atoms_text = tuple(fields[11:])
        if dim != len(atoms_text):
            raise FormatError(f"{path}:{lineno}: scored dimension {dim} != {len(atoms_text)} atoms")
        out.append(
            ScoredRecord(
                consequence=fields[9],
                precondition=atoms_text,
                eps_avg=eps_avg,
                eps_min=eps_min,
                eps_frac=eps_frac,
                related_count=related_count,
                never_separated_count=never_separated,
                p=p,
                p_star=p_star,
                rho=rho,
                support=supp,
            )
        )
    return out, params


# -------------------------------------------------------- counts, rejects


def format_counts(
    count_series: Mapping[tuple[str, str], Iterable[int]], params: Mapping[str, str]
) -> str:
    lines = [COUNTS_MAGIC, _params_line(params)]
    for (predicate, theater) in sorted(count_series):
        counts = count_series[(predicate, theater)]
        lines.append("\t".join([predicate, theater, " ".join(str(c) for c in counts)]))
    return "\n".join(lines) + "\n"


def save_counts(
    path: str | Path,
    count_series: Mapping[tuple[str, str], Iterable[int]],
    params: Mapping[str, str],
) -> None:
    write_atomic(path, format_counts(count_series, params))


def format_rejects(rejects: Iterable[Reject], params: Mapping[str, str]) -> str:
    lines = [REJECTS_MAGIC, _params_line(params)]
    for reject in rejects:
        detail = reject.detail.replace("\t", " ").replace("\n", " ")
        lines.append("\t".join([str(reject.line), reject.reason, detail]))
    return "\n".join(lines) + "\n"


def save_rejects(path: str | Path, rejects: Iterable[Reject], params: Mapping[str, str]) -> None:
    write_atomic(path, format_rejects(rejects, params))
