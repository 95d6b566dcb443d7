"""Versioned, line-oriented file formats.

Every file starts with a magic version line followed by one ``params``
line echoing the semantic parameters it was produced under (never paths or
timestamps, so equal inputs give byte-equal files).  Record lines are
tab-separated with numbers first and variable-length atom lists last;
atom arguments cannot contain tabs, parens, or commas (enforced at
interning), so the rendered form ``pred(a,b)`` needs no quoting.

Writes are atomic: content is built in memory and moved into place, so a
failed run leaves no partial output file.  Loaders accept numbers only as
the writers spell them (ASCII decimal, finite), check their ranges, and
raise every fault as a FormatError naming path:line.
"""

from __future__ import annotations

import math
import os
import re
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
# The decimal forms repr(float) writes; float() alone would also read a '+'
# sign, '_', whitespace, non-ASCII digits, nan and inf.
_FLOAT = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?")


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path via a unique, fsynced temp file in the same directory.

    The temp file is created exclusively under a random name, so concurrent
    writers never share one, and with mode 0o666 so the umask applies as it
    would to a plain write (mkstemp would make it 0o600).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
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


def decode_utf8(path: str | Path, data: bytes) -> str:
    """The file's bytes as text; bad UTF-8 raises a FormatError naming path:line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})")


def _read_lines(path: str | Path, magic: str) -> tuple[list[str], dict[str, str]]:
    lines = decode_utf8(path, Path(path).read_bytes()).split("\n")
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


def _float(path: str | Path, lineno: int, text: str, what: str) -> float:
    """A finite float field in the ASCII decimal form repr(float) writes."""
    if _FLOAT.fullmatch(text) and math.isfinite(value := float(text)):
        return value
    raise FormatError(f"{path}:{lineno}: {what} must be finite decimal numbers, got {text!r}")


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


def _rule_fields(rule: AptRule, stats: RuleStats, registry: AtomRegistry) -> list[str]:
    """The columns rules and scored lines share: p, p*, rho, support, consequence, dim, atoms."""
    return [
        *(_float_field(v) for v in (stats.p, stats.p_star, stats.rho)),
        str(stats.support),
        registry.render(rule.consequence),
        str(rule.precondition.dimension),
        *(registry.render(a) for a in rule.precondition.atoms),
    ]


def _parse_rule_fields(
    path: str | Path, lineno: int, fields: list[str]
) -> tuple[RuleStats, str, tuple[str, ...]]:
    """Inverse of _rule_fields: the range-checked stats, consequence text and atom texts."""
    p, p_star, rho = [_float(path, lineno, f, "rule statistics") for f in fields[:3]]
    supp, dim = [_uint(path, lineno, fields[i], "rule counts") for i in (3, 5)]
    atoms = tuple(fields[6:])
    if dim != len(atoms):
        raise FormatError(f"{path}:{lineno}: rule dimension {dim} != {len(atoms)} atoms")
    if len(set(atoms)) != dim:
        raise FormatError(f"{path}:{lineno}: precondition repeats an atom: {' & '.join(atoms)}")
    try:
        return RuleStats(p, p_star, rho, supp), fields[4], atoms
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}")


def format_rules(
    rules: Iterable[tuple[AptRule, RuleStats]],
    registry: AtomRegistry,
    params: Mapping[str, str],
) -> str:
    lines = [RULES_MAGIC, _params_line(params)]
    lines.extend("\t".join(_rule_fields(rule, stats, registry)) for rule, stats in rules)
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
    """Parse a rules file, resolving atom texts against the given registry.

    Each rule must be new to the file and have one of the registry's action
    atoms as its consequence.
    """
    lines, params = _read_lines(path, RULES_MAGIC)
    resolve = {registry.render(a): a for a in registry.ids()}
    out: list[tuple[AptRule, RuleStats]] = []
    seen: set[AptRule] = set()
    for lineno, line in enumerate(lines, start=3):
        fields = line.split("\t")
        if len(fields) < 7:
            raise FormatError(f"{path}:{lineno}: malformed rule line {line!r}")
        stats, consequence, atoms = _parse_rule_fields(path, lineno, fields)
        try:
            rule = AptRule(Conjunction(resolve[a] for a in atoms), resolve[consequence])
        except KeyError as exc:
            raise FormatError(f"{path}:{lineno}: unknown atom {exc.args[0]!r} for this thread")
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}")
        if not registry.is_action(rule.consequence):
            raise FormatError(f"{path}:{lineno}: consequence {consequence} is not an action atom")
        if rule in seen:
            first = next(n for n, (r, _) in enumerate(out, start=3) if r == rule)
            raise FormatError(f"{path}:{lineno}: duplicate rule, first on line {first}")
        seen.add(rule)
        out.append((rule, stats))
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
            counts = (str(sr.related_count), str(sr.never_separated_count))
            lines.append("\t".join([*eps, *counts, *_rule_fields(sr.rule, sr.stats, registry)]))
    return "\n".join(lines) + "\n"


def save_scored(
    path: str | Path,
    ranked: Mapping[AtomId, list[ScoredRule]],
    registry: AtomRegistry,
    params: Mapping[str, str],
) -> None:
    write_atomic(path, format_scored(ranked, registry, params))


def _parse_eps(
    path: str | Path, lineno: int, fields: list[str]
) -> tuple[float | None, float | None, float | None, int, int]:
    """The scored-only columns: eps_avg, eps_min, eps_frac, related, never_separated."""
    related_count, never_separated = [_uint(path, lineno, f, "scored counts") for f in fields[3:]]
    if never_separated > related_count:
        raise FormatError(
            f"{path}:{lineno}: never_separated {never_separated} exceeds related {related_count}"
        )
    if fields[:3] == [UNSCORED] * 3:
        if related_count:
            raise FormatError(f"{path}:{lineno}: an unscored rule must have related 0")
        return None, None, None, 0, 0
    if not related_count:
        raise FormatError(f"{path}:{lineno}: a rule related to nothing must be unscored")
    eps = [_float(path, lineno, f, "eps values") for f in fields[:3]]
    for name, value, low in zip(("eps_avg", "eps_min", "eps_frac"), eps, (-1.0, -1.0, 0.0)):
        if not low <= value <= 1.0:
            raise FormatError(f"{path}:{lineno}: {name} must lie in [{low:g}, 1], got {value!r}")
    return eps[0], eps[1], eps[2], related_count, never_separated


def load_scored(path: str | Path) -> tuple[list[ScoredRecord], dict[str, str]]:
    """Parse a scored-rules file into renderable records (registry-free)."""
    lines, params = _read_lines(path, SCORED_MAGIC)
    out: list[ScoredRecord] = []
    for lineno, line in enumerate(lines, start=3):
        fields = line.split("\t")
        if len(fields) < 12:
            raise FormatError(f"{path}:{lineno}: malformed scored line {line!r}")
        eps_and_counts = _parse_eps(path, lineno, fields[:5])
        stats, consequence, atoms = _parse_rule_fields(path, lineno, fields[5:])
        out.append(
            ScoredRecord(
                consequence, atoms, *eps_and_counts, stats.p, stats.p_star, stats.rho, stats.support
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
