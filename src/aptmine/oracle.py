"""Brute-force references and synthetic corpora.

Everything here favours directness over speed.  Statistics are recomputed
by scanning world frozensets and counting; probabilities are exact
``Fraction``s; the extraction and comparison references enumerate without
any of the engine's pruning or vectorization; the ingest reference decides
each CSV row on its own and counts each period by scanning every event.
Tests pit the engine against these on small instances, so the two code
paths must share nothing but the data types and the counting conventions.

A statistic whose conditioning event never occurs is None, as in the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .extraction import ExtractParams, subset_count
from .formats import Reject
from .ingestion import BuiltCorpus, CorpusConfig, EmptyCorpusError
from .model import (
    AptmineError,
    Atom,
    AtomId,
    AtomRegistry,
    Conjunction,
    FormatError,
    Predicate,
    RESERVED,
    Thread,
    _clipped,
    _quoted,
)
from .stats import AptRule, rule_sort_key


class OracleGuardError(AptmineError):
    """The brute-force instance size estimate exceeded the guard."""


PAIR_GUARD = 1_000_000  # most candidate pairs brute_force_extract will evaluate


# ------------------------------------------------------------- T1 fixture


def t1_corpus() -> tuple[Thread, AtomRegistry]:
    """The worked six-period example: atoms a, b, g with g the only action.

    Worlds: {a,b}, {g}, {b}, {g,a}, {b}, {}.
    """
    registry = AtomRegistry()
    a = registry.intern(Predicate("a", 0))
    b = registry.intern(Predicate("b", 0))
    g = registry.intern(Predicate("g", 0))
    for atom in (a, b, g):
        registry.mark_env(atom)
    registry.mark_action(g)
    thread = Thread([{a, b}, {g}, {b}, {g, a}, {b}, ()])
    registry.freeze()
    return thread, registry


# ------------------------------------------------------- exact statistics


def exact_prior(thread: Thread, atom: Atom) -> Fraction:
    hits = sum(1 for t in range(1, thread.t_max + 1) if atom.atom_id in thread.world(t))
    return Fraction(hits, thread.t_max)


def exact_rule_probability(
    thread: Thread, atoms: Iterable[AtomId], consequence: AtomId
) -> Fraction | None:
    atoms = frozenset(atoms)
    numerator = denominator = 0
    for t in range(1, thread.t_max):
        if atoms <= thread.world(t):
            denominator += 1
            if consequence in thread.world(t + 1):
                numerator += 1
    if denominator == 0:
        return None
    return Fraction(numerator, denominator)


def exact_negative_probability(
    thread: Thread, atoms: Iterable[AtomId], consequence: AtomId
) -> Fraction | None:
    atoms = frozenset(atoms)
    unpreceded = total = 0
    for t in range(1, thread.t_max + 1):
        if consequence in thread.world(t):
            total += 1
            if t == 1 or not atoms <= thread.world(t - 1):
                unpreceded += 1
    if total == 0:
        return None
    return Fraction(unpreceded, total)


def exact_support(thread: Thread, atoms: Iterable[AtomId]) -> int:
    atoms = frozenset(atoms)
    return sum(1 for t in range(1, thread.t_max + 1) if atoms <= thread.world(t))


# ------------------------------------------------------ reference mining


@dataclass(frozen=True, slots=True)
class OracleRuleStats:
    p: Fraction
    p_star: Fraction
    rho: Fraction
    support: int


@dataclass(frozen=True)
class OracleExtraction:
    rules: Mapping[AptRule, OracleRuleStats]
    combinations_explored: int


def brute_force_extract(
    thread: Thread, registry: AtomRegistry, params: ExtractParams
) -> OracleExtraction:
    """Exhaustively evaluate every (subset of frequent env atoms, consequence) pair.

    No per-period pruning: every subset of at most max_dim frequent atoms is
    tried against every occurring consequence.  Refuses instances whose
    candidate-pair estimate exceeds the guard.
    """
    frequent = sorted(
        a for a in registry.env_set if exact_support(thread, [a]) >= params.supp_lb
    )
    consequences = sorted(
        g
        for g in registry.action_set
        if any(g in thread.world(t) for t in range(1, thread.t_max + 1))
    )
    estimate = sum(
        subset_count(len([a for a in frequent if a != g]), params.max_dim)
        for g in consequences
    )
    if estimate > PAIR_GUARD:
        raise OracleGuardError(
            f"instance needs {estimate} candidate pairs, guard allows {PAIR_GUARD}"
        )

    rules: dict[AptRule, OracleRuleStats] = {}
    explored = 0
    for g in consequences:
        rho = exact_prior(thread, Atom(g))
        pool = [a for a in frequent if a != g]
        for size in range(1, params.max_dim + 1):
            for combo in combinations(pool, size):
                explored += 1
                p = exact_rule_probability(thread, combo, g)
                if p is None:
                    continue
                supp = exact_support(thread, combo)
                if supp >= params.supp_lb and p > rho and p >= params.min_prob:
                    rules[AptRule(Conjunction(combo), g)] = OracleRuleStats(
                        p, exact_negative_probability(thread, combo, g), rho, supp
                    )
    return OracleExtraction(rules, explored)


# -------------------------------------------------- reference comparison


@dataclass(frozen=True, slots=True)
class OracleScore:
    eps_avg: Fraction | None
    eps_min: Fraction | None
    eps_frac: Fraction | None
    related_count: int
    never_separated_count: int


def brute_force_scores(
    thread: Thread, rules: Iterable[AptRule]
) -> dict[AptRule, OracleScore]:
    """Score every rule against every other, filtering by relatedness afterwards."""
    members = sorted(set(rules), key=rule_sort_key)
    out: dict[AptRule, OracleScore] = {}
    for r in members:
        c = frozenset(r.precondition.atoms)
        g = r.consequence
        deltas: list[Fraction] = []
        never_separated = 0
        for r2 in members:
            if r2 == r:
                continue
            if r2.consequence != g:
                continue
            c2 = frozenset(r2.precondition.atoms)
            co_fired = any(
                c <= thread.world(t) and c2 <= thread.world(t) and g in thread.world(t + 1)
                for t in range(1, thread.t_max)
            )
            if not co_fired:
                continue
            p_both = exact_rule_probability(thread, c | c2, g)
            only_numer = only_denom = 0
            for t in range(1, thread.t_max):
                if c2 <= thread.world(t) and not c <= thread.world(t):
                    only_denom += 1
                    if g in thread.world(t + 1):
                        only_numer += 1
            if only_denom == 0:
                never_separated += 1
                deltas.append(p_both)
            else:
                deltas.append(p_both - Fraction(only_numer, only_denom))
        if not deltas:
            out[r] = OracleScore(None, None, None, 0, 0)
            continue
        n = len(deltas)
        out[r] = OracleScore(
            sum(deltas, Fraction(0)) / n,
            min(deltas),
            Fraction(sum(1 for d in deltas if d >= 0), n),
            n,
            never_separated,
        )
    return out


# ------------------------------------------------------ reference ingest


def _reference_rows(text: str) -> list[tuple[int, list[str]]]:
    """Each CSV row of the text, BOM dropped, with the physical line it starts on."""
    import csv
    import io

    consumed = 0

    def lines():
        nonlocal consumed
        for line in io.StringIO(text.removeprefix("\ufeff"), newline=""):
            consumed += 1
            yield line

    reader = csv.reader(lines())
    out = []
    while True:
        start = consumed + 1
        try:
            out.append((start, next(reader)))
        except StopIteration:
            return out


def _reference_day(text: str):
    """The date spelled YYYY-MM-DD in ASCII digits, else None."""
    import datetime as dt

    digits = text[:4] + text[5:7] + text[8:]
    if len(text) != 10 or text[4] + text[7] != "--" or not all("0" <= c <= "9" for c in digits):
        return None
    try:
        return dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))
    except ValueError:
        return None


def _reference_parse_reject(cells: list[str]) -> tuple[str, str] | None:
    """Why a non-blank event row is unusable on its own, as (reason, detail), else None."""
    if len(cells) != 5:
        return "wrong field count", ",".join(cells)
    date, predicate, arg1, arg2, _ = (cell.strip() for cell in cells)
    if _reference_day(date) is None:
        return "unparseable date", date
    if not predicate:
        return "missing predicate", ",".join(cells)
    if predicate.endswith("Spike"):
        return "reserved predicate", predicate
    if arg2 and not arg1:
        return "gap in arguments", ",".join(cells)
    for value in (predicate, arg1, arg2):
        if set(value) & set(RESERVED):
            return "reserved character", value
    return None


def _reference_spikes(counts: tuple[int, ...], t: int, window: int, k: float) -> bool:
    """Whether period t's count spikes at k against the ``window`` counts before it."""
    if t <= window:
        return False
    recent = [Fraction(c) for c in counts[t - 1 - window : t - 1]]
    mean = sum(recent) / window
    variance = sum((c - mean) ** 2 for c in recent) / window
    value = counts[t - 1]
    return value > mean and (value - mean) ** 2 >= Fraction(repr(k)) ** 2 * variance


def reference_ingest(
    csv_text: str, map_text: str, config: CorpusConfig
) -> tuple[BuiltCorpus, list[Reject]]:
    """Ingest an event CSV by the README's rules, one row and one period at a time.

    The city map comes from ``map_text`` (``config.location_map`` is not
    read); every other setting comes from ``config``.  Returns the corpus
    and the rejects: those a row earns on its own (field count, date,
    predicate, argument gap, reserved character) in line order, then those
    that need the config or the other rows (date before the epoch,
    unmapped location, arity conflict) in line order.  Periods count days
    from the epoch by ``date.toordinal()``.  Event atoms are numbered by
    sorting the kept events by (period, predicate, args); the first atom of
    a predicate in that order fixes its arity.  Spike atoms follow, by
    predicate, theater (Iraq, Syria, Total) and threshold.  A period spikes
    at k when, against the previous ``window`` counts in exact fractions,
    count > mean and (count - mean)**2 >= k**2 * variance, with k the
    decimal ``repr(k)`` spells.
    Raises FormatError for a bad header or map row, EmptyCorpusError when
    no event is left, and ValueError for a spike series no event has.
    """
    import csv
    import io

    theaters = ("Iraq", "Syria")
    places: dict[str, str] = {}
    for cells in csv.reader(io.StringIO(map_text.removeprefix("\ufeff"), newline="")):
        if not cells:
            continue
        if len(cells) != 2 or cells[1].strip() not in theaters:
            raise FormatError(f"bad location map row {cells!r}")
        places[cells[0].strip()] = cells[1].strip()

    rows = _reference_rows(csv_text)
    header = ("date", "predicate", "arg1", "arg2", "actor")
    if not rows or tuple(cell.strip() for cell in rows[0][1]) != header:
        raise FormatError("bad or missing header")
    parse_rejects: list[Reject] = []
    events = []  # (line, date, predicate, args)
    for line, cells in rows[1:]:
        if not cells:
            continue
        why = _reference_parse_reject(cells)
        if why is not None:
            parse_rejects.append(Reject(line, *why))
            continue
        date, predicate, arg1, arg2, _ = (cell.strip() for cell in cells)
        events.append((line, _reference_day(date), predicate, tuple(a for a in (arg1, arg2) if a)))
    if not events:
        raise EmptyCorpusError("no events")

    observed = {predicate for _, _, predicate, _ in events}
    series = set(config.spike_series) if config.spike_series is not None else observed
    if not series <= observed:
        raise ValueError(f"unknown spike series {sorted(series - observed)}")
    build_rejects: list[Reject] = []
    placed = []  # (period, predicate, args, line, theater)
    for line, date, predicate, args in events:
        days = date.toordinal() - config.epoch.toordinal()
        theater = places.get(args[-1]) if args else None
        if days < 0:
            build_rejects.append(Reject(line, "date before epoch", date.isoformat()))
        elif predicate in series and theater is None:
            location = args[-1] if args else "<no location>"
            build_rejects.append(Reject(line, "unmapped location", location))
        else:
            placed.append((days // config.period_days + 1, predicate, args, line, theater))

    ids: dict[tuple[str, tuple[str, ...]], int] = {}
    arities: dict[str, int] = {}
    kept = []
    for period, predicate, args, line, theater in sorted(placed):
        arity = arities.setdefault(predicate, len(args))
        if arity != len(args):
            detail = (
                f"predicate {_quoted(predicate)} already registered with arity {arity}, "
                f"got arity {len(args)}"
            )
            build_rejects.append(Reject(line, "uninternable atom", detail))
            continue
        ids.setdefault((predicate, args), len(ids))
        kept.append((period, predicate, args, theater))
    if not kept:
        raise EmptyCorpusError("every event was rejected")

    t_max = max(period for period, *_ in kept)
    registry = AtomRegistry()
    worlds: list[set[int]] = [set() for _ in range(t_max)]
    for predicate, args in ids:  # in id order
        registry.mark_env(registry.intern(Predicate(predicate, len(args)), args))
    for period, predicate, args, _ in kept:
        worlds[period - 1].add(ids[predicate, args])

    counted = series if config.spike_series is not None else {p for _, p, _, _ in kept}
    window = config.spike_config.window
    count_series: dict[tuple[str, str], tuple[int, ...]] = {}
    for predicate in sorted(counted):
        for theater in (*theaters, "Total"):
            counts = tuple(
                sum(
                    1
                    for period, p, _, place in kept
                    if p == predicate and period == t and theater in (place, "Total")
                )
                for t in range(1, t_max + 1)
            )
            count_series[predicate, theater] = counts
            for k in config.spike_config.thresholds:
                periods = [t for t in range(1, t_max + 1) if _reference_spikes(counts, t, window, k)]
                if not periods:
                    continue
                atom = registry.intern(Predicate(predicate + "Spike", 2), (theater, f"{k:g}sigma"))
                registry.mark_env(atom)
                registry.mark_action(atom)
                for t in periods:
                    worlds[t - 1].add(atom)

    registry.freeze()
    corpus = BuiltCorpus(Thread(worlds), registry, count_series)
    return corpus, parse_rejects + sorted(build_rejects, key=lambda r: r.line)


# ------------------------------------------------------ synthetic corpora

@dataclass(frozen=True, slots=True)
class PlantedRule:
    """A ground-truth rule to embed: co-placed precondition atoms whose
    consequence fires in the next period with the given probability."""

    precondition: tuple[int, ...]
    consequence: str
    fire_prob: float
    placements: int

    def __post_init__(self) -> None:
        if not self.precondition:
            raise ValueError("planted precondition must not be empty")
        if len(set(self.precondition)) != len(self.precondition):
            raise ValueError("planted precondition atoms must be distinct")
        if not 0.0 <= self.fire_prob <= 1.0:
            raise ValueError(f"fire_prob must lie in [0, 1], got {self.fire_prob}")
        if self.placements < 1:
            raise ValueError(f"placements must be positive, got {_clipped(str(self.placements))}")


@dataclass(frozen=True, slots=True)
class SynthSpec:
    n_env: int
    t_max: int
    planted: tuple[PlantedRule, ...] = ()
    density: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_env < 1:
            raise ValueError(f"n_env must be positive, got {self.n_env}")
        if self.t_max < 2:
            raise ValueError(f"t_max must be at least 2, got {self.t_max}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {self.density}")
        labels = [p.consequence for p in self.planted]
        if len(set(labels)) != len(labels):
            raise ValueError("planted consequences must have distinct labels")
        for plant in self.planted:
            if len(plant.precondition) > self.n_env:
                raise ValueError(
                    f"planted precondition has {len(plant.precondition)} atoms, "
                    f"only {self.n_env} environmental atoms exist"
                )
            if any(not 0 <= i < self.n_env for i in plant.precondition):
                raise ValueError("planted precondition indices out of range")
            if plant.placements > self.t_max - 1:
                placements = _clipped(str(plant.placements))
                raise ValueError(f"cannot place {placements} firings in {self.t_max - 1} slots")


def generate_synthetic(spec: SynthSpec) -> BuiltCorpus:
    """Random background plus planted rules, fully determined by the seed.

    Environmental atoms env(0..n_env-1) get ids 0..n_env-1; each planted
    consequence act(label) follows, marked action and environmental.  The
    consequence's base rate away from firings equals the background
    density.  Placement times are drawn from 1..t_max-1 so every firing
    has a successor world.
    """
    rng = random.Random(spec.seed)
    registry = AtomRegistry()
    env_pred = Predicate("env", 1)
    for i in range(spec.n_env):
        atom = registry.intern(env_pred, (str(i),))
        registry.mark_env(atom)
    act_pred = Predicate("act", 1)
    consequence_ids = []
    for plant in spec.planted:
        atom = registry.intern(act_pred, (plant.consequence,))
        registry.mark_env(atom)
        registry.mark_action(atom)
        consequence_ids.append(atom)

    worlds: list[set[int]] = [set() for _ in range(spec.t_max)]
    draw, density = rng.random, spec.density
    for atom in (*range(spec.n_env), *consequence_ids):
        for world in worlds:
            if draw() < density:
                world.add(atom)
    for plant, atom in zip(spec.planted, consequence_ids):
        scheduled = sorted(rng.sample(range(1, spec.t_max), plant.placements))
        for t in scheduled:
            worlds[t - 1].update(plant.precondition)
            if rng.random() < plant.fire_prob:
                worlds[t].add(atom)

    registry.freeze()
    return BuiltCorpus(Thread(worlds), registry)


def sparse_benchmark_corpus(seed: int = 2024) -> tuple[Thread, AtomRegistry]:
    """A corpus shaped like a sparse incident dataset, for efficiency tests.

    980 atoms over 30 periods.  Exactly 93 atoms are active each period: 47
    drawn from a pool of 200 recurring atoms (the first 6 of which double
    as action atoms with 7 occurrences each), the rest filled from
    one-or-two-shot rare atoms that can never clear a support bound of 3.
    Deterministic for a fixed seed.
    """
    n_env, t_max, n_core, n_act, act_weeks = 980, 30, 200, 6, 7
    weekly_core, rare_fill = 47, 93 - 47

    rng = random.Random(seed)
    registry = AtomRegistry()
    env_pred = Predicate("env", 1)
    for i in range(n_env):
        atom = registry.intern(env_pred, (str(i),))
        registry.mark_env(atom)
    for atom in range(n_act):
        registry.mark_action(atom)

    worlds: list[set[int]] = [set() for _ in range(t_max)]
    for atom in range(n_act):
        for week in rng.sample(range(1, t_max + 1), act_weeks):
            worlds[week - 1].add(atom)
    others = list(range(n_act, n_core))
    for week in range(t_max):
        need = weekly_core - len(worlds[week])
        worlds[week].update(rng.sample(others, need))

    uses = list(range(n_core, n_env)) * 2
    rng.shuffle(uses)
    for week in range(t_max):
        placed = 0
        stash: list[int] = []
        while placed < rare_fill:
            atom = uses.pop()
            if atom in worlds[week]:
                stash.append(atom)
                continue
            worlds[week].add(atom)
            placed += 1
        uses.extend(stash)

    registry.freeze()
    return Thread(worlds), registry
