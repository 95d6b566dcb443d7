"""Causality scoring of extracted rules against their consequence group.

Two rules are related when they share a consequence and their preconditions
jointly fire somewhere with the consequence in the successor world.  Each
related pair contributes a delta p_both - p_notfirst; a rule's eps_avg,
eps_min and eps_frac summarize its deltas over the whole group.  When the
second precondition never occurs without the first, p_notfirst is taken as
0 and the pair is flagged NeverSeparated rather than dropped.

Both paths count through the group's stats.ConsequenceCounter.  Grouped
scoring first splits a group into mask classes: members whose masks, cut
to the counter's horizon (the times with a successor world), are equal.
Such members meet every other member alike, so a class is scored once and
each member takes its eps tuple with its own rule and stats.  Each
unordered pair of classes i <= j is counted once and credits both rows:
row i against class j with the weight |j|, and, off the diagonal, row j
against class i with the weight |i|.  On the diagonal the weight is
|i| - 1: a member meets each of its own siblings, when related, with the
never-separated delta p_both - 0.  The counts come from one time->rules
index per group over the class masks: each class's set bits, row by row,
and the same bits sorted by time, then row.  A set bit of class i expands
into the classes set at its time from i on, and the cell (i, j) counts
the expansions that meet j (co-occur) and those at the counter's
qualifying times (co-fired, the successor world holds the consequence).
Each expansion is one key, its cell with an at-goal flag in the low bit,
so one sort of a block's keys lines each cell's expansions up as a run:
its length is the co-occur count and its flags sum to the co-fired count.
With c distinct masks, c_t of them set at time t, a group costs
sum_t c_t * (c_t + 1) / 2 expansions.  Blocks are cut by that count, at
most _BLOCK_EXPANSIONS of them and _BLOCK_ROWS classes (a row that alone
makes more is a block of its own), so the group holds its set bits and
one block's expansions: no n x T matrix, no n**2 * T products and no
c-wide count rows.  The sort costs O(E log E) for a block's E
expansions, where counting into dense rows would cost O(E + _BLOCK_ROWS *
c): it pays where a block has far fewer expansions than cells, as in a
large group of sparse masks.

The counts are exact int64 integers, below t_max and so far below 2**53;
numpy divides two of them as the same correctly rounded float64 division
Python does for the scalar path (causal_scores).  Each block gathers its
related cells, divides and takes the deltas at once, for both rows of a
cell.  Every p is a/b with 0 < b < t_max, so it and every delta are whole
multiples of 2**-K for K = t_max.bit_length() + 53.  A delta scaled by
2**K is thus an integer of at most K + 1 bits.  Its magnitude split into
32-bit limbs, each limb given the delta's sign, weighted and summed per
class row in int64, it gives each row's exact sum, rounded once (a Python
int divided by 2**K) to the same float math.fsum gives, whatever the
order.  So eps_avg equals the scalar path's fsum over the rule's deltas
one pair at a time; eps_min and the eps_frac and never-separated counts
do not depend on order either.  Nor does the ranking, whose key is total
within a group, so a group's members are scored in the order given.
So the batched path is bit-identical to the scalar one, which remains the
readable reference and keeps its own aggregator, _finish (with fsum), so
the two aggregations check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

from .model import AptmineError, AtomId, Thread, iter_mask_times
from .stats import AptRule, ConsequenceCounter, RuleStats, evaluate_rule, rule_sort_key

if TYPE_CHECKING:
    import numpy as np

_BLOCK_ROWS = 32  # mask classes whose expansions are sorted at once, at most
_BLOCK_EXPANSIONS = 16384  # and the expansions they make, unless one row alone makes more


class UnrelatedRulesError(AptmineError):
    """Pairwise probabilities were requested for rules that are not related."""


@dataclass(frozen=True, slots=True)
class PairProbs:
    """Conditional probabilities of one ordered related pair (r, r2)."""

    p_both: float
    p_notfirst: float
    never_separated: bool = False


@dataclass(frozen=True, slots=True)
class ScoredRule:
    """One rule's aggregate standing within its consequence group.

    The eps fields are None exactly when the rule is related to nothing
    (related_count == 0); such a rule is unscored, not scored zero.
    """

    rule: AptRule
    stats: RuleStats
    eps_avg: float | None
    eps_min: float | None
    eps_frac: float | None
    related_count: int
    never_separated_count: int

    @property
    def is_unscored(self) -> bool:
        return self.related_count == 0


def related(thread: Thread, r: AptRule, r2: AptRule) -> bool:
    """True when r and r2 share a consequence and co-fire before it somewhere."""
    if r == r2:
        raise ValueError("relatedness is defined for distinct rules")
    if r.consequence != r2.consequence:
        return False
    both = thread.times_mask(r.precondition.atoms) & thread.times_mask(r2.precondition.atoms)
    return bool(both & ConsequenceCounter(thread, r.consequence).qualifying)


def pair_probs(thread: Thread, r: AptRule, r2: AptRule) -> PairProbs:
    """p_both and p_notfirst for a related pair; raises if unrelated."""
    if not related(thread, r, r2):
        raise UnrelatedRulesError(f"rules {r} and {r2} are not related on this thread")
    first = thread.times_mask(r.precondition.atoms)
    second = thread.times_mask(r2.precondition.atoms)
    counter = ConsequenceCounter(thread, r.consequence)
    p_both = counter.p(first & second)
    p_notfirst = counter.p(second & ~first)
    if p_notfirst is None:
        return PairProbs(p_both, 0.0, True)
    return PairProbs(p_both, p_notfirst, False)


def causal_scores(thread: Thread, r: AptRule, pool: Iterable[AptRule]) -> ScoredRule:
    """Score one rule against a pool it belongs to (scalar reference path)."""
    members = sorted(set(pool), key=rule_sort_key)
    if r not in members:
        raise ValueError("rule must be a member of its comparison pool")
    deltas: list[float] = []
    never_separated = 0
    for r2 in members:
        if r2 == r or r2.consequence != r.consequence:
            continue
        if not related(thread, r, r2):
            continue
        pp = pair_probs(thread, r, r2)
        never_separated += pp.never_separated
        deltas.append(pp.p_both - pp.p_notfirst)
    stats = evaluate_rule(thread, r)
    return _finish(r, stats, deltas, never_separated)


def _finish(
    rule: AptRule, stats: RuleStats, deltas: list[float], never_separated: int
) -> ScoredRule:
    if not deltas:
        return ScoredRule(rule, stats, None, None, None, 0, 0)
    n = len(deltas)
    return ScoredRule(
        rule,
        stats,
        math.fsum(deltas) / n,
        min(deltas),
        sum(1 for d in deltas if d >= 0.0) / n,
        n,
        never_separated,
    )


def _rank_key(sr: ScoredRule):
    # Scored above unscored; then eps_avg, p, support descending; then
    # canonical precondition order.  Total, so rankings are deterministic.
    if sr.is_unscored:
        return (1, 0.0, 0.0, 0, sr.rule.precondition.atoms)
    return (0, -sr.eps_avg, -sr.stats.p, -sr.stats.support, sr.rule.precondition.atoms)


def _time_index(masks: list[int], goal: int) -> tuple[np.ndarray, ...]:
    """The masks' set bits, row by row, and where each one expands.

    Row k's set times, ascending, are ``times[ptr[k]:ptr[k + 1]]``; ``rows``
    holds each one's row and ``at_goal`` whether goal has that time.
    ``by_time`` lists the same bits' rows by time, then by row, and bit b
    sits at ``first[b]`` in it, so the rows set at its time from its own
    row on are ``by_time[first[b]:first[b] + lens[b]]``.
    """
    import numpy as np

    ptr = np.cumsum([0, *map(int.bit_count, masks)], dtype=np.int64)
    rows = np.repeat(np.arange(len(masks), dtype=np.int64), np.diff(ptr))
    times = np.fromiter(chain.from_iterable(map(iter_mask_times, masks)), np.int64, ptr[-1])
    at_goal = np.isin(times, np.fromiter(iter_mask_times(goal), np.int64))
    order = np.argsort(times, kind="stable")
    first = np.empty_like(order)
    first[order] = np.arange(order.size)
    upto = np.cumsum(np.bincount(times))  # upto[t]: set bits at times <= t
    lens = upto[times] - first
    return ptr, rows, at_goal, rows[order], first, lens


def _co_counts(
    index: tuple[np.ndarray, ...], start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The related cells of rows start..stop-1 on or above the diagonal, with their counts.

    With ``index = _time_index(masks, goal)``, ``bits`` the masks' 0/1
    matrix, ``occur = bits[start:stop] @ bits.T`` and ``fired`` the same
    product over goal's times only, ``cells`` is ``flatnonzero(fired)``,
    ascending, less the cells (r, j) with ``j < start + r``, and the counts
    are ``fired`` and ``occur`` at those cells.  Every set bit of the block
    expands once into the rows listed at its time from its own row on,
    giving cell (its row, that row) one key: the cell shifted left, with
    the bit's at-goal flag below it.  Sorted, a cell's keys are one run,
    as long as its co-occur count, whose low bits sum to its co-fired count.
    """
    import numpy as np

    ptr, rows, at_goal, by_time, first, lens = index
    n = ptr.size - 1
    block = slice(ptr[start], ptr[stop])
    lens = lens[block]
    # Expansion k of a bit whose expansions begin at s reads by_time[first + k - s].
    keys = by_time[np.arange(lens.sum()) + np.repeat(first[block] - (np.cumsum(lens) - lens), lens)]
    keys += np.repeat((rows[block] - start) * n, lens)
    keys <<= 1
    keys |= np.repeat(at_goal[block], lens)
    keys.sort()
    runs = np.flatnonzero(np.diff(keys >> 1, prepend=-1))
    fire = np.add.reduceat(keys & 1, runs)
    occ = np.diff(runs, append=keys.size)
    related = fire > 0
    return (keys[runs] >> 1)[related], fire[related], occ[related]


def _blocks(index: tuple[np.ndarray, ...]) -> Iterable[tuple[int, int]]:
    """Cut the rows into blocks of at most _BLOCK_ROWS rows and _BLOCK_EXPANSIONS expansions.

    A row that alone makes more expansions than that is a block of its own.
    """
    import numpy as np

    ptr, *_, lens = index
    made = np.concatenate([[0], np.cumsum(lens)])[ptr]  # expansions of the rows before each row
    start, n = 0, ptr.size - 1
    while start < n:
        fits = int(np.searchsorted(made, made[start] + _BLOCK_EXPANSIONS, "right")) - 1
        stop = max(start + 1, min(start + _BLOCK_ROWS, fits))
        yield start, stop
        start = stop


def _exact_shift(t_max: int) -> int:
    """A K for which every delta on a thread of t_max periods is a whole multiple of 2**-K.

    Every p is a/b with 0 <= a <= b and 0 < b < t_max, so a nonzero p is at least
    2**-t_max.bit_length() and, as a float, a whole multiple of
    2**-(t_max.bit_length() + 52); so is the difference of two of them.
    K keeps one bit to spare.
    """
    return t_max.bit_length() + 53


def _limbs(deltas: np.ndarray, shift: int) -> np.ndarray:
    """Each delta times 2**shift, as 32-bit limbs.

    ``sum(out[m, k] << 32 * m)`` is ``deltas[k] * 2**shift``.  Every delta
    must be a whole multiple of 2**-shift, at most 1 in magnitude.  The
    magnitude is split and its sign put back on every limb: taking the whole
    units of a non-negative rest off it is exact, where a negative rest
    smaller than half a unit would round.  Each limb is at most 2**32 in
    magnitude.
    """
    import numpy as np

    out = np.empty((-(-shift // 32), deltas.size), dtype=np.int64)
    rest = np.abs(deltas)
    for m in reversed(range(1, len(out))):  # limb m holds bits 32m..32m+31
        scale = 2.0 ** (shift - 32 * m)
        out[m] = limb = np.floor(rest * scale)
        rest = rest - limb / scale
    out[0] = rest * 2.0**shift
    np.negative(out, out=out, where=deltas < 0.0)
    return out


def _class_totals(
    masks: list[int], goal: int, size: np.ndarray, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each class row's related, non-negative and never-separated counts, eps sum, and least delta.

    The counts are member counts, the rows of ``totals[:3]``; the eps sum,
    times 2**shift, is ``sum(totals[3 + m] << 32 * m)``; the least delta is
    ``lows``, inf where a row is related to nothing.
    """
    import numpy as np

    c = len(masks)
    ptr, rows, at_goal, *_ = index = _time_index(masks, goal)
    hits = np.bincount(rows[at_goal], minlength=c)  # per-class fired counts
    occur = np.diff(ptr)                            # per-class restricted supports
    # Each limb is at most 2**32 in magnitude, so it sums exactly in int64
    # over a row's weights, which total fewer than 2**31 members.
    limbs = -(-shift // 32)
    totals = np.zeros((3 + limbs, c), dtype=np.int64)
    lows = np.full(c, np.inf)

    def credits(other, fire, occ, p_both, weight):
        """The weighted counts and limbs, and the deltas, of rows against the other classes."""
        only_second = occur[other] - occ
        sep = only_second > 0
        p_notfirst = np.divide(hits[other] - fire, only_second, out=np.zeros(sep.size), where=sep)
        deltas = p_both - p_notfirst
        parts = np.empty((3 + limbs, deltas.size), dtype=np.int64)
        parts[0], parts[1], parts[2] = 1, deltas >= 0.0, ~sep
        parts[3:] = _limbs(deltas, shift)
        parts *= weight
        return parts, np.where(weight > 0, deltas, np.inf)

    for start, stop in _blocks(index):
        # |{t: c_i, c_j at t}| and |{t: c_i, c_j at t, g at t+1}|, for j >= i
        cells, fire, occ = _co_counts(index, start, stop)
        i, j = np.divmod(cells, c)
        i += start
        p_both = fire / occ
        # A member meets each member of class j once, itself excepted.
        parts, deltas = credits(j, fire, occ, p_both, size[j] - (j == i))
        # Row i's cells are one run of i; sum and min over each run.
        firsts = np.flatnonzero(np.diff(i, prepend=-1))
        runs = i[firsts]
        totals[:, runs] += np.add.reduceat(parts, firsts, axis=1)
        lows[runs] = np.minimum(lows[runs], np.minimum.reduceat(deltas, firsts))
        # Off the diagonal, the same cell also credits row j against class i.
        off = j != i
        i, j = i[off], j[off]
        parts, deltas = credits(i, fire[off], occ[off], p_both[off], size[i])
        for total, part in zip(totals, parts):
            np.add.at(total, j, part)
        np.minimum.at(lows, j, deltas)
    return totals, lows


def _score_group(
    thread: Thread, consequence: AtomId, members: list[tuple[AptRule, RuleStats]]
) -> list[ScoredRule]:
    # numpy is imported here, not at module level, so that the commands
    # that never score (ingest, mine, report) do not pay for loading it.
    import numpy as np

    counter = ConsequenceCounter(thread, consequence)
    classes: dict[int, int] = {}  # horizon-cut fired mask -> its class row
    cls = [
        classes.setdefault(thread.times_mask(rule.precondition.atoms) & counter.horizon, len(classes))
        for rule, _ in members
    ]
    size = np.bincount(cls, minlength=len(classes))  # members per class
    shift = _exact_shift(thread.t_max)
    totals, lows = _class_totals(list(classes), counter.qualifying, size, shift)
    scores = [(None, None, None, 0, 0)] * len(classes)  # a class related to nothing is unscored
    for k in np.flatnonzero(totals[0]).tolist():
        n, n_nonneg, never_sep, *limbs = totals[:, k].tolist()
        exact = sum(limb << 32 * m for m, limb in enumerate(limbs))
        scores[k] = (exact / (1 << shift) / n, float(lows[k]), n_nonneg / n, n, never_sep)
    return [ScoredRule(rule, stats, *scores[k]) for (rule, stats), k in zip(members, cls)]


def pf_rule_compare(
    thread: Thread,
    rules: Iterable[tuple[AptRule, RuleStats]],
    k: int | None = None,
) -> Mapping[AtomId, list[ScoredRule]]:
    """Group rules by consequence, score each against its group, rank.

    ``k = None`` means all: each group keeps every member, scored or not,
    in rank order with unscored rules at the bottom.  A positive k keeps
    the top k scored rules per group and drops unscored ones.
    """
    if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
        raise ValueError(f"k must be a positive integer or None, got {k!r}")
    groups: dict[AtomId, list[tuple[AptRule, RuleStats]]] = {}
    seen: set[AptRule] = set()
    for rule, stats in rules:
        if rule in seen:
            raise ValueError(f"duplicate rule in comparison input: {rule}")
        seen.add(rule)
        groups.setdefault(rule.consequence, []).append((rule, stats))

    ranked: dict[AtomId, list[ScoredRule]] = {}
    for g in sorted(groups):
        scored = sorted(_score_group(thread, g, groups[g]), key=_rank_key)
        if k is not None:
            scored = [sr for sr in scored if not sr.is_unscored][:k]
        ranked[g] = scored
    return ranked
