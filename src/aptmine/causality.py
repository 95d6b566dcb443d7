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
each member takes its eps tuple with its own rule and stats.  A class is
counted against every class, and the cell of class j carries the weight
|j|, less one for the row's own class: a member meets each of its own
siblings, when related, with the never-separated delta p_both - 0.  The
counts come from one time->rules index per group over the class masks:
each class's set bits, row by row, and the same bits sorted by time list,
for each horizon time, the classes set at it.  A class's
co-occurrence counts come from expanding each of its set bits into that
time's list and counting the classes met; its co-fired counts are the
expansions at the counter's qualifying times (whose successor world holds
the consequence).  Each expansion is one key, its cell with an at-goal
flag in the low bit, so one sort of a block's keys lines each cell's
expansions up as a run: its length is the co-occur count and its flags
sum to the co-fired count.  With c distinct masks, c_t of them set at
time t, a group costs sum_t c_t**2 expansions, sorted _BLOCK_ROWS classes
at a time, and it holds the set bits plus one block's expansions: no
n x T matrix, no n**2 * T products and no c-wide count rows.  The sort
costs O(E log E) for a block's E expansions, where counting into dense
rows would cost O(E + _BLOCK_ROWS * c): it pays where a block has far
fewer expansions than cells, as in a large group of sparse masks.

The counts are exact int64 integers, at most t_max and so far below 2**53;
numpy divides two of them as the same correctly rounded float64 division
Python does for the scalar path (causal_scores).  Each block gathers its
related cells, divides and takes the deltas at once; per class row only
eps_avg is summed, by math.fsum over the deltas each repeated by its
weight.  fsum rounds the exact sum once, whatever the order, so it equals
the scalar path's fsum over the rule's deltas one pair at a time; eps_min
and the eps_frac and never-separated counts do not depend on order either.
Nor does the ranking, whose key is total within a group, so a group's
members are scored in the order given.
So the batched path is bit-identical to the scalar one, which remains the
readable reference and keeps its own aggregator, _finish, so the two
aggregations check each other.
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

_BLOCK_ROWS = 32  # mask classes whose expansions are sorted at once


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
    """The masks' set bits, row by row, and the time->rules index over them.

    Row k's set times, ascending, are ``times[ptr[k]:ptr[k + 1]]``; ``rows``
    holds each one's row and ``at_goal`` whether goal has that time.  The
    rows set at time t, ascending, are ``by_time[upto[t - 1]:upto[t]]``.
    """
    import numpy as np

    ptr = np.cumsum([0, *map(int.bit_count, masks)], dtype=np.int64)
    rows = np.repeat(np.arange(len(masks), dtype=np.int64), np.diff(ptr))
    times = np.fromiter(chain.from_iterable(map(iter_mask_times, masks)), np.int64, ptr[-1])
    at_goal = np.isin(times, np.fromiter(iter_mask_times(goal), np.int64))
    by_time = rows[np.argsort(times, kind="stable")]
    upto = np.cumsum(np.bincount(times))  # upto[t]: set bits at times <= t
    return ptr, rows, times, at_goal, upto, by_time


def _co_counts(
    index: tuple[np.ndarray, ...], start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The related cells of rows start..stop-1, with their co-fired and co-occur counts.

    With ``index = _time_index(masks, goal)``, ``bits`` the masks' 0/1
    matrix, ``occur = bits[start:stop] @ bits.T`` and ``fired`` the same
    product over goal's times only, ``cells`` is ``flatnonzero(fired)``,
    ascending, and the counts are ``fired`` and ``occur`` at those cells.
    Every set bit of the block expands once into the rows listed at its
    time, giving cell (its row, that row) one key: the cell shifted left,
    with the bit's at-goal flag below it.  Sorted, a cell's keys are one
    run, as long as its co-occur count, whose low bits sum to its co-fired
    count.
    """
    import numpy as np

    ptr, rows, times, at_goal, upto, by_time = index
    n = ptr.size - 1
    block = slice(ptr[start], ptr[stop])
    first = upto[times[block] - 1]
    lens = upto[times[block]] - first
    # Expansion k of a bit whose expansions begin at s reads by_time[first + k - s].
    keys = by_time[np.arange(lens.sum()) + np.repeat(first - (np.cumsum(lens) - lens), lens)]
    keys += np.repeat((rows[block] - start) * n, lens)
    keys <<= 1
    keys |= np.repeat(at_goal[block], lens)
    keys.sort()
    runs = np.flatnonzero(np.diff(keys >> 1, prepend=-1))
    fire = np.add.reduceat(keys & 1, runs)
    occ = np.diff(runs, append=keys.size)
    related = fire > 0
    return (keys[runs] >> 1)[related], fire[related], occ[related]


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
    c = len(classes)
    size = np.bincount(cls, minlength=c)  # members per class
    ptr, rows, _, at_goal, _, _ = index = _time_index(list(classes), counter.qualifying)
    hits = np.bincount(rows[at_goal], minlength=c)  # per-class fired counts
    occur = np.diff(ptr)                            # per-class restricted supports

    scores = [(None, None, None, 0, 0)] * c  # a class related to nothing is unscored
    for start in range(0, c, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, c)
        # |{t: c_i, c_j at t}| and |{t: c_i, c_j at t, g at t+1}|
        cells, fire, occ = _co_counts(index, start, stop)
        r, j = np.divmod(cells, c)
        # A member meets each member of class j once, itself excepted.
        weight = size[j] - (j == r + start)
        keep = weight > 0
        r, j, weight, fire, occ = r[keep], j[keep], weight[keep], fire[keep], occ[keep]
        only_second = occur[j] - occ
        sep = only_second > 0
        p_notfirst = np.where(sep, (hits[j] - fire) / np.where(sep, only_second, 1), 0.0)
        deltas = fire / occ - p_notfirst
        # A related row's cells are one run of r; sum and min over each run.
        firsts = np.flatnonzero(np.diff(r, prepend=-1))
        sums = np.add.reduceat([weight, weight * (deltas >= 0.0), weight * ~sep], firsts, axis=1)
        lows = np.minimum.reduceat(deltas, firsts).tolist()
        bounds = [*firsts.tolist(), r.size]
        runs = zip(r.take(firsts).tolist(), bounds, bounds[1:], lows, *sums.tolist())
        for row, a, b, low, n_related, n_nonneg, never_sep in runs:
            eps_avg = math.fsum(np.repeat(deltas[a:b], weight[a:b]).tolist()) / n_related
            scores[start + row] = (eps_avg, low, n_nonneg / n_related, n_related, never_sep)
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
