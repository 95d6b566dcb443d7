"""Causality scoring of extracted rules against their consequence group.

Two rules are related when they share a consequence and their preconditions
jointly fire somewhere with the consequence in the successor world.  Each
related pair contributes a delta p_both - p_notfirst; a rule's eps_avg,
eps_min and eps_frac summarize its deltas over the whole group.  When the
second precondition never occurs without the first, p_notfirst is taken as
0 and the pair is flagged NeverSeparated rather than dropped.

Both paths count through the group's stats.ConsequenceCounter.  Grouped
scoring is vectorized: each precondition becomes one 0/1 row built from
its mask cut to the counter's horizon (the times with a successor world),
and a time->rules index lists, for each horizon time, the rows set at it.
A rule's co-occurrence counts come from expanding each of its times into
that time's list and counting the rows met; co-fired counts use a second
index over the counter's qualifying columns (the times whose successor
world holds the consequence).  With c_t rules at time t, a group costs
sum_t c_t**2 index expansions plus n**2 count cells, counted _BLOCK_ROWS
rows at a time, not the n**2 * T products of a dense matrix product.  The
counts are exact int64 integers, at most t_max and so far below 2**53;
numpy divides two of them as the same correctly rounded float64 division
Python does for the scalar path (causal_scores), so the batched path is
bit-identical to the scalar one, which remains the readable reference.
Each batched row is aggregated in numpy (eps_avg by math.fsum), while the
scalar path keeps its own aggregator, _finish, so the two aggregations
check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .model import AptmineError, AtomId, Thread
from .stats import AptRule, ConsequenceCounter, RuleStats, evaluate_rule, rule_sort_key

if TYPE_CHECKING:
    import numpy as np

_BLOCK_ROWS = 64  # rules whose pairwise counts are held at once


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


def _bit_rows(masks: list[int], width: int) -> np.ndarray:
    """0/1 uint8 matrix: row k, column t - 1 holds bit t - 1 of masks[k]."""
    import numpy as np

    nbytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(-1, nbytes), axis=1, count=width, bitorder="little")


def _time_index(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverted index of a 0/1 matrix: column t's set rows, ascending, are
    ``rows[ptr[t]:ptr[t + 1]]``."""
    import numpy as np

    cols, rows = np.nonzero(bits.T)
    ptr = np.zeros(bits.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=bits.shape[1]), out=ptr[1:])
    return ptr, rows


def _co_counts(
    bits: np.ndarray, index: tuple[np.ndarray, np.ndarray], start: int, stop: int
) -> np.ndarray:
    """int64 ``bits[start:stop] @ bits.T``, counted from ``index = _time_index(bits)``.

    Every (row, t) pair of the block expands into the rows listed at t, and
    each expansion adds one to cell (row, that row).
    """
    import numpy as np

    ptr, rows = index
    n = bits.shape[0]
    local, cols = np.nonzero(bits[start:stop])
    first = ptr[cols]
    lens = ptr[cols + 1] - first
    # Expansion k of a pair whose expansions begin at s reads rows[first + k - s].
    at = np.arange(lens.sum()) + np.repeat(first - (np.cumsum(lens) - lens), lens)
    keys = np.repeat(local * n, lens) + rows[at]
    return np.bincount(keys, minlength=(stop - start) * n).reshape(stop - start, n)


def _score_group(
    thread: Thread, consequence: AtomId, members: list[tuple[AptRule, RuleStats]]
) -> list[ScoredRule]:
    # numpy is imported here, not at module level, so that the commands
    # that never score (ingest, mine, report) do not pay for loading it.
    import numpy as np

    n = len(members)
    counter = ConsequenceCounter(thread, consequence)
    fired = [thread.times_mask(rule.precondition.atoms) & counter.horizon for rule, _ in members]
    bits = _bit_rows(fired, thread.t_max)
    goal_cols = np.flatnonzero(_bit_rows([counter.qualifying], thread.t_max)[0])
    co_bits = bits[:, goal_cols]        # fired at t with the consequence at t+1
    hits = co_bits.sum(axis=1, dtype=np.int64)  # per-rule fired counts
    occur = bits.sum(axis=1, dtype=np.int64)    # per-rule restricted supports
    index, co_index = _time_index(bits), _time_index(co_bits)

    out: list[ScoredRule] = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        # |{t: c_i, c_j at t, g at t+1}| and |{t: c_i, c_j at t}|
        co_fired = _co_counts(co_bits, co_index, start, stop)
        co_occur = _co_counts(bits, index, start, stop)
        for i in range(start, stop):
            fire_row = co_fired[i - start]
            occ_row = co_occur[i - start]
            mask = fire_row > 0
            mask[i] = False
            idx = np.flatnonzero(mask)
            rule, stats = members[i]
            if idx.size == 0:
                out.append(ScoredRule(rule, stats, None, None, None, 0, 0))
                continue
            fire = fire_row[idx]
            occ = occ_row[idx]
            only_second = occur[idx] - occ
            sep = only_second > 0
            p_notfirst = np.where(sep, (hits[idx] - fire) / np.where(sep, only_second, 1), 0.0)
            deltas = fire / occ - p_notfirst
            n_related = idx.size
            eps_avg = math.fsum(deltas.tolist()) / n_related
            eps_frac = np.count_nonzero(deltas >= 0.0) / n_related
            never_sep = int(np.count_nonzero(~sep))
            out.append(
                ScoredRule(rule, stats, eps_avg, float(deltas.min()), eps_frac, n_related, never_sep)
            )
    return out


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
        members = sorted(groups[g], key=lambda pair: rule_sort_key(pair[0]))
        scored = sorted(_score_group(thread, g, members), key=_rank_key)
        if k is not None:
            scored = [sr for sr in scored if not sr.is_unscored][:k]
        ranked[g] = scored
    return ranked
