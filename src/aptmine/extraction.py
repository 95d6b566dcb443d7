"""Prima facie rule extraction.

For each occurring action atom g, a candidate precondition is a set S of
frequent environmental atoms, without g and with at most max_dim atoms,
whose occurrence mask meets a qualifying time (t <= t_max - 1 with g in
the successor world), a bit of stats.ConsequenceCounter(thread, g).qualifying,
and holds at supp_lb times or more.  One depth-first walk over the sorted
pool finds them, carrying each prefix's mask down, and each is evaluated
once, from its mask, against the prior and minimum-probability gates.  g's
counter is built once and gives p straight from the mask; AptRule is built
only for the rules that pass, and their statistics come from the counter.

Nothing that could pass the gates is lost.  The walk cuts a set, and with
it every extension, on two grounds, and adding an atom only clears mask
bits, so each cut holds for all the extensions too:

* the mask misses every qualifying time: p = 0 (or none), which cannot
  beat rho > 0, and no extension can meet a qualifying time again;
* the mask holds at fewer than supp_lb times: the set fails the support
  gate, and an extension's support is no larger (Apriori's
  anti-monotonicity; the walk is Eclat's vertical tid-set search).

A set with an infrequent atom is the second cut at the root, so the pool
holds only frequent atoms.  The report carries the counters needed to
check the walk against a bound computed from the per-period candidate
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .model import (
    AptmineError,
    AtomId,
    AtomRegistry,
    Conjunction,
    FrozenRegistryError,
    Thread,
)
from .stats import AptRule, ConsequenceCounter, RuleStats


class EmptyConsequenceError(AptmineError):
    """The consequence atom never occurs, so no candidate can qualify."""


@dataclass(frozen=True, slots=True)
class ExtractParams:
    max_dim: int = 3
    supp_lb: int = 3
    min_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.max_dim < 1:
            raise ValueError(f"max_dim must be at least 1, got {self.max_dim}")
        if self.supp_lb < 1:
            raise ValueError(f"supp_lb must be at least 1, got {self.supp_lb}")
        if not 0.0 <= self.min_prob <= 1.0:
            raise ValueError(f"min_prob must lie in [0, 1], got {self.min_prob}")


def subset_count(n: int, max_dim: int) -> int:
    """Number of non-empty subsets of an n-set with at most max_dim elements."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(comb(n, m) for m in range(1, max_dim + 1))


@dataclass(frozen=True, slots=True)
class ExtractionReport:
    """Extracted rules plus the instrumentation counters.

    rules                    (rule, stats) pairs in canonical order
    combinations_explored    nodes the walk evaluated: (precondition, consequence)
                             pairs that meet a qualifying time and clear supp_lb
    active_env_counts        per period: environmental atoms active there
    candidate_atom_counts    per period: frequent environmental atoms active there
    consequence_period_pairs (g, t) pairs with g in the successor world of t
    n_env                    size of the environmental atom set
    """

    rules: tuple[tuple[AptRule, RuleStats], ...]
    combinations_explored: int
    active_env_counts: tuple[int, ...]
    candidate_atom_counts: tuple[int, ...]
    consequence_period_pairs: int
    n_env: int
    params: ExtractParams

    def rule_set(self) -> frozenset[AptRule]:
        return frozenset(rule for rule, _ in self.rules)

    def per_period_bound(self) -> int:
        """Upper bound on combinations_explored from the per-period candidate counts."""
        peak = max(self.candidate_atom_counts, default=0)
        return self.consequence_period_pairs * subset_count(peak, self.params.max_dim)

    def naive_bound(self) -> int:
        """Cost of one consequence under exhaustive enumeration, no pruning."""
        return subset_count(self.n_env, self.params.max_dim)


def frequent_env_atoms(thread: Thread, registry: AtomRegistry, supp_lb: int) -> frozenset[AtomId]:
    """Environmental atoms occurring at least supp_lb times in the thread."""
    if supp_lb < 1:
        raise ValueError(f"supp_lb must be at least 1, got {supp_lb}")
    return frozenset(
        a for a in registry.env_set if thread.time_mask(a).bit_count() >= supp_lb
    )


def candidate_preconditions(
    thread: Thread,
    consequence: AtomId,
    params: ExtractParams,
    frequent: frozenset[AtomId],
) -> Iterator[tuple[tuple[AtomId, ...], int]]:
    """The candidates for one consequence, lazily, as (atom tuple, occurrence mask).

    Each comes once, in sorted atom-tuple order (the walk's pre-order).
    frequent must hold only atoms with support >= params.supp_lb, as
    frequent_env_atoms gives them; then every candidate clears supp_lb.  An
    absent consequence raises EmptyConsequenceError at the call itself.
    """
    if not thread.time_mask(consequence):
        raise EmptyConsequenceError(f"consequence atom {consequence} never occurs in the thread")
    qualifying = ConsequenceCounter(thread, consequence).qualifying
    pool = sorted(frequent - {consequence})
    roots = [(a, m) for a in pool if (m := thread.time_mask(a)) & qualifying]
    return _walk((), roots, qualifying, params.supp_lb, params.max_dim)


def _walk(
    prefix: tuple[AtomId, ...],
    siblings: list[tuple[AtomId, int]],
    qualifying: int,
    supp_lb: int,
    depth: int,
) -> Iterator[tuple[tuple[AtomId, ...], int]]:
    # siblings: the atoms after the prefix's last one, each with the mask of
    # prefix + atom, kept only where that mask still holds at supp_lb times
    # or more and meets a qualifying time.
    for i, (atom, mask) in enumerate(siblings):
        atoms = (*prefix, atom)
        yield atoms, mask
        if depth > 1:
            children = [
                (b, both)
                for b, m in siblings[i + 1 :]
                if (both := mask & m).bit_count() >= supp_lb and both & qualifying
            ]
            yield from _walk(atoms, children, qualifying, supp_lb, depth - 1)


def pf_rule_extract(
    thread: Thread, registry: AtomRegistry, params: ExtractParams
) -> ExtractionReport:
    """Extract every rule passing the support, prior, and min-probability gates.

    Consequences are the occurring action atoms; never-occurring action
    atoms are skipped silently (they can head no rule).  Output order is
    canonical: consequence id, then precondition atoms.
    """
    if not registry.frozen:
        raise FrozenRegistryError("freeze the registry before extraction")
    env = registry.env_set
    frequent = frequent_env_atoms(thread, registry, params.supp_lb)

    active_env_counts = []
    candidate_atom_counts = []
    for t in range(1, thread.t_max + 1):
        world = thread.world(t)
        active_env_counts.append(len(world & env))
        candidate_atom_counts.append(len(world & frequent))

    counters = {
        g: ConsequenceCounter(thread, g)
        for g in sorted(a for a in registry.action_set if thread.time_mask(a))
    }
    pairs = sum(counter.qualifying.bit_count() for counter in counters.values())

    rules: list[tuple[AptRule, RuleStats]] = []
    explored = 0
    for g, counter in counters.items():
        for atoms, mask in candidate_preconditions(thread, g, params, frequent):
            explored += 1
            # p is a number: each mask meets a qualifying t <= t_max - 1.  The
            # walk keeps no mask below supp_lb, so the support gate holds.
            if (p := counter.p(mask)) > counter.rho and p >= params.min_prob:
                rules.append((AptRule(Conjunction(atoms), g), counter.stats(mask)))

    return ExtractionReport(
        rules=tuple(rules),
        combinations_explored=explored,
        active_env_counts=tuple(active_env_counts),
        candidate_atom_counts=tuple(candidate_atom_counts),
        consequence_period_pairs=pairs,
        n_env=len(env),
        params=params,
    )
