"""The four rule statistics: prior, probability, negative probability, support.

A rule's precondition is a conjunction of atoms and its consequence one
atom; the prior is the consequence atom's rate over the whole thread.

Conventions, fixed here and mirrored by the brute-force oracle:

* ``rule_probability`` restricts both numerator and denominator to times
  t <= t_max - 1.  A precondition at the final time point has no successor
  world, so it carries no evidence for or against the rule.
* ``negative_probability`` counts a consequence occurrence at t = 1 toward
  the numerator: no world precedes time 1, so the precondition vacuously
  did not occur before it.
* ``support`` counts over the full range 1..t_max.
* A statistic whose conditioning event never occurs is None, never 0.0.

``ConsequenceCounter`` applies them to occurrence bitmasks: it is built
once per consequence and is the only place that knows the horizon
t <= t_max - 1 and the one-step shift from a consequence's times to the
times that precede them.  It maps a mask to the mask's RuleStats, shared
by every mask with the same support, fired and hit counts.  The public
statistics, extraction and both scoring paths all count through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import AtomId, Conjunction, Thread, low_time_mask


@dataclass(frozen=True, slots=True)
class AptRule:
    """precondition ~> consequence, one time step apart.

    The precondition is a conjunction of positive atoms; the consequence is
    a single atom and may not appear in its own precondition.
    """

    precondition: Conjunction
    consequence: AtomId

    def __post_init__(self) -> None:
        if self.consequence in self.precondition:
            raise ValueError(
                f"rule consequence (atom {self.consequence}) may not appear in its own precondition"
            )


def rule_sort_key(rule: AptRule) -> tuple[AtomId, tuple[AtomId, ...]]:
    """Canonical rule order: by consequence, then precondition atoms."""
    return (rule.consequence, rule.precondition.atoms)


@dataclass(frozen=True, slots=True)
class RuleStats:
    """The four statistics of one rule against one thread."""

    p: float | None
    p_star: float | None
    rho: float
    support: int

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("p_star", self.p_star), ("rho", self.rho)):
            if value is None and name != "rho":
                continue
            if value is None or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.support < 0:
            raise ValueError(f"support must be non-negative, got {self.support!r}")


def prior(thread: Thread, atom_id: AtomId) -> float:
    """Fraction of times 1..t_max at which the atom holds (Eq. rho)."""
    return thread.time_mask(atom_id).bit_count() / thread.t_max


class ConsequenceCounter:
    """One consequence's successor-world counts, ready for any occurrence mask.

    horizon     times t <= t_max - 1, the times with a successor world
    qualifying  the horizon times whose successor world holds the consequence
    goal        occurrences of the consequence; rho = goal / t_max is its prior

    A mask's support, fired count and hits are its bits in all, in horizon
    and in qualifying, which lies inside horizon.
    """

    __slots__ = ("horizon", "qualifying", "goal", "rho", "_shared")

    def __init__(self, thread: Thread, consequence: AtomId) -> None:
        occurs = thread.time_mask(consequence)
        self.horizon = low_time_mask(thread.t_max - 1)
        self.qualifying = occurs >> 1
        self.goal = occurs.bit_count()
        self.rho = self.goal / thread.t_max
        self._shared: dict[tuple[int, int, int], RuleStats] = {}

    def p(self, mask: int) -> float | None:
        """P(consequence next | mask now), over the mask's times t <= t_max - 1."""
        fired = (mask & self.horizon).bit_count()
        return (mask & self.qualifying).bit_count() / fired if fired else None

    def stats(self, mask: int) -> RuleStats:
        """The mask's four statistics, one RuleStats per distinct (support, fired, hits)."""
        horizon, qualifying = self.horizon, self.qualifying
        counts = mask.bit_count(), (mask & horizon).bit_count(), (mask & qualifying).bit_count()
        stats = self._shared.get(counts)
        if stats is None:
            support, fired, hits = counts
            # An occurrence at t is preceded exactly when the mask held at
            # t - 1 <= t_max - 1, which is one hit; an occurrence at t = 1 never is.
            p_star = (self.goal - hits) / self.goal if self.goal else None
            p = hits / fired if fired else None
            stats = self._shared[counts] = RuleStats(p, p_star, self.rho, support)
        return stats


def rule_probability(
    thread: Thread, precondition: Conjunction, consequence: AtomId
) -> float | None:
    """P(consequence next | precondition now), over t in 1..t_max-1."""
    return ConsequenceCounter(thread, consequence).p(thread.times_mask(precondition.atoms))


def negative_probability(
    thread: Thread, precondition: Conjunction, consequence: AtomId
) -> float | None:
    """Fraction of the consequence's occurrences not preceded by the precondition."""
    mask = thread.times_mask(precondition.atoms)
    return ConsequenceCounter(thread, consequence).stats(mask).p_star


def support(thread: Thread, precondition: Conjunction) -> int:
    """Number of times in 1..t_max at which the whole precondition holds."""
    return thread.times_mask(precondition.atoms).bit_count()


def evaluate_rule(thread: Thread, rule: AptRule) -> RuleStats:
    """All four statistics in one bundle."""
    mask = thread.times_mask(rule.precondition.atoms)
    return ConsequenceCounter(thread, rule.consequence).stats(mask)
