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

``precondition_counts`` applies them to an occurrence bitmask; extraction
and the scalar scoring path count through it too, and the batched scoring
path builds its rows from ``fired_times`` and ``qualifying_times``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def fired_times(thread: Thread, mask: int) -> int:
    """The times of an occurrence bitmask that have a successor world, t <= t_max - 1."""
    return mask & low_time_mask(thread.t_max - 1)


def qualifying_times(thread: Thread, consequence: AtomId) -> int:
    """Bitmask of the times t <= t_max - 1 whose successor world holds the consequence."""
    return thread.time_mask(consequence) >> 1


class PreconditionCounts(NamedTuple):
    """The counts behind a rule's statistics, from precondition_counts."""

    support: int  # times in 1..t_max at which the precondition holds
    fired: int  # of those, the times t <= t_max - 1, which have a successor
    hits: int  # of those, the times whose successor world holds the consequence
    goal: int  # occurrences of the consequence
    unpreceded: int  # consequence occurrences not preceded by the precondition

    @property
    def p(self) -> float | None:
        return self.hits / self.fired if self.fired else None

    @property
    def p_star(self) -> float | None:
        return self.unpreceded / self.goal if self.goal else None


def precondition_counts(thread: Thread, mask: int, consequence: AtomId) -> PreconditionCounts:
    """Count a precondition, given as its occurrence bitmask, against a consequence."""
    fired = fired_times(thread, mask)
    hits = (fired & qualifying_times(thread, consequence)).bit_count()
    goal = thread.time_mask(consequence).bit_count()
    # An occurrence at t is preceded exactly when the precondition held at
    # t - 1 <= t_max - 1, which is one hit; an occurrence at t = 1 never is.
    return PreconditionCounts(mask.bit_count(), fired.bit_count(), hits, goal, goal - hits)


def _counts(thread: Thread, precondition: Conjunction, consequence: AtomId) -> PreconditionCounts:
    return precondition_counts(thread, thread.times_mask(precondition.atoms), consequence)


def rule_probability(
    thread: Thread, precondition: Conjunction, consequence: AtomId
) -> float | None:
    """P(consequence next | precondition now), over t in 1..t_max-1."""
    return _counts(thread, precondition, consequence).p


def negative_probability(
    thread: Thread, precondition: Conjunction, consequence: AtomId
) -> float | None:
    """Fraction of the consequence's occurrences not preceded by the precondition."""
    return _counts(thread, precondition, consequence).p_star


def support(thread: Thread, precondition: Conjunction) -> int:
    """Number of times in 1..t_max at which the whole precondition holds."""
    return thread.times_mask(precondition.atoms).bit_count()


def evaluate_rule(thread: Thread, rule: AptRule) -> RuleStats:
    """All four statistics in one bundle."""
    counts = _counts(thread, rule.precondition, rule.consequence)
    return RuleStats(
        p=counts.p,
        p_star=counts.p_star,
        rho=prior(thread, rule.consequence),
        support=counts.support,
    )
