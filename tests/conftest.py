"""Shared fixtures and corpus generators for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from aptmine import AtomRegistry, ExtractParams, Predicate, Thread, t1_corpus

pytest_plugins = ["pytester"]


@pytest.fixture
def t1():
    """The canonical six-period fixture: (thread, registry, a, b, g)."""
    thread, registry = t1_corpus()
    return thread, registry, 0, 1, 2


def random_corpus(seed: int, max_atoms: int = 12, max_t: int = 20):
    """A seeded random thread and registry for oracle cross-checks.

    Every atom is environmental; one to three of them are also action
    atoms.  Densities are drawn per corpus so some are sparse and some
    crowded.
    """
    rng = random.Random(seed)
    n = rng.randint(3, max_atoms)
    t_max = rng.randint(4, max_t)
    density = rng.uniform(0.15, 0.55)
    registry = AtomRegistry()
    pred = Predicate("e", 1)
    for i in range(n):
        registry.mark_env(registry.intern(pred, (str(i),)))
    for atom in rng.sample(range(n), rng.randint(1, min(3, n))):
        registry.mark_action(atom)
    worlds = [
        {i for i in range(n) if rng.random() < density} for _ in range(t_max)
    ]
    registry.freeze()
    return Thread(worlds), registry


def random_params(seed: int) -> ExtractParams:
    """Extraction parameters matched to the random corpora above."""
    rng = random.Random(seed ^ 0x5EED)
    return ExtractParams(
        max_dim=rng.randint(1, 3),
        supp_lb=rng.randint(1, 3),
        min_prob=rng.choice((0.25, 0.5)),
    )


@st.composite
def corpora(draw, max_atoms: int = 8, max_t: int = 12):
    """Hypothesis strategy for small (thread, registry) pairs."""
    n = draw(st.integers(min_value=2, max_value=max_atoms))
    t_max = draw(st.integers(min_value=1, max_value=max_t))
    worlds = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n),
            min_size=t_max,
            max_size=t_max,
        )
    )
    n_act = draw(st.integers(min_value=1, max_value=n))
    registry = AtomRegistry()
    pred = Predicate("e", 1)
    for i in range(n):
        registry.mark_env(registry.intern(pred, (str(i),)))
    for atom in range(n_act):
        registry.mark_action(atom)
    registry.freeze()
    return Thread(worlds), registry
