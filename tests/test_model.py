"""Atoms, registry, threads, and conjunctions."""

import pytest

from aptmine import (
    ArityError,
    AtomRegistry,
    Conjunction,
    FrozenRegistryError,
    GroundAtom,
    Predicate,
    Thread,
    TimeIndexError,
)
from aptmine.model import iter_mask_times, low_time_mask


# ---------------------------------------------------------------- atoms


def test_ground_atom_renders_prolog_style():
    atom = GroundAtom(Predicate("armedAtk", 2), ("ISIS", "Mosul"))
    assert str(atom) == "armedAtk(ISIS,Mosul)"
    assert str(GroundAtom(Predicate("quiet", 0), ())) == "quiet()"


def test_arity_mismatch_is_an_error():
    with pytest.raises(ArityError, match="arity 2"):
        GroundAtom(Predicate("armedAtk", 2), ("Mosul",))


@pytest.mark.parametrize("bad", ["with,comma", "par(en", "clo)se", "tab\tbed", "nl\nine", ""])
def test_reserved_characters_rejected_in_names_and_args(bad):
    with pytest.raises(ValueError):
        Predicate(bad, 0)
    with pytest.raises(ValueError):
        GroundAtom(Predicate("ok", 1), (bad,))


def test_negative_arity_rejected():
    with pytest.raises(ValueError, match="arity"):
        Predicate("p", -1)


# ------------------------------------------------------------- registry


def test_intern_assigns_dense_consecutive_ids():
    registry = AtomRegistry()
    pred = Predicate("e", 1)
    ids = [registry.intern(pred, (str(i),)) for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    assert len(registry) == 5
    assert list(registry.ids()) == ids


def test_intern_is_idempotent():
    registry = AtomRegistry()
    pred = Predicate("e", 1)
    first = registry.intern(pred, ("x",))
    again = registry.intern(pred, ("x",))
    assert first == again
    assert len(registry) == 1


def test_atom_render_find_round_trip():
    registry = AtomRegistry()
    atom_id = registry.intern(Predicate("recon", 1), ("Mosul",))
    assert registry.atom(atom_id) == GroundAtom(Predicate("recon", 1), ("Mosul",))
    assert registry.render(atom_id) == "recon(Mosul)"
    assert registry.find(Predicate("recon", 1), ("Mosul",)) == atom_id
    assert registry.find(Predicate("recon", 1), ("Raqqa",)) is None


def test_atom_lookup_out_of_range():
    registry = AtomRegistry()
    with pytest.raises(ValueError, match="unknown atom id"):
        registry.atom(0)


def test_arity_is_fixed_per_predicate_name():
    registry = AtomRegistry()
    registry.intern(Predicate("e", 1), ("x",))
    with pytest.raises(ArityError, match="already registered with arity 1"):
        registry.intern(Predicate("e", 2), ("x", "y"))


def test_action_and_env_marking():
    registry = AtomRegistry()
    a = registry.intern(Predicate("a", 0))
    b = registry.intern(Predicate("b", 0))
    registry.mark_env(a)
    registry.mark_env(b)
    registry.mark_action(b)
    assert registry.env_set == {a, b}
    assert registry.action_set == {b}


def test_frozen_registry_blocks_mutation_but_not_reads():
    registry = AtomRegistry()
    a = registry.intern(Predicate("a", 0))
    registry.mark_env(a)
    registry.freeze()
    assert registry.frozen
    # Re-interning an existing atom is a read.
    assert registry.intern(Predicate("a", 0)) == a
    with pytest.raises(FrozenRegistryError):
        registry.intern(Predicate("b", 0))
    with pytest.raises(FrozenRegistryError):
        registry.mark_action(a)
    with pytest.raises(FrozenRegistryError):
        registry.mark_env(a)


def test_a_frozen_registry_hands_out_its_sets_without_copying():
    registry = AtomRegistry()
    a, b = registry.intern(Predicate("a", 0)), registry.intern(Predicate("b", 0))
    registry.mark_env(a)
    registry.mark_action(b)
    assert registry.env_set is not registry.env_set  # a copy, while marks may still change
    registry.freeze()
    assert registry.env_set is registry.env_set == {a}
    assert registry.action_set is registry.action_set == {b}
    with pytest.raises(FrozenRegistryError):
        registry.mark_action(a)
    with pytest.raises(FrozenRegistryError):
        registry.mark_env(b)
    assert registry.env_set == {a} and registry.action_set == {b}


# --------------------------------------------------------------- threads


def test_thread_worlds_are_one_indexed(t1):
    thread, registry, a, b, g = t1
    assert thread.t_max == 6
    assert thread.world(1) == {a, b}
    assert thread.world(2) == {g}
    assert thread.world(6) == frozenset()


@pytest.mark.parametrize("t", [0, 7, -1, "2", 2.0, True])
def test_time_indices_outside_range_raise(t1, t):
    thread = t1[0]
    with pytest.raises(TimeIndexError, match="1..6"):
        thread.world(t)


def test_time_mask_encodes_occurrences(t1):
    thread, registry, a, b, g = t1
    assert thread.time_mask(b) == 0b010101  # t = 1, 3, 5
    assert thread.time_mask(g) == 0b001010  # t = 2, 4
    assert thread.time_mask(99) == 0
    assert thread.occurrences(b) == (1, 3, 5)
    assert thread.occurrences(99) == ()
    assert [x for x in registry.ids() if thread.time_mask(x)] == [a, b, g]


def test_times_mask_intersects(t1):
    thread, registry, a, b, g = t1
    assert thread.times_mask([a, b]) == 0b000001  # only t = 1
    assert thread.times_mask([a, g]) == 0b001000  # only t = 4
    assert thread.times_mask([a, 99]) == 0
    with pytest.raises(ValueError, match="at least one atom"):
        thread.times_mask([])


def test_thread_equality_and_hash_follow_worlds():
    t1 = Thread([{0, 1}, {2}])
    t2 = Thread([[1, 0], [2]])
    t3 = Thread([{0}, {2}])
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != t3
    assert t1 != "not a thread"


def test_empty_thread_rejected():
    with pytest.raises(ValueError, match="at least one world"):
        Thread([])


def test_empty_worlds_are_legal():
    thread = Thread([set(), set(), {3}])
    assert thread.t_max == 3
    assert thread.world(1) == frozenset()


@pytest.mark.parametrize("member", [-1, True, "0", 1.5])
def test_bad_world_members_rejected(member):
    with pytest.raises(ValueError, match="world members"):
        Thread([{member}])


def test_world_members_are_checked_before_they_are_sorted():
    with pytest.raises(ValueError, match="world members"):
        Thread([{0, "0"}])


def test_any_iterable_of_ids_gives_the_same_thread_and_worlds():
    worlds = [[3, 1, 3, 0], [], [2, 2]]
    threads = [
        Thread(worlds),
        Thread([set(world) for world in worlds]),
        Thread(frozenset(world) for world in worlds),
        Thread((a for a in world) for world in worlds),
    ]
    for thread in threads:
        assert thread == threads[0] and hash(thread) == hash(threads[0])
        assert [thread.world(t) for t in (1, 2, 3)] == [{0, 1, 3}, frozenset(), {2}]
        assert all(type(thread.world(t)) is frozenset for t in (1, 2, 3))


def test_mask_helpers():
    assert list(iter_mask_times(0b10110)) == [2, 3, 5]
    assert list(iter_mask_times(0)) == []
    assert low_time_mask(0) == 0
    assert low_time_mask(4) == 0b1111
    with pytest.raises(ValueError):
        low_time_mask(-1)


# ----------------------------------------------------------- conjunctions


def test_conjunction_normalizes_order_and_duplicates():
    assert Conjunction([3, 1, 3, 2]).atoms == (1, 2, 3)
    assert Conjunction([2, 1]) == Conjunction([1, 2])
    assert hash(Conjunction([2, 1])) == hash(Conjunction([1, 2]))


def test_conjunction_validation():
    with pytest.raises(ValueError, match="at least one atom"):
        Conjunction([])
    with pytest.raises(ValueError, match="non-negative integers"):
        Conjunction([-1])
    with pytest.raises(ValueError, match="non-negative integers"):
        Conjunction([True])


def test_conjunction_container_protocol():
    c = Conjunction([4, 2])
    assert len(c) == 2 and c.dimension == 2
    assert list(c) == [2, 4]
    assert 2 in c and 3 not in c


def test_conjunction_render(t1):
    _, registry, a, b, g = t1
    assert Conjunction([b, a]).render(registry) == "a() & b()"
