"""Ground atoms, conjunctions of atoms, worlds, and threads.

Atoms are interned into dense integer ids by an :class:`AtomRegistry`.
A rule's precondition is a :class:`Conjunction` of positive atoms; its
consequence is a single atom id.
A :class:`Thread` is the single historical corpus: a sequence of worlds
indexed 1..t_max (1-based, inclusive), each world the set of atom ids
true in that period.  Threads keep each world as the sorted tuple of its
distinct atom ids, the form a thread file spells, and a per-atom
occurrence bitmask (bit t-1 set iff the atom holds at time t), so the
subset tests and co-occurrence counts that dominate rule mining reduce to
integer AND plus popcount.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

AtomId = int


class AptmineError(Exception):
    """Base class for every error raised by this package."""


class ArityError(AptmineError):
    """A predicate was applied to the wrong number of arguments."""


class TimeIndexError(AptmineError):
    """A time index fell outside the thread's 1..t_max range."""


class FrozenRegistryError(AptmineError):
    """A mutation was attempted on a frozen registry, or a frozen one was required."""


class FormatError(AptmineError):
    """A file violated its format contract (hard failure, not a reject)."""


# Reserved in predicate names and arguments so the rendered form
# ``pred(arg1,arg2)`` and the tab-separated file formats stay unambiguous.
RESERVED = "(),\t\n\r"
RESERVED_CHAR = re.compile(f"[{re.escape(RESERVED)}]")

# Diagnostics quote at most this many characters of a refused text, in at
# most _SHOWN bytes: 32 two-byte (or 16 four-byte) characters and a repr's two
# quotes.  So "error: <path>:<line>: " with a path of up to 120 bytes, up to 66
# bytes of wording, and one quoted text with its "... (N characters)" fit in
# 300 bytes while the line and N have at most 10 digits.  A repr spells an
# unprintable character in up to 10 bytes.
_QUOTED = 32
_SHOWN = 2 * _QUOTED + 2


def _clipped(text: str, show=str, shown: int = _SHOWN) -> str:
    """show(text), or show of a prefix of text and its length when text is longer.

    The prefix is at most _QUOTED characters, cut back until it shows in shown bytes.
    """
    n = min(len(text), _QUOTED)
    while len(show(text[:n]).encode("utf-8", "surrogatepass")) > shown:
        n -= 1
    if n == len(text):
        return show(text)
    return f"{show(text[:n])}... ({len(text)} characters)"


def _quoted(text: str) -> str:
    """repr(text), clipped as _clipped clips."""
    return _clipped(text, repr)


def _check_token(kind: str, value: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{kind} must be a non-empty string, got {value!r}")
    if RESERVED_CHAR.search(value):
        raise ValueError(f"{kind} {_quoted(value)} contains a reserved character (one of {RESERVED!r})")
    return value


@dataclass(frozen=True, slots=True)
class Predicate:
    """A predicate symbol with a fixed arity."""

    name: str
    arity: int

    def __post_init__(self) -> None:
        _check_token("predicate name", self.name)
        if self.arity < 0:
            raise ValueError(f"arity must be non-negative, got {self.arity}")


@dataclass(frozen=True, slots=True)
class GroundAtom:
    """A predicate applied to constant arguments, e.g. armedAtk(Mosul)."""

    predicate: Predicate
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.predicate.arity:
            raise ArityError(
                f"predicate {self.predicate.name!r} has arity {self.predicate.arity}, "
                f"got {len(self.args)} argument(s)"
            )
        for a in self.args:
            _check_token("argument", a)

    def __str__(self) -> str:
        return f"{self.predicate.name}({','.join(self.args)})"


class AtomRegistry:
    """Bijective AtomId <-> GroundAtom store with action/environment marking.

    Ids are dense consecutive integers in interning order.  The registry is
    mutable while a corpus is being built and must be frozen before mining;
    a frozen registry is safe for unrestricted concurrent reads.  Arity is
    fixed per predicate name within one registry.
    """

    __slots__ = ("_atoms", "_ids", "_arities", "_action", "_env", "_frozen")

    def __init__(self) -> None:
        self._atoms: list[GroundAtom] = []
        self._ids: dict[GroundAtom, AtomId] = {}
        self._arities: dict[str, int] = {}
        self._action: set[AtomId] | frozenset[AtomId] = set()
        self._env: set[AtomId] | frozenset[AtomId] = set()
        self._frozen = False

    def __len__(self) -> int:
        return len(self._atoms)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "AtomRegistry":
        """Seal the registry against further mutation.  Returns self."""
        # frozenset(s) is s for a frozenset s, so action_set and env_set stop copying.
        self._action, self._env = frozenset(self._action), frozenset(self._env)
        self._frozen = True
        return self

    def _require_mutable(self) -> None:
        if self._frozen:
            raise FrozenRegistryError("registry is frozen")

    def intern(self, predicate: Predicate, args: Iterable[str] = ()) -> AtomId:
        """Return the id for the atom, interning it if new.

        Re-interning an existing atom is permitted even on a frozen registry
        (it is a read); adding a new one is not.
        """
        atom = GroundAtom(predicate, tuple(args))
        known = self._arities.get(predicate.name)
        if known is not None and known != predicate.arity:
            raise ArityError(
                f"predicate {_quoted(predicate.name)} already registered with arity {known}, "
                f"got arity {predicate.arity}"
            )
        existing = self._ids.get(atom)
        if existing is not None:
            return existing
        self._require_mutable()
        atom_id = len(self._atoms)
        self._atoms.append(atom)
        self._ids[atom] = atom_id
        self._arities.setdefault(predicate.name, predicate.arity)
        return atom_id

    def atom(self, atom_id: AtomId) -> GroundAtom:
        """Inverse of intern."""
        if not 0 <= atom_id < len(self._atoms):
            raise ValueError(f"unknown atom id {atom_id} (registry holds {len(self._atoms)})")
        return self._atoms[atom_id]

    def find(self, predicate: Predicate, args: Iterable[str] = ()) -> AtomId | None:
        """Id of an already-interned atom, or None."""
        return self._ids.get(GroundAtom(predicate, tuple(args)))

    def render(self, atom_id: AtomId) -> str:
        return str(self.atom(atom_id))

    def mark_action(self, atom_id: AtomId) -> None:
        self._require_mutable()
        self.atom(atom_id)  # bounds check
        self._action.add(atom_id)

    def mark_env(self, atom_id: AtomId) -> None:
        self._require_mutable()
        self.atom(atom_id)
        self._env.add(atom_id)

    @property
    def action_set(self) -> frozenset[AtomId]:
        return frozenset(self._action)

    @property
    def env_set(self) -> frozenset[AtomId]:
        return frozenset(self._env)

    def ids(self) -> range:
        return range(len(self._atoms))


@dataclass(frozen=True, slots=True)
class Atom:
    """A reference to one atom by id, as the brute-force oracle takes it."""

    atom_id: AtomId


@dataclass(frozen=True, init=False, slots=True)
class Conjunction:
    """A non-empty set of positive atoms, kept sorted for canonical equality.

    Equality and hashing follow the sorted atom tuple, so two conjunctions
    built from the same atoms in any order compare equal.
    """

    atoms: tuple[AtomId, ...]

    def __init__(self, atoms: Iterable[AtomId]) -> None:
        norm = tuple(sorted(set(atoms)))
        if not norm:
            raise ValueError("a conjunction must contain at least one atom")
        for a in norm:
            if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                raise ValueError(f"atom ids must be non-negative integers, got {a!r}")
        object.__setattr__(self, "atoms", norm)

    @property
    def dimension(self) -> int:
        return len(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[AtomId]:
        return iter(self.atoms)

    def __contains__(self, atom_id: object) -> bool:
        return atom_id in self.atoms

    def render(self, registry: AtomRegistry) -> str:
        return " & ".join(registry.render(a) for a in self.atoms)


class Thread:
    """Worlds indexed 1..t_max.  Immutable once constructed.

    ``worlds`` is consumed in order; element i becomes the world at time
    i+1.  Empty worlds are legal; an empty sequence is not.
    """

    __slots__ = ("_worlds", "_masks")

    def __init__(self, worlds: Iterable[Iterable[AtomId]]) -> None:
        built: list[tuple[AtomId, ...]] = []
        masks: dict[AtomId, int] = {}
        for i, members in enumerate(worlds):
            world = set(members)
            bit = 1 << i
            for a in world:
                if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                    raise ValueError(f"world members must be non-negative atom ids, got {a!r}")
                masks[a] = masks.get(a, 0) | bit
            built.append(tuple(sorted(world)))  # after the check: "0" and 0 do not compare
        if not built:
            raise ValueError("a thread must contain at least one world")
        self._worlds = tuple(built)
        self._masks = masks

    @property
    def t_max(self) -> int:
        return len(self._worlds)

    def world(self, t: int) -> frozenset[AtomId]:
        if not isinstance(t, int) or isinstance(t, bool) or not 1 <= t <= len(self._worlds):
            raise TimeIndexError(f"time index {t!r} outside 1..{len(self._worlds)}")
        return frozenset(self._worlds[t - 1])

    def time_mask(self, atom_id: AtomId) -> int:
        """Bitmask of this atom's occurrence times (bit t-1 <=> holds at t)."""
        return self._masks.get(atom_id, 0)

    def times_mask(self, atoms: Iterable[AtomId]) -> int:
        """Bitmask of the times where every given atom holds."""
        mask = -1
        seen = False
        for a in atoms:
            mask &= self._masks.get(a, 0)
            seen = True
            if not mask:
                return 0
        if not seen:
            raise ValueError("times_mask needs at least one atom")
        return mask

    def occurrences(self, atom_id: AtomId) -> tuple[int, ...]:
        """Sorted times at which the atom holds."""
        return tuple(iter_mask_times(self._masks.get(atom_id, 0)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Thread):
            return NotImplemented
        return self._worlds == other._worlds

    def __hash__(self) -> int:
        return hash(self._worlds)


def iter_mask_times(mask: int) -> Iterator[int]:
    """Yield the 1-based times encoded by an occurrence bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask &= mask - 1


def low_time_mask(n: int) -> int:
    """Mask selecting times 1..n."""
    if n < 0:
        raise ValueError("mask width must be non-negative")
    return (1 << n) - 1

