"""Atoms, predicates and predicate positions."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.model.terms import Constant, Null, Term, Variable


@dataclass(frozen=True, slots=True)
class Predicate:
    """A relation symbol with an associated arity (``R/n``)."""

    name: str
    arity: int
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError(f"arity must be non-negative, got {self.arity}")
        # Predicates key every instance index; cache the hash so index
        # lookups do not re-hash the name on every probe.  String salt
        # for cross-process stable hashes (see ``Constant``).
        object.__setattr__(self, "_hash", hash(("Predicate", self.name, self.arity)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def positions(self) -> Tuple["Position", ...]:
        """All positions ``(R, 1), ..., (R, n)`` of this predicate.

        Positions are 1-based as in the paper.
        """
        return tuple(Position(self, i) for i in range(1, self.arity + 1))


@dataclass(frozen=True, slots=True)
class Position:
    """A predicate position ``(R, i)`` identifying the i-th argument of R.

    The index ``i`` is 1-based, matching the paper's convention.
    """

    predicate: Predicate
    index: int

    def __post_init__(self) -> None:
        if not 1 <= self.index <= self.predicate.arity:
            raise ValueError(
                f"position index {self.index} out of range for {self.predicate}"
            )

    def __str__(self) -> str:
        return f"({self.predicate.name},{self.index})"


@dataclass(frozen=True, slots=True)
class Atom:
    """An atom ``R(t_1, ..., t_n)`` over constants, nulls and variables."""

    predicate: Predicate
    args: Tuple[Term, ...]
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate} expects {self.predicate.arity} arguments, "
                f"got {len(self.args)}"
            )
        # Atoms live in several hash sets at once (the instance's atom
        # set plus two secondary indexes); the cached hash makes each
        # membership probe O(1) instead of O(arity).
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_trusted(predicate: "Predicate", args: Tuple[Term, ...]) -> "Atom":
        """Construct without arity validation (decode hot path).

        The fact store decodes tens of thousands of atoms whose shape
        is correct by construction; this skips the dataclass ``__init__``
        machinery while producing an atom indistinguishable from
        ``Atom(predicate, args)`` (same fields, same cached hash).
        """
        atom = Atom.__new__(Atom)
        _SET_PREDICATE(atom, predicate)
        _SET_ARGS(atom, args)
        _SET_HASH(atom, hash((predicate, args)))
        return atom

    @staticmethod
    def many_from_trusted(
        predicate: "Predicate", args_rows: Sequence[Tuple[Term, ...]]
    ) -> List["Atom"]:
        """:meth:`from_trusted` over many argument tuples of one predicate.

        The fact store decodes whole predicates at once.  Each field is
        set for all atoms in one C-level ``map`` over its slot's member
        descriptor, so no per-atom Python code runs here; the hash is
        still ``hash((predicate, args))``.
        """
        atoms = list(map(Atom.__new__, repeat(Atom, len(args_rows))))
        consume = deque(maxlen=0).extend
        consume(map(_SET_PREDICATE, atoms, repeat(predicate)))
        consume(map(_SET_ARGS, atoms, args_rows))
        consume(map(_SET_HASH, atoms, map(hash, zip(repeat(predicate), args_rows))))
        return atoms

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.predicate.name}({inner})"

    @property
    def is_fact(self) -> bool:
        """True if every argument is a constant."""
        return all(isinstance(arg, Constant) for arg in self.args)

    @property
    def is_ground(self) -> bool:
        """True if no argument is a variable (constants and nulls allowed)."""
        return not any(isinstance(arg, Variable) for arg in self.args)

    def variables(self) -> Set[Variable]:
        """The set of variables occurring in the atom (``var(α)``)."""
        return {arg for arg in self.args if isinstance(arg, Variable)}

    def constants(self) -> Set[Constant]:
        return {arg for arg in self.args if isinstance(arg, Constant)}

    def nulls(self) -> Set[Null]:
        return {arg for arg in self.args if isinstance(arg, Null)}

    def terms(self) -> Set[Term]:
        """The set of (distinct) terms occurring in the atom."""
        return set(self.args)

    def positions_of(self, term: Term) -> Tuple[Position, ...]:
        """Positions at which ``term`` occurs (``pos(α, x)``)."""
        return tuple(
            Position(self.predicate, i + 1)
            for i, arg in enumerate(self.args)
            if arg == term
        )

    def depth(self) -> int:
        """Atom depth: the maximum depth over its (ground) terms.

        Only meaningful for ground atoms; raises for atoms with
        variables.
        """
        if not self.is_ground:
            raise ValueError(f"depth undefined for non-ground atom {self}")
        return max((arg.depth for arg in self.args), default=0)

    def substitute(self, mapping: Dict[Term, Term]) -> "Atom":
        """Apply a substitution to the atom's arguments."""
        return Atom(self.predicate, tuple(mapping.get(arg, arg) for arg in self.args))


# The slots' member descriptors: setting a field through one skips the
# frozen dataclass's ``__setattr__`` and the attribute-name lookup.
_SET_PREDICATE = Atom.predicate.__set__
_SET_ARGS = Atom.args.__set__
_SET_HASH = Atom._hash.__set__


def atom(name: str, *args: Term) -> Atom:
    """Convenience constructor: ``atom("R", x, y)`` builds ``R(x, y)``."""
    return Atom(Predicate(name, len(args)), tuple(args))


def atoms_schema(atoms: Iterable[Atom]) -> Set[Predicate]:
    """The set of predicates occurring in a collection of atoms."""
    return {a.predicate for a in atoms}


def atoms_variables(atoms: Iterable[Atom]) -> Set[Variable]:
    """The set of variables occurring in a collection of atoms."""
    result: Set[Variable] = set()
    for a in atoms:
        result |= a.variables()
    return result


def atoms_terms(atoms: Iterable[Atom]) -> Set[Term]:
    """The set of terms occurring in a collection of atoms."""
    result: Set[Term] = set()
    for a in atoms:
        result |= a.terms()
    return result


def positions_of_variable(atoms: Sequence[Atom], variable: Variable) -> List[Position]:
    """``pos(A, x)`` for a set of atoms ``A``: positions at which x occurs."""
    result: List[Position] = []
    for a in atoms:
        result.extend(a.positions_of(variable))
    return result
