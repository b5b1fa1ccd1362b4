"""Instances and databases.

An *instance* is a (possibly large) set of ground atoms over constants
and nulls; a *database* is a finite set of facts (atoms over constants
only).  The :class:`Instance` class keeps secondary indexes so the
chase engine and the homomorphism search can enumerate candidate atoms
without scanning the whole instance.

The atom set and the per-predicate index are maintained eagerly.  The
per-position index and the active-domain occurrence counts (with the
maximum term depth) are built lazily, on the first query that needs
them, and maintained incrementally on add/discard from then on.  An
instance that is only iterated, counted or copied — the common fate of
a decoded chase result — never pays for them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, groupby
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

from repro.model.atoms import Atom, Predicate
from repro.model.terms import Constant, Null, Term

#: Shared empty result for index misses; never mutated.
_EMPTY_ATOMS: Set[Atom] = frozenset()  # type: ignore[assignment]

_predicate_of = attrgetter("predicate")


class Instance:
    """A mutable set of ground atoms with predicate and position indexes.

    The instance rejects atoms containing variables: those belong to
    rules and queries, not to data.
    """

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._atoms: Set[Atom] = set()
        self._by_predicate: Dict[Predicate, Set[Atom]] = defaultdict(set)
        # Lazy indexes, ``None`` until first needed.  Each is built into
        # a local and published with one assignment, so a reader on
        # another thread never sees a half-filled index.
        # (predicate, 0-based position, term) -> atoms having `term` there
        self._by_position: Optional[Dict[Tuple[Predicate, int, Term], Set[Atom]]] = None
        # term -> number of argument occurrences across stored atoms;
        # active_domain()/max_depth() are O(domain)/O(1) once it exists.
        self._domain: Optional[Dict[Term, int]] = None
        # Valid only while _domain is built.
        self._max_depth = 0
        # Set when the deepest term may have been discarded; the next
        # max_depth() call recomputes from the (maintained) domain.
        self._max_depth_dirty = False
        for a in atoms:
            self.add(a)

    # -- basic protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __contains__(self, a: Atom) -> bool:
        return a in self._atoms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._atoms == other._atoms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({len(self._atoms)} atoms)"

    # -- lazy indexes ----------------------------------------------------

    def _position_index(self) -> Dict[Tuple[Predicate, int, Term], Set[Atom]]:
        by_position = self._by_position
        if by_position is None:
            by_position = defaultdict(set)
            for predicate, bucket in self._by_predicate.items():
                for a in bucket:
                    for i, term in enumerate(a.args):
                        by_position[(predicate, i, term)].add(a)
            self._by_position = by_position
        return by_position

    def _domain_index(self) -> Dict[Term, int]:
        domain = self._domain
        if domain is None:
            domain = Counter(chain.from_iterable(a.args for a in self._atoms))
            self._max_depth = max((t.depth for t in domain), default=0)
            self._max_depth_dirty = False
            self._domain = domain
        return domain

    # -- mutation --------------------------------------------------------

    def add(self, a: Atom) -> bool:
        """Add an atom; return True if it was not already present."""
        if not a.is_ground:
            raise ValueError(f"instances may only contain ground atoms, got {a}")
        if a in self._atoms:
            return False
        self._index_new(a)
        return True

    def _index_new(self, a: Atom) -> None:
        """Index an atom known to be ground and not yet present."""
        self._atoms.add(a)
        self._by_predicate[a.predicate].add(a)
        by_position = self._by_position
        if by_position is not None:
            predicate = a.predicate
            for i, term in enumerate(a.args):
                by_position[(predicate, i, term)].add(a)
        domain = self._domain
        if domain is not None:
            for term in a.args:
                count = domain.get(term)
                if count is None:
                    domain[term] = 1
                    if not self._max_depth_dirty:
                        depth = term.depth
                        if depth > self._max_depth:
                            self._max_depth = depth
                else:
                    domain[term] = count + 1

    def extend_unique_ground(self, atoms: Iterable[Atom]) -> None:
        """Bulk-load atoms the caller guarantees ground and all-new.

        The fact store's decode boundary produces exactly such a
        stream; skipping the per-atom groundness and membership checks
        keeps materialisation cheap.  While no lazy index is built this
        is a plain bulk insert, one set update per run of same-predicate
        atoms.  Feeding a duplicate or non-ground atom through this
        method corrupts the indexes — use :meth:`add` unless the
        guarantee holds by construction.
        """
        if self._by_position is not None or self._domain is not None:
            for a in atoms:
                self._index_new(a)
            return
        by_predicate = self._by_predicate
        update_atoms = self._atoms.update
        for predicate, run in groupby(atoms, _predicate_of):
            run = list(run)
            update_atoms(run)
            by_predicate[predicate].update(run)

    def add_all(self, atoms: Iterable[Atom]) -> List[Atom]:
        """Add several atoms; return the ones that were actually new."""
        return [a for a in atoms if self.add(a)]

    def discard(self, a: Atom) -> bool:
        """Remove an atom if present; return True if it was removed."""
        if a not in self._atoms:
            return False
        self._atoms.discard(a)
        self._by_predicate[a.predicate].discard(a)
        by_position = self._by_position
        if by_position is not None:
            for i, term in enumerate(a.args):
                by_position[(a.predicate, i, term)].discard(a)
        domain = self._domain
        if domain is not None:
            for term in a.args:
                count = domain.get(term, 0)
                if count <= 1:
                    domain.pop(term, None)
                    # The deepest term may just have left the domain;
                    # defer the rescan to the next max_depth() call.
                    if term.depth >= self._max_depth:
                        self._max_depth_dirty = True
                else:
                    domain[term] = count - 1
        return True

    # -- queries ---------------------------------------------------------

    def atoms(self) -> Set[Atom]:
        """A copy of the underlying atom set."""
        return set(self._atoms)

    def atoms_with_predicate(self, predicate: Predicate) -> Set[Atom]:
        """All atoms over the given predicate (empty set if none).

        The returned set is a defensive copy: mutating the instance
        while iterating it is safe.  Hot paths that can guarantee the
        instance is not mutated during iteration should use
        :meth:`candidates_view` instead.
        """
        return set(self._by_predicate.get(predicate, _EMPTY_ATOMS))

    def count(self, predicate: Predicate) -> int:
        """Number of atoms over ``predicate`` (O(1))."""
        bucket = self._by_predicate.get(predicate)
        return len(bucket) if bucket else 0

    def predicates(self) -> Set[Predicate]:
        """Predicates that occur in at least one atom."""
        return {pred for pred, atoms in self._by_predicate.items() if atoms}

    def candidates(self, predicate: Predicate, bound: Dict[int, Term]) -> Set[Atom]:
        """Atoms over ``predicate`` matching the partially bound arguments.

        ``bound`` maps 0-based argument positions to required terms.
        The returned set is always safe to keep across mutations.
        """
        return set(self.candidates_view(predicate, bound))

    def candidates_view(self, predicate: Predicate, bound: Dict[int, Term]) -> Set[Atom]:
        """Like :meth:`candidates`, but may alias internal index sets.

        When ``bound`` pins zero or one positions the result is a *live
        view* of an index bucket: it must not be mutated, and the
        instance must not be mutated while the view is being iterated.
        The chase engine materialises each round's triggers before
        applying any of them, which is exactly what makes this view safe
        on its hot path.  The most selective index entry drives the
        intersection to keep the cost close to the result size.
        """
        if not bound:
            return self._by_predicate.get(predicate, _EMPTY_ATOMS)
        by_position = self._position_index()
        if len(bound) == 1:
            ((i, term),) = bound.items()
            return by_position.get((predicate, i, term), _EMPTY_ATOMS)
        # Multi-bound probe: keep only the smallest bucket aside while
        # scanning (no materialised-and-sorted bucket list), and bail
        # out on the first empty bucket before fetching the rest.
        smallest: Optional[Set[Atom]] = None
        rest: List[Set[Atom]] = []
        for i, term in bound.items():
            bucket = by_position.get((predicate, i, term))
            if not bucket:
                return _EMPTY_ATOMS
            if smallest is None or len(bucket) < len(smallest):
                if smallest is not None:
                    rest.append(smallest)
                smallest = bucket
            else:
                rest.append(bucket)
        assert smallest is not None
        return smallest.intersection(*rest)

    def active_domain(self) -> Set[Term]:
        """``dom(I)``: all constants and nulls occurring in the instance.

        Served from the occurrence counts — O(|dom(I)|) rather than a
        scan over every atom, once the first call has built them.
        """
        return set(self._domain_index())

    def constants(self) -> Set[Constant]:
        return {t for t in self._domain_index() if isinstance(t, Constant)}

    def nulls(self) -> Set[Null]:
        return {t for t in self._domain_index() if isinstance(t, Null)}

    def max_depth(self) -> int:
        """Maximum term depth over the instance (0 for the empty instance).

        The first call builds the domain index; after that it is O(1)
        on the add-only path, and the first call after a discard that
        may have removed the deepest term recomputes from the domain.
        """
        self._domain_index()
        if self._max_depth_dirty:
            self._max_depth = max((t.depth for t in self._domain), default=0)
            self._max_depth_dirty = False
        return self._max_depth

    # -- trusted copies --------------------------------------------------

    def _copy_as(
        self, cls: Type["Instance"], predicates: Optional[Set[Predicate]] = None
    ) -> "Instance":
        """A ``cls`` holding this instance's atoms (over ``predicates``).

        The atoms were validated when they entered this instance, so
        the copy skips the per-atom checks: one set copy per predicate
        bucket.  The lazy indexes are left unbuilt in the copy.
        """
        clone = cls()
        atoms = clone._atoms
        by_predicate = clone._by_predicate
        for predicate, bucket in self._by_predicate.items():
            if bucket and (predicates is None or predicate in predicates):
                by_predicate[predicate] = set(bucket)
                atoms.update(bucket)
        return clone

    def copy(self) -> "Instance":
        """A copy of the same class (a :class:`Database` stays one)."""
        return self._copy_as(type(self))

    def as_instance(self) -> "Instance":
        """A plain :class:`Instance` copy (e.g. a chase starting point)."""
        return self._copy_as(Instance)

    def restrict_to_predicates(self, predicates: Iterable[Predicate]) -> "Instance":
        """The sub-instance containing only atoms over ``predicates``."""
        return self._copy_as(Instance, set(predicates))


class Database(Instance):
    """A finite set of facts: atoms whose arguments are constants only."""

    def add(self, a: Atom) -> bool:
        # A fact is ground, so this replaces (not precedes) the
        # instance's groundness check.
        if not a.is_fact:
            raise ValueError(f"databases may only contain facts, got {a}")
        if a in self._atoms:
            return False
        self._index_new(a)
        return True
