"""Linearization of guarded TGDs (Section 8 and Appendix E).

Linearization converts a guarded set ``Σ`` and a database ``D`` into a
linear set ``lin(Σ)`` and a database ``lin(D)`` whose chase mirrors the
original one atom by atom (Proposition 8.1).  The key notion is the
*Σ-type* of an atom ``α``: a canonical description of ``α`` (its guard
pattern, with distinct terms replaced by the integers ``1..k`` in order
of first occurrence) together with the set of chase atoms that mention
only terms of ``α``.  Every chase atom of the original instance is then
represented by a single ``[τ]``-atom, and every guarded TGD by a family
of linear TGDs over ``[τ]``-predicates, one per type/homomorphism pair.

Computing a type requires the *completion* of a finite instance: the
chase atoms that mention only terms of the instance's domain.  The
completion is obtained here by an iterated, depth-bounded chase (see
:func:`completion`); this is exact whenever the relevant chase
fragments stay within the configured depth budget — which holds for
every workload shipped with the repository — and is a documented
approximation otherwise (see DESIGN.md, "Substitutions").

We materialise only the types *reachable* from the given database
rather than all (double-exponentially many) Σ-types; this is precisely
the fragment of ``lin(Σ)`` that the chase of ``lin(D)`` and the
non-uniform weak-acyclicity check relative to ``lin(D)`` can ever see.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.atoms import Atom, Predicate
from repro.model.homomorphism import apply_substitution, find_homomorphisms
from repro.model.instance import Database, Instance
from repro.model.terms import Constant, Term, Variable
from repro.model.tgd import TGD, TGDSet
from repro.chase.engine import ChaseBudget
from repro.chase.semi_oblivious import semi_oblivious_chase


# --------------------------------------------------------------------------
# Σ-types
# --------------------------------------------------------------------------


def _integer_constant(value: int) -> Constant:
    """The canonical constant representing the type integer ``value``."""
    return Constant(f"#{value}")


@dataclass(frozen=True)
class SigmaType:
    """A Σ-type ``τ = (guard, others)`` over canonical integer terms.

    ``guard`` is an atom whose arguments are the integer constants
    ``#1, #2, ...`` appearing in first-occurrence order; ``others`` are
    the remaining atoms of the type, all over the guard's terms.
    """

    guard: Atom
    others: FrozenSet[Atom]

    def atoms(self) -> FrozenSet[Atom]:
        """``atoms(τ) = others ∪ {guard}``."""
        return self.others | {self.guard}

    def arity(self) -> int:
        """``ar(τ)``: the arity of the guard atom."""
        return self.guard.predicate.arity

    def predicate(self) -> Predicate:
        """The fresh predicate ``[τ]`` used by the linearized program.

        The predicate name is a canonical serialisation of the type, so
        equal types always map to the same predicate.
        """
        guard_text = str(self.guard)
        others_text = ";".join(sorted(str(a) for a in self.others))
        return Predicate(name=f"[{guard_text}|{{{others_text}}}]", arity=self.arity())

    def instantiate(self, args: Sequence[Term]) -> Set[Atom]:
        """``τ(ū)``: replace the integer ``#i`` with ``args``'s i-th distinct term."""
        if len(args) != self.arity():
            raise ValueError("instantiation tuple has the wrong arity")
        mapping: Dict[Term, Term] = {}
        for guard_term, actual in zip(self.guard.args, args):
            existing = mapping.get(guard_term)
            if existing is not None and existing != actual:
                raise ValueError("instantiation tuple does not match the guard pattern")
            mapping[guard_term] = actual
        return {a.substitute(mapping) for a in self.atoms()}


def canonicalize_type(guard: Atom, others: Iterable[Atom]) -> SigmaType:
    """Rename the terms of ``guard`` (and ``others``) to ``#1, #2, ...``.

    The renaming follows the order of first occurrence in the guard, as
    required by the definition of a Σ-type.
    """
    mapping: Dict[Term, Term] = {}
    for term in guard.args:
        if term not in mapping:
            mapping[term] = _integer_constant(len(mapping) + 1)
    canonical_guard = guard.substitute(mapping)
    canonical_others = frozenset(a.substitute(mapping) for a in others if a != guard)
    for a in canonical_others:
        if not set(a.args) <= set(canonical_guard.args):
            raise ValueError(f"type atom {a} uses terms outside the guard {guard}")
    return SigmaType(guard=canonical_guard, others=canonical_others)


# --------------------------------------------------------------------------
# Completion
# --------------------------------------------------------------------------


def completion(
    instance: Instance,
    tgds: TGDSet,
    depth_budget: Optional[int] = None,
    max_atoms: int = 200_000,
    max_iterations: int = 16,
) -> Instance:
    """``complete(I, Σ)``: chase atoms that mention only terms of ``dom(I)``.

    The completion is computed by repeatedly chasing the instance with a
    depth budget, harvesting the atoms over ``dom(I)`` and feeding them
    back until no new such atom appears.  The default depth budget is
    ``|sch(Σ)| · ar(Σ) + 2``, which is exact for every curated workload
    in this repository; callers can raise it when in doubt.
    """
    if depth_budget is None:
        depth_budget = len(tgds.schema()) * max(tgds.arity(), 1) + 2
    domain = instance.active_domain()
    # Every atom of ``current`` is over dom(I), from the start (it is a
    # copy of I) and after each harvest, so it is the completion as is.
    current = instance.as_instance()
    for _ in range(max_iterations):
        budget = ChaseBudget(
            max_atoms=max_atoms, max_depth=depth_budget, truncate_at_depth=True
        )
        result = semi_oblivious_chase(current, tgds, budget=budget, record_derivation=False)
        # Invented nulls are never in dom(I): the harvest neither keeps
        # nor decodes them.
        harvested = [a for a in result.atoms_over(domain) if a not in current]
        if not harvested:
            break
        current.extend_unique_ground(harvested)
    return current


def type_of(atom: Atom, completed: Instance) -> Set[Atom]:
    """``type_{D,Σ}(α)``: completion atoms mentioning only terms of ``α``.

    A scan of the whole completion; :class:`TypeIndex` answers the same
    question for many atoms of one completion.
    """
    allowed = set(atom.args)
    return {a for a in completed if set(a.args) <= allowed}


class TypeIndex:
    """``type_{D,Σ}(α)`` for many atoms ``α`` of one completion.

    Completion atoms are indexed by their first argument.  An atom over
    the terms of ``α`` has its first argument among them (or has no
    argument at all), so a type reads only the buckets of ``α``'s
    distinct terms plus the zero-arity atoms, instead of the whole
    completion.  ``examined`` counts the atoms the lookups have read.
    """

    def __init__(self, completed: Iterable[Atom]) -> None:
        self._by_first: Dict[Term, List[Atom]] = {}
        self._nullary: List[Atom] = []
        for a in completed:
            if a.args:
                self._by_first.setdefault(a.args[0], []).append(a)
            else:
                self._nullary.append(a)
        self.examined = 0

    def type_of(self, atom: Atom) -> Set[Atom]:
        """Equal to ``type_of(atom, completed)``."""
        allowed = set(atom.args)
        within = allowed.issuperset
        result = set(self._nullary)
        examined = len(self._nullary)
        for term in allowed:
            bucket = self._by_first.get(term, ())
            examined += len(bucket)
            result.update(a for a in bucket if within(a.args))
        self.examined += examined
        return result


# --------------------------------------------------------------------------
# Database linearization
# --------------------------------------------------------------------------


@dataclass
class LinearizationResult:
    """The output of :func:`linearize`.

    Attributes
    ----------
    database:
        ``lin(D)``: one ``[τ]``-fact per database atom.
    program:
        ``lin(Σ)`` restricted to the types reachable from ``lin(D)``.
    types:
        All Σ-types materialised during the construction.
    type_of_atom:
        The Σ-type assigned to each original database atom.
    """

    database: Database
    program: TGDSet
    types: Tuple[SigmaType, ...]
    type_of_atom: Dict[Atom, SigmaType]


def linearize_database(
    database: Database,
    tgds: TGDSet,
    completed: Optional[Instance] = None,
) -> Tuple[Database, Dict[Atom, SigmaType]]:
    """``lin(D)``: encode each database atom together with its type."""
    if completed is None:
        completed = completion(database.as_instance(), tgds)
    types = TypeIndex(completed)
    linearized = Database()
    assignment: Dict[Atom, SigmaType] = {}
    for atom in database:
        atom_type = canonicalize_type(atom, types.type_of(atom))
        assignment[atom] = atom_type
        linearized.add(Atom(atom_type.predicate(), atom.args))
    return linearized, assignment


# --------------------------------------------------------------------------
# Program linearization (reachable types)
# --------------------------------------------------------------------------


def _existential_assignment(tgd: TGD, arity: int) -> Dict[Variable, Term]:
    """Map each existential variable of ``tgd`` to a fresh type integer."""
    ordered = sorted(tgd.existential_variables(), key=lambda v: v.name)
    return {
        variable: _integer_constant(arity + offset + 1)
        for offset, variable in enumerate(ordered)
    }


#: One linearization of a TGD for a type: the body and head of the
#: linear rule (its id is assigned per call) and the head atoms' types.
_Expansion = Tuple[Tuple[Atom, ...], Tuple[Atom, ...], Tuple[SigmaType, ...]]


def _type_expansions(
    tgd: TGD,
    sigma_type: SigmaType,
    tgds: TGDSet,
    completion_depth: Optional[int],
) -> Tuple[_Expansion, ...]:
    """All linearizations of ``tgd`` induced by ``sigma_type`` (Appendix E).

    A function of Σ, ``tgd``, the Σ-type and the completion depth
    alone, so :func:`_linearize_rule_for_type` keeps it in Σ's memo.
    """
    guard_atom = tgd.guard()
    if guard_atom is None:
        raise ValueError(f"linearization requires guarded TGDs, got {tgd}")
    type_instance = Instance(sigma_type.atoms())
    expansions: List[_Expansion] = []
    for substitution in find_homomorphisms(tgd.body, type_instance):
        if apply_substitution(guard_atom, substitution) != sigma_type.guard:
            continue
        mapping: Dict[Variable, Term] = dict(substitution)
        mapping.update(_existential_assignment(tgd, tgds.arity()))
        head_images = [apply_substitution(a, mapping) for a in tgd.head]
        local_instance = Instance(set(head_images) | sigma_type.atoms())
        completed = completion(local_instance, tgds, depth_budget=completion_depth)
        head_types = tuple(
            canonicalize_type(image, type_of(image, completed) - {image})
            for image in head_images
        )
        expansions.append(
            (
                (Atom(sigma_type.predicate(), guard_atom.args),),
                tuple(
                    Atom(head_type.predicate(), head_atom.args)
                    for head_type, head_atom in zip(head_types, tgd.head)
                ),
                head_types,
            )
        )
    return tuple(expansions)


def _linearize_rule_for_type(
    tgd: TGD,
    sigma_type: SigmaType,
    tgds: TGDSet,
    completion_depth: Optional[int],
    rule_counter: itertools.count,
) -> List[Tuple[TGD, Tuple[SigmaType, ...]]]:
    """The linear rules ``tgd`` yields for ``sigma_type``, with their head types.

    The expansions are built once per program (Σ-types range over
    ``#i`` integers, never database terms); rule ids come from the
    caller's counter, so ``lin(Σ)`` reads the same on a warm memo.
    """
    expansions = tgds.memo(
        ("lin", tgd, sigma_type, completion_depth),
        lambda: _type_expansions(tgd, sigma_type, tgds, completion_depth),
    )
    return [
        (
            TGD(body=body, head=head, rule_id=f"{tgd.rule_id}|lin{next(rule_counter)}"),
            head_types,
        )
        for body, head, head_types in expansions
    ]


def linearize_program(
    tgds: TGDSet,
    seed_types: Iterable[SigmaType],
    completion_depth: Optional[int] = None,
    max_types: int = 10_000,
) -> Tuple[TGDSet, Tuple[SigmaType, ...]]:
    """``lin(Σ)`` restricted to types reachable from ``seed_types``.

    Starting from the seed types (those of the database atoms), rules
    are generated type by type; the head types they introduce are added
    to the worklist until a fixpoint is reached.  ``max_types`` guards
    against accidental blow-ups.
    """
    if not tgds.is_guarded:
        raise ValueError("linearization is defined for guarded TGDs only")
    rule_counter = itertools.count()
    known: Dict[Predicate, SigmaType] = {}
    worklist: List[SigmaType] = []
    for sigma_type in seed_types:
        if sigma_type.predicate() not in known:
            known[sigma_type.predicate()] = sigma_type
            worklist.append(sigma_type)
    produced: List[TGD] = []
    while worklist:
        if len(known) > max_types:
            raise RuntimeError(
                f"linearization exceeded the type budget ({max_types}); "
                "raise max_types if this is expected"
            )
        current = worklist.pop()
        for tgd in tgds:
            for linearized, head_types in _linearize_rule_for_type(
                tgd, current, tgds, completion_depth, rule_counter
            ):
                produced.append(linearized)
                for head_type in head_types:
                    if head_type.predicate() not in known:
                        known[head_type.predicate()] = head_type
                        worklist.append(head_type)
    if not produced:
        # A linear program must be non-empty for TGDSet; emit an inert
        # rule over a reserved predicate so downstream analyses (which
        # are vacuous in this case) still have a well-formed object.
        inert_predicate = Predicate("__lin_inert__", 1)
        x = Variable("x")
        produced.append(
            TGD(
                body=(Atom(inert_predicate, (x,)),),
                head=(Atom(inert_predicate, (x,)),),
                rule_id=f"{tgds.name}|lin_inert",
            )
        )
    return (
        TGDSet(produced, name=f"lin({tgds.name})"),
        tuple(known.values()),
    )


def linearize(
    database: Database,
    tgds: TGDSet,
    completion_depth: Optional[int] = None,
    max_types: int = 10_000,
) -> LinearizationResult:
    """Compute ``lin(D)`` and the reachable fragment of ``lin(Σ)``."""
    completed = completion(database.as_instance(), tgds, depth_budget=completion_depth)
    linear_database, assignment = linearize_database(database, tgds, completed=completed)
    seed_types = list(dict.fromkeys(assignment.values()))
    program, types = linearize_program(
        tgds, seed_types, completion_depth=completion_depth, max_types=max_types
    )
    return LinearizationResult(
        database=linear_database,
        program=program,
        types=types,
        type_of_atom=assignment,
    )
