"""Substitutions and homomorphism search.

A homomorphism from a set of atoms ``A`` to a set of atoms ``B`` is a
substitution over the terms of ``A`` that is the identity on constants
and maps every atom of ``A`` to an atom of ``B``.  The chase engine and
the restricted-chase activeness test both reduce to enumerating the
homomorphisms from a rule body (a small conjunction of atoms over
variables) into a large instance.

This is the term-level join: a dict-copying backtracking search over
the instance's index views, with the atoms ordered by
:func:`_plan_order`.  It runs under the legacy rescan (the executable
specification the store engine is tested against), the restricted
chase's head test, linearization's Σ-types and UCQ evaluation.  The
store engine's generated kernels (``chase/store_plan.py``) share the
orderer and :func:`classify_atom_positions` but join over interned ids.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.model.atoms import Atom, Predicate
from repro.model.instance import Instance
from repro.model.terms import Constant, Term, Variable

Substitution = Dict[Variable, Term]


def apply_substitution(atom: Atom, substitution: Substitution) -> Atom:
    """Apply a variable substitution to an atom."""
    new_args = tuple(
        substitution.get(arg, arg) if isinstance(arg, Variable) else arg
        for arg in atom.args
    )
    return Atom(atom.predicate, new_args)


def is_homomorphism(
    atoms: Sequence[Atom], target: Instance, substitution: Substitution
) -> bool:
    """Check that ``substitution`` maps every atom of ``atoms`` into ``target``."""
    for a in atoms:
        image = apply_substitution(a, substitution)
        if not image.is_ground or image not in target:
            return False
    return True


def _match_atom(
    pattern: Atom, candidate: Atom, binding: Substitution
) -> Optional[Substitution]:
    """Try to extend ``binding`` so that ``pattern`` maps onto ``candidate``."""
    if pattern.predicate != candidate.predicate:
        return None
    extended = dict(binding)
    for pattern_arg, candidate_arg in zip(pattern.args, candidate.args):
        if isinstance(pattern_arg, Constant):
            if pattern_arg != candidate_arg:
                return None
        elif isinstance(pattern_arg, Variable):
            bound = extended.get(pattern_arg)
            if bound is None:
                extended[pattern_arg] = candidate_arg
            elif bound != candidate_arg:
                return None
        else:  # nulls never occur in rule bodies
            if pattern_arg != candidate_arg:
                return None
    return extended


#: A pattern atom's classified argument positions: (predicate,
#: const_positions, lookup_positions, bind_positions, check_positions).
#: Positions are 0-based argument indexes; slots index a plan's slot array.
_Step = Tuple[
    Predicate,
    Tuple[Tuple[int, Term], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
]


def classify_atom_positions(
    pattern: Atom, bound: Set[Variable], slot_of: Dict[Variable, int]
) -> _Step:
    """Classify a pattern atom's argument positions against a slot map.

    Returns ``(predicate, consts, lookups, binds, checks)``: constant
    positions (equality against a fixed term), positions whose variable
    is already in ``bound`` (usable for index lookups), first
    occurrences of fresh variables (bind the slot), and repeated
    occurrences within this atom (check against the just-bound slot).
    Used by the store pipeline's plans in ``chase/store_plan.py``.
    """
    consts: List[Tuple[int, Term]] = []
    lookups: List[Tuple[int, int]] = []
    binds: List[Tuple[int, int]] = []
    checks: List[Tuple[int, int]] = []
    fresh_here: Set[Variable] = set()
    for i, arg in enumerate(pattern.args):
        if not isinstance(arg, Variable):
            consts.append((i, arg))
        elif arg in bound:
            lookups.append((i, slot_of[arg]))
        elif arg in fresh_here:
            checks.append((i, slot_of[arg]))
        else:
            binds.append((i, slot_of[arg]))
            fresh_here.add(arg)
    return (pattern.predicate, tuple(consts), tuple(lookups), tuple(binds), tuple(checks))


def _plan_order(atoms: Sequence[Atom], bound: FrozenSet[Variable]) -> List[Atom]:
    """Greedy join order for ``atoms`` given the variables in ``bound``.

    With nothing bound, the atom with the most variables goes first (it
    binds the most).  Then atoms are picked greedily by how many of
    their variables are already bound, fewer fresh variables first;
    ties keep the input order.
    """
    remaining = list(atoms)
    if not remaining:
        return []
    ordered: List[Atom] = []
    known: Set[Variable] = set(bound)
    if not known:
        first = max(remaining, key=lambda a: len(a.variables()))
        ordered.append(first)
        remaining.remove(first)
        known |= first.variables()
    while remaining:
        best = max(
            remaining,
            key=lambda a: (len(a.variables() & known), -len(a.variables())),
        )
        ordered.append(best)
        remaining.remove(best)
        known |= best.variables()
    return ordered


@lru_cache(maxsize=8192)
def _join_order(atoms: Tuple[Atom, ...], bound: FrozenSet[Variable]) -> Tuple[Atom, ...]:
    """:func:`_plan_order`, memoised: the legacy rescan and the
    restricted head test ask for the same few orders once per trigger,
    and planning them per call cost a third of a legacy restricted
    chase."""
    return tuple(_plan_order(atoms, bound))


def _backtrack(
    ordered: Sequence[Atom], target: Instance, index: int, binding: Substitution
) -> Iterator[Substitution]:
    """Extend ``binding`` over ``ordered[index:]``, depth first.

    A module-level generator, not a closure: a self-recursive nested
    function is a function↔cell reference cycle that would pin the
    target instance until the next full collection.
    """
    if index == len(ordered):
        yield dict(binding)
        return
    pattern = ordered[index]
    bound_positions = {
        i: binding[arg]
        for i, arg in enumerate(pattern.args)
        if isinstance(arg, Variable) and arg in binding
    }
    for candidate in target.candidates_view(pattern.predicate, bound_positions):
        extended = _match_atom(pattern, candidate, binding)
        if extended is not None:
            yield from _backtrack(ordered, target, index + 1, extended)


def find_homomorphisms(
    atoms: Sequence[Atom],
    target: Instance,
    seed: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Enumerate homomorphisms from ``atoms`` into ``target``.

    ``seed`` optionally fixes a partial binding (used by the chase
    engine to force a body atom onto a freshly derived atom, giving a
    semi-naive evaluation).  Every yielded substitution is a fresh dict
    covering the atoms' variables plus the seed's entries.

    ``target`` must not be mutated while the generator is live: the
    join iterates live index views.  Materialise the results first
    (``list(find_homomorphisms(...))``) if you need to mutate.
    """
    binding = dict(seed or {})
    yield from _backtrack(_join_order(tuple(atoms), frozenset(binding)), target, 0, binding)


def find_homomorphisms_with_forced_atom(
    atoms: Sequence[Atom],
    target: Instance,
    forced_index: int,
    forced_atom: Atom,
) -> Iterator[Substitution]:
    """Homomorphisms where body atom ``forced_index`` maps onto ``forced_atom``.

    This is the delta step of semi-naive evaluation: every new trigger
    must use at least one newly derived atom, so it suffices to force
    each body atom in turn onto each new atom.  The forced atom need
    not be in ``target``.  Like :func:`find_homomorphisms`, ``target``
    must not be mutated while the generator is live.
    """
    seed = _match_atom(atoms[forced_index], forced_atom, {})
    if seed is None:
        return
    rest = [a for i, a in enumerate(atoms) if i != forced_index]
    yield from find_homomorphisms(rest, target, seed=seed)


def extend_homomorphism(
    head_atoms: Sequence[Atom],
    target: Instance,
    base: Substitution,
) -> Optional[Substitution]:
    """Find an extension of ``base`` mapping ``head_atoms`` into ``target``.

    This is the satisfaction test of a TGD (and the activeness test of
    the restricted chase): given a body homomorphism ``base``, look for
    ``h' ⊇ base|frontier`` mapping the head into the instance.  Returns
    one witness extension or ``None``.
    """
    for extension in find_homomorphisms(head_atoms, target, seed=base):
        return extension
    return None
