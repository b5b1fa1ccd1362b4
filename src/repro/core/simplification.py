"""Simplification of linear TGDs (Definition 7.2).

Simplification eliminates repeated variables from the bodies of linear
TGDs by moving the equality type of every atom into its predicate name:
the atom ``R(t1, ..., tn)`` becomes ``R_id(t̄)(unique(t̄))`` where
``unique(t̄)`` keeps the first occurrence of every term and ``id(t̄)``
records which original position carries which distinct term.  A linear
TGD induces one simple linear TGD per *specialization* of its body
variables (each way of identifying body variables with earlier ones).

Proposition 7.3 states that the transformation preserves both the
finiteness of the chase and the maximal term depth, which is what makes
it usable for the termination analysis of linear TGDs; the test suite
checks this empirically.

Whether a special cycle is ``D``-supported (Definition 6.1) depends only
on which predicates occur in ``D``, so the deciders of Theorems 7.7 and
8.5 read ``sch(simple(D))``, never ``simple(D)`` itself:
:func:`simplified_schema` computes that predicate set in one pass over
the facts, one equality pattern per fact and one simplified predicate
per distinct (predicate, pattern) pair.  :func:`simplify_database`
builds the full simplified database for callers that chase it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.model.atoms import Atom, Predicate
from repro.model.instance import Database
from repro.model.terms import Term, Variable
from repro.model.tgd import TGD, TGDSet


def unique_tuple(args: Sequence[Term]) -> Tuple[Term, ...]:
    """``unique(t̄)``: keep only the first occurrence of each term."""
    seen: List[Term] = []
    for term in args:
        if term not in seen:
            seen.append(term)
    return tuple(seen)


def id_tuple(args: Sequence[Term]) -> Tuple[int, ...]:
    """``id(t̄)``: 1-based index of each term within ``unique(t̄)``."""
    uniques = unique_tuple(args)
    return tuple(uniques.index(term) + 1 for term in args)


def simplified_predicate(predicate: Predicate, identifiers: Sequence[int]) -> Predicate:
    """The simplified predicate ``R_id(t̄)`` with one position per distinct term."""
    suffix = ",".join(str(i) for i in identifiers)
    arity = max(identifiers) if identifiers else 0
    return Predicate(name=f"{predicate.name}[{suffix}]", arity=arity)


def simplify_atom(atom: Atom) -> Atom:
    """``simple(α) = R_id(t̄)(unique(t̄))``."""
    identifiers = id_tuple(atom.args)
    return Atom(simplified_predicate(atom.predicate, identifiers), unique_tuple(atom.args))


def specializations(variables: Sequence[Variable]) -> Iterator[Dict[Variable, Variable]]:
    """All specializations of a tuple of distinct variables.

    A specialization maps the first variable to itself and every later
    variable either to (the image of) an earlier variable or to itself,
    i.e. it enumerates the ways of identifying body variables that a
    body homomorphism could induce.
    """
    distinct: List[Variable] = []
    for variable in variables:
        if variable not in distinct:
            distinct.append(variable)
    if not distinct:
        yield {}
        return
    yield from _extend_specialization(distinct, 1, {distinct[0]: distinct[0]})


def _extend_specialization(
    distinct: Sequence[Variable], index: int, mapping: Dict[Variable, Variable]
) -> Iterator[Dict[Variable, Variable]]:
    """Map ``distinct[index:]`` every allowed way, extending ``mapping``.

    A module-level generator, not a closure: a self-recursive nested
    function is a function↔cell reference cycle that would outlive the
    call until the next full collection.
    """
    if index == len(distinct):
        yield dict(mapping)
        return
    variable = distinct[index]
    choices = list(dict.fromkeys(mapping.values())) + [variable]
    for choice in choices:
        mapping[variable] = choice
        yield from _extend_specialization(distinct, index + 1, mapping)
    del mapping[variable]


def simplify_tgd(tgd: TGD) -> List[TGD]:
    """``simple(σ)``: all simplifications of a linear TGD (Definition 7.2)."""
    if not tgd.is_linear:
        raise ValueError(f"simplification is defined for linear TGDs only, got {tgd}")
    body_atom = tgd.body[0]
    result: List[TGD] = []
    for index, specialization in enumerate(specializations(body_atom.args)):
        mapping: Dict[Term, Term] = dict(specialization)
        specialized_body = body_atom.substitute(mapping)
        specialized_head = tuple(a.substitute(mapping) for a in tgd.head)
        simplified = TGD(
            body=(simplify_atom(specialized_body),),
            head=tuple(simplify_atom(a) for a in specialized_head),
            rule_id=f"{tgd.rule_id}|s{index}",
        )
        result.append(simplified)
    return result


def simplify_program(tgds: TGDSet) -> TGDSet:
    """``simple(Σ)``: the union of the simplifications of every TGD of Σ."""
    simplified: List[TGD] = []
    for tgd in tgds:
        simplified.extend(simplify_tgd(tgd))
    return TGDSet(simplified, name=f"simple({tgds.name})")


def simplified_program(tgds: TGDSet) -> TGDSet:
    """``simple(Σ)`` as one object per program, built once.

    The L decider and ``Q_Σ`` both read it, and everything memoised on
    ``simple(Σ)`` itself (its special cycles) is then shared as well.
    """
    return tgds.memo("simple", lambda: simplify_program(tgds))


def simplify_database(database: Database) -> Database:
    """``simple(D)``: the simplification of every fact of the database."""
    return Database(simplify_atom(a) for a in database)


def simplified_schema(atoms: Iterable[Atom]) -> Set[Predicate]:
    """``sch(simple(D))`` without building ``simple(D)``.

    Equal to ``simplify_database(D).predicates()``.  A fact whose
    arguments are pairwise distinct has the identity pattern
    ``(1, ..., n)``; only facts with a repeated argument pay for
    :func:`id_tuple`.  Each simplified predicate is built once per
    distinct (predicate, pattern) pair.
    """
    identity: Dict[int, Tuple[int, ...]] = {}
    patterns: Set[Tuple[Predicate, Tuple[int, ...]]] = set()
    for atom in atoms:
        args = atom.args
        arity = len(args)
        if len(set(args)) == arity:
            pattern = identity.get(arity)
            if pattern is None:
                pattern = identity[arity] = tuple(range(1, arity + 1))
        else:
            pattern = id_tuple(args)
        patterns.add((atom.predicate, pattern))
    return {simplified_predicate(predicate, pattern) for predicate, pattern in patterns}
