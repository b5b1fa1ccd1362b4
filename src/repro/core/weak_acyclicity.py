"""Uniform and non-uniform weak-acyclicity (Definition 6.1).

Uniform weak-acyclicity [Fagin et al.] requires that the dependency
graph ``dg(Σ)`` has no cycle through a special edge.  The paper's
*non-uniform* variant relativises this to a database ``D``: only cycles
that are ``D``-supported matter, where a cycle is ``D``-supported if
some database predicate ``R`` reaches (via ``⇝_Σ``) a predicate ``P``
appearing in the cycle.

For simple linear TGDs, ``Σ ∈ CT_D`` iff ``Σ`` is ``D``-weakly-acyclic
(Theorem 6.4); the linear and guarded cases reduce to this one through
simplification and linearization.

``D``-support reads only ``sch(D)``, the set of predicates occurring in
``D``.  Every entry point therefore accepts either a database or just
its predicate set; the deciders of Theorems 7.7 and 8.5 pass
``sch(simple(D))`` (see
:func:`~repro.core.simplification.simplified_schema`) and never build
the simplified database.  Everything on the ``Σ`` side — the positions
on special cycles of ``dg(Σ)``, a witness cycle and the predicates that
reach them — is computed once per program (:func:`special_cycles`);
only the intersection with ``sch(D)`` runs per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Optional, Set, Tuple, Union

from repro.model.atoms import Position, Predicate
from repro.model.instance import Instance
from repro.model.tgd import TGDSet
from repro.core.dependency_graph import DependencyGraph, Edge, PredicateGraph

#: What the ``D``-relative checks read: a database, or just ``sch(D)``.
DatabaseOrSchema = Union[Instance, AbstractSet[Predicate]]


@dataclass(frozen=True)
class WeakAcyclicityReport:
    """The full evidence produced by the weak-acyclicity analysis.

    Attributes
    ----------
    uniformly_weakly_acyclic:
        True iff ``dg(Σ)`` has no cycle with a special edge at all.
    weakly_acyclic_wrt_database:
        True iff no such cycle is ``D``-supported (Definition 6.1);
        ``None`` when no database was supplied.
    positions_on_special_cycles:
        All positions lying on a cycle with a special edge.
    supporting_predicates:
        Database predicates ``R`` that reach (``⇝_Σ``) a predicate with
        a position on a special cycle — the "reasons" a violation is
        supported.
    witness_cycle:
        One concrete offending cycle, for diagnostics.
    """

    uniformly_weakly_acyclic: bool
    weakly_acyclic_wrt_database: Optional[bool]
    positions_on_special_cycles: frozenset
    supporting_predicates: frozenset
    witness_cycle: Optional[Tuple[Edge, ...]]


@dataclass(frozen=True)
class SpecialCycles:
    """The database-independent half of the analysis, for one ``Σ``.

    ``positions`` are the positions on a cycle of ``dg(Σ)`` with a
    special edge, ``witness`` one such cycle (``None`` without one) and
    ``reaching`` every predicate ``R`` with ``R ⇝_Σ P`` for some ``P``
    owning one of ``positions`` — the predicates whose presence in ``D``
    supports a special cycle.  ``reaching`` is shared: read it, never
    mutate it.
    """

    positions: FrozenSet[Position]
    witness: Optional[Tuple[Edge, ...]]
    reaching: Set[Predicate]


def special_cycles(tgds: TGDSet) -> SpecialCycles:
    """:class:`SpecialCycles` of ``tgds``, computed once per program."""
    return tgds.memo(SpecialCycles, lambda: _special_cycles(tgds))


def _special_cycles(tgds: TGDSet) -> SpecialCycles:
    dependency_graph = DependencyGraph.of(tgds)
    flagged = dependency_graph.positions_on_special_cycle()
    if not flagged:
        return SpecialCycles(frozenset(), None, set())
    witness = dependency_graph.witness_special_cycle(flagged)
    reaching = PredicateGraph.of(tgds).predicates_reaching(
        {position.predicate for position in flagged}
    )
    return SpecialCycles(frozenset(flagged), tuple(witness) if witness else None, reaching)


def _schema_of(database: DatabaseOrSchema) -> AbstractSet[Predicate]:
    """``sch(D)``: the predicates of a database, or the given predicate set."""
    if isinstance(database, Instance):
        return database.predicates()
    return database


def _supporting(
    tgds: TGDSet, database_predicates: AbstractSet[Predicate]
) -> Set[Predicate]:
    """The predicates of ``database_predicates`` that reach (``⇝_Σ``) a
    predicate owning a special-cycle position of ``dg(Σ)``."""
    reaching = special_cycles(tgds).reaching
    if not reaching or not database_predicates:
        return set()
    return reaching.intersection(database_predicates)


def is_weakly_acyclic(tgds: TGDSet) -> bool:
    """Uniform weak-acyclicity: no cycle with a special edge in ``dg(Σ)``."""
    return not special_cycles(tgds).positions


def is_weakly_acyclic_wrt(database: DatabaseOrSchema, tgds: TGDSet) -> bool:
    """Non-uniform weak-acyclicity of ``Σ`` w.r.t. ``D`` (Definition 6.1).

    ``Σ`` is ``D``-weakly-acyclic iff no cycle of ``dg(Σ)`` with a
    special edge is ``D``-supported.  A cycle is ``D``-supported iff the
    database contains an atom whose predicate reaches, in the predicate
    graph, some predicate appearing in the cycle.
    """
    return not supporting_database_predicates(database, tgds)


def supporting_database_predicates(database: DatabaseOrSchema, tgds: TGDSet) -> Set[Predicate]:
    """Database predicates that support some special cycle of ``dg(Σ)``."""
    return _supporting(tgds, _schema_of(database))


def weak_acyclicity_report(
    tgds: TGDSet, database: Optional[DatabaseOrSchema] = None
) -> WeakAcyclicityReport:
    """Run the whole analysis and package the evidence."""
    cycles = special_cycles(tgds)
    if database is None:
        supporting: Set[Predicate] = set()
        wrt_database: Optional[bool] = None
    else:
        supporting = _supporting(tgds, _schema_of(database))
        wrt_database = not supporting
    return WeakAcyclicityReport(
        uniformly_weakly_acyclic=not cycles.positions,
        weakly_acyclic_wrt_database=wrt_database,
        positions_on_special_cycles=cycles.positions,
        supporting_predicates=frozenset(supporting),
        witness_cycle=cycles.witness,
    )
