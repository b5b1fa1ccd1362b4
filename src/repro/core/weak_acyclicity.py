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
the simplified database.  A report builds ``dg(Σ)`` and runs the SCC
pass once, and hands the flagged positions to the support and witness
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Set, Tuple, Union

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


def _schema_of(database: DatabaseOrSchema) -> AbstractSet[Predicate]:
    """``sch(D)``: the predicates of a database, or the given predicate set."""
    if isinstance(database, Instance):
        return database.predicates()
    return database


def _supporting(
    tgds: TGDSet, flagged: Set[Position], database_predicates: AbstractSet[Predicate]
) -> Set[Predicate]:
    """The predicates of ``database_predicates`` that reach (``⇝_Σ``) a
    predicate owning one of the ``flagged`` special-cycle positions."""
    cycle_predicates = {position.predicate for position in flagged}
    if not cycle_predicates or not database_predicates:
        return set()
    reaching = PredicateGraph(tgds).predicates_reaching(cycle_predicates)
    return reaching.intersection(database_predicates)


def is_weakly_acyclic(tgds: TGDSet) -> bool:
    """Uniform weak-acyclicity: no cycle with a special edge in ``dg(Σ)``."""
    return not DependencyGraph(tgds).has_special_cycle()


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
    flagged = DependencyGraph(tgds).positions_on_special_cycle()
    return _supporting(tgds, flagged, _schema_of(database))


def weak_acyclicity_report(
    tgds: TGDSet, database: Optional[DatabaseOrSchema] = None
) -> WeakAcyclicityReport:
    """Run the whole analysis and package the evidence."""
    dependency_graph = DependencyGraph(tgds)
    flagged_positions = dependency_graph.positions_on_special_cycle()
    witness = (
        dependency_graph.witness_special_cycle(flagged_positions)
        if flagged_positions
        else None
    )
    if database is None:
        supporting: Set[Predicate] = set()
        wrt_database: Optional[bool] = None
    else:
        supporting = _supporting(tgds, flagged_positions, _schema_of(database))
        wrt_database = not supporting
    return WeakAcyclicityReport(
        uniformly_weakly_acyclic=not flagged_positions,
        weakly_acyclic_wrt_database=wrt_database,
        positions_on_special_cycles=frozenset(flagged_positions),
        supporting_predicates=frozenset(supporting),
        witness_cycle=tuple(witness) if witness else None,
    )
