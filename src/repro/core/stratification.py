"""Firing-order stratification and augmented weak-acyclicity.

Two database-independent termination criteria layered above the
dependency-graph machinery of :mod:`repro.core.dependency_graph`,
feeding the unified verdicts of :mod:`repro.core.termination_analysis`:

* the *augmented* dependency graph ``adg(Σ)`` draws special edges from
  **every** body-variable position — not only frontier positions — to
  the existential head positions.  This matches the oblivious chase,
  whose nulls are labelled by the whole body homomorphism: the depth
  of ``⊥^z_{σ,h}`` is one plus the depth of the deepest term anywhere
  in ``h``, so depth climbs through non-frontier body positions that
  classic weak acyclicity never looks at.  ``R(x, y) → ∃z R(x, z)`` is
  the canonical gap: weakly acyclic (the semi-oblivious chase reuses
  the per-``x`` null and stops) yet obliviously diverging (each fresh
  null re-enters position ``R[2]`` as a new binding).  Acyclicity of
  ``adg(Σ)`` is therefore the oblivious-sound analogue of weak
  acyclicity, and the *rank* of a position — the maximum number of
  special edges on any path into it — bounds the depth of every term
  that can ever appear there.

* *firing-order stratification* (after Meier, Schmidt and Lausen, "On
  Chase Termination Beyond Stratification") partitions Σ into strata
  along the chase graph ``σ → σ'``, read "an atom produced by σ's head
  can be matched by σ''s body".  The ∃-edge refinement prunes
  head/body atom pairs whose repeated body positions would force a
  fresh null to equal a *different* term — impossible, since a freshly
  invented null is distinct from every other term.  Cyclic strata must
  be weakly acyclic on their own (classically for the semi-oblivious
  chase, augmentedly for the oblivious one); acyclic singleton strata
  only ever fire over facts of earlier strata.  Per-stratum ranks then
  compose along the condensation DAG into a depth bound for the whole
  set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.atoms import Atom, Position, Predicate
from repro.model.terms import Variable
from repro.model.tgd import TGD, TGDSet
from repro.core.dependency_graph import DependencyGraph


class AugmentedDependencyGraph(DependencyGraph):
    """``adg(Σ)``: special edges start at *all* body-variable positions.

    Normal edges are unchanged (frontier variables propagate to their
    head positions); special edges gain sources because an oblivious
    null's binding — and hence its depth — covers the whole body.
    """

    def _build(self, tgds: TGDSet) -> None:
        for tgd in tgds:
            existentials = tgd.existential_variables()
            frontier = tgd.frontier()
            for variable in tgd.body_variables():
                for source in tgd.positions_of_variable_in_body(variable):
                    for head_atom in tgd.head:
                        if variable in frontier:
                            for target in head_atom.positions_of(variable):
                                self._add_edge(source, target, special=False, rule_id=tgd.rule_id)
                        for existential in existentials:
                            for target in head_atom.positions_of(existential):
                                self._add_edge(source, target, special=True, rule_id=tgd.rule_id)


def is_augmented_weakly_acyclic(tgds: TGDSet) -> bool:
    """No cycle through a special edge in ``adg(Σ)`` (oblivious-sound)."""
    return not AugmentedDependencyGraph(tgds).has_special_cycle()


# --------------------------------------------------------------------------
# Position ranks
# --------------------------------------------------------------------------


def _tarjan(nodes: Iterable, successors: Dict) -> List[Set]:
    """Iterative Tarjan SCC; components come out in reverse topological
    order (every component precedes the components that reach it)."""
    index_counter = [0]
    stack: List = []
    lowlink: Dict = {}
    index: Dict = {}
    on_stack: Set = set()
    components: List[Set] = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors.get(root, ())))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            current, successor_iter = work[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[current] = min(lowlink[current], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: Set = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == current:
                        break
                components.append(component)
    return components


def position_ranks(
    graph: DependencyGraph, within: Optional[Set[Position]] = None
) -> Optional[Dict[Position, int]]:
    """Per-position rank, or ``None`` if a special cycle exists.

    The rank of a position is the maximum number of special edges on
    any path ending in it (restricted to the induced subgraph on
    ``within`` when given).  Because a null's depth is one plus the
    maximum depth over its binding, a term appearing at position ``π``
    has depth at most ``rank(π)`` when the database terms have depth 0.
    """
    if within is None:
        nodes: Set[Position] = set(graph.nodes)
    else:
        nodes = {p for p in graph.nodes if p in within}
    adjacency: Dict[Position, List] = {node: [] for node in nodes}
    for edge in graph.edges:
        if edge.source in adjacency and edge.target in adjacency:
            adjacency[edge.source].append(edge)

    successors = {node: [e.target for e in edges] for node, edges in adjacency.items()}
    components = _tarjan(nodes, successors)
    component_of: Dict[Position, int] = {}
    for i, component in enumerate(components):
        for position in component:
            component_of[position] = i
    for node in nodes:
        for edge in adjacency[node]:
            if edge.special and component_of[edge.source] == component_of[edge.target]:
                return None
    rank = [0] * len(components)
    # Reverse topological emission means walking the list backwards
    # visits every component before the components it feeds.
    for i in range(len(components) - 1, -1, -1):
        for position in components[i]:
            for edge in adjacency[position]:
                j = component_of[edge.target]
                if j == i:
                    continue
                weight = rank[i] + (1 if edge.special else 0)
                if weight > rank[j]:
                    rank[j] = weight
    return {position: rank[component_of[position]] for position in nodes}


def rank_depth_bound(
    graph: DependencyGraph, within: Optional[Set[Position]] = None
) -> Optional[int]:
    """Max rank over positions — a ``maxdepth`` bound — or ``None``."""
    ranks = position_ranks(graph, within=within)
    if ranks is None:
        return None
    return max(ranks.values(), default=0)


def positions_of_predicates(predicates: Iterable[Predicate]) -> Set[Position]:
    """All positions belonging to the given predicates."""
    result: Set[Position] = set()
    for predicate in predicates:
        result.update(predicate.positions())
    return result


# --------------------------------------------------------------------------
# Chase graph and stratification
# --------------------------------------------------------------------------


def _head_body_compatible(head_atom: Atom, body_atom: Atom, existentials: Set[Variable]) -> bool:
    """Can an atom produced from ``head_atom`` be matched by ``body_atom``?

    The ∃-edge refinement: a repeated variable at body positions ``i``
    and ``j`` requires the matched atom to carry *equal* terms there.
    The produced atom carries a fresh null wherever ``head_atom`` has
    an existential variable, and a fresh null equals nothing but
    itself — so distinct head terms of which at least one is
    existential can never satisfy the repetition.
    """
    if head_atom.predicate != body_atom.predicate:
        return False
    body_args = body_atom.args
    head_args = head_atom.args
    for i in range(len(body_args)):
        for j in range(i + 1, len(body_args)):
            if body_args[i] != body_args[j]:
                continue
            if head_args[i] == head_args[j]:
                continue
            if head_args[i] in existentials or head_args[j] in existentials:
                return False
    return True


def chase_graph_edges(tgds: TGDSet) -> Dict[str, Set[str]]:
    """The rule-level chase graph ``σ → σ'`` with the ∃-edge refinement.

    Sound over-approximation of "firing σ can create a new trigger of
    σ'": a new σ'-trigger must match at least one newly produced atom,
    which requires some (head atom of σ, body atom of σ') pair to be
    predicate-equal and repetition-compatible.
    """
    edges: Dict[str, Set[str]] = {tgd.rule_id: set() for tgd in tgds}
    for producer in tgds:
        existentials = producer.existential_variables()
        for consumer in tgds:
            if any(
                _head_body_compatible(head_atom, body_atom, existentials)
                for head_atom in producer.head
                for body_atom in consumer.body
            ):
                edges[producer.rule_id].add(consumer.rule_id)
    return edges


@dataclass(frozen=True)
class StratificationReport:
    """Evidence produced by the stratification analysis.

    ``strata`` lists rule-id groups in firing (topological) order;
    ``stratified`` is True when every cyclic stratum passed the
    per-stratum weak-acyclicity check (classic or augmented per
    ``augmented``), in which case ``depth_bound`` carries the composed
    rank bound.  On failure ``failed_stratum`` names the offender.
    """

    stratified: bool
    augmented: bool
    strata: Tuple[Tuple[str, ...], ...]
    cyclic_strata: Tuple[Tuple[str, ...], ...]
    failed_stratum: Optional[Tuple[str, ...]]
    depth_bound: Optional[int]


def stratification_report(tgds: TGDSet, augmented: bool = False) -> StratificationReport:
    """Stratify Σ along the chase graph and check each cyclic stratum.

    With ``augmented=False`` the per-stratum check is classic weak
    acyclicity, sound for the semi-oblivious (and restricted) chase;
    with ``augmented=True`` it is augmented weak acyclicity, sound for
    the oblivious chase.  The depth bound composes per-stratum ranks
    over the condensation DAG: terms entering a stratum are at most as
    deep as the deepest output of any earlier stratum, and the stratum
    itself adds at most its own rank on top.
    """
    edges = chase_graph_edges(tgds)
    rule_ids = sorted(edges)
    components = _tarjan(rule_ids, {r: sorted(edges[r]) for r in rule_ids})
    by_id = tgds.by_rule_id()
    graph_class = AugmentedDependencyGraph if augmented else DependencyGraph

    strata: List[Tuple[str, ...]] = []
    cyclic: List[Tuple[str, ...]] = []
    ranks: List[Optional[int]] = []
    # Reverse topological emission: walk backwards for firing order.
    for component in reversed(components):
        stratum = tuple(sorted(component))
        strata.append(stratum)
        is_cyclic = len(stratum) > 1 or stratum[0] in edges[stratum[0]]
        if is_cyclic:
            cyclic.append(stratum)
            stratum_set = TGDSet([by_id[r] for r in stratum], name=f"{tgds.name}|{stratum[0]}")
            ranks.append(rank_depth_bound(graph_class(stratum_set)))
        else:
            rule = by_id[stratum[0]]
            ranks.append(1 if rule.existential_variables() else 0)

    failed: Optional[Tuple[str, ...]] = None
    for stratum, rank in zip(strata, ranks):
        if rank is None:
            failed = stratum
            break
    if failed is not None:
        return StratificationReport(
            stratified=False,
            augmented=augmented,
            strata=tuple(strata),
            cyclic_strata=tuple(cyclic),
            failed_stratum=failed,
            depth_bound=None,
        )

    stratum_of = {rule_id: i for i, stratum in enumerate(strata) for rule_id in stratum}
    depth_in = [0] * len(strata)
    depth_out = [0] * len(strata)
    for i, stratum in enumerate(strata):
        depth_out[i] = depth_in[i] + (ranks[i] or 0)
        for rule_id in stratum:
            for successor in edges[rule_id]:
                j = stratum_of[successor]
                if j != i and depth_out[i] > depth_in[j]:
                    depth_in[j] = depth_out[i]
    return StratificationReport(
        stratified=True,
        augmented=augmented,
        strata=tuple(strata),
        cyclic_strata=tuple(cyclic),
        failed_stratum=None,
        depth_bound=max(depth_out, default=0),
    )
