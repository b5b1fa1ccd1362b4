"""Dependency graph ``dg(Σ)`` and predicate graph ``pg(Σ)`` (Section 6).

The dependency graph is a directed multigraph over the predicate
positions of ``sch(Σ)``.  For every TGD ``σ``, every frontier variable
``x`` and every position ``π`` at which ``x`` occurs in the body:

* a *normal* edge goes from ``π`` to every position at which ``x``
  occurs in a head atom, and
* a *special* edge goes from ``π`` to every position at which an
  existentially quantified variable occurs in a head atom.

The predicate graph has the predicates of ``sch(Σ)`` as nodes and an
edge ``(R, P)`` whenever ``R`` occurs in the body and ``P`` in the head
of the same TGD; reachability in it gives ``R ⇝_Σ P``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.model.atoms import Atom, Position, Predicate, atoms_schema
from repro.model.instance import Database
from repro.model.tgd import TGD, TGDSet


@dataclass(frozen=True)
class Edge:
    """A dependency-graph edge; ``special`` marks existential propagation."""

    source: Position
    target: Position
    special: bool
    rule_id: str

    def __str__(self) -> str:
        arrow = "=*=>" if self.special else "--->"
        return f"{self.source} {arrow} {self.target} [{self.rule_id}]"


class DependencyGraph:
    """The dependency graph ``dg(Σ)`` of a set of TGDs."""

    def __init__(self, tgds: TGDSet) -> None:
        # No reference back to ``tgds``: the graph is memoised on it
        # (:meth:`of`), and a back-reference would make the pair a
        # reference cycle.
        self.nodes: Set[Position] = set()
        for predicate in tgds.schema():
            self.nodes.update(predicate.positions())
        self.edges: List[Edge] = []
        self._outgoing: Dict[Position, List[Edge]] = defaultdict(list)
        self._build(tgds)

    @classmethod
    def of(cls, tgds: TGDSet) -> "DependencyGraph":
        """The graph of ``tgds``, built once per program (read-only)."""
        return tgds.memo(cls, lambda: cls(tgds))

    def _build(self, tgds: TGDSet) -> None:
        for tgd in tgds:
            existentials = tgd.existential_variables()
            for variable in tgd.frontier():
                body_positions = tgd.positions_of_variable_in_body(variable)
                for source in body_positions:
                    for head_atom in tgd.head:
                        for target in head_atom.positions_of(variable):
                            self._add_edge(source, target, special=False, rule_id=tgd.rule_id)
                        for existential in existentials:
                            for target in head_atom.positions_of(existential):
                                self._add_edge(source, target, special=True, rule_id=tgd.rule_id)

    def _add_edge(self, source: Position, target: Position, special: bool, rule_id: str) -> None:
        edge = Edge(source=source, target=target, special=special, rule_id=rule_id)
        self.edges.append(edge)
        self._outgoing[source].append(edge)

    # -- graph queries ------------------------------------------------------

    def outgoing(self, position: Position) -> List[Edge]:
        return self._outgoing.get(position, [])

    def special_edges(self) -> List[Edge]:
        return [e for e in self.edges if e.special]

    def normal_edges(self) -> List[Edge]:
        return [e for e in self.edges if not e.special]

    def strongly_connected_components(self) -> List[Set[Position]]:
        """Tarjan-style SCC decomposition of the position graph."""
        index_counter = [0]
        stack: List[Position] = []
        lowlink: Dict[Position, int] = {}
        index: Dict[Position, int] = {}
        on_stack: Set[Position] = set()
        components: List[Set[Position]] = []

        def strongconnect(node: Position) -> None:
            # Iterative Tarjan to avoid recursion limits on large schemas.
            work = [(node, iter(self.outgoing(node)))]
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, edge_iter = work[-1]
                advanced = False
                for edge in edge_iter:
                    successor = edge.target
                    if successor not in index:
                        index[successor] = lowlink[successor] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor, iter(self.outgoing(successor))))
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
                    component: Set[Position] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == current:
                            break
                    components.append(component)

        for node in self.nodes:
            if node not in index:
                strongconnect(node)
        return components

    def positions_on_special_cycle(self) -> Set[Position]:
        """Positions lying on some cycle that traverses a special edge.

        A special edge ``(π, π')`` lies on a cycle iff both endpoints
        are in the same strongly connected component; every position of
        that component then lies on such a cycle.
        """
        components = self.strongly_connected_components()
        component_of: Dict[Position, int] = {}
        for i, component in enumerate(components):
            for position in component:
                component_of[position] = i
        flagged: Set[int] = set()
        for edge in self.edges:
            if not edge.special:
                continue
            if edge.source == edge.target:
                flagged.add(component_of[edge.source])
                continue
            if component_of[edge.source] == component_of[edge.target]:
                flagged.add(component_of[edge.source])
        result: Set[Position] = set()
        for i in flagged:
            result |= components[i]
        return result

    def has_special_cycle(self) -> bool:
        """True iff ``dg(Σ)`` has a cycle with a special edge (¬ weak acyclicity)."""
        return bool(self.positions_on_special_cycle())

    def witness_special_cycle(
        self, flagged: Optional[Set[Position]] = None
    ) -> Optional[List[Edge]]:
        """A concrete cycle through a special edge, for error reporting.

        ``flagged`` is :meth:`positions_on_special_cycle`, when the
        caller has already computed it.
        """
        if flagged is None:
            flagged = self.positions_on_special_cycle()
        for edge in self.special_edges():
            if edge.source not in flagged or edge.target not in flagged:
                continue
            path = self._find_path(edge.target, edge.source, within=flagged)
            if path is not None:
                return [edge] + path
        return None

    def _find_path(
        self, start: Position, goal: Position, within: Set[Position]
    ) -> Optional[List[Edge]]:
        """A BFS path from ``start`` to ``goal`` staying inside ``within``."""
        if start == goal:
            return []
        queue = deque([start])
        predecessor: Dict[Position, Edge] = {}
        seen = {start}
        while queue:
            node = queue.popleft()
            for edge in self.outgoing(node):
                successor = edge.target
                if successor not in within or successor in seen:
                    continue
                predecessor[successor] = edge
                if successor == goal:
                    path: List[Edge] = []
                    current = goal
                    while current != start:
                        edge_in = predecessor[current]
                        path.append(edge_in)
                        current = edge_in.source
                    path.reverse()
                    return path
                seen.add(successor)
                queue.append(successor)
        return None


class PredicateGraph:
    """The predicate graph ``pg(Σ)`` and the reachability relation ``⇝_Σ``."""

    def __init__(self, tgds: TGDSet) -> None:
        # No back-reference to ``tgds`` (see DependencyGraph).
        self.nodes: Set[Predicate] = tgds.schema()
        self._successors: Dict[Predicate, Set[Predicate]] = defaultdict(set)
        for tgd in tgds:
            body_predicates = atoms_schema(tgd.body)
            head_predicates = atoms_schema(tgd.head)
            for body_predicate in body_predicates:
                self._successors[body_predicate] |= head_predicates

    @classmethod
    def of(cls, tgds: TGDSet) -> "PredicateGraph":
        """The graph of ``tgds``, built once per program (read-only)."""
        return tgds.memo(cls, lambda: cls(tgds))

    def successors(self, predicate: Predicate) -> Set[Predicate]:
        return self._successors.get(predicate, set())

    def reachable_from(self, predicate: Predicate) -> Set[Predicate]:
        """``{P | predicate ⇝_Σ P}`` (reflexive by definition of ⇝)."""
        seen: Set[Predicate] = {predicate}
        queue = deque([predicate])
        while queue:
            current = queue.popleft()
            for successor in self.successors(current):
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return seen

    def reaches(self, source: Predicate, target: Predicate) -> bool:
        """``source ⇝_Σ target``."""
        return target in self.reachable_from(source)

    def predicates_reaching(self, targets: Iterable[Predicate]) -> Set[Predicate]:
        """All predicates ``R`` with ``R ⇝_Σ P`` for some ``P`` in ``targets``.

        Computed by a single backward traversal over the reversed graph.
        """
        reverse: Dict[Predicate, Set[Predicate]] = defaultdict(set)
        for source, successors in self._successors.items():
            for successor in successors:
                reverse[successor].add(source)
        wanted = set(targets)
        seen: Set[Predicate] = set(wanted)
        queue = deque(wanted)
        while queue:
            current = queue.popleft()
            for predecessor in reverse.get(current, ()):
                if predecessor not in seen:
                    seen.add(predecessor)
                    queue.append(predecessor)
        return seen
