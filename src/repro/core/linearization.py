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
chase atoms that mention only terms of the instance's domain.  It is
computed exactly, as one least fixpoint over the bags of the guarded
chase forest (see :class:`_Closures`).  What a trigger's subtree gives
back to its parent depends only on the trigger's canonical *child
node*: the rule, the equality pattern of its frontier images and the
atoms over them.  A node's closure is its atoms closed under full-rule
heads and under the frontier projections of its children's closures;
a node that recurs below itself is handled by a worklist that
re-evaluates a node's readers when its closure grows.  The closures
are kept per ``Σ``, so every Σ-type's expansions read their head types
from the same table.

We materialise only the types *reachable* from the given database
rather than all (double-exponentially many) Σ-types; this is precisely
the fragment of ``lin(Σ)`` that the chase of ``lin(D)`` and the
non-uniform weak-acyclicity check relative to ``lin(D)`` can ever see.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.model.atoms import Atom, Predicate
from repro.model.homomorphism import apply_substitution, find_homomorphisms
from repro.model.instance import Database, Instance
from repro.model.terms import Constant, Term, Variable
from repro.model.tgd import TGD, TGDSet


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

#: A fact of the closure table: a predicate id and its argument ids.
_Fact = Tuple[int, Tuple[int, ...]]
#: A child node's key: the rule's index, the equality pattern of its
#: frontier images and the parent's facts over them (as child ids).
_Key = Tuple[int, Tuple[int, ...], FrozenSet[_Fact]]


class _Rule:
    """A guarded TGD over variable slots: the guard's variables (all of
    the body's) first, then the existentials in head order.  ``frontier``
    holds the frontier slots in order of first occurrence in the head."""

    def __init__(self, index: int, tgd: TGD, pred_id: Callable[[Predicate], int]) -> None:
        guard = tgd.guard()
        if guard is None:
            raise ValueError(f"the guarded completion requires guarded TGDs, got {tgd}")
        slot = {v: i for i, v in enumerate(dict.fromkeys(guard.args))}
        head_variables = dict.fromkeys(v for a in tgd.head for v in a.args)
        self.frontier_variables = [v for v in head_variables if v in slot]
        self.frontier = [slot[v] for v in self.frontier_variables]
        self.width = len(slot)
        for variable in head_variables:
            slot.setdefault(variable, len(slot))
        self.existentials = len(slot) - self.width

        def compiled(a: Atom) -> _Fact:
            return pred_id(a.predicate), tuple(slot[v] for v in a.args)

        self.index, self.guard = index, compiled(guard)
        self.side = [compiled(a) for a in tgd.body if a is not guard]
        self.head = [compiled(a) for a in tgd.head]

    def bind(self, args: Tuple[int, ...]) -> Optional[List[int]]:
        """The slot values of the trigger whose guard image has ``args``."""
        values: List[int] = [-1] * self.width
        for s, term in zip(self.guard[1], args):
            if values[s] < 0:
                values[s] = term
            elif values[s] != term:
                return None
        return values

    def child(self, pattern: Tuple[int, ...]) -> Tuple[int, List[_Fact]]:
        """The frontier width and the head facts of a child node."""
        width = len(set(pattern))
        value = dict(zip(self.frontier, pattern))
        value.update((self.width + e, width + e) for e in range(self.existentials))
        return width, [(pid, tuple(value[s] for s in slots)) for pid, slots in self.head]


class _Node:
    """A bag of the guarded chase forest: the root, or a child node whose
    frontier terms are the ids ``0 .. width-1``.  ``facts`` is its closure
    so far; the rest is one run's working state, dropped by
    :meth:`release` (``readers is None`` marks a final closure)."""

    def __init__(self, width: int, facts: Iterable[_Fact]) -> None:
        self.width, self.facts, self.queued = width, set(), False
        self.by_term: Dict[Optional[int], List[_Fact]] = {}
        self.pending: List[_Fact] = []
        self.links: Dict[Tuple[int, Tuple[int, ...]], _Link] = {}
        self.links_by_term: Dict[int, List[_Link]] = {}
        self.dirty: Dict[_Link, None] = {}
        self.readers: Optional[Dict[_Link, None]] = {}
        for fact in facts:
            self.add(fact)

    def add(self, fact: _Fact) -> bool:
        if fact in self.facts:
            return False
        self.facts.add(fact)
        for term in set(fact[1]) or (None,):
            self.by_term.setdefault(term, []).append(fact)
        self.pending.append(fact)
        return True

    def over(self, terms: Tuple[int, ...]) -> List[_Fact]:
        """The facts whose arguments all lie in ``terms``."""
        within = set(terms).issuperset
        found = list(self.by_term.get(None, ()))
        for term in terms:
            found += [f for f in self.by_term.get(term, ()) if f[1][0] == term and within(f[1])]
        return found

    def frontier(self) -> List[_Fact]:
        return [f for f in self.facts if all(i < self.width for i in f[1])]

    def release(self) -> None:
        self.by_term = self.pending = self.links = self.links_by_term = None
        self.dirty = self.readers = None


class _Link:
    """An existential trigger of ``parent``: its frontier terms and child."""

    def __init__(self, parent: _Node, rule: _Rule, image: Tuple[int, ...]) -> None:
        self.parent, self.rule, self.child = parent, rule, None
        self.terms = tuple(dict.fromkeys(image))
        self.back = {t: i for i, t in enumerate(self.terms)}
        self.pattern = tuple(self.back[t] for t in image)

    def key(self) -> _Key:
        """The child's key under the parent's current closure."""
        back = self.back
        return self.rule.index, self.pattern, frozenset(
            (pid, tuple(back[t] for t in args)) for pid, args in self.parent.over(self.terms)
        )


class _Closures:
    """The closures of canonical child nodes for one guarded ``Σ``.

    What a trigger's subtree of the chase forest gives back to its
    parent (the atoms over the frontier terms) depends only on the
    trigger's child node: the rule, the equality pattern of its frontier
    images and the parent's atoms over them (Calì, Gottlob and Kifer,
    *Taming the Infinite Chase*).  A node's closure is the least set
    that holds its atoms and is closed under full-rule heads and the
    frontier projections of its triggers' child closures.
    """

    def __init__(self, tgds: TGDSet) -> None:
        self._lock = threading.Lock()
        self._pred_ids: Dict[Predicate, int] = {}
        self.predicates: List[Predicate] = []
        self.rules = [_Rule(i, tgd, self.pred_id) for i, tgd in enumerate(tgds)]
        self.rule_of = dict(zip(tgds, self.rules))
        #: predicate id -> (rule, None) for its guard, (rule, slots) for a side atom.
        self.uses: Dict[int, List[Tuple[_Rule, Optional[Tuple[int, ...]]]]] = {}
        for rule in self.rules:
            for pid, slots in [(rule.guard[0], None), *rule.side]:
                self.uses.setdefault(pid, []).append((rule, slots))
        #: Converged child nodes only (see :class:`_Run`).
        self.table: Dict[_Key, _Node] = {}

    def pred_id(self, predicate: Predicate) -> int:
        """The id of ``predicate``; a database's predicates outside
        ``sch(Σ)`` get theirs on first sight, under the lock, since
        concurrent runs share the ids."""
        pid = self._pred_ids.get(predicate)
        if pid is None:
            with self._lock:
                pid = self._pred_ids.get(predicate)
                if pid is None:
                    self.predicates.append(predicate)
                    pid = self._pred_ids[predicate] = len(self.predicates) - 1
        return pid

    def node(self, key: _Key) -> _Node:
        """The converged child node under ``key``."""
        return self.table.get(key) or _Run(self).solve(key)

    def seed(self, key: _Key) -> _Node:
        width, head = self.rules[key[0]].child(key[1])
        return _Node(width, itertools.chain(key[2], head))

    def triggers(self, node: _Node, fact: _Fact) -> Iterator[Tuple[_Rule, List[int]]]:
        """The triggers in ``node`` that use ``fact``, found through the guard."""
        pid, args = fact
        facts = node.facts
        for rule, slots in self.uses.get(pid, ()):
            if slots is None:
                images: Iterable[Tuple[int, ...]] = (args,)
            else:
                candidates = node.by_term[args[0]] if args else facts
                images = [g[1] for g in candidates if g[0] == rule.guard[0]]
            for image in images:
                values = rule.bind(image)
                if values is None or (
                    slots is not None and any(values[s] != t for s, t in zip(slots, args))
                ):
                    continue
                if all((q, tuple(values[s] for s in side)) in facts for q, side in rule.side):
                    yield rule, values


def _closures(tgds: TGDSet) -> _Closures:
    return tgds.memo("guarded-closures", lambda: _Closures(tgds))


class _Run:
    """One worklist run to the least fixpoint over a private set of nodes.

    Table nodes are final and only read.  New nodes are published all at
    once when the worklist is empty, so the shared table never holds a
    closure that could still grow; concurrent runs on one ``Σ`` may build
    a node twice, and either equal copy is kept.  A node's readers are
    the links that read it; they are re-evaluated when it grows.
    """

    def __init__(self, closures: _Closures) -> None:
        self.closures = closures
        self.work: Dict[_Key, _Node] = {}
        self.stack: List[_Node] = []

    def solve(self, key: Optional[_Key], facts: Iterable[_Fact] = ()) -> _Node:
        """Run from the child node ``key``, or from a root over ``facts``."""
        start = _Node(0, facts) if key is None else self.closures.seed(key)
        if key is not None:
            self.work[key] = start
        self.queue(start)
        try:
            while self.stack:
                node = self.stack.pop()
                self.drain(node)
                node.queued = False
        finally:
            for node in (start, *self.work.values()):
                node.release()
        self.closures.table.update(self.work)
        return start

    def queue(self, node: _Node, fact: Optional[_Fact] = None) -> None:
        if (fact is None or node.add(fact)) and not node.queued:
            node.queued = True
            self.stack.append(node)

    def drain(self, node: _Node) -> None:
        """Work ``node``'s pending facts off.  Child keys are read only
        once they run out, so from a locally saturated closure."""
        fresh: Dict[Tuple[int, Tuple[int, ...]], _Rule] = {}
        while node.pending or node.dirty:
            while node.pending:
                fact = node.pending.pop()
                self.propagate(node, fact)
                for rule, values in self.closures.triggers(node, fact):
                    if not rule.existentials:
                        for pid, slots in rule.head:
                            node.add((pid, tuple(values[s] for s in slots)))
                    else:
                        tid = (rule.index, tuple(values[s] for s in rule.frontier))
                        if tid not in node.links:
                            fresh[tid] = rule
            for (_, image), rule in fresh.items():
                link = node.links[(rule.index, image)] = _Link(node, rule, image)
                for term in link.terms:
                    node.links_by_term.setdefault(term, []).append(link)
                self.attach(link, link.key())
            fresh.clear()
            dirty, node.dirty = node.dirty, {}
            for link in dirty:
                key = link.key()
                # Parent facts the child derived itself leave its closure as is.
                if not key[2] <= link.child.facts:
                    self.attach(link, key)

    def propagate(self, node: _Node, fact: _Fact) -> None:
        """Hand a new fact to the readers; flag the links it may make stale."""
        pid, args = fact
        if node.readers and all(i < node.width for i in args):
            for link in node.readers:
                self.queue(link.parent, (pid, tuple(link.terms[i] for i in args)))
        links = node.links_by_term.get(args[0], ()) if args else node.links.values()
        for link in links:
            back = link.back
            if all(t in back for t in args) and (
                (pid, tuple(back[t] for t in args)) not in link.child.facts
            ):
                node.dirty[link] = None

    def attach(self, link: _Link, key: _Key) -> None:
        """Point ``link`` at the node under ``key`` and read its frontier."""
        child = self.closures.table.get(key) or self.work.get(key)
        if child is None:
            child = self.work[key] = self.closures.seed(key)
            self.queue(child)
        if link.child is not None and link.child.readers is not None:
            del link.child.readers[link]
        link.child = child
        if child.readers is not None:
            child.readers[link] = None
        for pid, args in child.frontier():
            self.queue(link.parent, (pid, tuple(link.terms[i] for i in args)))


def completion(instance: Instance, tgds: TGDSet) -> Instance:
    """``complete(I, Σ)``: the chase atoms that mention only terms of ``dom(I)``.

    Exact for every guarded ``Σ``, whether or not the chase terminates:
    the root closure over ``I``'s facts, with its terms (nulls included)
    kept fixed (see :class:`_Closures`).
    """
    closures = _closures(tgds)
    ids: Dict[Term, int] = {}
    facts = {
        (closures.pred_id(a.predicate), tuple(ids.setdefault(t, len(ids)) for t in a.args))
        for a in instance
    }
    term, predicate = list(ids).__getitem__, closures.predicates.__getitem__
    completed = instance.as_instance()
    completed.extend_unique_ground(
        Atom.from_trusted(predicate(pid), tuple(map(term, args)))
        for pid, args in _Run(closures).solve(None, facts).facts - facts
    )
    return completed


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


#: One linearization of a TGD for a type: the body and head of the
#: linear rule (its id is assigned per call) and the head atoms' types.
_Expansion = Tuple[Tuple[Atom, ...], Tuple[Atom, ...], Tuple[SigmaType, ...]]


def _type_expansions(tgd: TGD, sigma_type: SigmaType, tgds: TGDSet) -> Tuple[_Expansion, ...]:
    """All linearizations of ``tgd`` induced by ``sigma_type`` (Appendix E).

    ``sigma_type`` is closed under the chase (its atoms are a
    completion's), so a full rule's head atom reads its type from
    ``sigma_type`` itself, and an existential rule's head atoms read
    theirs from the child node the trigger creates.  A function of Σ,
    ``tgd`` and the Σ-type alone, so :func:`_linearize_rule_for_type`
    keeps it in Σ's memo.
    """
    guard_atom = tgd.guard()
    if guard_atom is None:
        raise ValueError(f"linearization requires guarded TGDs, got {tgd}")
    if guard_atom.predicate != sigma_type.guard.predicate:
        return ()
    closures = _closures(tgds)
    rule = closures.rule_of[tgd]
    type_atoms = sigma_type.atoms()
    ids = {t: i for i, t in enumerate(dict.fromkeys(sigma_type.guard.args))}
    type_node = _Node(
        0, [(closures.pred_id(a.predicate), tuple(ids[t] for t in a.args)) for a in type_atoms]
    )
    expansions: List[_Expansion] = []
    for substitution in find_homomorphisms(tgd.body, Instance(type_atoms)):
        if apply_substitution(guard_atom, substitution) != sigma_type.guard:
            continue
        if rule.existentials:
            image = tuple(ids[substitution[v]] for v in rule.frontier_variables)
            link = _Link(type_node, rule, image)
            child = closures.node(link.key())
            names = [_integer_constant(i + 1) for i in range(len(link.terms) + rule.existentials)]

            def decode(fact: _Fact) -> Atom:
                return Atom(closures.predicates[fact[0]], tuple(names[i] for i in fact[1]))

            head_types = tuple(
                canonicalize_type(
                    decode(head), [decode(f) for f in child.facts if set(head[1]) >= set(f[1])]
                )
                for head in rule.child(link.pattern)[1]
            )
        else:
            head_types = tuple(
                canonicalize_type(image, type_of(image, type_atoms))
                for image in (apply_substitution(a, substitution) for a in tgd.head)
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
    rule_counter: itertools.count,
) -> List[Tuple[TGD, Tuple[SigmaType, ...]]]:
    """The linear rules ``tgd`` yields for ``sigma_type``, with their head types.

    The expansions are built once per program (Σ-types range over
    ``#i`` integers, never database terms); rule ids come from the
    caller's counter, so ``lin(Σ)`` reads the same on a warm memo.
    """
    expansions = tgds.memo(
        ("lin", tgd, sigma_type), lambda: _type_expansions(tgd, sigma_type, tgds)
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
                tgd, current, tgds, rule_counter
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
    max_types: int = 10_000,
) -> LinearizationResult:
    """Compute ``lin(D)`` and the reachable fragment of ``lin(Σ)``."""
    completed = completion(database.as_instance(), tgds)
    linear_database, assignment = linearize_database(database, tgds, completed=completed)
    seed_types = list(dict.fromkeys(assignment.values()))
    program, types = linearize_program(tgds, seed_types, max_types=max_types)
    return LinearizationResult(
        database=linear_database,
        program=program,
        types=types,
        type_of_atom=assignment,
    )
