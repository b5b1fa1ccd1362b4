"""Compiled rule plans over the interned fact store.

Each TGD is compiled against the predicate ids of a
:class:`~repro.model.store.FactStore`: a static greedy body join
order, one delta plan per body atom, per-atom bound-position
templates, and semi-naive delta routing by body predicate.  A plan
depends on the program and on those ids only — never on a store's
facts — so :func:`compiled_pipeline` builds it once per (program,
predicate-id vector) and every later run over a store with the same
ids reuses it.  A fresh chase store interns ``sch(Σ)`` first, in
program order, so all fresh runs of one program share one entry.

Every slot array holds dense term ids, candidate enumeration walks
posting columns of packed int tuples, and trigger keys, null labels and
result facts are all built by indexing id tuples.  No
:class:`~repro.model.atoms.Atom` or :class:`~repro.model.terms.Null`
object is constructed on this path; decoding happens only at API
boundaries (derivation recording, the final
:class:`~repro.model.instance.Instance`).

The atom order comes from :func:`~repro.model.homomorphism._plan_order`
and the position templates from
:func:`~repro.model.homomorphism.classify_atom_positions` — the same
planner behind the term-level homomorphism search.
"""

from __future__ import annotations

from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.model.atoms import Atom
from repro.model.homomorphism import _plan_order, classify_atom_positions
from repro.model.store import Fact, FactStore
from repro.model.terms import Variable
from repro.model.tgd import TGD, TGDSet
from repro.chase.trigger import Trigger

#: A body homomorphism as term ids in the rule's sorted-variable order.
CanonicalIds = Tuple[int, ...]

#: Sentinel for an unbound slot (term ids are non-negative).
_UNSET_ID = -1

def _tuple_getter(indexes: Sequence[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """A callable extracting ``tuple(seq[i] for i in indexes)``.

    Uses :func:`operator.itemgetter` (C speed) for the common case;
    the 0- and 1-index arities need wrapping because itemgetter then
    returns a scalar instead of a tuple.
    """
    if not indexes:
        return lambda seq: ()
    if len(indexes) == 1:
        index = indexes[0]
        return lambda seq: (seq[index],)
    return itemgetter(*indexes)


#: A per-atom evaluation step over the store: (pid, consts, lookups,
#: binds, checks) with positions 0-based and consts carrying term ids.
_StoreStep = Tuple[
    int,
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
]


class StoreBodyPlan:
    """A compiled backtracking join over id tuples.

    The id-space twin of :class:`~repro.model.homomorphism.BodyPlan`:
    fixed atom order, integer slots per variable, per-atom templates of
    constant/lookup/bind/check positions.  ``bound_first`` variables
    keep a slot even when they do not occur in the atoms (delta plans
    seed them from the forced fact and read them back out).
    """

    __slots__ = ("atoms", "ordered", "variables", "slot_of", "_steps")

    def __init__(
        self,
        atoms: Sequence[Atom],
        store: FactStore,
        bound_first: Sequence[Variable] = (),
    ) -> None:
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        bound = frozenset(bound_first)
        # The order is static (shape only, no fact counts), so the plan
        # stays valid for every store that shares ``store``'s ids.
        self.ordered: Tuple[Atom, ...] = tuple(_plan_order(self.atoms, bound, None))
        slot_of: Dict[Variable, int] = {}
        for v in sorted(bound, key=lambda v: v.name):
            slot_of[v] = len(slot_of)
        for a in self.ordered:
            for arg in a.args:
                if isinstance(arg, Variable) and arg not in slot_of:
                    slot_of[arg] = len(slot_of)
        self.slot_of = slot_of
        self.variables: Tuple[Variable, ...] = tuple(
            sorted(slot_of, key=lambda v: slot_of[v])
        )
        steps: List[_StoreStep] = []
        known: Set[Variable] = set(bound)
        for pattern in self.ordered:
            predicate, consts, lookups, binds, checks = classify_atom_positions(
                pattern, known, slot_of
            )
            steps.append(
                (
                    store.intern_predicate(predicate),
                    tuple((i, store.intern_term(t)) for i, t in consts),
                    lookups,
                    binds,
                    checks,
                )
            )
            known |= pattern.variables()
        self._steps: Tuple[_StoreStep, ...] = tuple(steps)

    def fresh_slots(self) -> List[int]:
        return [_UNSET_ID] * len(self.variables)

    def iter_ids(
        self, store: FactStore, slots: Optional[List[int]] = None
    ) -> Iterator[List[int]]:
        """Yield the live slot array for every body image in ``store``.

        The *same* list is yielded each time; copy out what you need
        before advancing.  ``store`` must not be mutated while the
        generator is live (candidates alias posting lists).
        """
        if slots is None:
            slots = [_UNSET_ID] * len(self.variables)
        return self._backtrack(store, slots, self._steps, 0)

    def _backtrack(
        self,
        store: FactStore,
        slots: List[int],
        steps: Tuple[_StoreStep, ...],
        index: int,
    ) -> Iterator[List[int]]:
        if index == len(steps):
            yield slots
            return
        pid, consts, lookups, binds, checks = steps[index]
        if consts or lookups:
            bound = list(consts)
            for position, slot in lookups:
                bound.append((position, slots[slot]))
            candidates = store.candidates(pid, bound)
        else:
            candidates = store.facts_of(pid)
        if not candidates:
            return
        next_index = index + 1
        for ids in candidates:
            for position, slot in binds:
                slots[slot] = ids[position]
            ok = True
            for position, slot in checks:
                if slots[slot] != ids[position]:
                    ok = False
                    break
            if ok:
                yield from self._backtrack(store, slots, steps, next_index)
        for _, slot in binds:
            slots[slot] = _UNSET_ID


class StoreDeltaPlan:
    """One body atom's semi-naive entry point in id space."""

    __slots__ = (
        "pid",
        "plan",
        "perm_get",
        "consts",
        "binds",
        "checks",
        "_direct_get",
        "_direct_checks",
        "_forced_checks",
        "_rest_pid",
        "_rest_probe",
        "_rest_const_probe",
        "_rest_checks",
        "_merge_get",
    )

    def __init__(self, pattern: Atom, rest: Sequence[Atom], rule: "StoreCompiledRule",
                 store: FactStore) -> None:
        self.pid = store.intern_predicate(pattern.predicate)
        self.plan = StoreBodyPlan(rest, store, bound_first=tuple(pattern.variables()))
        perm = tuple(self.plan.slot_of[v] for v in rule.sorted_variables)
        self.perm_get = _tuple_getter(perm)
        _, consts, _, self.binds, self.checks = classify_atom_positions(
            pattern, set(), self.plan.slot_of
        )
        self.consts: Tuple[Tuple[int, int], ...] = tuple(
            (i, store.intern_term(t)) for i, t in consts
        )
        # Single-atom bodies (every linear rule) skip the slot array
        # entirely: the canonical tuple is a pure permutation of the
        # forced fact, and repeated-variable checks compare positions
        # of the forced fact against each other.
        self._direct_get = None
        self._direct_checks: Tuple[Tuple[int, int], ...] = ()
        forced_position_of_slot = {slot: position for position, slot in self.binds}
        self._forced_checks = tuple(
            (position, forced_position_of_slot[slot]) for position, slot in self.checks
        )
        if not rest:
            self._direct_get = _tuple_getter(
                tuple(forced_position_of_slot[s] for s in perm)
            )
            self._direct_checks = self._forced_checks
        # Two-atom bodies (forced pattern + one rest atom) skip the
        # backtracking generator: the probe template binds the rest
        # atom's shared positions from the forced fact, and the
        # canonical tuple is one itemgetter over the concatenated
        # ``forced + candidate`` row.
        self._merge_get = None
        if len(rest) == 1:
            rest_pid, rest_consts, rest_lookups, rest_binds, rest_checks = (
                self.plan._steps[0]
            )
            arity = pattern.predicate.arity
            rest_position_of_slot = {slot: position for position, slot in rest_binds}
            self._rest_pid = rest_pid
            self._rest_const_probe = rest_consts
            self._rest_probe = tuple(
                (position, forced_position_of_slot[slot])
                for position, slot in rest_lookups
            )
            self._rest_checks = tuple(
                (position, rest_position_of_slot[slot])
                for position, slot in rest_checks
            )
            self._merge_get = _tuple_getter(
                tuple(
                    forced_position_of_slot[slot]
                    if slot in forced_position_of_slot
                    else arity + rest_position_of_slot[slot]
                    for slot in perm
                )
            )

    def canonicals(self, store: FactStore, forced: Tuple[int, ...]) -> Iterator[CanonicalIds]:
        """Canonical id bindings whose pattern maps onto ``forced``."""
        for position, tid in self.consts:
            if forced[position] != tid:
                return
        direct = self._direct_get
        if direct is not None:
            for position, first in self._direct_checks:
                if forced[position] != forced[first]:
                    return
            yield direct(forced)
            return
        slots = self.plan.fresh_slots()
        for position, slot in self.binds:
            slots[slot] = forced[position]
        for position, slot in self.checks:
            if slots[slot] != forced[position]:
                return
        perm_get = self.perm_get
        for bound in self.plan.iter_ids(store, slots):
            yield perm_get(bound)

    def canonical_list(
        self, store: FactStore, forced: Tuple[int, ...]
    ) -> List[CanonicalIds]:
        """:meth:`canonicals` as a list, through the two-atom fast path.

        For a body of the forced pattern plus one rest atom, the join
        is a single posting probe and the canonical tuples fall out of
        one itemgetter over ``forced + candidate`` — no slot array, no
        generator frames.  Larger bodies fall back to the general
        backtracking enumerator.
        """
        merge = self._merge_get
        if merge is None:
            return list(self.canonicals(store, forced))
        for position, tid in self.consts:
            if forced[position] != tid:
                return []
        for position, first in self._forced_checks:
            if forced[position] != forced[first]:
                return []
        bound = list(self._rest_const_probe)
        for position, forced_position in self._rest_probe:
            bound.append((position, forced[forced_position]))
        candidates = (
            store.candidates(self._rest_pid, bound)
            if bound
            else store.facts_of(self._rest_pid)
        )
        checks = self._rest_checks
        if not checks:
            return [merge(forced + candidate) for candidate in candidates]
        return [
            merge(forced + candidate)
            for candidate in candidates
            if all(candidate[a] == candidate[b] for a, b in checks)
        ]


class StoreCompiledRule:
    """Everything per-TGD the store-backed chase needs, computed once.

    A :data:`CanonicalIds` tuple lays out the body homomorphism's term
    ids in sorted-variable order; trigger keys are ``(rule index, id
    tuple)``.  Null labels are parallel
    (names, ids) tuples whose name components are precomputed per rule
    and labelling mode, in the sorted order
    :func:`~repro.model.terms.make_null` would produce — so decoding a
    store null yields a :class:`~repro.model.terms.Null` *equal* to the
    legacy engine's.
    """

    __slots__ = (
        "tgd",
        "rule_id",
        "index",
        "body_plan",
        "delta_plans",
        "sorted_variables",
        "frontier_get",
        "has_existentials",
        "_var_names",
        "_frontier_index",
        "_existentials",
        "_head_template",
        "_head_simple",
        "_head_builders",
        "_body_perm_get",
        "_names_frontier",
        "_names_full",
        "_names_fired",
        "_fire_slot",
        "_head_plan",
        "_head_single",
        "head_only",
        "head_single_fresh",
    )

    def __init__(self, tgd: TGD, store: FactStore, index: int) -> None:
        self.tgd = tgd
        self.rule_id = tgd.rule_id
        self.index = index
        body = tgd.body
        frontier = tgd.frontier()
        self.sorted_variables: Tuple[Variable, ...] = tuple(
            sorted(tgd.body_variables(), key=lambda v: v.name)
        )
        self._var_names = tuple(v.name for v in self.sorted_variables)
        self._frontier_index = tuple(
            i for i, v in enumerate(self.sorted_variables) if v in frontier
        )
        self.frontier_get = _tuple_getter(self._frontier_index)
        self._existentials = tuple(
            v.name for v in sorted(tgd.existential_variables(), key=lambda v: v.name)
        )
        self.has_existentials = bool(self._existentials)

        self.body_plan = StoreBodyPlan(body, store)
        self._body_perm_get = _tuple_getter(
            tuple(self.body_plan.slot_of[v] for v in self.sorted_variables)
        )
        self.delta_plans: List[StoreDeltaPlan] = [
            StoreDeltaPlan(pattern, body[:i] + body[i + 1 :], self, store)
            for i, pattern in enumerate(body)
        ]

        # Head template: per head atom its pid plus one spec per
        # argument — a canonical index for a frontier variable, or
        # ``-1 - k`` for the k-th existential variable.
        position_of = {v: i for i, v in enumerate(self.sorted_variables)}
        existential_slot = {name: k for k, name in enumerate(self._existentials)}
        self._head_template: Tuple[Tuple[int, Tuple[int, ...]], ...] = tuple(
            (
                store.intern_predicate(a.predicate),
                tuple(
                    position_of[arg]
                    if arg in position_of
                    else -1 - existential_slot[arg.name]
                    for arg in a.args
                ),
            )
            for a in tgd.head
        )
        # Precompiled head builders: every head atom is one itemgetter
        # over the *combined* row ``canonical + nulls`` — a spec ``-1-k``
        # (the k-th existential) maps past the canonical prefix, so a
        # pure-frontier atom and an existential atom build identically
        # at C speed.  Rules without existentials additionally keep the
        # canonical-only getters (``_head_simple``) and skip null
        # labelling entirely.
        variable_count = len(self.sorted_variables)
        self._head_builders = tuple(
            (
                pid,
                _tuple_getter(
                    tuple(
                        spec if spec >= 0 else variable_count + (-1 - spec)
                        for spec in template
                    )
                ),
            )
            for pid, template in self._head_template
        )
        self._head_simple = self._head_builders if not self._existentials else None
        # The dominant rule shape — one head atom, no existentials — as
        # a bare (pid, getter) pair: the columnar driver inlines its
        # containment evaluation without building a result list.
        self.head_only = (
            self._head_simple[0]
            if self._head_simple is not None and len(self._head_simple) == 1
            else None
        )
        # The other dominant shape: one head atom *with* existentials
        # (every SL/L rule).  single_fresh_fact builds its one result
        # fact without list machinery.
        self.head_single_fresh = (
            self._head_builders[0]
            if len(tgd.head) == 1 and self._existentials
            else None
        )

        # Null label name tuples per labelling mode, pre-sorted the way
        # make_null sorts binding items.
        frontier_names = tuple(self._var_names[i] for i in self._frontier_index)
        self._names_frontier = frontier_names
        self._names_full = self._var_names
        fired = sorted(frontier_names + ("__fire__",))
        self._names_fired = tuple(fired)
        self._fire_slot = fired.index("__fire__")

        # Head-satisfaction plan (restricted chase): join the head into
        # the store with the frontier seeded from the canonical tuple,
        # as a (plan, seed) pair.  Compiled lazily — only multi-atom
        # heads under the restricted variant ever run it.
        self._head_plan: Optional[Tuple[StoreBodyPlan, Tuple[Tuple[int, int], ...]]] = None
        # Single-atom heads (the overwhelmingly common shape) shortcut
        # the plan entirely: satisfaction is one posting-list probe
        # (plus equality checks when an existential repeats in the atom).
        self._head_single = None
        if len(tgd.head) == 1:
            head_atom = tgd.head[0]
            bound_template: List[Tuple[int, int]] = []
            first_of_existential: Dict[str, int] = {}
            repeat_checks: List[Tuple[int, int]] = []
            for position, arg in enumerate(head_atom.args):
                canonical_index = position_of.get(arg)
                if canonical_index is not None:
                    bound_template.append((position, canonical_index))
                else:
                    seen_at = first_of_existential.get(arg.name)
                    if seen_at is None:
                        first_of_existential[arg.name] = position
                    else:
                        repeat_checks.append((seen_at, position))
            self._head_single = (
                store.intern_predicate(head_atom.predicate),
                tuple(position for position, _ in bound_template),
                _tuple_getter(tuple(index for _, index in bound_template)),
                tuple(bound_template),
                tuple(repeat_checks),
            )

    # -- trigger identity ---------------------------------------------------

    def frontier_ids(self, canonical: CanonicalIds) -> CanonicalIds:
        """``h|fr(σ)`` as an id tuple (semi-oblivious/restricted key)."""
        return self.frontier_get(canonical)

    # -- results ------------------------------------------------------------

    def result_facts(
        self, store: FactStore, canonical: CanonicalIds, full_labels: bool = False
    ) -> List[Fact]:
        """``result(σ, h)`` as packed facts, no atom materialisation."""
        simple = self._head_simple
        if simple is not None:
            return [(pid, getter(canonical)) for pid, getter in simple]
        if full_labels:
            names, label_ids = self._names_full, canonical
        else:
            names = self._names_frontier
            label_ids = self.frontier_get(canonical)
        return self._build_facts(store, canonical, names, label_ids)

    def single_fresh_fact(
        self, store: FactStore, canonical: CanonicalIds, full_labels: bool = False
    ) -> Fact:
        """The one result fact of a single-head existential rule.

        The flattened twin of :meth:`result_facts` for the
        ``head_single_fresh`` shape, used by the columnar driver: null
        interning plus one template fill, no intermediate lists.
        """
        if full_labels:
            names, label_ids = self._names_full, canonical
        else:
            names = self._names_frontier
            label_ids = self.frontier_get(canonical)
        rule_id = self.rule_id
        intern_null = store.intern_null
        combined = canonical + tuple(
            intern_null(rule_id, name, names, label_ids)
            for name in self._existentials
        )
        pid, getter = self.head_single_fresh
        return pid, getter(combined)

    def result_facts_fired(
        self, store: FactStore, canonical: CanonicalIds, fire_tid: int
    ) -> List[Fact]:
        """Restricted-chase result: frontier labels plus the fire mark."""
        simple = self._head_simple
        if simple is not None:
            return [(pid, getter(canonical)) for pid, getter in simple]
        label = list(self.frontier_get(canonical))
        label.insert(self._fire_slot, fire_tid)
        return self._build_facts(store, canonical, self._names_fired, tuple(label))

    def _build_facts(
        self,
        store: FactStore,
        canonical: CanonicalIds,
        names: Tuple[str, ...],
        label_ids: Tuple[int, ...],
    ) -> List[Fact]:
        rule_id = self.rule_id
        intern_null = store.intern_null
        combined = canonical + tuple(
            intern_null(rule_id, name, names, label_ids)
            for name in self._existentials
        )
        return [(pid, getter(combined)) for pid, getter in self._head_builders]

    # -- restricted activeness ----------------------------------------------

    def head_satisfied(self, store: FactStore, canonical: CanonicalIds) -> bool:
        """True iff some ``h' ⊇ h|fr(σ)`` maps the head into the store.

        This is the restricted chase's activeness test run entirely on
        posting lists: a single-atom head is one candidates() probe
        seeded with frontier ids; multi-atom heads run the compiled
        head plan and the first witness wins.
        """
        single = self._head_single
        if single is not None:
            pid, signature, value_get, bound_template, repeat_checks = single
            if not repeat_checks:
                # Existence only: one lookup in the (pid, signature)
                # projection index.
                return store.has_projection(pid, signature, value_get(canonical))
            bound = [(position, canonical[i]) for position, i in bound_template]
            for ids in store.candidates(pid, bound):
                if all(ids[a] == ids[b] for a, b in repeat_checks):
                    return True
            return False
        head_plan = self._head_plan
        if head_plan is None:
            # Compiled against ``store``: its head predicate ids are the
            # ones this rule was compiled for.  Plan and seed publish in
            # one assignment, so concurrent runs never see half of it.
            frontier = self.tgd.frontier()
            plan = StoreBodyPlan(
                self.tgd.head,
                store,
                bound_first=tuple(sorted(frontier, key=lambda v: v.name)),
            )
            seed = tuple(
                (plan.slot_of[v], i)
                for i, v in enumerate(self.sorted_variables)
                if v in frontier
            )
            self._head_plan = head_plan = (plan, seed)
        plan, seed = head_plan
        slots = plan.fresh_slots()
        for slot, i in seed:
            slots[slot] = canonical[i]
        for _ in plan.iter_ids(store, slots):
            return True
        return False

    # -- decoding (API boundary) ---------------------------------------------

    def make_trigger(self, store: FactStore, canonical: CanonicalIds) -> Trigger:
        """Materialise the :class:`Trigger` for derivation recording."""
        return Trigger(
            tgd=self.tgd,
            homomorphism=tuple(
                (name, store.term_of_id(tid))
                for name, tid in zip(self._var_names, canonical)
            ),
        )

    # -- enumeration ---------------------------------------------------------

    def initial_canonicals(self, store: FactStore) -> Iterator[CanonicalIds]:
        perm_get = self._body_perm_get
        for bound in self.body_plan.iter_ids(store):
            yield perm_get(bound)


#: A pending trigger: (rule, canonical ids, applied-memo key).
PendingTrigger = Tuple[StoreCompiledRule, CanonicalIds, Tuple[int, CanonicalIds]]


class StoreTriggerPipeline:
    """Relevance-routed trigger enumeration over the fact store.

    One :class:`StoreCompiledRule` per TGD, a delta-routing entry per
    body atom, and per-round dedup of repeated body
    images by their compact ``(rule index, id tuple)`` key.  The driver
    gets fully keyed *pending lists* rather than a generator: the
    round's triggers are materialised before application anyway, and
    building them in one flat loop avoids per-trigger generator
    resumptions on the hottest path.
    """

    def __init__(self, tgds: TGDSet, store: FactStore) -> None:
        self.rules: List[StoreCompiledRule] = []
        #: Per-rule plan-compile wall seconds, rule-indexed (one clock
        #: pair per rule per compile; the profiler reports them).
        self.compile_seconds: List[float] = []
        for index, t in enumerate(tgds):
            compile_start = perf_counter()
            self.rules.append(StoreCompiledRule(t, store, index))
            self.compile_seconds.append(perf_counter() - compile_start)
        #: Delta routing: one (rule, body index, body pid) entry per
        #: body atom, rule-major.
        self.delta_entries: List[Tuple[StoreCompiledRule, int, int]] = [
            (rule, index, store.intern_predicate(atom.predicate))
            for rule in self.rules
            for index, atom in enumerate(rule.tgd.body)
        ]

    def initial_pending(
        self,
        store: FactStore,
        uses_frontier: bool,
        on_rule: Optional[Callable[[int], None]] = None,
    ) -> List[PendingTrigger]:
        """All body homomorphisms into the store, keyed (round one).

        ``on_rule`` (the driver's rule-segment sender) is called with
        each rule's index before that rule is enumerated.
        """
        pending: List[PendingTrigger] = []
        append = pending.append
        for rule in self.rules:
            rule_index = rule.index
            if on_rule is not None:
                on_rule(rule_index)
            key_get = rule.frontier_get if uses_frontier else None
            for canonical in rule.initial_canonicals(store):
                key = (rule_index, key_get(canonical) if key_get else canonical)
                append((rule, canonical, key))
        return pending

    def delta_pending_rows(
        self,
        store: FactStore,
        marks: Sequence[int],
        uses_frontier: bool,
        on_rule: Optional[Callable[[int], None]] = None,
    ) -> List[PendingTrigger]:
        """Keyed triggers whose body image uses at least one delta fact.

        The delta is not a fact list but the row ranges past ``marks``
        (the per-predicate row counts captured before the previous
        round applied): new facts simply occupy the tail of their row
        table, so no per-round regrouping by predicate is needed.
        Triggers come out per (rule, body index) in registration order,
        forced facts in insertion order.

        A rule with a single-atom body cannot produce the same
        canonical from two distinct forced facts (the canonical is a
        permutation of the fact), and it has no second delta entry to
        collide with — such entries skip the round-local ``seen`` set
        entirely, and when the pattern needs no checks their pending
        entries are built with a single C-level ``map`` over the row
        slice.

        ``on_rule`` is called with a rule's index where the owning rule
        of the entry walk changes.  The walk is rule-major (every rule's
        body atoms are consecutive), so that is once per rule, never per
        forced fact or trigger.
        """
        pending: List[PendingTrigger] = []
        append = pending.append
        seen: Set[Tuple[int, CanonicalIds]] = set()
        seen_add = seen.add
        rows_since = store.rows_since
        seg_index = -1
        for rule, index, pid in self.delta_entries:
            if on_rule is not None and rule.index != seg_index:
                seg_index = rule.index
                on_rule(seg_index)
            forced_facts = rows_since(pid, marks[pid])
            if not forced_facts:
                continue
            delta_plan = rule.delta_plans[index]
            rule_index = rule.index
            key_get = rule.frontier_get if uses_frontier else None
            dedup = len(rule.delta_plans) > 1
            direct = delta_plan._direct_get
            if direct is not None and not dedup:
                # Linear rule: one delta entry, injective pattern match.
                direct_checks = delta_plan._direct_checks
                consts = delta_plan.consts
                if not consts and not direct_checks:
                    if key_get is None:
                        pending.extend(
                            [
                                (rule, canonical, (rule_index, canonical))
                                for canonical in map(direct, forced_facts)
                            ]
                        )
                    else:
                        pending.extend(
                            [
                                (rule, canonical, (rule_index, key_get(canonical)))
                                for canonical in map(direct, forced_facts)
                            ]
                        )
                    continue
                for forced in forced_facts:
                    ok = True
                    for position, tid in consts:
                        if forced[position] != tid:
                            ok = False
                            break
                    if ok:
                        for position, first in direct_checks:
                            if forced[position] != forced[first]:
                                ok = False
                                break
                    if not ok:
                        continue
                    canonical = direct(forced)
                    key = (rule_index, key_get(canonical) if key_get else canonical)
                    append((rule, canonical, key))
                continue
            for forced in forced_facts:
                for canonical in delta_plan.canonical_list(store, forced):
                    dedup_key = (rule_index, canonical)
                    if dedup_key in seen:
                        continue
                    seen_add(dedup_key)
                    key = (rule_index, key_get(canonical) if key_get else canonical)
                    append((rule, canonical, key))
        return pending


def compiled_pipeline(
    tgds: TGDSet, store: FactStore
) -> Tuple[StoreTriggerPipeline, List[float]]:
    """``tgds``' pipeline for ``store``'s predicate ids, and this call's
    per-rule compile seconds.

    The pipeline lives in the program's memo under the vector of ids
    ``store`` assigns to ``sch(Σ)`` (interning any missing predicate),
    the only store-dependent input of a compiled plan.  Only the call
    that compiles reports its compile seconds; a memo hit reports zeros.
    """
    pids = tuple(store.intern_predicate(p) for p in tgds.predicates_in_order())
    built: List[StoreTriggerPipeline] = []

    def build() -> StoreTriggerPipeline:
        built.append(StoreTriggerPipeline(tgds, store))
        return built[0]

    pipeline = tgds.memo(("pipeline", pids), build)
    if built and built[0] is pipeline:
        return pipeline, pipeline.compile_seconds
    return pipeline, [0.0] * len(pipeline.rules)
