"""Compiled rule plans and generated join kernels over the fact store.

A rule's plan — a static greedy body join order, one delta plan per
body atom, per-atom bound-position templates, the head's builders and
probes — depends on the rule's *shape* only (see
:func:`~repro.model.tgd.rule_shape`): its atoms with predicates
numbered by first occurrence and variables ranked by name.  Each
distinct shape is compiled once per process into a
:class:`RuleTemplate`, against local predicate ids ``0..k-1``, and
kept in one module-level memo (:data:`_TEMPLATES`).  A program's
:class:`StoreCompiledRule` only binds its shape's template: the
store's id of each local predicate, the rule's index and id, and the
variable names of null labels.  :func:`compiled_pipeline` binds a
program once per predicate-id vector and every later run over a store
with the same ids reuses it; a fresh chase store interns ``sch(Σ)``
first, in program order, so all fresh runs of one program share one
entry.

The joins run as *generated kernels*: for each delta entry (rule, body
index), each rule's round-one body join and each multi-atom restricted
head, the plan's templates are turned into Python source — nested
``for`` loops over posting buckets, positions and slots as literals,
bindings as locals, the canonical tuple and the rule's round-local
dedup built inline — and ``compile()``d.  A kernel's *shape* (the
templates, the canonical permutation and the dedup flag) holds only
plan-template ints, never a term id, predicate id or database value;
the predicate ids arrive as an argument.  Kernels live in one
module-level memo keyed by shape (:data:`_KERNELS`), so every rule with
the same join shape shares one function, and each template keeps one
kernel set, whatever the variant's trigger identity.

A pass (:meth:`StoreTriggerPipeline.initial_pending`,
:meth:`~StoreTriggerPipeline.delta_pending_rows`) returns per-rule
*segments* ``(rule, [canonical, …])``.  Kernels build no trigger key:
the driver derives ``(rule index, frontier image)`` or ``(rule index,
canonical)`` only where it keeps an applied memo (see
:meth:`~repro.chase.engine.BaseChaseEngine._run_columnar`).

Kernels cover the apply phase too.  An add-first run applies each
segment with one call of the rule's *apply kernel*
(:meth:`RuleTemplate.apply_kernel`, source from :func:`_apply_source`):
one loop over the canonicals with the null probe and the store's add
inlined, and the label, existentials and head facts unrolled.  Its
shape (:meth:`RuleTemplate.apply_shape`: head tables and argument
specs, existential count, label positions, canonical width) holds only
plan-template ints too; apply kernels live in their own shape-keyed
memo (:data:`_APPLY_KERNELS`), built on first use per labelling, and
:meth:`StoreCompiledRule.apply_kernel` binds one to a rule's head pids,
rule id and null names.

:func:`iter_ids`, the interpretive backtracking enumerator over the
templates the kernels are generated from, survives only as the test
oracle (:func:`oracle_pending`, :func:`oracle_head_satisfied`), as the
legacy rescan does for the driver.

No :class:`~repro.model.atoms.Atom` or
:class:`~repro.model.terms.Null` object is constructed on this path;
decoding happens only at API boundaries (derivation recording, the
final :class:`~repro.model.instance.Instance`).  The atom order comes
from :func:`~repro.model.homomorphism._plan_order` and the position
templates from :func:`~repro.model.homomorphism.classify_atom_positions`
— the same planner behind the term-level homomorphism search.
"""

from __future__ import annotations

from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.model import serialization
from repro.model.atoms import Atom, Predicate
from repro.model.homomorphism import _plan_order, classify_atom_positions
from repro.model.store import Fact, FactStore
from repro.model.terms import Variable
from repro.model.tgd import TGD, RuleShape, TGDSet, rule_from_shape, rule_layout, shared
from repro.chase.trigger import Trigger

#: A body homomorphism as term ids in the rule's sorted-variable order.
CanonicalIds = Tuple[int, ...]

#: Sentinel for an unbound slot (term ids are non-negative).
_UNSET_ID = -1

#: One getter per index tuple: templates of different shapes repeat
#: most of their getters (and, see :func:`~repro.model.tgd.shared`,
#: their position/slot pairs, steps and permutations).
_GETTERS: Dict[Tuple[int, ...], Callable] = {}


def _tuple_getter(indexes: Sequence[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """A callable extracting ``tuple(seq[i] for i in indexes)``.

    Uses :func:`operator.itemgetter` (C speed) for the common case;
    the 0- and 1-index arities need wrapping because itemgetter then
    returns a scalar instead of a tuple.
    """
    indexes = tuple(indexes)
    getter = _GETTERS.get(indexes)
    if getter is not None:
        return getter
    if not indexes:
        getter = lambda seq: ()  # noqa: E731
    elif len(indexes) == 1:
        index = indexes[0]
        getter = lambda seq: (seq[index],)  # noqa: E731
    else:
        getter = itemgetter(*indexes)
    return _GETTERS.setdefault(indexes, getter)


#: ``(position, slot)`` pairs, positions 0-based.
_Template = Tuple[Tuple[int, int], ...]

#: A per-atom evaluation step over the store: (pid, lookups, binds,
#: checks).  TGDs are constant-free, so no step carries constants.
_StoreStep = Tuple[int, _Template, _Template, _Template]


class StoreJoinPlan:
    """A compiled join over id tuples: the kernels' template.

    The id-space counterpart of :mod:`repro.model.homomorphism`'s
    term-level join, compiled: fixed atom order, integer slots per
    variable, per-atom templates of lookup/bind/check positions,
    predicates as the ids ``intern`` assigns.  ``bound_first``
    variables (in the order the caller binds them) keep a slot even
    when they do not occur in the atoms (delta plans seed them from the
    forced fact and read them back out).
    """

    __slots__ = ("ordered", "slot_of", "steps")

    def __init__(
        self,
        atoms: Sequence[Atom],
        intern: Callable[[Predicate], int],
        bound_first: Sequence[Variable] = (),
    ) -> None:
        bound = frozenset(bound_first)
        # The order is static (shape only, no fact counts), so the plan
        # stays valid for every store that shares the ids.
        self.ordered: Tuple[Atom, ...] = tuple(_plan_order(tuple(atoms), bound))
        # Slots are numbered in binding order: ``bound_first`` as given,
        # then each fresh variable where the join first binds it.
        slot_of: Dict[Variable, int] = {}
        for v in bound_first:
            slot_of.setdefault(v, len(slot_of))
        for a in self.ordered:
            for arg in a.args:
                if isinstance(arg, Variable) and arg not in slot_of:
                    slot_of[arg] = len(slot_of)
        self.slot_of = slot_of
        steps: List[_StoreStep] = []
        known: Set[Variable] = set(bound)
        for pattern in self.ordered:
            predicate, consts, lookups, binds, checks = classify_atom_positions(
                pattern, known, slot_of
            )
            assert not consts, "TGD atoms are constant-free"
            steps.append((intern(predicate), lookups, binds, checks))
            known |= pattern.variables()
        self.steps: Tuple[_StoreStep, ...] = tuple(steps)


def iter_ids(
    store: FactStore, steps: Sequence[_StoreStep], slots: List[int]
) -> Iterator[List[int]]:
    """Yield the live slot array for every image of ``steps`` in ``store``.

    The interpretive enumerator over a plan's templates: the test
    oracle the generated kernels must agree with, not a production
    path.  The *same* list is yielded each time; copy out what you
    need before advancing.  ``store`` must not be mutated while the
    generator is live (candidates alias posting lists).
    """
    if not steps:
        yield slots
        return
    (pid, lookups, binds, checks), rest = steps[0], steps[1:]
    if lookups:
        candidates = store.candidates(
            pid, [(position, slots[slot]) for position, slot in lookups]
        )
    else:
        candidates = store.facts_of(pid)
    for ids in candidates:
        for position, slot in binds:
            slots[slot] = ids[position]
        if all(slots[slot] == ids[position] for position, slot in checks):
            yield from iter_ids(store, rest, slots)
    for _, slot in binds:
        slots[slot] = _UNSET_ID


# -- generated join kernels ----------------------------------------------------

#: Every compiled join kernel, shared by all programs: shape -> function.
#: Shapes hold plan-template ints only (see :func:`_kernel_shape`), so
#: the memo is bounded by the number of distinct join shapes, not by
#: programs or databases.
_KERNELS: Dict[tuple, Callable] = {}


def _kernel_shape(
    first: Tuple[_Template, _Template],
    steps: Sequence[_StoreStep],
    perm: Tuple[int, ...],
    dedup: Optional[bool],
) -> tuple:
    """A kernel's memo key.

    ``first`` is the (binds, checks) template matched against each
    input row (the forced fact, a row of the body's first atom, or the
    canonical tuple a head seeds from), ``steps`` the joined atoms and
    ``perm`` the slots the canonical tuple is read from (``()`` for a
    head).  ``dedup`` says whether a canonical-list kernel skips
    canonicals already seen this round; it is ``None`` for a
    head-witness kernel.

    :class:`StoreJoinPlan` numbers slots in binding order, so plans
    differing only in variable names already agree on their templates,
    and predicate ids are dropped (the kernel takes them as ``pids``).
    """
    return (first, tuple(step[1:] for step in steps), perm, dedup)


def _tuple_source(items: Sequence[str]) -> str:
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


#: ``for`` loops one generated function may nest: CPython refuses more
#: than 20 statically nested blocks per function.  A deeper join goes on
#: in a nested helper function (see :func:`_kernel_source`).
_MAX_NESTED_LOOPS = 20


def _kernel_source(shape: tuple) -> str:
    """Python source of the kernel for ``shape`` (see :func:`_kernel_shape`).

    A canonical-list kernel is ``kernel(store, rows, pids, seen,
    out)``: it extends ``out`` with the canonical tuple of every body
    image whose first atom maps onto one of ``rows``, in the order the
    oracle enumerates them (rows in order, then each step's candidates
    in row order), skipping canonicals already in the rule's round-local
    ``seen`` set when ``dedup`` is on.  A head-witness kernel is
    ``kernel(store, canonical, pids) -> bool``.
    Posting columns are fetched on a step's first probe, in the
    oracle's order, never prefetched: an empty bucket stops the probe
    before the next column is built, exactly as ``FactStore.candidates``
    does.

    A join nesting more than :data:`_MAX_NESTED_LOOPS` loops goes on in
    nested helper functions ``n<step>(<bound slots>)``, each holding at
    most that many loops and sharing the kernel's column caches; a
    witness helper returns a true value once a witness is found.
    """
    (first_binds, first_checks), steps, perm, dedup = shape
    witness = dedup is None
    # The kernel's header and prologue, its loop nest, then one section
    # per helper; helpers are defined before the loop nest runs.
    sections: List[List[str]] = [[]]

    def emit(depth: int, text: str) -> None:
        sections[-1].append("    " * depth + text)

    if witness:
        emit(0, "def kernel(store, f, pids):")
    else:
        emit(0, "def kernel(store, rows, pids, seen, out):")
    first_position = {slot: position for position, slot in first_binds}
    # The first atom's own checks, against the input row's positions.
    first_tests = [f"f[{p}] == f[{first_position[s]}]" for p, s in first_checks]
    if not steps and not witness:
        # A single-atom body: the canonical tuple is a permutation of
        # the row, so the whole kernel is one comprehension.
        positions = [first_position[s] for s in perm]
        if positions == list(range(len(first_binds) + len(first_checks))):
            # Each position binds its own variable, in canonical order
            # (so no position repeats one): the rows are the canonicals.
            emit(1, "out.extend(rows)")
        else:
            canonical = _tuple_source([f"f[{p}]" for p in positions])
            condition = f" if {' and '.join(first_tests)}" if first_tests else ""
            emit(1, f"out.extend([{canonical} for f in rows{condition}])")
        return "\n".join(sections[0]) + "\n"

    if steps:
        emit(1, f"{_tuple_source([f'p{k}' for k in range(len(steps))])} = pids")
    if any(lookups for lookups, _, _ in steps):
        emit(1, "column = store.column")
    if not all(lookups for lookups, _, _ in steps):
        emit(1, "facts_of = store.facts_of")
    # Per-call caches: a step's posting columns (or its row table when
    # it looks nothing up), fetched on its first probe.
    caches = [
        [f"r{k}"] if not lookups else [f"k{k}_{j}" for j in range(len(lookups))]
        for k, (lookups, _, _) in enumerate(steps)
    ]
    for names in caches:
        for name in names:
            emit(1, f"{name} = None")
    sections.append([])
    if not witness:
        emit(1, "append = out.append")
        if dedup:
            emit(1, "seen_add = seen.add")
        emit(1, "for f in rows:")
        depth, skip, loops = 2, "continue", 1
    else:
        depth, skip, loops = 1, "return False", 0
    if first_tests:
        emit(depth, f"if not ({' and '.join(first_tests)}): {skip}")
    if len(first_binds) > 1 and not first_checks and not witness:
        # Every position of the row binds a slot: one unpack.
        emit(depth, f"{_tuple_source([f's{slot}' for _, slot in first_binds])} = f")
    else:
        for position, slot in first_binds:
            emit(depth, f"s{slot} = f[{position}]")
    bound = [slot for _, slot in first_binds]
    for k, (lookups, binds, checks) in enumerate(steps):
        if loops == _MAX_NESTED_LOOPS:
            # This function is full: the rest of the join goes on in a
            # helper called with the slots bound so far.
            arguments = ", ".join(f"s{slot}" for slot in sorted(bound))
            call = f"n{k}({arguments})"
            emit(depth, f"if {call}: return True" if witness else call)
            sections.append([])
            emit(1, f"def n{k}({arguments}):")
            emit(2, "nonlocal " + ", ".join(name for names in caches[k:] for name in names))
            depth, skip, loops = 2, "return", 0
        bound_at = {slot: position for position, slot in binds}
        tests = [f"g{k}[{p}] != g{k}[{bound_at[s]}]" for p, s in checks]
        if not lookups:
            emit(depth, f"if r{k} is None: r{k} = facts_of(p{k})")
            source = f"r{k}"
        else:
            buckets = []
            for j, (position, slot) in enumerate(lookups):
                bucket = f"b{k}_{j}"
                emit(depth, f"if k{k}_{j} is None: k{k}_{j} = column(p{k}, {position})")
                emit(depth, f"{bucket} = k{k}_{j}.get(s{slot})")
                emit(depth, f"if not {bucket}: {skip}")
                buckets.append(bucket)
            source = buckets[0]
            if len(buckets) > 1:
                # Walk the smallest bucket; it still holds facts
                # failing the other lookups, so every lookup is tested.
                source = f"b{k}"
                emit(depth, f"{source} = {buckets[0]}")
                for bucket in buckets[1:]:
                    emit(depth, f"if len({bucket}) < len({source}): {source} = {bucket}")
                tests = [f"g{k}[{p}] != s{s}" for p, s in lookups] + tests
        emit(depth, f"for g{k} in {source}:")
        depth, skip, loops = depth + 1, "continue", loops + 1
        if tests:
            emit(depth, f"if {' or '.join(tests)}: continue")
        for position, slot in binds:
            emit(depth, f"s{slot} = g{k}[{position}]")
        bound.extend(slot for _, slot in binds)
    if witness:
        emit(depth, "return True")
        sections[1].append("    return False")
    else:
        emit(depth, f"c = {_tuple_source([f's{slot}' for slot in perm])}")
        if dedup:
            emit(depth, "if c in seen: continue")
            emit(depth, "seen_add(c)")
        emit(depth, "append(c)")
    return "\n".join(sections[0] + [line for helper in sections[2:] for line in helper]
                     + sections[1]) + "\n"


def _kernel(
    shape: tuple,
    memo: Optional[Dict[tuple, Callable]] = None,
    source: Callable[[tuple], str] = _kernel_source,
) -> Callable:
    """The kernel for ``shape`` in ``memo`` (the join kernels' by
    default), generated by ``source`` and compiled on first use.

    The source is built from the shape's ints and fixed names only,
    never from program or database text.  Concurrent first uses may
    both compile; the memo keeps one, and the two are the same
    function of the same source anyway.
    """
    if memo is None:
        memo = _KERNELS
    kernel = memo.get(shape)
    if kernel is not None:
        return kernel
    namespace: Dict[str, Callable] = {"perf_counter": perf_counter}
    exec(compile(source(shape), "<kernel>", "exec"), namespace)
    return memo.setdefault(shape, namespace["kernel"])


# -- generated apply kernels -----------------------------------------------------

#: Every compiled add-first apply kernel, shared by all programs: shape
#: -> function.  Shapes hold plan-template ints only (see
#: :meth:`RuleTemplate.apply_shape`), like :data:`_KERNELS`'.
_APPLY_KERNELS: Dict[tuple, Callable] = {}


def _apply_source(shape: tuple) -> str:
    """Python source of the add-first apply kernel for ``shape`` (see
    :meth:`RuleTemplate.apply_shape`).

    The kernel is ``kernel(run, store, triggers, pids, rule_id,
    existentials, names) -> (fired, created, stop)``.  It applies each
    canonical tuple of ``triggers`` in turn: it interns the trigger's
    nulls, builds its head facts and adds them, and counts the trigger
    applied iff one fact is new.  ``pids`` are the store's ids of the
    head's distinct predicates, ``existentials`` the existential names
    and ``names`` the label names of the rule's null keys.  ``run`` (the
    driver's ``_AddFirst``) holds the budgets, the run's deepest null
    (``deepest``, read and written back) and the outcomes a stop
    returns.

    Everything per rule shape is unrolled: the label is a tuple of the
    canonical's label positions, each existential's null probe is one
    ``null_ids`` lookup, and a miss appends the id, recipe, term and
    depth that :meth:`~repro.model.store.FactStore.intern_null`'s fast
    path appends (its foreign-null slow path stays a call); each head
    fact is a tuple display over the canonical and the nulls, and each
    add is :meth:`~repro.model.store.FactStore.add` inlined over
    :meth:`~repro.model.store.FactStore.add_tables`.  Head atoms over
    one predicate share one table and row counter.

    Budgets trip after an applied trigger, as in the legacy loop: depth
    first, then atoms, then time.  Depth trips on a new fact deeper
    than ``run.depth_limit`` when ``run.check_facts``, else on a null
    born deeper than ``run.null_limit``.
    """
    heads, existential_count, label, width = shape
    table_count = 1 + max(table for table, _ in heads)
    lines: List[str] = []

    def emit(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    emit(0, "def kernel(run, store, triggers, pids, rule_id, existentials, names):")
    emit(1, f"{_tuple_source([f'q{t}' for t in range(table_count)])} = pids")
    for t in range(table_count):
        emit(1, f"rows{t}, row_of{t}, columns{t} = store.add_tables(q{t})")
        emit(1, f"append{t} = rows{t}.append")
        emit(1, f"row{t} = len(rows{t})")
    if existential_count:
        emit(1, f"{_tuple_source([f'e{k}' for k in range(existential_count)])} = existentials")
        emit(1, "null_ids, recipes, terms, depths, foreign = store.null_tables()")
        emit(1, "get = null_ids.get")
        emit(1, "intern_null = store.intern_null")
        emit(1, "new_term = terms.append")
        emit(1, "new_depth = depths.append")
        emit(1, "deepest = run.deepest")
        emit(1, "null_limit = run.null_limit")
    emit(1, "check_facts = run.check_facts")
    emit(1, "limit = run.depth_limit")
    emit(1, "fact_depth = store.fact_depth")
    # New facts this segment may add before the atom budget trips.
    emit(1, "room = run.max_atoms - len(store)")
    emit(1, "max_seconds = run.max_seconds")
    emit(1, "start = run.start")
    emit(1, "created = 0" if len(heads) == 1 else "fired = created = 0")
    emit(1, "stop = None")
    emit(1, "for c in triggers:")
    if existential_count:
        if label == tuple(range(width)):
            emit(2, "label = c")
        else:
            emit(2, f"label = {_tuple_source([f'c[{i}]' for i in label])}")
        for k in range(existential_count):
            emit(2, f"key = (rule_id, e{k}, names, label)")
            emit(2, f"n{k} = get(key)")
            emit(2, f"if n{k} is None:")
            emit(3, "if foreign:")
            emit(4, f"n{k} = intern_null(rule_id, e{k}, names, label)")
            emit(4, f"depth = depths[n{k}]")
            emit(3, "else:")
            emit(4, f"n{k} = len(terms)")
            emit(4, f"null_ids[key] = n{k}")
            emit(4, f"recipes[n{k}] = key")
            emit(4, "new_term(None)")
            # Definition 4.3: one more than the deepest label term.
            if not label:
                emit(4, "depth = 1")
            else:
                emit(4, f"depth = depths[c[{label[0]}]]")
                for i in label[1:]:
                    emit(4, f"if depths[c[{i}]] > depth: depth = depths[c[{i}]]")
                emit(4, "depth += 1")
            emit(4, "new_depth(depth)")
            emit(3, "if depth > deepest: deepest = depth")
    single = len(heads) == 1
    if not single:
        emit(2, "new = 0")
        emit(2, "deep = False")
    for j, (t, specs) in enumerate(heads):
        if not existential_count and specs == tuple(range(width)):
            # The head atom reads the canonical tuple as it is.
            emit(2, f"f{j} = c")
        else:
            args = [f"c[{s}]" if s >= 0 else f"n{-1 - s}" for s in specs]
            emit(2, f"f{j} = {_tuple_source(args) if args else '()'}")
        if single:
            emit(2, f"if f{j} in row_of{t}: continue")
            depth = 2
        else:
            emit(2, f"if f{j} not in row_of{t}:")
            depth = 3
        emit(depth, f"row_of{t}[f{j}] = row{t}")
        emit(depth, f"row{t} += 1")
        emit(depth, f"append{t}(f{j})")
        emit(depth, f"for position, column in columns{t}:")
        emit(depth + 1, f"tid = f{j}[position]")
        emit(depth + 1, "bucket = column.get(tid)")
        emit(depth + 1, f"if bucket is None: column[tid] = [f{j}]")
        emit(depth + 1, f"else: bucket.append(f{j})")
        if single:
            # One new fact per applied trigger: ``created`` counts both.
            emit(2, "created += 1")
            deep = "check_facts and fact_depth(f0) > limit"
        else:
            emit(3, "new += 1")
            emit(3, f"if check_facts and fact_depth(f{j}) > limit: deep = True")
    if not single:
        emit(2, "if not new: continue")
        emit(2, "fired += 1")
        emit(2, "created += new")
        deep = "deep"
    if existential_count:
        deep += " or deepest > null_limit"
    emit(2, f"if {deep}:")
    emit(3, "stop = run.depth_exceeded")
    emit(3, "break")
    emit(2, "if created > room:")
    emit(3, "stop = run.atoms_exceeded")
    emit(3, "break")
    emit(2, "if max_seconds is not None and perf_counter() - start > max_seconds:")
    emit(3, "stop = run.time_exceeded")
    emit(3, "break")
    emit(1, "store.count_added(created)")
    if existential_count:
        emit(1, "run.deepest = deepest")
    emit(1, f"return {'created' if single else 'fired'}, created, stop")
    return "\n".join(lines) + "\n"


# -- rule templates --------------------------------------------------------------

#: Every rule template, shared by all programs: rule shape -> template.
#: Shapes hold ints only (see :func:`~repro.model.tgd.rule_shape`), so
#: the memo is bounded by the number of distinct rule shapes, not by
#: programs or databases.
_TEMPLATES: Dict[RuleShape, "RuleTemplate"] = {}

#: One body atom's semi-naive entry: (pid of the forced fact, the
#: joined steps, their slot count, the canonical permutation, and the
#: forced fact's bind and check templates).
_DeltaTemplate = Tuple[int, Tuple[_StoreStep, ...], int, Tuple[int, ...], _Template, _Template]


def _delta_template(
    pattern: Atom,
    rest: Sequence[Atom],
    sorted_variables: Sequence[Variable],
    intern: Callable[[Predicate], int],
) -> _DeltaTemplate:
    """The join of ``rest`` around a fact forced onto ``pattern``."""
    pid = intern(pattern.predicate)
    # The pattern's variables in position order: the order the kernel
    # binds them from the forced fact.
    plan = StoreJoinPlan(rest, intern, bound_first=tuple(dict.fromkeys(pattern.args)))
    perm = tuple(plan.slot_of[v] for v in sorted_variables)
    _, consts, _, binds, checks = classify_atom_positions(pattern, set(), plan.slot_of)
    assert not consts, "TGD atoms are constant-free"
    return (pid, plan.steps, len(plan.slot_of), perm, binds, checks)


def head_join_plan(
    tgd: TGD, intern: Callable[[Predicate], int]
) -> Tuple[StoreJoinPlan, _Template]:
    """The restricted chase's head join: the head planned with the
    frontier bound, and the seed ``(canonical index, slot)`` pairs that
    fill the frontier slots from a canonical tuple."""
    frontier = tgd.frontier()
    plan = StoreJoinPlan(
        tgd.head, intern, bound_first=tuple(sorted(frontier, key=lambda v: v.name))
    )
    sorted_variables = sorted(tgd.body_variables(), key=lambda v: v.name)
    seed = tuple(
        (i, plan.slot_of[v]) for i, v in enumerate(sorted_variables) if v in frontier
    )
    return plan, seed


class RuleTemplate:
    """Everything per-TGD the store-backed chase compiles, without names.

    The direct compile of one rule, with predicates as the ids
    ``intern`` assigns: the body plan and one delta plan per body atom
    (steps, slot count, canonical permutation), the frontier indices
    of a canonical tuple, the head's templates, builders and
    single-atom probe, the head join of a multi-atom head and, on first
    use, the generated kernels.  A :data:`CanonicalIds`
    tuple lays out the body variables' term ids in name order;
    ``canonical_ranks`` and ``existential_ranks`` are the ranks (see
    :func:`~repro.model.tgd.rule_shape`) of the body and existential
    variables in name order.

    :func:`rule_template` compiles each distinct rule shape once, on
    the rule :func:`~repro.model.tgd.rule_from_shape` rebuilds, against
    local predicate ids ``0..k-1``; :class:`StoreCompiledRule` binds
    the result to a program.  Compiling a real rule against a store's
    ids is the reference a bound rule must equal.
    """

    __slots__ = (
        "intern_order",
        "canonical_ranks",
        "existential_ranks",
        "frontier_index",
        "frontier_get",
        "body_steps",
        "body_slots",
        "body_perm",
        "delta",
        "calls",
        "head_template",
        "head_builders",
        "head_single",
        "head_join",
        "head_tables",
        "_kernels",
        "_head_kernel",
        "_apply_kernels",
    )

    def __init__(self, tgd: TGD, intern: Callable[[Predicate], int]) -> None:
        _, _, variables = rule_layout(tgd)
        body = tgd.body
        body_variables = tgd.body_variables()
        frontier = tgd.frontier()
        sorted_variables = [v for v in variables if v in body_variables]
        existentials = [v for v in variables if v not in body_variables]
        rank = {v: r for r, v in enumerate(variables)}
        self.canonical_ranks = shared(tuple(rank[v] for v in sorted_variables))
        self.existential_ranks = shared(tuple(rank[v] for v in existentials))
        #: Indices of the frontier variables in a canonical tuple.
        self.frontier_index = shared(
            tuple(i for i, v in enumerate(sorted_variables) if v in frontier)
        )
        self.frontier_get = _tuple_getter(self.frontier_index)

        body_plan = StoreJoinPlan(body, intern)
        self.body_steps = shared(body_plan.steps)
        self.body_slots = len(body_plan.slot_of)
        #: The body plan's slots in sorted-variable order.
        self.body_perm = shared(tuple(body_plan.slot_of[v] for v in sorted_variables))
        self.delta: Tuple[_DeltaTemplate, ...] = shared(tuple(
            _delta_template(pattern, body[:i] + body[i + 1 :], sorted_variables, intern)
            for i, pattern in enumerate(body)
        ))
        #: Where the kernels (see :meth:`kernels`) run, in their order:
        #: per kernel the pid of its input rows and the pids of its
        #: joined steps.
        self.calls: Tuple[Tuple[int, Tuple[int, ...]], ...] = shared(
            ((self.body_steps[0][0], tuple(step[0] for step in self.body_steps[1:])),)
            + tuple((pid, tuple(step[0] for step in steps)) for pid, steps, *_ in self.delta)
        )

        # Head template: per head atom its pid plus one spec per
        # argument — a canonical index for a frontier variable, or
        # ``-1 - k`` for the k-th existential variable.
        position_of = {v: i for i, v in enumerate(sorted_variables)}
        existential_slot = {v: k for k, v in enumerate(existentials)}
        self.head_template: Tuple[Tuple[int, Tuple[int, ...]], ...] = shared(tuple(
            (
                intern(a.predicate),
                tuple(
                    position_of[arg] if arg in position_of else -1 - existential_slot[arg]
                    for arg in a.args
                ),
            )
            for a in tgd.head
        ))
        #: The head's distinct predicates in first-occurrence order:
        #: the tables an apply kernel adds to.
        self.head_tables: Tuple[int, ...] = shared(
            tuple(dict.fromkeys(pid for pid, _ in self.head_template))
        )
        # Precompiled head builders: every head atom is one itemgetter
        # over the *combined* row ``canonical + nulls`` — a spec ``-1-k``
        # (the k-th existential) maps past the canonical prefix, so a
        # pure-frontier atom and an existential atom build identically
        # at C speed.
        variable_count = len(sorted_variables)
        self.head_builders = tuple(
            (
                pid,
                _tuple_getter(
                    tuple(
                        spec if spec >= 0 else variable_count + (-1 - spec)
                        for spec in template
                    )
                ),
            )
            for pid, template in self.head_template
        )

        # Single-atom heads (the overwhelmingly common shape) test
        # satisfaction with one posting-list probe (plus equality checks
        # when an existential repeats in the atom); multi-atom heads run
        # the head join's witness kernel.
        self.head_single = None
        self.head_join: Optional[Tuple[Tuple[_StoreStep, ...], _Template]] = None
        if len(tgd.head) == 1:
            head_atom = tgd.head[0]
            bound_template: List[Tuple[int, int]] = []
            first_of_existential: Dict[Variable, int] = {}
            repeat_checks: List[Tuple[int, int]] = []
            for position, arg in enumerate(head_atom.args):
                canonical_index = position_of.get(arg)
                if canonical_index is not None:
                    bound_template.append((position, canonical_index))
                else:
                    seen_at = first_of_existential.get(arg)
                    if seen_at is None:
                        first_of_existential[arg] = position
                    else:
                        repeat_checks.append((seen_at, position))
            self.head_single = (
                intern(head_atom.predicate),
                shared(tuple(position for position, _ in bound_template)),
                _tuple_getter(tuple(index for _, index in bound_template)),
                shared(tuple(bound_template)),
                shared(tuple(repeat_checks)),
            )
        else:
            plan, seed = head_join_plan(tgd, intern)
            self.head_join = shared((plan.steps, seed))
        #: The local pids in the order this compile first interned them
        #: (set by :func:`rule_template`): binding interns a program's
        #: predicates in the same order, so a store assigns the ids a
        #: direct compile would.
        self.intern_order: Tuple[int, ...] = ()
        self._kernels: Optional[Tuple[Callable, ...]] = None
        self._head_kernel: Optional[Tuple[Callable, Tuple[int, ...]]] = None
        #: The apply kernels, per labelling (frontier, full), built on
        #: first use.
        self._apply_kernels: List[Optional[Callable]] = [None, None]

    def kernels(self) -> Tuple[Tuple[Callable, ...], float]:
        """The template's kernels — round one's, then one per delta entry
        — and the seconds this call spent building them (``0.0`` once
        they are built).  Round one enumerates the first planned atom's
        rows and joins the rest of the body around each of them.
        """
        kernels = self._kernels
        if kernels is not None:
            return kernels, 0.0
        start = perf_counter()
        (_, _, binds, checks), *rest = self.body_steps
        initial = _kernel(_kernel_shape((binds, checks), rest, self.body_perm, False))
        # Only multi-atom bodies can reach one canonical twice (from
        # two forced facts, or two entries of the rule).
        dedup = len(self.delta) > 1
        kernels = (initial,) + tuple(
            _kernel(_kernel_shape((binds, checks), steps, perm, dedup))
            for _, steps, _, perm, binds, checks in self.delta
        )
        # Concurrent first uses may both build; either result is kept,
        # and both hold the same memoised kernels.
        self._kernels = kernels
        return kernels, perf_counter() - start

    def head_kernel(self) -> Tuple[Callable, Tuple[int, ...]]:
        """A multi-atom head's witness kernel and the pids of its steps,
        built on first use, so only restricted runs compile it."""
        head_kernel = self._head_kernel
        if head_kernel is None:
            steps, seed = self.head_join
            kernel = _kernel(_kernel_shape((seed, ()), steps, (), None))
            self._head_kernel = head_kernel = (kernel, tuple(step[0] for step in steps))
        return head_kernel

    def apply_shape(self, full_labels: bool) -> tuple:
        """The memo key of the rule's add-first apply kernel (see
        :func:`_apply_source`): per head atom its table (an index into
        :attr:`head_tables`) and argument specs, the existential count,
        the canonical positions of the null label (the frontier, or the
        whole canonical under ``full_labels``; none without
        existentials) and the canonical's width."""
        table = {pid: t for t, pid in enumerate(self.head_tables)}
        heads = tuple((table[pid], specs) for pid, specs in self.head_template)
        width = len(self.canonical_ranks)
        existential_count = len(self.existential_ranks)
        if not existential_count:
            label: Tuple[int, ...] = ()
        elif full_labels:
            label = tuple(range(width))
        else:
            label = self.frontier_index
        return (heads, existential_count, label, width)

    def apply_kernel(self, full_labels: bool) -> Callable:
        """The rule's add-first apply kernel for one labelling, built on
        first use, so a run compiles only the kernels it applies with.
        A rule without existentials has one kernel for both."""
        kernel = self._apply_kernels[full_labels]
        if kernel is None:
            kernel = _kernel(self.apply_shape(full_labels), _APPLY_KERNELS, _apply_source)
            self._apply_kernels[full_labels] = kernel
        return kernel


def rule_template(shape: RuleShape) -> RuleTemplate:
    """The template of every rule of ``shape``, compiled on first use.

    Compiles :func:`~repro.model.tgd.rule_from_shape`'s rule, whose
    local predicate ``i`` gets id ``i``.  Concurrent first uses may
    both compile; the memo keeps one, and the two are equal anyway.
    """
    template = _TEMPLATES.get(shape)
    if template is not None:
        return template
    rule = rule_from_shape(shape)
    local = {p: i for i, p in enumerate(rule_layout(rule)[1])}
    order: Dict[int, None] = {}

    def intern(predicate: Predicate) -> int:
        pid = local[predicate]
        order.setdefault(pid)
        return pid

    template = RuleTemplate(rule, intern)
    template.intern_order = shared(tuple(order))
    return _TEMPLATES.setdefault(shared(shape), template)


class StoreCompiledRule:
    """One program rule, bound to its shape's :class:`RuleTemplate`.

    Binding maps the template's local predicate ids to the store's
    (``pids``) and names what the template leaves nameless: the rule's
    index and ``rule_id``, and the variable names of null labels.  A
    :data:`CanonicalIds` tuple lays out the body homomorphism's term
    ids in sorted-variable order; trigger keys are ``(rule index, id
    tuple)``.  Null labels are parallel (names, ids) tuples whose name
    components are precomputed per rule and labelling mode, in the
    sorted order :func:`~repro.model.terms.make_null` would produce —
    so decoding a store null yields a
    :class:`~repro.model.terms.Null` *equal* to the legacy engine's.
    """

    __slots__ = (
        "tgd",
        "rule_id",
        "index",
        "template",
        "pids",
        "frontier_index",
        "frontier_get",
        "_var_names",
        "_names_frontier",
        "_existentials",
        "head_builders",
        "_head_single",
        "_head_kernel",
        "head_pids",
        "_apply",
    )

    def __init__(self, tgd: TGD, store: FactStore, index: int) -> None:
        shape, predicates, variables = rule_layout(tgd)
        template = rule_template(shape)
        self.tgd = tgd
        self.rule_id = tgd.rule_id
        self.index = index
        self.template = template
        pids = [0] * len(predicates)
        for local in template.intern_order:
            pids[local] = store.intern_predicate(predicates[local])
        #: The store's id of each local predicate of the template.
        self.pids: Tuple[int, ...] = tuple(pids)
        self.frontier_index = template.frontier_index
        self.frontier_get = template.frontier_get
        # Null label name tuples per labelling mode, pre-sorted the way
        # make_null sorts binding items.
        self._var_names = tuple(variables[r].name for r in template.canonical_ranks)
        self._names_frontier = tuple(self._var_names[i] for i in template.frontier_index)
        self._existentials = tuple(variables[r].name for r in template.existential_ranks)
        self.head_builders = tuple(
            (pids[pid], getter) for pid, getter in template.head_builders
        )
        #: The store's id of each table an apply kernel adds to.
        self.head_pids = tuple(pids[pid] for pid in template.head_tables)
        # The bound apply kernels, per labelling (see apply_kernel).
        self._apply: List[Optional[_ApplyEntry]] = [None, None]
        single = template.head_single
        self._head_single = None if single is None else (pids[single[0]],) + single[1:]
        # The multi-atom head's witness kernel with the store's pids:
        # bound on the first head test (see :meth:`head_satisfied`).
        self._head_kernel: Optional[Tuple[Callable, Tuple[int, ...]]] = None

    def bind_kernels(self, kernels: Sequence[Callable]) -> List["_KernelEntry"]:
        """The template's kernels (see :meth:`RuleTemplate.kernels`) as
        kernel calls of this rule, with the store's pids."""
        pids = self.pids
        return [
            (pids[pid], kernel, tuple(pids[p] for p in step_pids))
            for kernel, (pid, step_pids) in zip(kernels, self.template.calls)
        ]

    def apply_kernel(self, full_labels: bool) -> "_ApplyEntry":
        """The template's add-first apply kernel (see
        :meth:`RuleTemplate.apply_kernel`) bound to this rule: ``(kernel,
        head pids, rule id, existential names, label names)``, the
        arguments after ``run``, ``store`` and ``triggers``."""
        entry = self._apply[full_labels]
        if entry is None:
            existentials, names, _ = self.null_recipe(full_labels)
            entry = (
                self.template.apply_kernel(full_labels),
                self.head_pids,
                self.rule_id,
                existentials,
                names,
            )
            self._apply[full_labels] = entry
        return entry

    # -- trigger identity ---------------------------------------------------

    def frontier_ids(self, canonical: CanonicalIds) -> CanonicalIds:
        """``h|fr(σ)`` as an id tuple (semi-oblivious/restricted key)."""
        return self.frontier_get(canonical)

    # -- results ------------------------------------------------------------

    def null_recipe(
        self, full_labels: bool = False
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...], Callable[[CanonicalIds], Tuple[int, ...]]]:
        """How a trigger of this rule names its nulls: the existential
        variables' names, the label names, and the getter of the label
        ids from a canonical tuple (the frontier image, or the whole
        canonical under ``full_labels``, the oblivious labelling); the
        apply kernels are bound to its names."""
        if full_labels:
            # tuple() returns a tuple argument itself.
            return self._existentials, self._var_names, tuple
        return self._existentials, self._names_frontier, self.frontier_get

    def nulls(
        self, store: FactStore, canonical: CanonicalIds, full_labels: bool = False
    ) -> Tuple[int, ...]:
        """The ids of the nulls the trigger invents, interned on first
        sight, in existential-name order: the tail of the combined row
        ``canonical + nulls`` that :meth:`head_facts` reads."""
        existentials, names, label_get = self.null_recipe(full_labels)
        label_ids = label_get(canonical)
        rule_id = self.rule_id
        intern_null = store.intern_null
        return tuple([intern_null(rule_id, name, names, label_ids) for name in existentials])

    def head_facts(self, combined: Tuple[int, ...]) -> List[Fact]:
        """The head as packed facts over the row ``canonical + nulls``."""
        return [(pid, getter(combined)) for pid, getter in self.head_builders]

    def result_facts(
        self, store: FactStore, canonical: CanonicalIds, full_labels: bool = False
    ) -> List[Fact]:
        """``result(σ, h)`` as packed facts, no atom materialisation."""
        if self._existentials:
            canonical += self.nulls(store, canonical, full_labels)
        return self.head_facts(canonical)

    # -- restricted activeness ----------------------------------------------

    def head_satisfied(self, store: FactStore, canonical: CanonicalIds) -> bool:
        """True iff some ``h' ⊇ h|fr(σ)`` maps the head into the store.

        This is the restricted chase's activeness test run entirely on
        posting lists: a single-atom head is one candidates() probe
        seeded with frontier ids; multi-atom heads run the head's
        witness kernel and the first witness wins.
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
        head_kernel = self._head_kernel
        if head_kernel is None:
            # Kernel and ids publish in one assignment, so concurrent
            # runs never see half of it.
            kernel, step_pids = self.template.head_kernel()
            pids = self.pids
            self._head_kernel = head_kernel = (kernel, tuple(pids[p] for p in step_pids))
        kernel, pids = head_kernel
        return kernel(store, canonical, pids)

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


#: One rule's triggers of a pass: the rule and the canonical tuples of
#: its body images, in enumeration order.
Segment = Tuple[StoreCompiledRule, List[CanonicalIds]]

#: One kernel call: (pid of the input rows, kernel, pids of the joined
#: steps).
_KernelEntry = Tuple[int, Callable, Tuple[int, ...]]

#: One rule's bound apply kernel: (kernel, head pids, rule id,
#: existential names, label names).
_ApplyEntry = Tuple[Callable, Tuple[int, ...], str, Tuple[str, ...], Tuple[str, ...]]


class StoreTriggerPipeline:
    """Relevance-routed trigger enumeration over the fact store.

    One :class:`StoreCompiledRule` per TGD, its kernels bound to the
    store's predicate ids (one for round one, one per body atom for the
    delta rounds), and per-round dedup of repeated body images within
    a rule.  A pass returns *segments* rather than a generator: one
    ``(rule, canonicals)`` pair per rule with triggers, rule-major,
    because the round's triggers are materialised before application
    anyway and the generated kernels build them in flat loops.  A
    segment carries no trigger key: the driver derives one only where
    it keeps an applied memo (see
    :meth:`~repro.chase.engine.BaseChaseEngine._run_columnar`).
    """

    def __init__(self, tgds: TGDSet, store: FactStore) -> None:
        self.rules: List[StoreCompiledRule] = []
        #: Per-rule bind wall seconds (template and kernel builds
        #: included on a memo miss), rule-indexed; the profiler reports
        #: them.
        self.compile_seconds: List[float] = []
        #: The part of ``compile_seconds`` spent building the template's
        #: kernels (``0.0`` when the template already held them).
        self.kernel_seconds: List[float] = []
        #: Per rule: the rule, its round-one kernel call and its delta
        #: kernel calls (one per body atom, in body order).
        self.kernel_calls: List[Tuple[StoreCompiledRule, _KernelEntry, List[_KernelEntry]]] = []
        for index, t in enumerate(tgds):
            compile_start = perf_counter()
            rule = StoreCompiledRule(t, store, index)
            kernels, kernel_seconds = rule.template.kernels()
            initial, *delta = rule.bind_kernels(kernels)
            self.rules.append(rule)
            self.kernel_calls.append((rule, initial, delta))
            self.kernel_seconds.append(kernel_seconds)
            self.compile_seconds.append(perf_counter() - compile_start)
        #: Delta routing: one (rule, body index, body pid) entry per
        #: body atom, rule-major.
        self.delta_entries: List[Tuple[StoreCompiledRule, int, int]] = [
            (rule, index, rule.pids[delta[0]])
            for rule in self.rules
            for index, delta in enumerate(rule.template.delta)
        ]

    def initial_pending(
        self, store: FactStore, on_rule: Optional[Callable[[int], None]] = None
    ) -> List[Segment]:
        """Every body homomorphism into the store, as segments (round one).

        ``on_rule`` (the driver's rule-segment sender) is called with
        each rule's index before that rule is enumerated; a rule whose
        first planned atom has no rows is skipped unannounced.
        """
        segments: List[Segment] = []
        facts_of = store.facts_of
        for rule, (pid, kernel, pids), _ in self.kernel_calls:
            rows = facts_of(pid)
            if not rows:
                continue
            if on_rule is not None:
                on_rule(rule.index)
            canonicals: List[CanonicalIds] = []
            kernel(store, rows, pids, None, canonicals)
            if canonicals:
                segments.append((rule, canonicals))
        return segments

    def delta_pending_rows(
        self,
        store: FactStore,
        marks: Sequence[int],
        on_rule: Optional[Callable[[int], None]] = None,
    ) -> List[Segment]:
        """Segments of the triggers whose body image uses at least one
        delta fact.

        The delta is not a fact list but the row ranges past ``marks``
        (the per-predicate row counts captured before the previous
        round applied): new facts simply occupy the tail of their row
        table, so no per-round regrouping by predicate is needed.  A
        rule's canonicals come out per body index, forced facts in
        insertion order; a multi-atom body skips canonicals it already
        reached this round from another forced fact or body index.

        ``on_rule`` is called with a rule's index before its first
        kernel call: once per rule with delta rows, never per forced
        fact or trigger, and not at all for a rule without delta rows.
        """
        segments: List[Segment] = []
        rows_since = store.rows_since
        for rule, _, delta in self.kernel_calls:
            canonicals: List[CanonicalIds] = []
            seen: Optional[Set[CanonicalIds]] = set() if len(delta) > 1 else None
            announce = on_rule
            for pid, kernel, pids in delta:
                forced_facts = rows_since(pid, marks[pid])
                if forced_facts:
                    if announce is not None:
                        announce(rule.index)
                        announce = None
                    kernel(store, forced_facts, pids, seen, canonicals)
            if canonicals:
                segments.append((rule, canonicals))
        return segments


def compiled_pipeline(
    tgds: TGDSet, store: FactStore
) -> Tuple[StoreTriggerPipeline, List[float]]:
    """``tgds``' pipeline for ``store``'s predicate ids, and this call's
    per-rule compile seconds.

    The pipeline lives in the program's memo under the vector of ids
    ``store`` assigns to ``sch(Σ)`` (interning any missing predicate),
    the only store-dependent input of a compiled plan.  A call that
    built the pipeline reports its binding seconds (plus any rule
    template and kernels it built); a call that hits the pipeline memo
    reports zeros.
    """
    pids = tuple(store.intern_predicate(p) for p in tgds.predicates_in_order())
    built: List[StoreTriggerPipeline] = []

    def build() -> StoreTriggerPipeline:
        built.append(StoreTriggerPipeline(tgds, store))
        return built[0]

    pipeline = tgds.memo(("pipeline", pids), build)
    if built and built[0] is pipeline:
        return pipeline, list(pipeline.compile_seconds)
    return pipeline, [0.0] * len(pipeline.rules)


def compile_memo_sizes() -> Dict[str, int]:
    """Entry counts of the process-wide memos of compiled Σ-side work.

    None of them evicts: a long-running daemon keeps one entry per
    distinct join shape, apply shape, rule shape and labelling key it
    has seen.
    """
    return {
        "kernels": len(_KERNELS),
        "apply_kernels": len(_APPLY_KERNELS),
        "rule_templates": len(_TEMPLATES),
        "canonical_labels": len(serialization._LABELS),
    }


# -- the interpretive oracle ---------------------------------------------------


#: A keyed trigger: (rule, canonical ids, applied-memo key).
KeyedTrigger = Tuple[StoreCompiledRule, CanonicalIds, Tuple[int, CanonicalIds]]


def oracle_pending(
    pipeline: StoreTriggerPipeline,
    store: FactStore,
    marks: Optional[Sequence[int]],
    uses_frontier: bool,
) -> List[KeyedTrigger]:
    """The keyed triggers of a pass, enumerated interpretively through
    :func:`iter_ids` (round one when ``marks`` is ``None``, else the
    delta past ``marks``); keys are ``(rule index, frontier image)``,
    or the whole canonical tuple when ``uses_frontier`` is false.

    The kernels' specification: the property suite requires
    :meth:`StoreTriggerPipeline.initial_pending`'s and
    :meth:`~StoreTriggerPipeline.delta_pending_rows`'s segments, read
    in order and keyed by the same rule, to equal it triple for triple.
    Not a production path.
    """
    pending: List[KeyedTrigger] = []

    def keyed(rule: StoreCompiledRule, slots: List[int], perm: Tuple[int, ...]):
        canonical = tuple(slots[slot] for slot in perm)
        key = rule.frontier_get(canonical) if uses_frontier else canonical
        return (rule, canonical, (rule.index, key))

    def bound_steps(rule: StoreCompiledRule, steps: Sequence[_StoreStep]):
        return tuple((rule.pids[step[0]],) + step[1:] for step in steps)

    if marks is None:
        for rule in pipeline.rules:
            template = rule.template
            slots = [_UNSET_ID] * template.body_slots
            for bound in iter_ids(store, bound_steps(rule, template.body_steps), slots):
                pending.append(keyed(rule, bound, template.body_perm))
        return pending
    seen: Set[Tuple[int, CanonicalIds]] = set()
    for rule, index, pid in pipeline.delta_entries:
        _, steps, slot_count, perm, binds, checks = rule.template.delta[index]
        steps = bound_steps(rule, steps)
        dedup = len(rule.template.delta) > 1
        for forced in store.rows_since(pid, marks[pid]):
            slots = [_UNSET_ID] * slot_count
            for position, slot in binds:
                slots[slot] = forced[position]
            if any(slots[slot] != forced[position] for position, slot in checks):
                continue
            for bound in iter_ids(store, steps, slots):
                entry = keyed(rule, bound, perm)
                if dedup:
                    if (rule.index, entry[1]) in seen:
                        continue
                    seen.add((rule.index, entry[1]))
                pending.append(entry)
    return pending


def keyed_triggers(segments: Sequence[Segment], uses_frontier: bool) -> List[KeyedTrigger]:
    """A pass's segments read in order, each trigger keyed as the
    evaluate-first driver keys it: the form :func:`oracle_pending`
    returns.  Not a production path."""
    return [
        (rule, canonical, (rule.index, rule.frontier_get(canonical) if uses_frontier else canonical))
        for rule, canonicals in segments
        for canonical in canonicals
    ]


def oracle_head_satisfied(
    rule: StoreCompiledRule, store: FactStore, canonical: CanonicalIds
) -> bool:
    """:meth:`StoreCompiledRule.head_satisfied`'s verdict, decided by an
    interpretive head join (:func:`iter_ids`) planned directly on the
    rule against ``store`` (for any head, single-atom ones included).
    Not a production path."""
    plan, seed = head_join_plan(rule.tgd, store.intern_predicate)
    slots = [_UNSET_ID] * len(plan.slot_of)
    for i, slot in seed:
        slots[slot] = canonical[i]
    return any(True for _ in iter_ids(store, plan.steps, slots))
