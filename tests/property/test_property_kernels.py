"""Generated join kernels against the interpretive oracle.

The chase enumerates through kernels generated per join shape
(``chase/store_plan.py``).  ``iter_ids`` — the backtracking
enumerator over the templates the kernels are generated from — is
their specification.  These tests pin, on random SL/L/G and full programs,
the pipeline families and ``restricted_heavy``, for all three variants
on fresh, ``resume_from`` and checkpoint-restarted runs:

(a) every round's segments, read in order and keyed by either key rule
    (frontier image or whole canonical), equal the oracle's keyed
    triggers, triple for triple and in the same order;
(b) restricted head-satisfaction verdicts equal the oracle's;
(c) a run whose passes are answered by the oracle builds the same lazy
    posting columns (``index_build_profile`` builds,
    ``posting_memory``) and reaches the same summary.

They also pin the kernel memo's hygiene: racing threads, memo keys,
pickling and compile-second accounting; and that every rule bound from
its shape's template equals a direct compile of the rule.
"""

import pickle
import random
import sys
import threading
from operator import length_hint
from time import perf_counter

import pytest

import repro.chase.store_plan as store_plan
from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ChaseBudget, ChaseOutcome, EngineCheckpoint, _AddFirst
from repro.chase.store_plan import (
    RuleTemplate,
    StoreCompiledRule,
    StoreTriggerPipeline,
    compile_memo_sizes,
    compiled_pipeline,
    keyed_triggers,
    oracle_head_satisfied,
    oracle_pending,
    rule_template,
)
from repro.generators.families import (
    example_7_1,
    fairness_example,
    guarded_lower_bound,
    linear_lower_bound,
    prop45_family,
    sl_lower_bound,
)
from repro.generators.random_programs import (
    random_database,
    random_full_program,
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.generators.workloads import restricted_heavy
from repro.model.instance import Database
from repro.model.parser import parse_database, parse_program
from repro.model import serialization
from repro.model import tgd as tgd_module
from repro.model.atoms import Atom, Predicate
from repro.model.serialization import atom_to_text, canonical_instance_text, canonical_program_text
from repro.model.store import FactStore
from repro.model.terms import Variable
from repro.model.tgd import TGD, TGDSet, rule_shape
from repro.obs.observer import RunObserver
from repro.obs.profile import RuleProfiler

BUDGET = ChaseBudget(max_atoms=3_000, max_rounds=40)

GENERATORS = {
    "sl": random_simple_linear_program,
    "l": random_linear_program,
    "g": random_guarded_program,
}


def _random_case(kind, seed):
    if kind == "full":
        tgds = random_full_program(seed)
    else:
        tgds = GENERATORS[kind](seed, rule_count=4)
    return random_database(tgds, seed=seed + 700, fact_count=10, constant_count=3), tgds


CASES = {
    **{f"{kind}-{seed}": (kind, seed) for kind in ("sl", "l", "g", "full") for seed in range(5)},
    "prop45": prop45_family(6),
    "example71": example_7_1(),
    "fairness": fairness_example(),
    "sl-family": sl_lower_bound(2, 2, 2),
    "linear-family": linear_lower_bound(1, 2, 1),
    "guarded-family": guarded_lower_bound(1, 1, 1),
    "restricted-heavy": restricted_heavy(10, 3),
}


def case(name):
    value = CASES[name]
    if isinstance(value[0], str):
        return _random_case(*value)
    return value


def deep_join(n):
    """One rule whose body is an ``n``-atom chain and whose head is an
    ``n``-atom chain of existentials; two body images, one of whose
    heads the database already satisfies."""
    body = ", ".join(f"R{i}(x{i}, x{i + 1})" for i in range(n))
    head = ", ".join(["S0(x0, z0)"] + [f"S{i}(z{i - 1}, z{i})" for i in range(1, n)])
    existentials = ", ".join(f"z{i}" for i in range(n))
    tgds = parse_program(f"{body} -> exists {existentials} . {head}")
    facts = [f"R{i}({c}{i}, {c}{i + 1})." for c in "ab" for i in range(n)]
    facts.append(f"R{n // 2}(a{n // 2}, e).")
    facts += ["S0(a0, w0)."] + [f"S{i}(w{i - 1}, w{i})." for i in range(1, n)]
    return parse_database("\n".join(facts)), tgds


CASES["deep-join"] = deep_join(25)

VARIANTS = sorted(VARIANT_RUNNERS)


@pytest.fixture
def checked(monkeypatch):
    """Every pass and head verdict of the runs is checked against the oracle."""
    counts = {"passes": 0}
    initial = StoreTriggerPipeline.initial_pending
    delta = StoreTriggerPipeline.delta_pending_rows
    head = StoreCompiledRule.head_satisfied

    def check(pipeline, store, marks, pending):
        for uses_frontier in (True, False):
            expected = oracle_pending(pipeline, store, marks, uses_frontier)
            assert keyed_triggers(pending, uses_frontier) == expected
        counts["passes"] += 1

    def checked_initial(self, store, on_rule=None):
        pending = initial(self, store, on_rule)
        check(self, store, None, pending)
        return pending

    def checked_delta(self, store, marks, on_rule=None):
        pending = delta(self, store, marks, on_rule)
        check(self, store, marks, pending)
        return pending

    def checked_head(self, store, canonical):
        verdict = head(self, store, canonical)
        assert verdict == oracle_head_satisfied(self, store, canonical)
        return verdict

    monkeypatch.setattr(StoreTriggerPipeline, "initial_pending", checked_initial)
    monkeypatch.setattr(StoreTriggerPipeline, "delta_pending_rows", checked_delta)
    monkeypatch.setattr(StoreCompiledRule, "head_satisfied", checked_head)
    return counts


def _run(variant, database, tgds, **kwargs):
    return VARIANT_RUNNERS[variant](
        database, tgds, budget=BUDGET, record_derivation=False, **kwargs
    )


def _prefix(database, fraction=0.5):
    facts = sorted(database, key=atom_to_text)
    return Database(facts[: max(1, int(len(facts) * fraction))])


def _checkpoint_at(database, tgds, variant, at_round):
    captured = []

    class Capture(RunObserver):
        def round_end(self, rounds, store, marks, totals, complete):
            if rounds == at_round and complete:
                considered, applied, created, _ = totals
                captured.append(
                    EngineCheckpoint(
                        store_blob=store.snapshot(),
                        marks=tuple(marks),
                        rounds=rounds,
                        considered=considered,
                        applied=applied,
                        created=created,
                        database_size=len(database),
                    )
                )

    full = _run(variant, database, tgds, observers=[Capture()])
    # A checkpoint of the last (fixpoint) round would resume into one
    # extra empty round; the checkpointer never writes it.
    if full.statistics.rounds <= at_round:
        return full, None
    return full, captured[0]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_runs_enumerate_the_oracles_pending_lists(name, variant, checked):
    database, tgds = case(name)
    _run(variant, database, tgds)
    assert checked["passes"] > 0


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_resumed_runs_enumerate_the_oracles_pending_lists(name, variant, checked):
    database, tgds = case(name)
    base = _run(variant, _prefix(database), tgds)
    if not base.terminated:
        pytest.skip("resume_from needs a terminated base run")
    passes = checked["passes"]
    _run(variant, database, tgds, resume_from=base.store_snapshot())
    assert checked["passes"] > passes


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_restarts_enumerate_the_oracles_pending_lists(name, variant, checked):
    database, tgds = case(name)
    full, checkpoint = _checkpoint_at(database, tgds, variant, at_round=1)
    if checkpoint is None:
        pytest.skip("the run has no round after its first")
    passes = checked["passes"]
    restarted = _run(variant, database, tgds, checkpoint=checkpoint)
    assert restarted.summary() == full.summary()
    assert restarted.instance == full.instance
    assert checked["passes"] > passes


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [20, 21, 25, 45])
def test_joins_nesting_past_one_function_match_legacy(n, variant, checked):
    """CPython nests at most 20 blocks per function: longer bodies and
    heads go on in nested helper kernels, with the same answers."""
    database, tgds = deep_join(n)
    store = _run(variant, database, tgds)
    legacy = _run(variant, database, tgds, engine="legacy")
    assert store.summary() == legacy.summary()
    assert canonical_instance_text(store.instance) == canonical_instance_text(legacy.instance)
    assert store.statistics.triggers_applied == (1 if variant == "restricted" else 2)


def test_restricted_head_verdicts_are_checked(checked, monkeypatch):
    """Multi-atom heads and both verdicts actually occur under (b)."""
    verdicts = []
    head = StoreCompiledRule.head_satisfied

    def recording(self, store, canonical):
        verdict = head(self, store, canonical)
        if len(self.tgd.head) > 1:
            verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(StoreCompiledRule, "head_satisfied", recording)
    for name in sorted(CASES):
        database, tgds = case(name)
        _run("restricted", database, tgds)
    assert True in verdicts and False in verdicts


@pytest.fixture
def oracle_driven(monkeypatch):
    """Passes and multi-atom head verdicts answered by the oracle alone."""
    head = StoreCompiledRule.head_satisfied

    def segments(triggers):
        grouped = []
        for rule, canonical, _ in triggers:
            if not grouped or grouped[-1][0] is not rule:
                grouped.append((rule, []))
            grouped[-1][1].append(canonical)
        return grouped

    def initial(self, store, on_rule=None):
        return segments(oracle_pending(self, store, None, True))

    def delta(self, store, marks, on_rule=None):
        return segments(oracle_pending(self, store, marks, True))

    def head_satisfied(self, store, canonical):
        if len(self.tgd.head) == 1:
            return head(self, store, canonical)
        return oracle_head_satisfied(self, store, canonical)

    def install():
        monkeypatch.setattr(StoreTriggerPipeline, "initial_pending", initial)
        monkeypatch.setattr(StoreTriggerPipeline, "delta_pending_rows", delta)
        monkeypatch.setattr(StoreCompiledRule, "head_satisfied", head_satisfied)

    return install


def _index_footprint(result):
    store = result._store
    builds = {name: entry["builds"] for name, entry in store.index_build_profile().items()}
    return builds, store.posting_memory()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_kernels_build_the_oracles_posting_columns(name, variant, oracle_driven):
    database, tgds = case(name)
    kernels = _run(variant, database, tgds)
    oracle_driven()
    oracle = _run(variant, database, tgds)
    assert kernels.summary() == oracle.summary()
    assert _index_footprint(kernels) == _index_footprint(oracle)


# -- kernel memo hygiene ----------------------------------------------------------


@pytest.fixture
def cold_memo(monkeypatch):
    """Empty kernel and rule-template memos for the test, the shared
    ones restored after (a warm template holds its kernels)."""
    memo = {}
    monkeypatch.setattr(store_plan, "_KERNELS", memo)
    monkeypatch.setattr(store_plan, "_TEMPLATES", {})
    return memo


def _copy(tgds: TGDSet) -> TGDSet:
    return TGDSet(list(tgds), name=tgds.name)


def _seeded_store(database, tgds) -> FactStore:
    store = FactStore()
    for predicate in tgds.predicates_in_order():
        store.intern_predicate(predicate)
    for atom in database:
        store.add_atom(atom)
    return store


def _passes(database, tgds):
    """Round one and an all-rows delta pass as plain (rule index,
    canonicals) segments."""
    store = _seeded_store(database, tgds)
    pipeline, _ = compiled_pipeline(tgds, store)
    marks = [0] * len(store.row_marks())
    return [
        [(rule.index, canonicals) for rule, canonicals in pending]
        for pending in (
            pipeline.initial_pending(store),
            pipeline.delta_pending_rows(store, marks),
        )
    ]


def test_threads_racing_cold_shapes_get_the_serial_pending_lists(cold_memo):
    """The daemon runs two queue threads over one in-process executor:
    kernels are compiled and published while other threads run them."""
    names = sorted(CASES)
    cases = [case(name) for name in names]
    expected = [_passes(database, _copy(tgds)) for database, tgds in cases]
    cold_memo.clear()
    store_plan._TEMPLATES.clear()
    results, errors = {}, []

    def work(worker):
        try:
            for index, (database, tgds) in enumerate(cases):
                results[worker, index] = _passes(database, _copy(tgds))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for worker in range(4):
        for index in range(len(cases)):
            assert results[worker, index] == expected[index], (worker, names[index])


@pytest.mark.parametrize("name", ["g-1", "guarded-family", "restricted-heavy"])
def test_two_databases_over_one_program_add_no_memo_key(name):
    database, tgds = case(name)
    other = random_database(tgds, seed=4242, fact_count=14, constant_count=5)
    for variant in VARIANTS:
        _run(variant, database, tgds)
    keys = set(store_plan._KERNELS)
    for variant in VARIANTS:
        _run(variant, other, tgds)
        _run(variant, other, _copy(tgds))
    assert set(store_plan._KERNELS) == keys


def test_memo_keys_hold_only_plan_template_ints():
    for name in sorted(CASES):
        database, tgds = case(name)
        canonical_program_text(tgds)
        for variant in VARIANTS:
            _run(variant, database, tgds)

    def ints_only(value):
        if isinstance(value, tuple):
            return all(ints_only(item) for item in value)
        return value is None or type(value) in (int, bool)

    memos = (store_plan._KERNELS, store_plan._APPLY_KERNELS, store_plan._TEMPLATES,
             store_plan._GETTERS, serialization._LABELS, tgd_module._SHARED)
    for memo in memos:
        assert memo
        assert all(ints_only(key) for key in memo)
    # One kernel set per template, whatever the variant's key rule:
    # every compiled kernel is one of a template's round-one and delta
    # kernels or its head kernel, and the memo holds nothing else.
    templates = list(store_plan._TEMPLATES.values())
    owned = {kernel for t in templates if t._kernels for kernel in t._kernels}
    owned |= {t._head_kernel[0] for t in templates if t._head_kernel}
    assert set(store_plan._KERNELS.values()) == owned
    assert compile_memo_sizes()["kernels"] == len(store_plan._KERNELS)
    # Apply kernels too: keyed by plain shape tuples (no rule id, pid or
    # name), each one a template's, and counted.
    applied = {kernel for t in templates for kernel in t._apply_kernels if kernel}
    assert set(store_plan._APPLY_KERNELS.values()) == applied
    for heads, existential_count, label, width in store_plan._APPLY_KERNELS:
        assert all(type(table) is int and ints_only(specs) for table, specs in heads)
        assert type(existential_count) is int and type(width) is int and ints_only(label)
    assert compile_memo_sizes()["apply_kernels"] == len(store_plan._APPLY_KERNELS)


def test_head_kernels_compile_for_restricted_runs_only(cold_memo):
    database, program = case("deep-join")
    tgds = _copy(program)

    def head_kernels():
        return [shape for shape in cold_memo if shape[3] is None]

    for variant in ("oblivious", "semi-oblivious"):
        _run(variant, database, tgds)
    assert head_kernels() == []
    _run("restricted", database, tgds)
    assert len(head_kernels()) == 1


def test_a_warm_program_still_pickles():
    database, tgds = case("guarded-family")
    for variant in VARIANTS:
        _run(variant, database, tgds)
    assert any(key[0] == "pipeline" for key in tgds._memo if isinstance(key, tuple))
    restored = pickle.loads(pickle.dumps(tgds))
    assert restored == tgds
    for variant in VARIANTS:
        assert _run(variant, database, restored).summary() == _run(variant, database, tgds).summary()


def test_kernel_compile_seconds_are_charged_on_a_miss_only(cold_memo):
    database, tgds = case("g-2")
    store = _seeded_store(database, tgds)
    pipeline, seconds = compiled_pipeline(tgds, store)
    assert sum(pipeline.kernel_seconds) > 0.0
    assert all(s >= k for s, k in zip(seconds, pipeline.kernel_seconds))
    # Same program: both memos hit.
    _, again = compiled_pipeline(tgds, store)
    assert again == [0.0] * len(tgds)
    # A fresh copy rebuilds its plans, but every kernel is a memo hit.
    copy_pipeline, _ = compiled_pipeline(_copy(tgds), _seeded_store(database, tgds))
    assert copy_pipeline.kernel_seconds == [0.0] * len(tgds)


@pytest.mark.parametrize("memo", ["miss", "hit"])
def test_profiler_attribution_stays_within_driver_time(memo, cold_memo):
    database, program = case("guarded-family")
    if memo == "hit":
        _run("semi-oblivious", database, _copy(program))
    tgds = _copy(program)
    profiler = RuleProfiler()
    _run("semi-oblivious", database, tgds, observers=[profiler])
    (pipeline,) = [v for k, v in tgds._memo.items() if isinstance(k, tuple) and k[0] == "pipeline"]
    kernel_seconds = sum(pipeline.kernel_seconds)
    assert (kernel_seconds > 0.0) is (memo == "miss")
    assert sum(profiler.compile_seconds) >= kernel_seconds
    assert profiler.attributed_seconds() <= profiler.driver_seconds


# -- rule templates -----------------------------------------------------------------


TEMPLATE_CASES = sorted(CASES) + [
    f"{kind}-{seed}" for kind in ("sl", "l", "g", "full") for seed in range(5, 15)
]


def template_case(name):
    if name in CASES:
        return case(name)
    kind, seed = name.rsplit("-", 1)
    return _random_case(kind, int(seed))


def _calls(template, pids):
    """A template's kernel calls, in the store's pids."""
    kernels, _ = template.kernels()
    return [(pids[pid], kernel, tuple(pids[p] for p in step_pids))
            for kernel, (pid, step_pids) in zip(kernels, template.calls)]


def _view(template, pids, probe):
    """A template's plan, kernel calls and head probes in the store's
    pids; getters are compared by what they read from ``probe``."""
    def steps(plan_steps):
        return tuple((pids[step[0]],) + step[1:] for step in plan_steps)

    single = template.head_single
    if single is not None:
        pid, signature, value_get, bound, repeats = single
        single = (pids[pid], signature, value_get(probe), bound, repeats)
    head_join = template.head_join
    if head_join is not None:
        head_join = (steps(head_join[0]), head_join[1])
    return {
        "body": (steps(template.body_steps), template.body_slots, template.body_perm),
        "delta": [(pids[d[0]], steps(d[1])) + d[2:] for d in template.delta],
        "frontier": (template.frontier_index, template.frontier_get(probe)),
        "ranks": (template.canonical_ranks, template.existential_ranks),
        "head_template": tuple((pids[pid], specs) for pid, specs in template.head_template),
        "head_builders": [(pids[pid], getter(probe)) for pid, getter in template.head_builders],
        "head_single": single,
        "head_join": head_join,
        "kernels": _calls(template, pids),
    }


@pytest.mark.parametrize("name", TEMPLATE_CASES)
def test_bound_rules_equal_a_direct_compile(name):
    """Every rule bound from its shape's template equals the rule
    compiled directly against the same store: plans, head probes,
    null-label names and the pipeline's kernel calls."""
    database, tgds = template_case(name)
    store = _seeded_store(database, tgds)
    pipeline = StoreTriggerPipeline(tgds, store)
    identity = range(len(store.row_marks()))
    directs = []
    for rule in pipeline.rules:
        tgd = rule.tgd
        direct = RuleTemplate(tgd, store.intern_predicate)
        directs.append(direct)
        probe = tuple(range(100, 100 + len(direct.canonical_ranks) + len(direct.existential_ranks)))
        assert _view(rule.template, rule.pids, probe) == _view(direct, identity, probe), tgd
        names = sorted(v.name for v in tgd.body_variables())
        frontier = {v.name for v in tgd.frontier()}
        assert rule._var_names == tuple(names)
        assert rule._names_frontier == tuple(n for n in names if n in frontier)
        assert rule._existentials == tuple(sorted(v.name for v in tgd.existential_variables()))
        assert [(pid, g(probe)) for pid, g in rule.head_builders] == [
            (pid, g(probe)) for pid, g in direct.head_builders
        ]
        if direct.head_single is not None:
            assert rule._head_single[0] == direct.head_single[0]
    calls = []
    for rule, direct in zip(pipeline.rules, directs):
        first, *rest = _calls(direct, identity)
        calls.append((rule, first, rest))
    assert pipeline.kernel_calls == calls


@pytest.mark.parametrize("name", TEMPLATE_CASES)
def test_binding_interns_predicates_as_a_direct_compile(name):
    """A store that has not seen the program's predicates (or only the
    database's) assigns them the ids a direct compile of the rules, in
    order, would: the join order, not the rule's text, decides which
    predicate a compile meets first."""
    database, tgds = template_case(name)

    def predicates(store):
        return [store.predicate_of(pid) for pid in range(len(store.row_marks()))]

    for facts in ((), database):
        bound, direct = FactStore(), FactStore()
        for store in (bound, direct):
            for atom in facts:
                store.add_atom(atom)
        StoreTriggerPipeline(tgds, bound)
        for tgd in tgds:
            RuleTemplate(tgd, direct.intern_predicate)
        assert predicates(bound) == predicates(direct)


def _renamed(tgd: TGD, variable_name, predicate_name) -> TGD:
    def move(a):
        return Atom(
            Predicate(predicate_name(a.predicate.name), a.predicate.arity),
            tuple(Variable(variable_name(v.name)) for v in a.args),
        )

    return TGD(tuple(move(a) for a in tgd.body), tuple(move(a) for a in tgd.head), "renamed")


@pytest.mark.parametrize("name", TEMPLATE_CASES)
def test_renamed_rules_share_a_template(name):
    """Renaming variables in name order and predicates in any way keeps
    the template; reversing the name order of the variables changes the
    layout, so the rule gets a template of its own."""
    _, tgds = template_case(name)
    for tgd in tgds:
        template = rule_template(rule_shape(tgd))
        renamed = _renamed(tgd, lambda n: f"w_{n}", lambda n: f"Q_{n[::-1]}")
        assert rule_template(rule_shape(renamed)) is template
        variables = sorted(v.name for v in tgd.body_variables() | tgd.head_variables())
        reverse = dict(zip(variables, reversed(variables)))
        mirrored = _renamed(tgd, reverse.__getitem__, lambda n: n)
        if rule_shape(mirrored) != rule_shape(tgd):
            assert rule_template(rule_shape(mirrored)) is not template


def test_variable_order_decides_the_template():
    first = parse_program("R(x, y) -> S(y, x)")[0]
    second = parse_program("R(y, x) -> S(x, y)")[0]
    assert rule_shape(first) != rule_shape(second)
    assert rule_template(rule_shape(first)) is not rule_template(rule_shape(second))
    renamed = parse_program("P(a, b) -> Q(b, a)")[0]
    assert rule_template(rule_shape(renamed)) is rule_template(rule_shape(first))


# -- generated apply kernels ------------------------------------------------------

#: Predicates the random apply rules draw from: (name, arity).
APPLY_PREDICATES = (("R", 2), ("S", 3), ("T", 1), ("U", 2))


def _random_apply_rule(rng):
    """A random rule: 1-2 body atoms, 0-3 existentials, 1-3 head atoms
    over the body's predicates and others, head variables repeated."""
    body_pool = ["x", "y", "w"]
    body = []
    for _ in range(rng.randint(1, 2)):
        name, arity = rng.choice(APPLY_PREDICATES)
        body.append((name, [rng.choice(body_pool) for _ in range(arity)]))
    body_variables = sorted({v for _, args in body for v in args})
    existentials = [f"z{k}" for k in range(rng.randint(0, 3))]
    while True:
        frontier = rng.sample(body_variables, rng.randint(0, len(body_variables)))
        pool = frontier + existentials
        if not pool:
            continue
        head = []
        for _ in range(rng.randint(1, 3)):
            name, arity = rng.choice(APPLY_PREDICATES)
            head.append((name, [rng.choice(pool) for _ in range(arity)]))
        if set(existentials) <= {v for _, args in head for v in args}:
            break

    def atoms(items):
        return ", ".join(f"{name}({', '.join(args)})" for name, args in items)

    prefix = f"exists {', '.join(existentials)} . " if existentials else ""
    return parse_program(f"{atoms(body)} -> {prefix}{atoms(head)}")[0]


def _apply_store(tgd, seed, foreign):
    """A random store over the rule's predicates, a few posting columns
    built; with ``foreign``, it also holds input nulls, among them the
    nulls the rule invents for some labels and a deeper one."""
    from repro.model.terms import Constant, Null

    rng = random.Random(seed)
    constants = [Constant(f"c{i}") for i in range(4)]
    store = FactStore()
    predicates = {name: Predicate(name, arity) for name, arity in APPLY_PREDICATES}
    for predicate in predicates.values():
        store.intern_predicate(predicate)
    terms = list(constants)
    if foreign:
        names = sorted(v.name for v in tgd.frontier())
        for variable in sorted(v.name for v in tgd.existential_variables()):
            binding = tuple((n, rng.choice(constants)) for n in names)
            terms.append(Null(rule_id=tgd.rule_id, variable=variable, binding=binding))
        inner = Null(rule_id="input", variable="a", binding=(("x", constants[0]),))
        terms.append(Null(rule_id="input", variable="b", binding=(("x", inner),)))
    # Every term is interned, whether or not a fact holds it: an input
    # null outside every fact is deeper than the stored facts.
    for term in terms:
        store.intern_term(term)
    for _ in range(rng.randint(0, 12)):
        predicate = predicates[rng.choice(APPLY_PREDICATES)[0]]
        store.add_atom(Atom(predicate, tuple(rng.choice(terms) for _ in range(predicate.arity))))
    store.register_foreign_nulls()
    for _ in range(rng.randint(0, 3)):
        name, arity = rng.choice(APPLY_PREDICATES)
        store.column(store.pid(predicates[name]), rng.randrange(arity))
    return store


def _store_state(store):
    """Everything an add writes and a null probe interns."""
    built = [
        {position: store._cols[pid][position] for position in store._built[pid]}
        for pid in range(len(store._rows))
    ]
    return {
        "rows": store._rows,
        "row_of": store._row_of,
        "columns": built,
        "size": len(store),
        "null_ids": store._null_ids,
        "recipes": store._null_recipe,
        "depths": store._depth_of_id,
        "terms": [t is None for t in store._term_of_id],
    }


def _reference_apply(store, rule, canonicals, budget, start, full_labels):
    """``result_facts`` plus ``FactStore.add`` per trigger, budgets as
    the legacy loop trips them: ``(fired, created, stop, considered)``."""
    fired = created = considered = 0
    stop = None
    for canonical in canonicals:
        considered += 1
        new = [f for f in rule.result_facts(store, canonical, full_labels) if store.add(*f)]
        if not new:
            continue
        fired += 1
        created += len(new)
        if budget.max_depth is not None and any(
            store.fact_depth(ids) > budget.max_depth for _, ids in new
        ):
            stop = ChaseOutcome.DEPTH_BUDGET_EXCEEDED
        elif len(store) > budget.max_atoms:
            stop = ChaseOutcome.ATOM_BUDGET_EXCEEDED
        elif budget.max_seconds is not None and perf_counter() - start > budget.max_seconds:
            stop = ChaseOutcome.TIME_BUDGET_EXCEEDED
        if stop is not None:
            break
    return fired, created, stop, considered


def _apply_budgets(store):
    size = len(store)
    return [
        ChaseBudget(),
        ChaseBudget(max_atoms=size + 1),
        ChaseBudget(max_atoms=size + 4),
        ChaseBudget(max_depth=0),
        ChaseBudget(max_depth=1),
        ChaseBudget(max_depth=2),
        # Trips on the first applied trigger: the run started a second ago.
        ChaseBudget(max_seconds=0.5),
    ]


@pytest.mark.parametrize("seed", range(60))
def test_apply_kernels_equal_result_facts_plus_add(seed):
    """The bound apply kernel of a random rule shape, on a random store,
    equals ``result_facts`` + ``FactStore.add`` trigger for trigger:
    tables, row order, built columns, null ids, recipes and depths, the
    segment result and the triggers considered, under every budget and
    labelling, with and without foreign nulls."""
    rng = random.Random(seed)
    tgd = _random_apply_rule(rng)
    width = len(tgd.body_variables())
    for foreign in (False, True):
        probe = _apply_store(tgd, seed, foreign)
        ids = list(range(len(probe._term_of_id)))
        canonicals = [tuple(rng.choice(ids) for _ in range(width)) for _ in range(30)]
        canonicals += canonicals[:5]
        for full_labels in (False, True):
            for budget in _apply_budgets(probe):
                start = perf_counter() - 1.0
                expected_store = _apply_store(tgd, seed, foreign)
                expected_rule = StoreCompiledRule(tgd, expected_store, 0)
                expected = _reference_apply(
                    expected_store, expected_rule, canonicals, budget, start, full_labels
                )
                store = _apply_store(tgd, seed, foreign)
                rule = StoreCompiledRule(tgd, store, 0)
                run = _AddFirst(store, budget, start, full_labels)
                kernel, *bound = rule.apply_kernel(full_labels)
                triggers = iter(canonicals)
                fired, created, stop = kernel(run, store, triggers, *bound)
                considered = len(canonicals) - length_hint(triggers)
                context = (str(tgd), foreign, full_labels, budget)
                assert (fired, created, stop, considered) == expected, context
                assert _store_state(store) == _store_state(expected_store), context
                run.finish()
                assert store.max_depth() == expected_store.max_depth(), context


def test_apply_kernel_memo_keys_are_shapes():
    """Rules of one shape share their apply kernel; a rule without
    existentials has one kernel for both labellings."""
    first, renamed, full = parse_program(
        "R(x, y) -> exists z . S(y, z, z)\n"
        "P(a, b) -> exists c . Q(b, c, c)\n"
        "R(x, y) -> S(y, x, x)"
    )
    assert rule_template(rule_shape(first)).apply_kernel(False) is rule_template(
        rule_shape(renamed)
    ).apply_kernel(False)
    template = rule_template(rule_shape(full))
    assert template.apply_kernel(False) is template.apply_kernel(True)
    assert template.apply_shape(False) in store_plan._APPLY_KERNELS
