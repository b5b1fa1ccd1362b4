"""A program's memo changes no answer, only how often Σ-work is done.

Every Σ-only artifact (compiled chase plans, ``lin(Σ)`` type
expansions, ``simple(Σ)``, ``Q_Σ``, the special cycles of ``dg(Σ)``)
is built once per :class:`~repro.model.tgd.TGDSet` object and reused.
These tests run random SL/L/G programs over several databases, in
shuffled order, on one shared (warm) program object and on a fresh
copy per call, and require identical verdicts, details, reports,
analyses, UCQ verdicts and ``lin(Σ)`` / ``lin(D)`` — rule ids
included.  They also pin the store-vs-legacy chase equivalence on a
warm memo, that one ``linearize`` call compiles its pipeline once,
that no memo key carries a database term, and that ``Q_Σ``'s
schema-level criterion agrees with the per-fact one it replaced.
"""

import random
import sys
import threading

import pytest

import repro.chase.store_plan as store_plan
from repro.chase.engine import ChaseBudget
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.classify import TGDClass, classify
from repro.core.decision import decide_termination
from repro.core.linearization import SigmaType, linearize
from repro.core.simplification import id_tuple, simplified_predicate
from repro.core.termination_analysis import ANALYSIS_VARIANTS, analyze_termination
from repro.core.ucq import build_termination_ucq
from repro.core.weak_acyclicity import weak_acyclicity_report
from repro.generators.random_programs import (
    random_database,
    random_full_program,
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.generators.workloads import restricted_heavy
from repro.model.atoms import Atom
from repro.model.parser import parse_database, parse_program
from repro.model.terms import Constant
from repro.model.tgd import TGD, TGDSet

#: Non-terminating runs stop early: only terminated runs are compared.
BUDGET = ChaseBudget(max_atoms=2_000)

GENERATORS = {
    "sl": random_simple_linear_program,
    "l": random_linear_program,
    "g": lambda seed: random_guarded_program(seed, predicate_count=3, max_arity=2, rule_count=3),
}
CASES = [(kind, seed) for kind in sorted(GENERATORS) for seed in range(6)]


def fresh_copy(tgds: TGDSet) -> TGDSet:
    """The same program as a new object, with an empty memo."""
    return TGDSet(list(tgds), name=tgds.name)


def databases_for(tgds: TGDSet, seed: int):
    return [
        random_database(tgds, seed=1000 * seed + i, fact_count=size, constant_count=max(2, size // 3))
        for i, size in enumerate((3, 6, 10, 6))
    ]


def artifacts(kind: str, database, tgds: TGDSet):
    """Everything the deciders report for one (D, Σ) pair."""
    verdict = decide_termination(database, tgds, method="syntactic")
    out = {
        "verdict": (verdict.terminates, verdict.method, verdict.tgd_class, verdict.details),
        "report": weak_acyclicity_report(tgds, database),
        "uniform": weak_acyclicity_report(tgds),
        "analysis": [analyze_termination(database, tgds, v) for v in ANALYSIS_VARIANTS],
    }
    if kind == "g":
        lin = linearize(database, tgds)
        out["lin_program"] = [(t.rule_id, t.body, t.head) for t in lin.program]
        out["lin_database"] = list(lin.database)
        out["lin_types"] = lin.types
    else:
        ucq = decide_termination(database, tgds, method="ucq")
        out["ucq"] = (ucq.terminates, ucq.details)
    return out


@pytest.mark.parametrize("kind,seed", CASES, ids=[f"{k}-{s}" for k, s in CASES])
def test_warm_program_matches_fresh_copy(kind, seed):
    shared = GENERATORS[kind](seed)
    databases = databases_for(shared, seed)
    order = list(range(len(databases))) * 2
    random.Random(seed).shuffle(order)
    for index in order:
        database = databases[index]
        warm = artifacts(kind, database, shared)
        cold = artifacts(kind, database, fresh_copy(shared))
        assert warm == cold


def test_memo_keys_carry_no_database_term():
    for kind, seed in CASES:
        tgds = GENERATORS[kind](seed)
        constants = set()
        for database in databases_for(tgds, seed):
            constants |= database.constants()
            artifacts(kind, database, tgds)
        seen = set()

        def walk(value):
            if isinstance(value, Constant):
                seen.add(value)
            elif isinstance(value, Atom):
                for arg in value.args:
                    walk(arg)
            elif isinstance(value, (tuple, frozenset)):
                for item in value:
                    walk(item)
            elif isinstance(value, SigmaType):
                walk(value.guard)
                walk(value.others)
            elif isinstance(value, TGD):
                walk(value.atoms())

        for key in tgds._memo:
            walk(key)
        assert not seen & constants, (kind, seed)
        # Fresh stores intern sch(Σ) first, so every database shares one
        # pipeline entry.
        pipelines = [k for k in tgds._memo if isinstance(k, tuple) and k[0] == "pipeline"]
        assert len(pipelines) <= 1


def test_ucq_schema_criterion_matches_per_fact_criterion():
    """``witnessed_by`` reads ``sch(simple(D))``; the per-fact criterion
    it replaced simplifies every fact's predicate on its own."""
    violated = []
    for seed in range(60):
        tgds = random_linear_program(seed)
        if classify(tgds) is TGDClass.LINEAR:
            violated.extend(_check_ucq_criteria(tgds, seed))
    # Both answers occur, so the comparison is not vacuous.
    assert True in violated and False in violated


def _check_ucq_criteria(tgds: TGDSet, seed: int):
    ucq = build_termination_ucq(tgds)
    violating = ucq.violating_simplified_predicates
    for i in range(6):
        # Few constants, so facts with repeated arguments are common.
        database = random_database(tgds, seed=100 * seed + i, fact_count=2 + i, constant_count=2)
        per_fact = any(
            simplified_predicate(atom.predicate, id_tuple(atom.args)) in violating
            for atom in database
        )
        assert ucq.witnessed_by(database) is per_fact
        assert ucq.evaluate(database) is per_fact
        yield per_fact


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_store_matches_legacy_on_warm_memo(kind, seed):
    tgds = GENERATORS[kind](seed)
    first, second = databases_for(tgds, seed)[1:3]
    for runner in (semi_oblivious_chase, oblivious_chase):
        runner(first, tgds, budget=BUDGET, record_derivation=False)  # warm the memo
        store = runner(second, tgds, budget=BUDGET)
        legacy = runner(second, tgds, budget=BUDGET, engine="legacy")
        assert store.terminated == legacy.terminated
        if store.terminated:
            assert store.instance == legacy.instance
            assert store.statistics.triggers_applied == legacy.statistics.triggers_applied
            assert store.statistics.triggers_considered == legacy.statistics.triggers_considered


@pytest.mark.parametrize("seed", range(6))
def test_restricted_store_matches_legacy_on_warm_memo(seed):
    tgds = random_full_program(seed)
    first, second = databases_for(tgds, seed)[1:3]
    restricted_chase(first, tgds, budget=BUDGET, record_derivation=False)
    store = restricted_chase(second, tgds, budget=BUDGET)
    legacy = restricted_chase(second, tgds, budget=BUDGET, engine="legacy")
    assert store.terminated and legacy.terminated
    assert store.instance == legacy.instance
    assert store.statistics.triggers_considered == legacy.statistics.triggers_considered


def test_restricted_heavy_matches_legacy_on_warm_memo():
    database, tgds = restricted_heavy(10, 3)
    restricted_chase(database, tgds, budget=BUDGET, record_derivation=False)
    store = restricted_chase(database, tgds, budget=BUDGET)
    legacy = restricted_chase(database, tgds, budget=BUDGET, engine="legacy")
    assert store.size == legacy.size
    assert store.statistics.triggers_applied == legacy.statistics.triggers_applied
    assert store.statistics.triggers_considered == legacy.statistics.triggers_considered


def test_one_linearize_call_compiles_its_pipeline_once(monkeypatch):
    compiled = []

    class CountingPipeline(store_plan.StoreTriggerPipeline):
        def __init__(self, tgds, store):
            compiled.append(tgds)
            super().__init__(tgds, store)

    monkeypatch.setattr(store_plan, "StoreTriggerPipeline", CountingPipeline)
    tgds = GENERATORS["g"](2)
    database = databases_for(tgds, 2)[2]
    linearize(database, tgds)
    assert compiled == [tgds]


def test_threads_sharing_a_cold_program_agree():
    """Threads racing to fill one program's memo (pipelines, the lazy
    multi-atom head plan, lin(Σ) expansions) all get the serial answer."""
    rules = "A(x) -> exists z . B(x, z), C(z)\nB(x, z), C(z) -> D(x)\nD(x) -> exists w . B(x, w), C(w)"
    database = parse_database("A(a).\nA(b).\nC(c).\nB(a, c).")
    expected = restricted_chase(database, parse_program(rules)).instance
    tgds = parse_program(rules)
    results, errors = [], []

    def work():
        try:
            for _ in range(20):
                results.append(restricted_chase(database, tgds).instance)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [expected] * 80

