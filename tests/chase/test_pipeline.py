"""Compiled store trigger pipeline vs legacy rescan engine.

The compiled engine (the default, on the fact store) must be
observationally equivalent to the legacy per-round rescan it replaced:
same materialised instance for the deterministic variants, same
trigger-application counts for all three, on the paper's families and
on randomized programs.  The compiled rules themselves must carry the
trigger API's identities and results.
"""

import pytest

from repro.chase.engine import ChaseBudget
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.chase.store_plan import StoreCompiledRule, StoreTriggerPipeline
from repro.model.store import FactStore
from repro.generators.families import (
    example_7_1,
    fairness_example,
    guarded_lower_bound,
    linear_lower_bound,
    prop45_family,
    sl_lower_bound,
)
from repro.generators.random_programs import random_database, random_guarded_program

BUDGET = ChaseBudget(max_atoms=20_000, max_rounds=200)

FAMILIES = [
    ("prop45", prop45_family(6)),
    ("example71", example_7_1()),
    ("fairness", fairness_example()),
    ("sl", sl_lower_bound(2, 2, 2)),
    ("linear", linear_lower_bound(1, 2, 1)),
    ("guarded", guarded_lower_bound(1, 1, 1)),
]

VARIANTS = [semi_oblivious_chase, oblivious_chase, restricted_chase]


@pytest.mark.parametrize("name,workload", FAMILIES, ids=[n for n, _ in FAMILIES])
@pytest.mark.parametrize("runner", VARIANTS, ids=["semi", "oblivious", "restricted"])
def test_compiled_matches_legacy_on_families(name, workload, runner):
    database, tgds = workload
    compiled = runner(database, tgds, budget=BUDGET, record_derivation=False, compiled=True)
    legacy = runner(database, tgds, budget=BUDGET, record_derivation=False, compiled=False)
    assert compiled.terminated == legacy.terminated
    assert compiled.size == legacy.size
    assert compiled.statistics.triggers_applied == legacy.statistics.triggers_applied
    assert compiled.statistics.triggers_considered == legacy.statistics.triggers_considered
    if runner is not restricted_chase:
        # Oblivious/semi-oblivious results are order-independent, so the
        # instances must be identical atom for atom.
        assert compiled.instance == legacy.instance
        assert compiled.max_depth == legacy.max_depth


@pytest.mark.parametrize("seed", range(5))
def test_compiled_matches_legacy_on_random_guarded(seed):
    tgds = random_guarded_program(seed, rule_count=4)
    database = random_database(tgds, seed=seed + 500, fact_count=12, constant_count=3)
    for runner in (semi_oblivious_chase, oblivious_chase):
        compiled = runner(database, tgds, budget=BUDGET, record_derivation=False, compiled=True)
        legacy = runner(database, tgds, budget=BUDGET, record_derivation=False, compiled=False)
        assert compiled.instance == legacy.instance
        assert compiled.statistics.triggers_applied == legacy.statistics.triggers_applied


def test_derivation_recorded_with_compiled_engine():
    database, tgds = prop45_family(4)
    result = semi_oblivious_chase(database, tgds, record_derivation=True)
    assert result.terminated
    assert len(result.derivation) == result.statistics.triggers_applied
    for step in result.derivation:
        assert step.new_atoms
        assert step.trigger.tgd is result.derivation[0].trigger.tgd


def _seeded_store(database) -> FactStore:
    store = FactStore()
    for a in database:
        store.add_atom(a)
    return store


class TestCompiledRule:
    def test_trigger_and_keys_match_trigger_api(self):
        database, tgds = prop45_family(3)
        store = _seeded_store(database)
        rule = StoreCompiledRule(tgds[0], store, 0)
        canonicals = list(rule.initial_canonicals(store))
        assert canonicals

        def decode(ids):
            return tuple(store.term_of_id(t) for t in ids)

        for canonical in canonicals:
            trigger = rule.make_trigger(store, canonical)
            # Compact id keys carry the same identity as the Trigger API keys.
            assert decode(rule.frontier_ids(canonical)) == tuple(
                term for _, term in trigger.frontier_key()[1]
            )
            assert decode(canonical) == tuple(term for _, term in trigger.full_key()[1])
            # Compiled result facts decode to the Trigger result (both labellings).
            assert [
                store.decode_fact(pid, ids)
                for pid, ids in rule.result_facts(store, canonical)
            ] == trigger.result()
            full_binding = {name: term for name, term in trigger.homomorphism}
            assert [
                store.decode_fact(pid, ids)
                for pid, ids in rule.result_facts(store, canonical, full_labels=True)
            ] == trigger.result(null_binding=full_binding)

    def test_delta_routing_covers_all_body_predicates(self):
        database, tgds = prop45_family(3)
        store = _seeded_store(database)
        pipeline = StoreTriggerPipeline(tgds, store)
        routed = {store.predicate_of(pid) for _, _, pid in pipeline.delta_entries}
        assert routed == {a.predicate for t in tgds for a in t.body}

    def test_delta_triggers_force_each_new_atom(self):
        database, tgds = prop45_family(4)
        store = _seeded_store(database)
        pipeline = StoreTriggerPipeline(tgds, store)
        initial = pipeline.initial_pending(store, uses_frontier=True)
        # Treating every stored row as delta (all marks at zero)
        # reproduces the initial enumeration: every body atom can be
        # the forced one.
        marks = [0] * len(store.row_marks())
        from_delta = pipeline.delta_pending_rows(store, marks, uses_frontier=True)
        assert initial
        assert set(initial) == set(from_delta)
