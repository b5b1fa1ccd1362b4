"""Property tests for the fact store's intern/decode round trips.

The store's contract is that packing an instance into id tuples and
decoding it back is the identity, that decoded nulls are *equal* (same
intern uid) to the structurally labelled nulls the legacy engine
builds, and that the canonical fingerprint machinery cannot tell a
store-produced instance from a legacy-produced one — in particular
under consistent relabelling of nulls.
"""

from hypothesis import given, settings, strategies as st

from repro.chase.engine import ChaseBudget
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.generators.random_programs import (
    random_database,
    random_guarded_program,
    random_simple_linear_program,
)
from repro.model.serialization import canonical_instance_text
from repro.model.store import FactStore

BUDGET = ChaseBudget(max_atoms=2_000, max_rounds=500)

program_seeds = st.integers(min_value=0, max_value=150)
database_seeds = st.integers(min_value=0, max_value=150)


def chase_instance(program_seed: int, database_seed: int, guarded: bool = False):
    make = random_guarded_program if guarded else random_simple_linear_program
    tgds = make(program_seed)
    database = random_database(tgds, database_seed, fact_count=6)
    result = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="store"
    )
    return result.instance


@settings(max_examples=25, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_intern_decode_round_trip(program_seed, database_seed):
    """Re-interning a decoded chase result and decoding again is the
    identity — including the nulls invented by the store."""
    instance = chase_instance(program_seed, database_seed)
    store = FactStore()
    packed = [store.add_atom(a) for a in instance]
    assert len(store) == len(instance)
    assert store.to_instance() == instance
    for (pid, ids), original in zip(packed, instance):
        assert store.decode_fact(pid, ids) == original


@settings(max_examples=25, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_store_nulls_equal_legacy_nulls(program_seed, database_seed):
    """The store's lazily decoded nulls carry the same structural label
    — hence the same intern uid — as the legacy engine's."""
    tgds = random_simple_linear_program(program_seed)
    database = random_database(tgds, database_seed, fact_count=6)
    store_run = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="store"
    )
    legacy_run = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="legacy"
    )
    assert store_run.terminated == legacy_run.terminated
    if store_run.terminated:
        # Only a fixpoint is order-independent: a budget-stopped run is
        # whatever prefix of the round fit, which legitimately differs
        # with trigger order between engines.
        assert store_run.instance == legacy_run.instance


@settings(max_examples=15, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_fingerprint_invariant_under_null_relabelling(program_seed, database_seed):
    """Chasing the same input twice in fresh processes would relabel
    every null uid; the canonical fingerprint must not notice.  Here
    the relabelling is simulated by re-interning through a fresh store
    (which reassigns every dense id) and by comparing against the
    legacy engine's independently labelled run."""
    tgds = random_guarded_program(program_seed, rule_count=3)
    database = random_database(tgds, database_seed, fact_count=5)
    store_run = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="store"
    )
    if not store_run.terminated or store_run.size > 200:
        return
    legacy_run = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="legacy"
    )
    fingerprint = canonical_instance_text(store_run.instance)
    assert fingerprint == canonical_instance_text(legacy_run.instance)
    reinterned = FactStore()
    for a in store_run.instance:
        reinterned.add_atom(a)
    assert canonical_instance_text(reinterned.to_instance()) == fingerprint


@settings(max_examples=15, deadline=None)
@given(
    chain_length=st.integers(min_value=2, max_value=10),
    payloads=st.integers(min_value=1, max_value=5),
)
def test_restricted_results_are_engine_invariant(chain_length, payloads):
    """On the order-invariant restricted-heavy family, both engines fire
    the same triggers, and restricted nulls carry frontier labels, so
    the instances are equal atom for atom."""
    from repro.generators.workloads import restricted_heavy

    database, tgds = restricted_heavy(chain_length, payloads)
    store_run = restricted_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="store"
    )
    legacy_run = restricted_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="legacy"
    )
    assert store_run.terminated and legacy_run.terminated
    assert store_run.size == legacy_run.size
    assert store_run.statistics.triggers_applied == legacy_run.statistics.triggers_applied
    assert store_run.instance == legacy_run.instance


@settings(max_examples=20, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_snapshot_round_trip_preserves_everything(program_seed, database_seed):
    """restore(snapshot(s)) preserves fingerprints, posting lists and
    null decode recipes, for chase-result stores full of invented
    nulls."""
    tgds = random_simple_linear_program(program_seed)
    database = random_database(tgds, database_seed, fact_count=6)
    result = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="store"
    )
    snapshot = result.store_snapshot()
    assert snapshot is not None
    restored = FactStore.restore(snapshot)
    assert len(restored) == result.size
    assert restored.max_depth() == result.max_depth
    instance = result.instance
    assert restored.to_instance() == instance
    assert canonical_instance_text(restored.to_instance()) == (
        canonical_instance_text(instance)
    )
    # Per-predicate posting lists decode to the same fact sets.
    for pid in range(len(restored._pred_of)):
        predicate = restored.predicate_of(pid)
        assert restored.count(pid) == sum(
            1 for a in instance if a.predicate == predicate
        )


@settings(max_examples=20, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_snapshot_round_trip_is_byte_stable(program_seed, database_seed):
    """A snapshot restores to identical decoded content, and the
    restored store re-snapshots byte for byte (restore preserves fact
    order exactly)."""
    instance = chase_instance(program_seed, database_seed)
    source = FactStore()
    for a in instance:
        source.add_atom(a)
    blob = source.snapshot()
    restored = FactStore.restore(blob)
    assert restored.to_instance() == instance
    assert restored.snapshot() == blob


@settings(max_examples=15, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_resume_from_prefix_matches_cold_chase(program_seed, database_seed):
    """Property form of incremental re-chase: for a random terminating
    run, chase(D) == resume(chase(prefix), D) atom for atom."""
    from repro.model.instance import Database
    from repro.model.serialization import atom_to_text

    tgds = random_simple_linear_program(program_seed)
    database = random_database(tgds, database_seed, fact_count=8)
    cold = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="store"
    )
    if not cold.terminated:
        return
    facts = sorted(database, key=atom_to_text)
    prefix = Database(facts[: max(1, len(facts) * 2 // 3)])
    base = semi_oblivious_chase(
        prefix, tgds, budget=BUDGET, record_derivation=False, engine="store"
    )
    if not base.terminated:
        return
    resumed = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="store",
        resume_from=base.store_snapshot(),
    )
    assert resumed.terminated
    assert resumed.database_size == cold.database_size
    assert resumed.instance == cold.instance
    assert canonical_instance_text(resumed.instance) == (
        canonical_instance_text(cold.instance)
    )
