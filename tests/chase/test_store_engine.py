"""Store-backed engines vs the ``engine="legacy"`` reference baseline.

The randomized-program equivalence suite of the interned-fact-store
PR: across all three chase variants, the store engine must reproduce
the legacy engine's results — instances atom for atom where the
variant's result is order-independent, canonical fingerprints, trigger
counts, derivation step sets, and budget outcomes.  Restricted nulls
carry the semi-oblivious frontier label, so restricted instances are
compared exactly too, on the programs whose restricted result does not
depend on trigger order (``restricted_heavy`` and existential-free
programs, whose restricted result is the unique full closure).
"""

import json
import subprocess
import sys

import pytest

from repro.chase.engine import BaseChaseEngine, ChaseBudget, ChaseOutcome, EngineCheckpoint
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import SemiObliviousChase, semi_oblivious_chase
from repro.generators.families import (
    example_7_1,
    fairness_example,
    guarded_lower_bound,
    intro_nonterminating_example,
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
from repro.model.serialization import canonical_instance_text
from repro.obs.observer import RunObserver

BUDGET = ChaseBudget(max_atoms=20_000, max_rounds=200)

FAMILIES = [
    ("prop45", prop45_family(6)),
    ("example71", example_7_1()),
    ("fairness", fairness_example()),
    ("sl", sl_lower_bound(2, 2, 2)),
    ("linear", linear_lower_bound(1, 2, 1)),
    ("guarded", guarded_lower_bound(1, 1, 1)),
    ("restricted-heavy", restricted_heavy(12, 4)),
]

VARIANTS = [semi_oblivious_chase, oblivious_chase, restricted_chase]
VARIANT_IDS = ["semi", "oblivious", "restricted"]

#: Families whose restricted-chase result does not depend on the order
#: triggers are applied within a round (restricted_heavy is built that
#: way — see its docstring).  Cross-engine restricted comparisons are
#: exact only on these; elsewhere the legacy engine's hash-order
#: enumeration makes the comparison seed-dependent (a latent flake
#: this suite used to carry).
RESTRICTED_ORDER_INVARIANT = {"restricted-heavy"}


def derivation_atoms(result):
    """The multiset of atoms the recorded derivation produced.

    Which of two triggers with the same result gets recorded as the
    producer is order-dependent, so cross-engine comparison is over the
    *produced atoms*: each atom is added exactly once, making this
    stable.  Nulls are process-interned by structure, so equal nulls
    print identically across engines.
    """
    return sorted(str(a) for step in result.derivation for a in step.new_atoms)


def assert_derivation_faithful(result, database):
    """Every recorded step produced real atoms, together they account
    exactly for everything derived beyond the database, and every
    guard image lies in the result."""
    produced = [a for step in result.derivation for a in step.new_atoms]
    assert len(produced) == len(set(produced))  # each atom added once
    assert set(produced) == set(result.instance.atoms()) - set(database)
    assert all(step.new_atoms for step in result.derivation)
    assert len(result.derivation) <= result.statistics.triggers_applied
    instance = result.instance
    assert all(
        step.guard_image in instance
        for step in result.derivation
        if step.guard_image is not None
    )


@pytest.mark.parametrize("name,workload", FAMILIES, ids=[n for n, _ in FAMILIES])
@pytest.mark.parametrize("runner", VARIANTS, ids=VARIANT_IDS)
def test_store_matches_legacy_on_families(name, workload, runner):
    database, tgds = workload
    store = runner(database, tgds, budget=BUDGET, engine="store")
    legacy = runner(database, tgds, budget=BUDGET, engine="legacy")
    assert store.terminated == legacy.terminated
    assert store.outcome == legacy.outcome
    assert_derivation_faithful(store, database)
    if not store.terminated:
        # A budget-stopped run is whatever prefix of the round fit,
        # which is order-dependent; only the stop reason is comparable.
        return
    if runner is restricted_chase and name not in RESTRICTED_ORDER_INVARIANT:
        # The restricted chase is order-dependent in general, and the
        # legacy engine's trigger order shifts with string-hash
        # randomisation and process-global null-uid state — so exact
        # cross-engine comparison is only sound on families whose
        # restricted result is order-invariant by construction.
        return
    assert store.size == legacy.size
    assert store.statistics.triggers_applied == legacy.statistics.triggers_applied
    assert (
        store.statistics.triggers_considered
        == legacy.statistics.triggers_considered
    )
    assert store.instance == legacy.instance
    assert store.max_depth == legacy.max_depth
    assert derivation_atoms(store) == derivation_atoms(legacy)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "make_program",
    [random_simple_linear_program, random_linear_program, random_guarded_program],
    ids=["sl", "linear", "guarded"],
)
def test_store_matches_legacy_on_random_programs(seed, make_program):
    tgds = make_program(seed, rule_count=4)
    database = random_database(tgds, seed=seed + 500, fact_count=12, constant_count=3)
    for runner in (semi_oblivious_chase, oblivious_chase):
        store = runner(database, tgds, budget=BUDGET, engine="store")
        legacy = runner(database, tgds, budget=BUDGET, engine="legacy")
        assert store.terminated == legacy.terminated
        if not store.terminated:
            continue  # a budget-stopped prefix is order-dependent
        assert store.instance == legacy.instance
        assert store.max_depth == legacy.max_depth
        assert store.statistics.triggers_applied == legacy.statistics.triggers_applied
        assert derivation_atoms(store) == derivation_atoms(legacy)
        assert_derivation_faithful(store, database)


@pytest.mark.parametrize("seed", range(8))
def test_store_fingerprints_match_legacy_on_random_programs(seed):
    tgds = random_guarded_program(seed, rule_count=3)
    database = random_database(tgds, seed=seed + 900, fact_count=8, constant_count=3)
    store = semi_oblivious_chase(database, tgds, budget=BUDGET, engine="store")
    legacy = semi_oblivious_chase(database, tgds, budget=BUDGET, engine="legacy")
    if store.terminated and store.size <= 300:
        assert canonical_instance_text(store.instance) == canonical_instance_text(
            legacy.instance
        )


@pytest.mark.parametrize("seed", range(10))
def test_restricted_store_matches_legacy_on_full_programs(seed):
    # Existential-free programs: the restricted result is the unique
    # closure, so the engines must agree atom for atom — including
    # derivation step sets.
    tgds = random_full_program(seed)
    database = random_database(tgds, seed=seed + 700, fact_count=12, constant_count=3)
    store = restricted_chase(database, tgds, budget=BUDGET, engine="store")
    legacy = restricted_chase(database, tgds, budget=BUDGET, engine="legacy")
    assert store.terminated and legacy.terminated
    # The closure is unique; which of two same-round triggers derives a
    # shared atom first is not, so applied counts are not compared.
    assert store.instance == legacy.instance
    assert store.statistics.triggers_considered == legacy.statistics.triggers_considered
    assert derivation_atoms(store) == derivation_atoms(legacy)
    assert_derivation_faithful(store, database)


@pytest.mark.parametrize("seed", range(5))
def test_restricted_activeness_matches_reference_search(seed):
    """The consolidated activeness implementation stays anchored to the
    executable specification: ``Trigger.is_active_restricted`` (the
    legacy engine's test, via ``head_extension_exists``) must agree
    with a direct head search seeded by the frontier on every trigger
    of a randomized instance."""
    from repro.chase.trigger import Trigger
    from repro.model.homomorphism import find_homomorphisms

    tgds = random_guarded_program(seed, rule_count=3)
    database = random_database(tgds, seed=seed + 300, fact_count=10, constant_count=3)
    instance = semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, engine="legacy"
    ).instance
    checked = 0
    for tgd in tgds:
        for substitution in find_homomorphisms(tgd.body, instance):
            trigger = Trigger.from_substitution(tgd, substitution)
            frontier_seed = {v: substitution[v] for v in tgd.frontier()}
            reference_active = (
                next(
                    find_homomorphisms(tgd.head, instance, seed=frontier_seed),
                    None,
                )
                is None
            )
            assert trigger.is_active_restricted(instance) == reference_active
            checked += 1
    assert checked  # the random programs always admit some trigger


class TestBudgetEquivalence:
    def test_atom_budget_stops_identically(self):
        database, tgds = intro_nonterminating_example()
        budget = ChaseBudget(max_atoms=25)
        store = semi_oblivious_chase(database, tgds, budget=budget, engine="store")
        legacy = semi_oblivious_chase(database, tgds, budget=budget, engine="legacy")
        assert store.outcome == legacy.outcome
        assert not store.terminated
        assert store.size == legacy.size
        assert store.instance == legacy.instance

    def test_depth_budget_stops_identically(self):
        database, tgds = intro_nonterminating_example()
        budget = ChaseBudget(max_depth=5)
        store = semi_oblivious_chase(database, tgds, budget=budget, engine="store")
        legacy = semi_oblivious_chase(database, tgds, budget=budget, engine="legacy")
        assert store.outcome == legacy.outcome
        assert store.instance == legacy.instance
        assert store.max_depth == legacy.max_depth

    def test_depth_truncation_matches(self):
        database, tgds = intro_nonterminating_example()
        budget = ChaseBudget(max_depth=4, truncate_at_depth=True, max_rounds=50)
        store = semi_oblivious_chase(database, tgds, budget=budget, engine="store")
        legacy = semi_oblivious_chase(database, tgds, budget=budget, engine="legacy")
        assert store.depth_truncated and legacy.depth_truncated
        assert store.instance == legacy.instance
        assert store.max_depth == legacy.max_depth == 4

    def test_round_budget_stops_identically(self):
        database, tgds = intro_nonterminating_example()
        budget = ChaseBudget(max_rounds=7)
        store = semi_oblivious_chase(database, tgds, budget=budget, engine="store")
        legacy = semi_oblivious_chase(database, tgds, budget=budget, engine="legacy")
        assert store.outcome == legacy.outcome
        assert store.instance == legacy.instance


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        _, tgds = intro_nonterminating_example()
        with pytest.raises(ValueError):
            SemiObliviousChase(tgds, engine="turbo")

    def test_default_engine_is_store(self):
        _, tgds = intro_nonterminating_example()
        assert SemiObliviousChase(tgds).engine == "store"

    def test_base_store_evaluate_raises(self):
        _, tgds = intro_nonterminating_example()
        engine = BaseChaseEngine(tgds)
        with pytest.raises(NotImplementedError):
            engine.store_evaluate(None, None, (), ())


class TestLazyMaterialisation:
    def test_summary_needs_no_instance(self):
        database, tgds = prop45_family(5)
        result = semi_oblivious_chase(database, tgds, record_derivation=False)
        assert result._materialized is None  # store engine: not decoded yet
        summary = result.summary()
        assert result._materialized is None  # summary() alone never decodes
        assert summary["size"] == result.size
        instance = result.instance  # first access decodes...
        assert result._materialized is instance
        assert result._store is None  # ...and drops the store
        assert len(instance) == summary["size"]

    def test_size_agrees_before_and_after_decode(self):
        database, tgds = sl_lower_bound(2, 2, 1)
        result = semi_oblivious_chase(database, tgds, record_derivation=False)
        before = result.size
        assert len(result.instance) == before == result.size


def test_store_derivation_order_is_hash_seed_independent():
    """The store engine's data plane is keyed by ints, so its trigger
    order — and with it the recorded derivation — does not depend on
    string-hash randomisation, unlike ``Set[Atom]`` iteration."""
    script = (
        "from repro.generators.families import prop45_family\n"
        "from repro.chase.semi_oblivious import semi_oblivious_chase\n"
        "import json\n"
        "db, tgds = prop45_family(6)\n"
        "r = semi_oblivious_chase(db, tgds, engine='store')\n"
        "keys = [[s.trigger.tgd.rule_id, [[n, str(t)] for n, t in s.trigger.homomorphism]]\n"
        "        for s in r.derivation]\n"
        "print(json.dumps(keys))\n"
    )

    import os

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

    def run(seed: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": seed},
        ).stdout

    assert json.loads(run("1")) == json.loads(run("2"))


# ---------------------------------------------------------------------------
# Store driver modes: summary, derivation recording, depth truncation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("runner", VARIANTS, ids=VARIANT_IDS)
def test_columnar_driver_matches_recording_driver(runner):
    """Summary runs (add-first) and derivation-recording runs
    (evaluate-first) of the store driver must agree on everything a
    summary reports."""
    database, tgds = restricted_heavy(12, 4)
    lean = runner(database, tgds, budget=BUDGET, record_derivation=False, engine="store")
    general = runner(database, tgds, budget=BUDGET, record_derivation=True, engine="store")
    assert lean.summary() == general.summary()
    assert lean.instance == general.instance


#: SL/L/G families (plus the paper's non-terminating intro example)
#: whose depth-truncated chase cuts facts at some depth in 2..5.
TRUNCATION_FAMILIES = [
    ("sl", sl_lower_bound(3, 2, 2)),
    ("linear", linear_lower_bound(1, 2, 1)),
    ("guarded", guarded_lower_bound(1, 1, 1)),
    ("intro", intro_nonterminating_example()),
]


def assert_truncated_run_matches_legacy(runner, database, tgds, max_depth, record):
    """Depth truncation on the store driver reproduces the legacy run:
    same instance, same ``depth_truncated``, same statistics."""
    budget = ChaseBudget(
        max_atoms=20_000, max_rounds=200, max_depth=max_depth, truncate_at_depth=True
    )
    store = runner(database, tgds, budget=budget, record_derivation=record, engine="store")
    legacy = runner(
        database, tgds, budget=budget, record_derivation=record, engine="legacy"
    )
    assert store.instance == legacy.instance
    assert store.max_depth == legacy.max_depth <= max_depth
    # summary() covers outcome, depth_truncated, rounds and the
    # considered/applied/created counters.
    assert store.summary() == legacy.summary()
    if record:
        assert derivation_atoms(store) == derivation_atoms(legacy)
        assert_derivation_faithful(store, database)
    return store


@pytest.mark.parametrize("record", [False, True], ids=["summary", "derivation"])
@pytest.mark.parametrize("max_depth", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "name,workload", TRUNCATION_FAMILIES, ids=[n for n, _ in TRUNCATION_FAMILIES]
)
@pytest.mark.parametrize(
    "runner", [semi_oblivious_chase, oblivious_chase], ids=["semi", "oblivious"]
)
def test_truncated_store_matches_legacy_on_families(
    runner, name, workload, max_depth, record
):
    database, tgds = workload
    assert_truncated_run_matches_legacy(runner, database, tgds, max_depth, record)


def test_truncation_counts_triggers_whose_cut_facts_were_the_only_new_ones():
    """A trigger whose missing result facts were all cut, while its
    kept facts were already present, adds nothing yet counts as
    applied — the case the add-first shortcut would miss."""
    database, tgds = sl_lower_bound(3, 2, 2)
    result = assert_truncated_run_matches_legacy(
        semi_oblivious_chase, database, tgds, max_depth=2, record=True
    )
    assert result.depth_truncated
    assert result.statistics.triggers_applied > len(result.derivation)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "make_program",
    [random_simple_linear_program, random_linear_program, random_guarded_program],
    ids=["sl", "linear", "guarded"],
)
def test_truncated_store_matches_legacy_on_random_programs(seed, make_program):
    tgds = make_program(seed, rule_count=4)
    database = random_database(tgds, seed=seed + 250, fact_count=10, constant_count=3)
    for runner in (semi_oblivious_chase, oblivious_chase):
        for max_depth in (2, 3, 4, 5):
            assert_truncated_run_matches_legacy(
                runner, database, tgds, max_depth, record=max_depth == 3
            )


def assert_depth_budget_matches_legacy(runner, database, tgds, max_depth):
    """A summary run under a depth budget (no truncation) on the store
    driver stops exactly where the legacy run does: same outcome, same
    statistics, same instance."""
    budget = ChaseBudget(max_atoms=20_000, max_rounds=200, max_depth=max_depth)
    store = runner(database, tgds, budget=budget, record_derivation=False, engine="store")
    legacy = runner(
        database, tgds, budget=budget, record_derivation=False, engine="legacy"
    )
    assert store.summary() == legacy.summary()
    assert store.instance == legacy.instance
    return store


@pytest.mark.parametrize("max_depth", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "name,workload", TRUNCATION_FAMILIES, ids=[n for n, _ in TRUNCATION_FAMILIES]
)
@pytest.mark.parametrize(
    "runner", [semi_oblivious_chase, oblivious_chase], ids=["semi", "oblivious"]
)
def test_depth_budget_summary_runs_match_legacy(runner, name, workload, max_depth):
    database, tgds = workload
    assert_depth_budget_matches_legacy(runner, database, tgds, max_depth)


@pytest.mark.parametrize(
    "runner", [semi_oblivious_chase, oblivious_chase], ids=["semi", "oblivious"]
)
@pytest.mark.parametrize("max_depth", [2, 3, 4])
def test_depth_budget_over_a_database_deeper_than_the_limit(runner, max_depth):
    """An input already holding nulls deeper than the limit: every new
    fact is checked, so a rule without existentials that copies a deep
    null trips the budget, exactly as in the legacy loop."""
    from repro.model.parser import parse_program

    chain, program = intro_nonterminating_example()
    deep = semi_oblivious_chase(
        chain, program, budget=ChaseBudget(max_rounds=6), record_derivation=False
    ).instance
    assert deep.max_depth() > max_depth
    # The rule without existentials comes first, so its copy of a deep
    # null is the first new fact over the limit.
    tgds = parse_program("R(x, y) -> Q(y)\nR(x, y) -> exists z . R(y, z)")
    store = assert_depth_budget_matches_legacy(runner, deep, tgds, max_depth)
    assert store.outcome is ChaseOutcome.DEPTH_BUDGET_EXCEEDED
    # Q(b), then Q of the chain's nulls of depths 1 .. max_depth + 1.
    assert store.statistics.triggers_applied == max_depth + 2


class TestCheckpointResume:
    def _checkpointed(self, database, tgds, at_round, runner=semi_oblivious_chase):
        """An uninterrupted summary run plus a checkpoint of its state
        at the end of round ``at_round``."""
        captured = []

        class Capture(RunObserver):
            def round_end(self, rounds, store, marks, totals, complete):
                if rounds == at_round:
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

        full = runner(
            database, tgds, budget=BUDGET, record_derivation=False,
            observers=[Capture()],
        )
        return full, captured[0]

    @pytest.mark.parametrize("runner", VARIANTS, ids=VARIANT_IDS)
    def test_resumed_run_matches_uninterrupted_run(self, runner):
        database, tgds = sl_lower_bound(2, 2, 2)
        full, checkpoint = self._checkpointed(database, tgds, at_round=1, runner=runner)
        resumed = runner(
            database, tgds, budget=BUDGET, record_derivation=False,
            checkpoint=checkpoint,
        )
        assert resumed.summary() == full.summary()
        assert resumed.instance == full.instance

    @pytest.mark.parametrize(
        "budget,record",
        [
            (BUDGET, True),
            (ChaseBudget(max_depth=3, truncate_at_depth=True), False),
        ],
        ids=["derivation", "truncation"],
    )
    def test_checkpoint_refuses_derivation_and_truncation(self, budget, record):
        # The checkpoint blob carries neither the derivation prefix nor
        # the depth_truncated flag, so such runs must restart cold.
        database, tgds = sl_lower_bound(2, 2, 2)
        _, checkpoint = self._checkpointed(database, tgds, at_round=1)
        with pytest.raises(ValueError, match="checkpoint"):
            semi_oblivious_chase(
                database, tgds, budget=budget, record_derivation=record,
                checkpoint=checkpoint,
            )


# ---------------------------------------------------------------------------
# Incremental re-chase: chase(D ∪ Δ) vs resume_from(chase(D)) + Δ
# ---------------------------------------------------------------------------


def _prefix_split(database, fraction: float = 0.75):
    from repro.model.instance import Database
    from repro.model.serialization import atom_to_text

    facts = sorted(database, key=atom_to_text)
    keep = max(1, int(len(facts) * fraction))
    return Database(facts[:keep])


def _resume_pair(runner, database, tgds, **kwargs):
    """(cold result, resumed result) for a prefix + delta split."""
    prefix = _prefix_split(database)
    base = runner(prefix, tgds, budget=BUDGET, record_derivation=False, engine="store",
                  **kwargs)
    if not base.terminated:
        return None, None
    snapshot = base.store_snapshot()
    assert snapshot is not None
    resumed = runner(
        database, tgds, budget=BUDGET, record_derivation=False, engine="store",
        resume_from=snapshot, **kwargs,
    )
    cold = runner(database, tgds, budget=BUDGET, record_derivation=False, engine="store",
                  **kwargs)
    return cold, resumed


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "make_program",
    [random_simple_linear_program, random_linear_program, random_guarded_program],
    ids=["sl", "linear", "guarded"],
)
@pytest.mark.parametrize(
    "runner", [semi_oblivious_chase, oblivious_chase], ids=["semi", "oblivious"]
)
def test_resume_matches_cold_chase_on_random_programs(seed, make_program, runner):
    """Unique-result variants: prefix + snapshot + delta == cold run,
    atom for atom (equal nulls included) and fingerprint for
    fingerprint."""
    tgds = make_program(seed, rule_count=4)
    database = random_database(tgds, seed=seed + 640, fact_count=12, constant_count=3)
    cold, resumed = _resume_pair(runner, database, tgds)
    if cold is None or not cold.terminated:
        return  # budget-stopped runs are order-dependent prefixes
    assert resumed.terminated
    assert resumed.size == cold.size
    assert resumed.max_depth == cold.max_depth
    assert resumed.database_size == cold.database_size
    assert resumed.instance == cold.instance
    assert canonical_instance_text(resumed.instance) == (
        canonical_instance_text(cold.instance)
    )


@pytest.mark.parametrize("seed", range(8))
def test_restricted_resume_matches_cold_on_full_programs(seed):
    """Existential-free programs: the restricted result is the unique
    closure, so resume and cold runs agree exactly."""
    tgds = random_full_program(seed)
    database = random_database(tgds, seed=seed + 820, fact_count=12, constant_count=3)
    cold, resumed = _resume_pair(restricted_chase, database, tgds)
    if cold is None or not cold.terminated:
        return
    assert resumed.instance == cold.instance


@pytest.mark.parametrize("chain_length,payloads", [(12, 4), (20, 10), (8, 8)])
@pytest.mark.parametrize("runner", VARIANTS, ids=VARIANT_IDS)
def test_resume_matches_cold_on_restricted_heavy(chain_length, payloads, runner):
    """All three variants on the order-invariant family: chasing the
    full database equals chasing a payload prefix, snapshotting, and
    resuming with the delta, atom for atom."""
    from repro.model.instance import Database

    if runner is oblivious_chase and chain_length > 12:
        pytest.skip("oblivious blowup on long chains")
    database, tgds = restricted_heavy(chain_length, payloads)
    budget = ChaseBudget(max_atoms=300_000, max_rounds=1_000)
    delta_tags = {f"t{payloads}", f"t{payloads - 1}"}
    prefix = Database(
        [
            a
            for a in database
            if not (a.predicate.name == "P" and a.args[1].name in delta_tags)
        ]
    )
    base = runner(prefix, tgds, budget=budget, record_derivation=False, engine="store")
    assert base.terminated
    resumed = runner(
        database, tgds, budget=budget, record_derivation=False, engine="store",
        resume_from=base.store_snapshot(),
    )
    cold = runner(database, tgds, budget=budget, record_derivation=False, engine="store")
    assert resumed.terminated and cold.terminated
    assert resumed.size == cold.size
    assert resumed.database_size == cold.database_size
    assert resumed.instance == cold.instance


@pytest.mark.parametrize(
    "runner,chain_length",
    [(semi_oblivious_chase, 20), (oblivious_chase, 6), (restricted_chase, 20)],
    ids=VARIANT_IDS,
)
def test_resume_over_a_small_delta_considers_a_third_of_the_cold_work(runner, chain_length):
    """Incremental re-chase pays for the delta, not the whole instance.

    Resuming over a database delta of 3 of 40 payloads (3 of 59 facts
    on the 20-chain; the oblivious chase repeats the echo rules' nulls,
    so it runs the 6-chain) considers at most a third of the cold run's
    triggers and decodes the cold run's instance, atom for atom (nulls
    are labelled by trigger key, and restricted_heavy's result does not
    depend on application order).  A work count rather than a timing,
    so the gate is deterministic.
    """
    database, tgds = restricted_heavy(chain_length, 40)
    base_database, _ = restricted_heavy(chain_length, 37)
    assert set(base_database) <= set(database)
    base = runner(base_database, tgds, record_derivation=False, engine="store")
    cold = runner(database, tgds, record_derivation=False, engine="store")
    resumed = runner(
        database, tgds, record_derivation=False, engine="store",
        resume_from=base.store_snapshot(),
    )
    assert resumed.terminated and cold.terminated
    assert 3 * resumed.statistics.triggers_considered <= cold.statistics.triggers_considered
    assert resumed.instance == cold.instance


def test_resume_requires_store_engine():
    database, tgds = restricted_heavy(8, 2)
    base = semi_oblivious_chase(database, tgds, record_derivation=False, engine="store")
    snapshot = base.store_snapshot()
    with pytest.raises(ValueError, match="resume_from requires the store engine"):
        semi_oblivious_chase(database, tgds, engine="legacy", resume_from=snapshot)


def test_resume_with_empty_delta_is_a_fast_noop():
    database, tgds = restricted_heavy(10, 3)
    base = semi_oblivious_chase(database, tgds, record_derivation=False, engine="store")
    resumed = semi_oblivious_chase(
        database, tgds, record_derivation=False, engine="store",
        resume_from=base.store_snapshot(),
    )
    assert resumed.terminated
    assert resumed.size == base.size
    assert resumed.statistics.rounds == 1  # one empty delta round
    assert resumed.instance == base.instance


def test_resume_accepts_a_live_fact_store():
    from repro.model.store import FactStore

    database, tgds = restricted_heavy(10, 4)
    prefix = _prefix_split(database)
    base = semi_oblivious_chase(prefix, tgds, record_derivation=False, engine="store")
    store = FactStore.restore(base.store_snapshot())
    resumed = semi_oblivious_chase(
        database, tgds, record_derivation=False, engine="store", resume_from=store,
    )
    cold = semi_oblivious_chase(database, tgds, record_derivation=False, engine="store")
    assert resumed.instance == cold.instance


def test_database_may_be_a_fact_store():
    from repro.model.store import FactStore
    from repro.runtime.jobs import encode_database_snapshot

    database, tgds = restricted_heavy(10, 4)
    seeded = semi_oblivious_chase(
        FactStore.restore(encode_database_snapshot(database)),
        tgds,
        record_derivation=False,
        engine="store",
    )
    plain = semi_oblivious_chase(database, tgds, record_derivation=False, engine="store")
    assert seeded.database_size == len(database)
    assert seeded.instance == plain.instance
    assert seeded.summary() == plain.summary()


@pytest.mark.parametrize("runner", VARIANTS, ids=VARIANT_IDS)
def test_an_instance_with_nulls_chases_like_its_restored_snapshot(runner):
    """A fresh store seeded from an instance that holds labelled nulls
    gives them their recipes, as a snapshot restore does: a re-invented
    input null is found, not counted as invented."""
    from repro.model.parser import parse_database, parse_program
    from repro.model.store import FactStore
    from repro.obs.probe import ChaseProbe

    program = parse_program(
        "R(x, y) -> exists z . S(y, z)\n"
        "S(x, y) -> exists w . R(y, w)\n"
        "S(x, y), R(y, u) -> T(x, u)"
    )
    instance = semi_oblivious_chase(
        parse_database("R(a, b).\nR(b, c)."), program,
        budget=ChaseBudget(max_rounds=3), record_derivation=False,
    ).instance
    assert any(t.is_null for atom in instance for t in atom.args)
    seeded = FactStore()
    for atom in instance:
        seeded.add_atom(atom)
    budget = ChaseBudget(max_rounds=6, max_atoms=5000)
    direct_probe, restored_probe = ChaseProbe(), ChaseProbe()
    direct = runner(
        instance, program, budget=budget, record_derivation=False, observers=[direct_probe]
    )
    restored = runner(
        FactStore.restore(seeded.snapshot()), program, budget=budget,
        record_derivation=False, observers=[restored_probe],
    )
    assert direct_probe.total_nulls_invented == restored_probe.total_nulls_invented
    assert [s.nulls_invented for s in direct_probe.samples] == [
        s.nulls_invented for s in restored_probe.samples
    ]
    assert direct.statistics.triggers_applied == restored.statistics.triggers_applied
    assert canonical_instance_text(direct.instance) == canonical_instance_text(
        restored.instance
    )


# ---------------------------------------------------------------------------
# Add-first runs settle their depth where nulls are born
# ---------------------------------------------------------------------------


def _fresh_fold(store):
    return max((store.fact_depth(ids) for rows in store._rows for ids in rows), default=0)


def assert_settled_depth(result):
    """The settled maximum equals a fold of the stored facts: in the
    result, in the snapshot header and in the decoded instance."""
    from repro.model.store import inspect_snapshot

    store = result._store
    header = inspect_snapshot(result.store_snapshot())
    assert header["max_depth"] == _fresh_fold(store)
    assert result.max_depth == _fresh_fold(store)
    assert result.max_depth == result.instance.max_depth()


SETTLE_RUNNERS = [semi_oblivious_chase, oblivious_chase]


@pytest.mark.parametrize("runner", SETTLE_RUNNERS, ids=["semi", "oblivious"])
@pytest.mark.parametrize(
    "name,workload", TRUNCATION_FAMILIES, ids=[n for n, _ in TRUNCATION_FAMILIES]
)
def test_add_first_runs_settle_the_folded_depth(runner, name, workload):
    """A fresh run, a resumed run and a checkpoint restart, each stopped
    by a depth budget or run to its end: the depth an add-first run keeps
    where nulls are born is the fold's.  A settle that ignored the seeded
    store's depth, or missed a null's, fails here."""
    database, tgds = workload
    for budget in (BUDGET, BUDGET.replace(max_depth=3)):
        assert_settled_depth(
            runner(database, tgds, budget=budget, record_derivation=False)
        )
        base = runner(_prefix_split(database), tgds, budget=BUDGET, record_derivation=False)
        if base.terminated:
            assert_settled_depth(
                runner(database, tgds, budget=budget, record_derivation=False,
                       resume_from=base.store_snapshot())
            )
    full, checkpoint = TestCheckpointResume()._checkpointed(
        database, tgds, at_round=2, runner=runner
    )
    restarted = runner(
        database, tgds, budget=BUDGET, record_derivation=False, checkpoint=checkpoint
    )
    assert restarted.max_depth == full.max_depth
    assert_settled_depth(restarted)


@pytest.mark.parametrize("runner", SETTLE_RUNNERS, ids=["semi", "oblivious"])
@pytest.mark.parametrize("max_depth", [None, 2, 8])
def test_an_instance_with_deep_nulls_settles_its_depth(runner, max_depth):
    """Input nulls deeper than anything the run invents: the settled
    depth is the seeded store's, with and without a depth budget below
    it (every new fact checked)."""
    from repro.model.parser import parse_program

    chain, program = intro_nonterminating_example()
    deep = semi_oblivious_chase(
        chain, program, budget=ChaseBudget(max_rounds=6), record_derivation=False
    ).instance
    tgds = parse_program("R(x, y) -> Q(y)\nQ(x) -> exists z . P(x, z)")
    budget = ChaseBudget(max_atoms=20_000, max_rounds=200, max_depth=max_depth)
    result = runner(deep, tgds, budget=budget, record_derivation=False)
    assert_settled_depth(result)
    if max_depth is not None and max_depth < deep.max_depth():
        assert result.outcome is ChaseOutcome.DEPTH_BUDGET_EXCEEDED
    else:
        assert result.max_depth == deep.max_depth() + 1


@pytest.mark.parametrize("max_depth", [None, 1])
def test_a_store_with_nulls_deeper_than_its_facts_folds_at_the_end(max_depth):
    """A truncating run interns a null whose fact it cuts away.  An
    add-first resume that stores that fact reuses the null without
    bearing it, so it checks every new fact and folds at its end."""
    from repro.model.atoms import Atom, Predicate
    from repro.model.instance import Instance
    from repro.model.parser import parse_database, parse_program
    from repro.model.terms import Constant

    tgds = parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> exists w . T(y, w)")
    truncated = semi_oblivious_chase(
        parse_database("R(a, b)."), tgds,
        budget=ChaseBudget(max_depth=1, truncate_at_depth=True), record_derivation=False,
    )
    assert truncated.depth_truncated and truncated.terminated
    snapshot = truncated.store_snapshot()
    (null,) = {t for atom in truncated.instance for t in atom.args if t.is_null}
    # S(c, n) re-derives the cut T(n, w): w is interned, and deeper
    # than every stored fact.
    delta = Instance([Atom(Predicate("S", 2), (Constant("c"), null))])
    resumed = semi_oblivious_chase(
        delta, tgds, budget=BUDGET.replace(max_depth=max_depth), record_derivation=False,
        resume_from=snapshot,
    )
    assert_settled_depth(resumed)
    if max_depth is None:
        assert resumed.terminated and resumed.max_depth == 2
    else:
        assert resumed.outcome is ChaseOutcome.DEPTH_BUDGET_EXCEEDED
