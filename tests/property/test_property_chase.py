"""Property-based tests for the chase engine invariants.

The strategies generate small random simple-linear / guarded programs
and databases (via the seeded generators, so shrinking stays
meaningful) and check the structural invariants the paper relies on:
the chase result contains the database, satisfies the TGDs when it
terminates, is insensitive to the order in which facts are supplied,
and never shrinks the database; and the restricted chase's result is a
subset of the semi-oblivious one.
"""

from hypothesis import given, settings, strategies as st

from repro.model.homomorphism import extend_homomorphism, find_homomorphisms
from repro.model.instance import Database
from repro.chase.engine import ChaseBudget
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.generators.random_programs import (
    random_database,
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)

BUDGET = ChaseBudget(max_atoms=3_000, max_rounds=2_000)

program_seeds = st.integers(min_value=0, max_value=200)
database_seeds = st.integers(min_value=0, max_value=200)


def satisfies(instance, tgds) -> bool:
    for tgd in tgds:
        for body_match in find_homomorphisms(tgd.body, instance):
            frontier_binding = {v: body_match[v] for v in tgd.frontier()}
            if extend_homomorphism(tgd.head, instance, frontier_binding) is None:
                return False
    return True


@settings(max_examples=30, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_chase_result_contains_database(program_seed, database_seed):
    tgds = random_simple_linear_program(program_seed)
    database = random_database(tgds, database_seed, fact_count=6)
    result = semi_oblivious_chase(database, tgds, budget=BUDGET, record_derivation=False)
    assert all(a in result.instance for a in database)
    assert result.size >= len(database)


@settings(max_examples=30, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_terminated_chase_satisfies_the_tgds(program_seed, database_seed):
    tgds = random_simple_linear_program(program_seed)
    database = random_database(tgds, database_seed, fact_count=6)
    result = semi_oblivious_chase(database, tgds, budget=BUDGET, record_derivation=False)
    if result.terminated:
        assert satisfies(result.instance, tgds)


@settings(max_examples=20, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_guarded_chase_satisfies_the_tgds(program_seed, database_seed):
    tgds = random_guarded_program(program_seed)
    database = random_database(tgds, database_seed, fact_count=6)
    result = semi_oblivious_chase(database, tgds, budget=BUDGET, record_derivation=False)
    if result.terminated:
        assert satisfies(result.instance, tgds)


@settings(max_examples=20, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_chase_is_insensitive_to_fact_order(program_seed, database_seed):
    tgds = random_simple_linear_program(program_seed)
    database = random_database(tgds, database_seed, fact_count=6)
    forward = semi_oblivious_chase(database, tgds, budget=BUDGET, record_derivation=False)
    reversed_database = Database(reversed(sorted(database, key=str)))
    backward = semi_oblivious_chase(reversed_database, tgds, budget=BUDGET, record_derivation=False)
    if forward.terminated and backward.terminated:
        assert forward.instance == backward.instance
        assert forward.max_depth == backward.max_depth


@settings(max_examples=20, deadline=None)
@given(program_seed=program_seeds, database_seed=database_seeds)
def test_chase_is_monotone_in_the_database(program_seed, database_seed):
    """Adding facts never removes chase atoms (semi-oblivious monotonicity)."""
    tgds = random_simple_linear_program(program_seed)
    small = random_database(tgds, database_seed, fact_count=4)
    large = Database(small)
    for atom in random_database(tgds, database_seed + 1, fact_count=3):
        large.add(atom)
    small_result = semi_oblivious_chase(small, tgds, budget=BUDGET, record_derivation=False)
    large_result = semi_oblivious_chase(large, tgds, budget=BUDGET, record_derivation=False)
    if small_result.terminated and large_result.terminated:
        assert set(small_result.instance) <= set(large_result.instance)


@settings(max_examples=30, deadline=None)
@given(
    make_program=st.sampled_from(
        [random_simple_linear_program, random_linear_program, random_guarded_program]
    ),
    program_seed=program_seeds,
    database_seed=database_seeds,
)
def test_restricted_result_is_a_subset_of_the_semi_oblivious_one(
    make_program, program_seed, database_seed
):
    """Restricted nulls carry the semi-oblivious label ``⊥^z_{σ,h|fr(σ)}``
    and the restricted chase fires a subset of the semi-oblivious
    triggers, so its instance is a literal subset: same atoms, same
    nulls."""
    tgds = make_program(program_seed)
    database = random_database(tgds, database_seed, fact_count=6)
    semi = semi_oblivious_chase(database, tgds, budget=BUDGET, record_derivation=False)
    if not semi.terminated:
        return
    restricted = restricted_chase(database, tgds, budget=BUDGET, record_derivation=False)
    assert restricted.terminated
    assert set(restricted.instance) <= set(semi.instance)
