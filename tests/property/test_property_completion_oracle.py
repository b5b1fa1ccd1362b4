"""The guarded completion against the chase it summarises.

``completion(I, Σ)`` is the set of chase atoms over ``dom(I)``, computed
as a least fixpoint over the canonical child nodes of the guarded chase
forest and kept per ``Σ``.  When the chase of ``D`` terminates, the
completion must equal the chase restricted to ``dom(D)``; when it is
stopped by a budget, every atom of the prefix over ``dom(D)`` must
still be in the completion.  A table warmed by other databases, or
filled by two threads at once, must answer exactly like a fresh one.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.chase.engine import ChaseBudget
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.linearization import completion
from repro.generators.families import guarded_lower_bound
from repro.generators.random_programs import random_database, random_guarded_program
from repro.model.parser import parse_database, parse_program
from repro.model.tgd import TGDSet

BUDGET = ChaseBudget(max_rounds=40, max_atoms=20_000)

#: (predicate count, max arity, rule count, existential probability).
SHAPES = [(3, 2, 3, 0.4), (4, 3, 5, 0.4), (3, 3, 6, 0.6), (2, 4, 4, 0.5)]


def fresh(tgds):
    """The same rules with an empty per-Σ memo."""
    return TGDSet(list(tgds), name=tgds.name)


def chase_over_domain(database, tgds):
    result = semi_oblivious_chase(database, tgds, budget=BUDGET, record_derivation=False)
    domain = database.active_domain()
    return result.terminated, {a for a in result.instance if set(a.args) <= domain}


@st.composite
def guarded_programs(draw):
    predicates, arity, rules, existential = draw(st.sampled_from(SHAPES))
    return random_guarded_program(
        draw(st.integers(0, 10_000)),
        predicate_count=predicates,
        max_arity=arity,
        rule_count=rules,
        existential_probability=existential,
    )


def databases_for(tgds, draw, count=1):
    return [
        random_database(
            tgds,
            draw(st.integers(0, 10_000)),
            fact_count=draw(st.integers(1, 12)),
            constant_count=draw(st.integers(1, 5)),
        )
        for _ in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(tgds=guarded_programs(), data=st.data())
def test_completion_is_the_chase_over_the_domain(tgds, data):
    [database] = databases_for(tgds, data.draw)
    terminated, expected = chase_over_domain(database, tgds)
    completed = set(completion(database.as_instance(), fresh(tgds)))
    assert expected <= completed
    if terminated:
        assert completed == expected


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 2)])
def test_completion_is_the_chase_over_the_domain_on_the_guarded_family(shape):
    database, tgds = guarded_lower_bound(*shape)
    terminated, expected = chase_over_domain(database, tgds)
    assert terminated
    assert set(completion(database.as_instance(), fresh(tgds))) == expected


@settings(max_examples=40, deadline=None)
@given(tgds=guarded_programs(), data=st.data())
def test_a_warm_table_answers_like_a_fresh_one(tgds, data):
    shared = fresh(tgds)
    for database in databases_for(tgds, data.draw, count=4):
        assert completion(database, shared) == completion(database, fresh(tgds))


#: Infinite chases whose child nodes recur below themselves, with facts
#: that travel both up and down the chain.
CYCLIC = {
    # Q needs P from the child, U needs Q from the child, V needs U.
    "alternating": (
        "R(x, y) -> exists z . S(y, z)\n"
        "S(x, y) -> exists z . R(y, z)\n"
        "R(x, y) -> P(x)\n"
        "S(x, y), P(y) -> Q(x)\n"
        "R(x, y), Q(y) -> U(x)\n"
        "S(x, y), U(y) -> V(x)",
        "R(a, b)",
        "R(a, b)\nP(a)\nQ(b)\nU(a)\nV(b)",
    ),
    # A mark put on the root travels down the chain and back up.
    "down-and-up": (
        "R(x, y), M(x) -> exists z . R(y, z), M(y)\n"
        "R(x, y), M(y) -> exists w . E(y, w)\n"
        "E(x, w) -> F(x)\n"
        "R(x, y), F(y) -> F(x)",
        "R(a, b)\nM(a)",
        "R(a, b)\nM(a)\nM(b)\nF(a)\nF(b)",
    ),
    # A self-loop whose own frontier feeds its child's key.
    "self-feeding": (
        "R(x, y) -> exists z . R(y, z)\n"
        "R(x, y), A(x) -> B(y)\n"
        "R(x, y), B(y) -> A(y)\n"
        "R(x, y), B(y) -> C(x)",
        "R(a, b)\nA(a)",
        "R(a, b)\nA(a)\nA(b)\nB(b)\nC(a)\nC(b)",
    ),
}


@pytest.mark.parametrize("name", sorted(CYCLIC))
def test_completion_through_recurring_nodes(name):
    program, facts, expected = CYCLIC[name]
    tgds = parse_program(program)
    database = parse_database(facts)
    assert not chase_over_domain(database, tgds)[0]
    assert set(completion(database.as_instance(), tgds)) == set(parse_database(expected))
    # And again from the table the first call filled.
    assert set(completion(database.as_instance(), tgds)) == set(parse_database(expected))


def test_a_fact_from_a_sibling_refreshes_a_child():
    """K(b) reaches the root from the T-child after the S-child was keyed
    without it; the S-child must be re-keyed to derive L and give M(b)."""
    tgds = parse_program(
        "R(x, y) -> exists z . S(y, z)\n"
        "R(x, y) -> exists w . T(y, w)\n"
        "T(x, w) -> K(x)\n"
        "S(x, z), K(x) -> L(z)\n"
        "S(x, z), L(z) -> M(x)"
    )
    database = parse_database("R(a, b)")
    terminated, expected = chase_over_domain(database, tgds)
    assert terminated and expected == set(parse_database("R(a, b)\nK(b)\nM(b)"))
    assert set(completion(database.as_instance(), tgds)) == expected


def test_concurrent_completions_over_one_table():
    """Two threads fill one fresh table; each gets the single-threaded answer."""
    programs = [random_guarded_program(seed, 3, 3, 6, existential_probability=0.6)
                for seed in (3, 11, 19, 27)]
    programs += [parse_program(program) for program, _, _ in CYCLIC.values()]
    jobs = []
    for index, tgds in enumerate(programs):
        databases = [random_database(tgds, index * 10 + k, fact_count=12, constant_count=3)
                     for k in range(4)]
        expected = [completion(database, fresh(tgds)) for database in databases]
        jobs.append((tgds, databases, expected))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for tgds, databases, expected in jobs:
            shared = fresh(tgds)
            results = {}

            def work(offset):
                order = range(offset, offset + len(databases))
                results[offset] = [
                    (k % len(databases), completion(databases[k % len(databases)], shared))
                    for k in order
                ]

            threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert sorted(results) == [0, 2]
            for computed in results.values():
                for k, result in computed:
                    assert result == expected[k]
    finally:
        sys.setswitchinterval(interval)
