"""The deciders read only the schema of the (simplified) database.

Definition 6.1 makes ``D``-support depend on ``sch(D)`` alone, so the
L and G branches of :func:`syntactic_decision` hand
``sch(simple(D))`` / ``sch(gsimple(D))`` to the weak-acyclicity report
instead of the simplified database, and :func:`completion` harvests
its facts from the chase store by term id.  Each test compares against
a reference computed the old way: :func:`simplify_database` plus a
report assembled from independent graph queries, and a completion that
decodes the whole chase result and filters it.

Databases are drawn over the program's schema plus a zero-arity and an
out-of-schema predicate, from constant pools of size 1 to 4, so facts
with repeated, all-equal and zero-arity arguments all occur.
"""

from hypothesis import given, settings, strategies as st

from repro.chase.engine import ChaseBudget
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.classify import TGDClass, classify
from repro.core.decision import syntactic_decision
from repro.core.dependency_graph import DependencyGraph, PredicateGraph
from repro.core.linearization import completion, linearize
from repro.core.simplification import simplified_schema, simplify_database, simplify_program
from repro.core.weak_acyclicity import WeakAcyclicityReport, weak_acyclicity_report
from repro.generators.families import (
    example_7_1,
    fairness_example,
    guarded_lower_bound,
    intro_nonterminating_example,
    linear_lower_bound,
    sl_lower_bound,
)
from repro.generators.random_programs import (
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.model.atoms import Atom, Predicate
from repro.model.instance import Database, Instance
from repro.model.parser import parse_program
from repro.model.terms import Constant

FLAG = Predicate("Flag", 0)
OUTSIDE = Predicate("Outside", 3)

#: Paper families and hand-written programs over a zero-arity predicate.
#: The guarded family takes seconds to linearize; it has its own test.
FIXED_PROGRAMS = {
    "intro": intro_nonterminating_example()[1],
    "fairness": fairness_example()[1],
    "example-7.1": example_7_1()[1],
    "sl-lower": sl_lower_bound(2, 2, 2)[1],
    "linear-lower": linear_lower_bound(1, 2, 1)[1],
    "sl-flag": parse_program("Flag() -> exists z . R(z, z)\nR(x, y) -> exists w . R(y, w)"),
    "l-flag": parse_program("Flag() -> exists z . R(z, z)\nR(x, x) -> exists w . R(w, x)"),
    "g-flag": parse_program("R(x, y), Flag() -> exists z . R(y, z)\nS(x) -> Flag()"),
}
FIXED_DATABASES = {
    "intro": intro_nonterminating_example()[0],
    "fairness": fairness_example()[0],
    "example-7.1": example_7_1()[0],
    "sl-lower": sl_lower_bound(2, 2, 2)[0],
    "linear-lower": linear_lower_bound(1, 2, 1)[0],
}

GENERATORS = {
    "sl": random_simple_linear_program,
    "l": random_linear_program,
    "g": lambda seed: random_guarded_program(seed, predicate_count=3, max_arity=2, rule_count=3),
}


@st.composite
def databases(draw, predicates, max_facts=6):
    """Facts over ``predicates`` (plus ``Flag/0`` and ``Outside/3``)."""
    pool = [Constant(f"c{i}") for i in range(draw(st.integers(1, 4)))]
    choices = sorted(set(predicates) | {FLAG, OUTSIDE}, key=lambda p: (p.name, p.arity))
    facts = draw(
        st.lists(
            st.sampled_from(choices).flatmap(
                lambda p: st.tuples(
                    st.just(p), st.lists(st.sampled_from(pool), min_size=p.arity, max_size=p.arity)
                )
            ),
            max_size=max_facts,
        )
    )
    return Database(Atom(predicate, tuple(args)) for predicate, args in facts)


@st.composite
def programs(draw):
    """A random SL/L/G program or one of the fixed ones."""
    if draw(st.booleans()):
        return FIXED_PROGRAMS[draw(st.sampled_from(sorted(FIXED_PROGRAMS)))]
    kind = draw(st.sampled_from(sorted(GENERATORS)))
    return GENERATORS[kind](draw(st.integers(0, 300)))


def reference_report(tgds, database) -> WeakAcyclicityReport:
    """Definition 6.1 from independent queries: forward reachability
    from each database predicate instead of the deciders' backward pass,
    and a fresh graph per question."""
    flagged = DependencyGraph(tgds).positions_on_special_cycle()
    cycle_predicates = {position.predicate for position in flagged}
    graph = PredicateGraph(tgds)
    supporting = {
        predicate
        for predicate in database.predicates()
        if graph.reachable_from(predicate) & cycle_predicates
    }
    witness = DependencyGraph(tgds).witness_special_cycle()
    return WeakAcyclicityReport(
        uniformly_weakly_acyclic=not DependencyGraph(tgds).has_special_cycle(),
        weakly_acyclic_wrt_database=not supporting,
        positions_on_special_cycles=frozenset(flagged),
        supporting_predicates=frozenset(supporting),
        witness_cycle=tuple(witness) if witness else None,
    )


def reference_decision(database, tgds) -> WeakAcyclicityReport:
    """The characterisations with the simplified database built in full."""
    tgd_class = classify(tgds)
    if tgd_class is TGDClass.SIMPLE_LINEAR:
        return reference_report(tgds, database)
    if tgd_class is TGDClass.LINEAR:
        return reference_report(simplify_program(tgds), simplify_database(database))
    linearized = linearize(database, tgds)
    return reference_report(
        simplify_program(linearized.program), simplify_database(linearized.database)
    )


def reference_completion(instance, tgds, max_iterations=16) -> Instance:
    """Completion by decoding every chase result and filtering it."""
    depth_budget = len(tgds.schema()) * max(tgds.arity(), 1) + 2
    domain = instance.active_domain()
    current = instance.as_instance()
    for _ in range(max_iterations):
        budget = ChaseBudget(max_atoms=200_000, max_depth=depth_budget, truncate_at_depth=True)
        result = semi_oblivious_chase(current, tgds, budget=budget, record_derivation=False)
        harvested = [a for a in result.instance if set(a.args) <= domain and a not in current]
        if not harvested:
            break
        for a in harvested:
            current.add(a)
    return Instance(a for a in current if set(a.args) <= domain)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_simplified_schema_equals_simplified_database_predicates(data):
    predicates = data.draw(
        st.lists(
            st.builds(Predicate, st.sampled_from("PQR"), st.integers(0, 4)),
            min_size=1,
            max_size=4,
        )
    )
    database = data.draw(databases(predicates, max_facts=12))
    assert simplified_schema(database) == simplify_database(database).predicates()


@settings(max_examples=60, deadline=None)
@given(tgds=programs(), data=st.data())
def test_syntactic_decision_matches_the_simplified_database_reference(tgds, data):
    database = data.draw(databases(tgds.schema()))
    verdict = syntactic_decision(database, tgds)
    expected = reference_decision(database, tgds)
    assert verdict.details["report"] == expected
    assert verdict.terminates is expected.weakly_acyclic_wrt_database


def test_syntactic_decision_matches_the_reference_on_the_family_databases():
    for name, database in FIXED_DATABASES.items():
        tgds = FIXED_PROGRAMS[name]
        verdict = syntactic_decision(database, tgds)
        expected = reference_decision(database, tgds)
        assert verdict.details["report"] == expected, name
        assert verdict.terminates is expected.weakly_acyclic_wrt_database, name


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 300), data=st.data())
def test_completion_matches_decode_and_filter(seed, data):
    tgds = GENERATORS["g"](seed)
    database = data.draw(databases(tgds.schema(), max_facts=5))
    assert completion(database.as_instance(), tgds) == reference_completion(
        database.as_instance(), tgds
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 300), data=st.data())
def test_completion_over_a_domain_with_nulls_matches_decode_and_filter(seed, data):
    """The input is a budget-stopped chase prefix, so ``dom(I)`` holds
    nulls, and the completion chases invent nulls equal to some of them."""
    tgds = GENERATORS["g"](seed)
    database = data.draw(databases(tgds.schema(), max_facts=4))
    prefix = semi_oblivious_chase(
        database, tgds, budget=ChaseBudget(max_rounds=2), record_derivation=False
    ).instance
    assert completion(prefix, tgds) == reference_completion(prefix, tgds)


def test_guarded_family_report_matches_the_reference_on_one_linearization():
    """``sch(gsimple(D))`` against ``gsimple(D)`` on the paper's guarded
    family, sharing the (slow) linearization between the two sides."""
    database, tgds = guarded_lower_bound(1, 1, 2)
    linearized = linearize(database, tgds)
    gsimple_program = simplify_program(linearized.program)
    report = weak_acyclicity_report(gsimple_program, simplified_schema(linearized.database))
    assert report == reference_report(gsimple_program, simplify_database(linearized.database))


def test_completion_over_a_domain_with_nulls_on_a_fixed_program():
    """A guard for the test above: this prefix really does carry nulls."""
    tgds = parse_program("R(x, y), S(y) -> exists z . R(y, z), S(z)\nR(x, y) -> T(y, x)")
    database = Database([Atom(Predicate("R", 2), (Constant("a"), Constant("b"))),
                         Atom(Predicate("S", 1), (Constant("b"),))])
    prefix = semi_oblivious_chase(
        database, tgds, budget=ChaseBudget(max_rounds=2), record_derivation=False
    ).instance
    assert prefix.nulls()
    completed = completion(prefix, tgds)
    assert completed == reference_completion(prefix, tgds)
    assert any(a.predicate.name == "T" and a.nulls() for a in completed)
