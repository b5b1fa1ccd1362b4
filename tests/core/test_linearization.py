"""Tests for the linearization transformation (Section 8, Appendix E)."""

import pytest

from repro.model.atoms import Atom, Predicate, atom
from repro.model.parser import parse_database, parse_program
from repro.model.terms import Constant, Variable
from repro.chase.engine import ChaseBudget
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.classify import TGDClass, classify
from repro.core.decision import syntactic_decision
from repro.core.linearization import (
    SigmaType,
    TypeIndex,
    canonicalize_type,
    completion,
    linearize,
    linearize_database,
    linearize_program,
    type_of,
)
from repro.core.simplification import simplified_schema, simplify_program
from repro.core.weak_acyclicity import weak_acyclicity_report
from repro.generators.families import guarded_lower_bound
from repro.generators.random_programs import (
    random_database,
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.model.tgd import TGDSet

A, B, C = Constant("a"), Constant("b"), Constant("c")


class TestSigmaType:
    def test_canonicalization_follows_first_occurrence(self):
        guard = atom("R", A, A, B, C)
        sigma_type = canonicalize_type(guard, [atom("Q", A, C)])
        assert sigma_type.guard == atom("R", Constant("#1"), Constant("#1"), Constant("#2"), Constant("#3"))
        assert sigma_type.others == frozenset({atom("Q", Constant("#1"), Constant("#3"))})

    def test_predicate_is_canonical(self):
        first = canonicalize_type(atom("R", A, B), [atom("P", A)])
        second = canonicalize_type(atom("R", B, C), [atom("P", B)])
        assert first.predicate() == second.predicate()
        assert first.predicate().arity == 2

    def test_different_types_get_different_predicates(self):
        plain = canonicalize_type(atom("R", A, B), [])
        typed = canonicalize_type(atom("R", A, B), [atom("P", A)])
        assert plain.predicate() != typed.predicate()

    def test_type_atom_outside_guard_domain_is_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_type(atom("R", A, B), [atom("P", C)])

    def test_instantiate(self):
        sigma_type = canonicalize_type(atom("R", A, A, B), [atom("P", B)])
        instantiated = sigma_type.instantiate((C, C, A))
        assert instantiated == {atom("R", C, C, A), atom("P", A)}

    def test_instantiate_rejects_pattern_mismatch(self):
        sigma_type = canonicalize_type(atom("R", A, A), [])
        with pytest.raises(ValueError):
            sigma_type.instantiate((A, B))


class TestCompletion:
    def test_completion_contains_only_domain_atoms(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> P(x)")
        database = parse_database("R(a, b).")
        completed = completion(database.as_instance(), program)
        domain = database.active_domain()
        assert all(set(a.args) <= domain for a in completed)

    def test_completion_recovers_atoms_derived_through_nulls(self):
        # P(b) is only derivable via the null invented for S(b, z).
        program = parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> P(x)")
        database = parse_database("R(a, b).")
        completed = completion(database.as_instance(), program)
        assert atom("P", B) in completed

    def test_completion_of_terminating_chase_matches_direct_restriction(self):
        program = parse_program(
            "R(x, y), P(x) -> exists z . R(y, z)\nR(x, y) -> Q(x)"
        )
        database = parse_database("R(a, b).\nQ(b).")
        completed = completion(database.as_instance(), program)
        chase = semi_oblivious_chase(database, program)
        assert chase.terminated
        domain = database.active_domain()
        expected = {a for a in chase.instance if set(a.args) <= domain}
        assert set(completed) == expected

    def test_type_of_restricts_to_atom_terms(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> P(x)")
        database = parse_database("R(a, b).\nP(a).")
        completed = completion(database.as_instance(), program)
        result = type_of(atom("R", A, B), completed)
        assert atom("R", A, B) in result
        assert atom("P", A) in result
        assert all(set(a.args) <= {A, B} for a in result)


class TestTypeIndex:
    """``TypeIndex`` answers ``type_of`` without scanning the completion."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_scan_on_random_guarded_programs(self, seed):
        program = random_guarded_program(seed)
        database = random_database(program, seed, fact_count=40, constant_count=6)
        completed = completion(database.as_instance(), program)
        index = TypeIndex(completed)
        for a in list(database) + list(completed):
            assert index.type_of(a) == type_of(a, completed)

    def test_matches_the_scan_with_zero_arity_and_repeated_arguments(self):
        program = parse_program(
            "R(x, y) -> exists z . S(y, z), Flag()\nS(x, y) -> P(x, x)\nP(x, y) -> Done()"
        )
        database = parse_database("R(a, b).\nR(b, b).\nP(c, c).\nFlag().")
        completed = completion(database.as_instance(), program)
        index = TypeIndex(completed)
        assert atom("Done") in completed and atom("Flag") in completed
        for a in list(database) + list(completed):
            assert index.type_of(a) == type_of(a, completed)
        assert index.type_of(atom("Flag")) == {atom("Flag"), atom("Done")}

    def test_examined_atoms_grow_linearly_with_the_database(self):
        """The scan reads |D| * |completion| atoms; the index reads a
        bounded number per database atom when each constant occurs in a
        bounded number of facts."""
        program = random_guarded_program(2)
        per_atom = {}
        for size in (250, 1000):
            database = random_database(program, 7, fact_count=size, constant_count=size // 8)
            completed = completion(database.as_instance(), program)
            index = TypeIndex(completed)
            for a in database:
                index.type_of(a)
            per_atom[size] = index.examined / len(database)
            assert index.examined * 20 < len(database) * len(completed)
        assert per_atom[1000] < 2 * per_atom[250]

    def test_linearize_database_uses_the_index(self, monkeypatch):
        import repro.core.linearization as linearization

        def no_scan(atom, completed):
            raise AssertionError("linearize_database scanned the completion")

        monkeypatch.setattr(linearization, "type_of", no_scan)
        database = parse_database("R(a, b).\nP(a).")
        program = parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> P(x)")
        linear_database, _ = linearize_database(database, program)
        assert len(linear_database) == 2


class TestDatabaseLinearization:
    def test_example_e9_shape(self):
        """Example E.9: one [τ]-fact per database atom, carrying its type."""
        program = parse_program(
            "P(x, y, x, u, w), S(x, u) -> exists z1, z2 . R(u, y, x, z1), T(z1, z2, x)\n"
            "R(x, x, y, z) -> Q(x, z)"
        )
        database = parse_database("R(a, a, b, c).")
        linear_database, assignment = linearize_database(database, program)
        assert len(linear_database) == 1
        [fact] = list(linear_database)
        assert fact.args == (A, A, B, C)
        [(original, sigma_type)] = assignment.items()
        assert original == atom("R", A, A, B, C)
        # The type contains the guard pattern R(1,1,2,3) and Q(1,3).
        assert sigma_type.guard.predicate.name == "R"
        assert atom("Q", Constant("#1"), Constant("#3")) in sigma_type.others

    def test_atoms_with_same_type_share_a_predicate(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        database = parse_database("R(a, b).\nR(b, c).")
        linear_database, assignment = linearize_database(database, program)
        predicates = {a.predicate for a in linear_database}
        assert len(predicates) == 1
        assert len(linear_database) == 2


class TestProgramLinearization:
    def test_rejects_unguarded_programs(self):
        program = parse_program("R(x, y), R(y, z) -> S(x, z)")
        with pytest.raises(ValueError):
            linearize_program(program, [])

    def test_linearized_program_is_linear(self):
        program = parse_program("R(x, y), P(x) -> exists z . R(y, z), P(y)")
        database = parse_database("R(a, b).\nP(a).")
        result = linearize(database, program)
        assert classify(result.program) in (TGDClass.LINEAR, TGDClass.SIMPLE_LINEAR)

    def test_type_budget_is_enforced(self):
        program = parse_program("R(x, y), P(x) -> exists z . R(y, z), P(y)")
        database = parse_database("R(a, b).\nP(a).")
        with pytest.raises(RuntimeError):
            linearize(database, program, max_types=0)


class TestProposition81:
    """Linearization preserves finiteness and maximal depth."""

    CASES = [
        # (program, database, expected_termination)
        ("R(x, y), P(x) -> exists z . R(y, z), P(y)", "R(a, b).", True),
        ("R(x, y), P(x) -> exists z . R(y, z), P(y)", "R(a, b).\nP(a).", False),
        ("R(x, y), P(x) -> exists z . R(y, z)", "R(a, b).\nP(a).", True),
        ("R(x, y) -> exists z . S(y, z)\nS(x, y), Q(x) -> R(x, x)", "R(a, b).\nQ(b).", True),
    ]

    @pytest.mark.parametrize("program_text,database_text,expected", CASES)
    def test_preserves_finiteness_and_depth(self, program_text, database_text, expected):
        program = parse_program(program_text)
        database = parse_database(database_text)
        budget = ChaseBudget(max_atoms=2_000)
        original = semi_oblivious_chase(database, program, budget=budget)
        assert original.terminated == expected
        result = linearize(database, program)
        linearized = semi_oblivious_chase(result.database, result.program, budget=budget)
        assert linearized.terminated == original.terminated
        if original.terminated:
            # Prop. 8.1 (2): the maximal term depth is preserved.  (The
            # number of atoms may differ: several [τ]-atoms can encode
            # the same original atom.)
            assert linearized.max_depth == original.max_depth


class TestGuardedFamily:
    """The paper's guarded family through the G decider (Theorem 8.5)."""

    @pytest.mark.parametrize(
        "shape,counts",
        [((1, 1, 1), (104, 142, 6_320)), ((2, 1, 1), (243, 397, 15_561))],
    )
    def test_syntactic_decision_pins_types_and_rules(self, shape, counts):
        database, tgds = guarded_lower_bound(*shape)
        verdict = syntactic_decision(database, TGDSet(list(tgds), name=tgds.name))
        assert verdict.terminates is True
        details = verdict.details
        assert (
            details["type_count"],
            details["linearized_rule_count"],
            details["gsimple_rule_count"],
        ) == counts


class TestDeciderRoutesAgree:
    """On SL and L programs, the G route (linearize, simplify, then the
    weak-acyclicity report on ``sch(gsimple(D))``) gives the verdict of
    the SL / L characterizations."""

    @pytest.mark.parametrize("kind", ["sl", "l"])
    def test_the_guarded_route_agrees(self, kind):
        generate = {"sl": random_simple_linear_program, "l": random_linear_program}[kind]
        verdicts = set()
        for seed in range(12):
            tgds = generate(seed)
            database = random_database(tgds, seed, fact_count=64, constant_count=16)
            linearized = linearize(database, tgds)
            report = weak_acyclicity_report(
                simplify_program(linearized.program), simplified_schema(linearized.database)
            )
            expected = syntactic_decision(database, tgds).terminates
            assert report.weakly_acyclic_wrt_database is expected, seed
            verdicts.add(expected)
        assert verdicts == {True, False}
