"""Tests for the ChTrm decision procedures (Theorems 6.6, 7.7, 8.5)."""

import pytest

from repro.model.parser import parse_database, parse_program
from repro.core.classify import TGDClass
from repro.core.decision import (
    DecisionMethod,
    decide_termination,
    naive_decision,
    syntactic_decision,
    ucq_decision,
)
from repro.core.ucq import build_termination_ucq
from repro.generators.families import (
    example_7_1,
    intro_nonterminating_example,
    linear_lower_bound,
    prop45_family,
    sl_lower_bound,
)


class TestSyntacticDecision:
    def test_simple_linear_yes(self):
        database, tgds = sl_lower_bound(1, 2, 1)
        verdict = syntactic_decision(database, tgds)
        assert verdict.terminates is True
        assert verdict.method is DecisionMethod.WEAK_ACYCLICITY
        assert verdict.tgd_class is TGDClass.SIMPLE_LINEAR

    def test_simple_linear_no(self):
        database, tgds = intro_nonterminating_example()
        verdict = syntactic_decision(database, tgds)
        assert verdict.terminates is False

    def test_linear_example_7_1_is_positive(self):
        """Example 7.1 needs simplification: plain weak-acyclicity says no."""
        database, tgds = example_7_1()
        verdict = syntactic_decision(database, tgds)
        assert verdict.terminates is True
        assert verdict.method is DecisionMethod.SIMPLIFICATION

    def test_linear_family_is_positive(self):
        database, tgds = linear_lower_bound(1, 2, 1)
        verdict = syntactic_decision(database, tgds)
        assert verdict.terminates is True

    def test_guarded_database_dependence(
        self, guarded_program, guarded_supported_database, guarded_unsupported_database
    ):
        positive = syntactic_decision(guarded_unsupported_database, guarded_program)
        negative = syntactic_decision(guarded_supported_database, guarded_program)
        assert positive.terminates is True
        assert negative.terminates is False
        assert positive.method is DecisionMethod.LINEARIZATION
        assert "type_count" in positive.details

    def test_linear_and_guarded_branches_read_only_the_simplified_schema(
        self, monkeypatch, guarded_program, guarded_supported_database
    ):
        """``D``-support reads ``sch(simple(D))``; ``simple(D)`` is never built."""
        import repro.core.decision as decision
        import repro.core.simplification as simplification

        def refuse(database):
            raise AssertionError("the decider built the simplified database")

        monkeypatch.setattr(simplification, "simplify_database", refuse)
        monkeypatch.setattr(decision, "simplify_database", refuse, raising=False)
        database, tgds = example_7_1()
        assert syntactic_decision(database, tgds).terminates is True
        negative = syntactic_decision(guarded_supported_database, guarded_program)
        assert negative.terminates is False
        assert negative.details["report"].supporting_predicates

    def test_arbitrary_tgds_are_rejected(self):
        database, tgds = prop45_family(3)
        with pytest.raises(ValueError):
            syntactic_decision(database, tgds)


class TestNaiveDecision:
    def test_positive_case_materialises(self):
        database, tgds = sl_lower_bound(1, 2, 1)
        verdict = naive_decision(database, tgds)
        assert verdict.terminates is True
        assert verdict.details["chase_result"].terminated

    def test_unknown_when_cap_is_below_theoretical_bound(self):
        database, tgds = intro_nonterminating_example()
        verdict = naive_decision(database, tgds, practical_cap=100)
        assert verdict.terminates is None

    def test_arbitrary_tgds_are_supported(self):
        database, tgds = prop45_family(4)
        verdict = naive_decision(database, tgds)
        assert verdict.terminates is True
        assert verdict.details["theoretical_bound"] is None


class TestUCQDecision:
    def test_matches_syntactic_for_simple_linear(self):
        database, tgds = intro_nonterminating_example()
        assert ucq_decision(database, tgds).terminates is False

    def test_prebuilt_query_can_be_reused(self, monkeypatch):
        # Q_Σ depends on Σ alone: two databases of one program build it once.
        import repro.core.decision as decision

        builds = []

        def counting_build(tgds):
            builds.append(tgds)
            return build_termination_ucq(tgds)

        monkeypatch.setattr(decision, "build_termination_ucq", counting_build)
        database, tgds = example_7_1()
        first = ucq_decision(database, tgds)
        other = parse_database("R(a, a).")
        second = ucq_decision(other, tgds)
        assert len(builds) == 1
        assert first.terminates is True
        assert second.terminates is syntactic_decision(other, tgds).terminates
        assert first.method is second.method is DecisionMethod.UCQ
        assert first.details == second.details


class TestDispatch:
    def test_auto_uses_syntactic_for_guarded_classes(self):
        database, tgds = example_7_1()
        assert decide_termination(database, tgds).method is DecisionMethod.SIMPLIFICATION

    def test_auto_falls_back_to_naive_for_arbitrary(self):
        database, tgds = prop45_family(3)
        verdict = decide_termination(database, tgds)
        assert verdict.method is DecisionMethod.NAIVE_CHASE
        assert verdict.terminates is True

    def test_explicit_methods(self):
        database, tgds = example_7_1()
        assert decide_termination(database, tgds, method="naive").terminates is True
        assert decide_termination(database, tgds, method="ucq").terminates is True
        assert decide_termination(database, tgds, method="syntactic").terminates is True

    def test_unknown_method_is_rejected(self):
        database, tgds = example_7_1()
        with pytest.raises(ValueError):
            decide_termination(database, tgds, method="magic")
