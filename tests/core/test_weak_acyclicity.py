"""Tests for uniform and non-uniform weak-acyclicity (Definition 6.1)."""

from repro.model.parser import parse_database, parse_program
from repro.core.weak_acyclicity import (
    is_weakly_acyclic,
    is_weakly_acyclic_wrt,
    supporting_database_predicates,
    weak_acyclicity_report,
)


class TestUniformWeakAcyclicity:
    def test_acyclic_program(self):
        assert is_weakly_acyclic(parse_program("R(x, y) -> exists z . S(y, z)"))

    def test_self_loop(self):
        assert not is_weakly_acyclic(parse_program("R(x, y) -> exists z . R(y, z)"))

    def test_normal_cycle_is_fine(self):
        program = parse_program("R(x, y) -> S(y, x)\nS(x, y) -> R(y, x)")
        assert is_weakly_acyclic(program)

    def test_two_rule_special_cycle(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> R(x, y)")
        assert not is_weakly_acyclic(program)


class TestNonUniformWeakAcyclicity:
    def test_supported_cycle(self):
        program = parse_program("R(x, y) -> exists z . R(y, z)")
        database = parse_database("R(a, b).")
        assert not is_weakly_acyclic_wrt(database, program)

    def test_unsupported_cycle(self):
        """The cycle exists but no database atom can ever reach it."""
        program = parse_program(
            "R(x, y) -> exists z . R(y, z)\nP(x) -> Q(x)"
        )
        database = parse_database("P(a).")
        assert not is_weakly_acyclic(program)
        assert is_weakly_acyclic_wrt(database, program)

    def test_support_through_reachability(self):
        """A predicate supports the cycle through a chain of rules."""
        program = parse_program(
            "Start(x) -> exists y . Mid(x, y)\n"
            "Mid(x, y) -> R(x, y)\n"
            "R(x, y) -> exists z . R(y, z)"
        )
        database = parse_database("Start(a).")
        assert not is_weakly_acyclic_wrt(database, program)

    def test_empty_database_is_always_weakly_acyclic(self):
        program = parse_program("R(x, y) -> exists z . R(y, z)")
        database = parse_database("% empty\n")
        assert is_weakly_acyclic_wrt(database, program)

    def test_uniformly_acyclic_implies_non_uniformly_acyclic(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        database = parse_database("R(a, b).\nS(a, a).")
        assert is_weakly_acyclic_wrt(database, program)

    def test_supporting_predicates(self):
        program = parse_program(
            "Start(x) -> R(x, x)\nR(x, y) -> exists z . R(y, z)\nP(x) -> Q(x)"
        )
        database = parse_database("Start(a).\nP(b).")
        supporting = supporting_database_predicates(database, program)
        assert {p.name for p in supporting} == {"Start"}


class TestReport:
    def test_report_without_database(self):
        report = weak_acyclicity_report(parse_program("R(x, y) -> exists z . R(y, z)"))
        assert not report.uniformly_weakly_acyclic
        assert report.weakly_acyclic_wrt_database is None
        assert report.witness_cycle is not None
        assert report.positions_on_special_cycles

    def test_report_with_database(self):
        program = parse_program("R(x, y) -> exists z . R(y, z)\nP(x) -> Q(x)")
        report = weak_acyclicity_report(program, parse_database("P(a)."))
        assert not report.uniformly_weakly_acyclic
        assert report.weakly_acyclic_wrt_database is True
        assert report.supporting_predicates == frozenset()

    def test_report_for_acyclic_program(self):
        report = weak_acyclicity_report(
            parse_program("R(x, y) -> exists z . S(y, z)"), parse_database("R(a, b).")
        )
        assert report.uniformly_weakly_acyclic
        assert report.weakly_acyclic_wrt_database is True
        assert report.witness_cycle is None


class TestSchemaInput:
    """``D``-support reads only ``sch(D)``: a predicate set stands in
    for the database at every entry point."""

    PROGRAM = "Start(x) -> R(x, x)\nR(x, y) -> exists z . R(y, z)\nP(x) -> Q(x)"

    def test_entry_points_agree_on_database_and_schema(self):
        program = parse_program(self.PROGRAM)
        for text in ("Start(a).\nP(b).", "P(b).", "Q(a).\nR(a, b).", "% empty\n"):
            database = parse_database(text)
            schema = frozenset(database.predicates())
            assert is_weakly_acyclic_wrt(schema, program) is is_weakly_acyclic_wrt(
                database, program
            )
            assert supporting_database_predicates(
                schema, program
            ) == supporting_database_predicates(database, program)
            assert weak_acyclicity_report(program, schema) == weak_acyclicity_report(
                program, database
            )

    def test_empty_schema_is_not_no_database(self):
        report = weak_acyclicity_report(parse_program(self.PROGRAM), frozenset())
        assert report.weakly_acyclic_wrt_database is True


def test_report_runs_one_scc_pass(monkeypatch):
    from repro.core.dependency_graph import DependencyGraph

    calls = []
    original = DependencyGraph.strongly_connected_components

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(DependencyGraph, "strongly_connected_components", counting)
    program = parse_program("Start(x) -> R(x, x)\nR(x, y) -> exists z . R(y, z)")
    report = weak_acyclicity_report(program, parse_database("Start(a)."))
    assert report.weakly_acyclic_wrt_database is False
    assert report.witness_cycle is not None
    assert len(calls) == 1
