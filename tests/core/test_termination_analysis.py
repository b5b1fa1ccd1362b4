"""Unit tests and golden verdicts for the static termination analysis.

The analysis stack is three modules deep — augmented/classic rank
machinery (:mod:`repro.core.stratification`), the critical-instance MFA
check (:mod:`repro.core.acyclicity`), and the layered verdict front end
(:mod:`repro.core.termination_analysis`).  The golden table at the
bottom pins a verdict per (family, variant) for every generator family
and scenario in the repo, and spot-checks each ``terminating`` verdict
against an actual chase run bounded by the derived depth.
"""

import pytest

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ChaseBudget, ChaseOutcome
from repro.core import decision, termination_analysis
from repro.core.acyclicity import (
    MFA_ACYCLIC,
    MFA_CYCLIC,
    MFA_UNDETERMINED,
    critical_instance_facts,
    mfa_check,
)
from repro.core.dependency_graph import DependencyGraph
from repro.core.stratification import (
    AugmentedDependencyGraph,
    chase_graph_edges,
    is_augmented_weakly_acyclic,
    position_ranks,
    rank_depth_bound,
    stratification_report,
)
from repro.core.termination_analysis import (
    ANALYSIS_VARIANTS,
    DIVERGING,
    GUARDED_NORM_CAP,
    TERMINATING,
    UNDETERMINED,
    TerminationAnalyzer,
    analyze_termination,
)
from repro.core.weak_acyclicity import is_weakly_acyclic
from repro.generators.families import (
    example_7_1,
    fairness_example,
    guarded_lower_bound,
    intro_nonterminating_example,
    linear_lower_bound,
    prop45_family,
    sl_lower_bound,
)
from repro.generators.scenarios import (
    data_exchange_scenario,
    university_ontology_scenario,
)
from repro.generators.turing import (
    halting_machine,
    looping_machine,
    machine_database,
    sigma_star,
)
from repro.generators.workloads import restricted_heavy
from repro.model.parser import parse_database, parse_program
from repro.runtime.budget_policy import BudgetPolicy

# The canonical gap between the labelling disciplines: weakly acyclic
# (the semi-oblivious chase reuses the per-x null), yet the oblivious
# chase invents a fresh null per (x, y) binding and diverges.
NON_FRONTIER_FEED = "R(x, y) -> exists z . R(x, z)"


class TestAugmentedGraph:
    def test_non_frontier_feed_separates_the_disciplines(self):
        program = parse_program(NON_FRONTIER_FEED)
        assert is_weakly_acyclic(program)
        assert not is_augmented_weakly_acyclic(program)

    def test_augmented_adds_special_sources_only(self):
        program = parse_program(NON_FRONTIER_FEED)
        classic = DependencyGraph(program)
        augmented = AugmentedDependencyGraph(program)
        classic_special = {(e.source, e.target) for e in classic.edges if e.special}
        augmented_special = {(e.source, e.target) for e in augmented.edges if e.special}
        assert classic_special < augmented_special
        # The non-frontier position R[2] now feeds the existential.
        sources = {source.index for source, _ in augmented_special}
        assert sources == {1, 2}

    def test_augmented_acyclic_on_plain_chain(self):
        program = parse_program("P(x) -> exists z . Q(x, z)\nQ(x, y) -> S(y)")
        assert is_augmented_weakly_acyclic(program)


class TestPositionRanks:
    def test_rank_counts_special_edges_along_paths(self):
        program = parse_program(
            "P(x) -> exists z . Q(x, z)\nQ(x, y) -> exists w . S(y, w)"
        )
        ranks = position_ranks(DependencyGraph(program))
        assert ranks is not None
        by_name = {f"{p.predicate.name}[{p.index}]": r for p, r in ranks.items()}
        assert by_name["P[1]"] == 0
        assert by_name["Q[2]"] == 1  # one existential invention
        assert by_name["S[2]"] == 2  # nested inventions stack
        assert rank_depth_bound(DependencyGraph(program)) == 2

    def test_special_cycle_has_no_ranks(self):
        database, tgds = intro_nonterminating_example()
        assert position_ranks(DependencyGraph(tgds)) is None
        assert rank_depth_bound(DependencyGraph(tgds)) is None

    def test_within_restricts_to_reachable_positions(self):
        # The special cycle lives entirely on T; restricting to P's and
        # Q's positions leaves an acyclic (indeed edgeless) subgraph.
        program = parse_program(
            "P(x) -> Q(x)\nT(x, y) -> exists z . T(y, z)"
        )
        graph = DependencyGraph(program)
        assert rank_depth_bound(graph) is None
        schema = {p for p in program.schema() if p.name in ("P", "Q")}
        within = {pos for pred in schema for pos in pred.positions()}
        assert rank_depth_bound(graph, within=within) == 0


class TestChaseGraph:
    def test_example_7_1_refinement_prunes_the_self_edge(self):
        # R(x, x) -> exists z . R(z, x): the produced atom R(⊥, x) can
        # never re-match the repeated body R(x, x), because the fresh
        # null equals nothing else.
        _, tgds = example_7_1()
        edges = chase_graph_edges(tgds)
        for rule_id, targets in edges.items():
            assert rule_id not in targets, f"{rule_id} should not feed itself"

    def test_unrepeated_body_keeps_the_edge(self):
        program = parse_program("R(x, y) -> exists z . R(z, x)")
        (rule,) = list(program)
        edges = chase_graph_edges(program)
        assert rule.rule_id in edges[rule.rule_id]

    def test_stratification_bounds_example_7_1_for_the_oblivious_chase(self):
        _, tgds = example_7_1()
        # The augmented graph alone rejects it...
        assert not is_augmented_weakly_acyclic(tgds)
        # ...but every stratum is a singleton without a self-edge.
        report = stratification_report(tgds, augmented=True)
        assert report.stratified
        assert report.failed_stratum is None
        assert report.depth_bound == 1
        assert all(len(s) == 1 for s in report.strata)

    def test_intro_example_is_not_stratified(self):
        _, tgds = intro_nonterminating_example()
        report = stratification_report(tgds)
        assert not report.stratified
        assert report.failed_stratum is not None
        assert report.depth_bound is None


class TestMFA:
    def test_critical_instance_skips_head_only_predicates(self):
        program = parse_program("P(x) -> exists z . Q(x, z)")
        facts = critical_instance_facts(program)
        assert [p.name for p, _ in facts] == ["P"]

    def test_frontier_mode_accepts_the_non_frontier_feed(self):
        # Classic MFA: the semi-oblivious chase reuses the per-x null,
        # so the critical chase saturates at depth 1.
        program = parse_program(NON_FRONTIER_FEED)
        result = mfa_check(program, mode="frontier")
        assert result.status == MFA_ACYCLIC
        assert result.depth_bound == 1

    def test_full_mode_rejects_the_non_frontier_feed(self):
        # Oblivious labelling: each fresh null is a new binding for y,
        # so the rule re-nests its own existential — cyclic.
        program = parse_program(NON_FRONTIER_FEED)
        result = mfa_check(program, mode="full")
        assert result.status == MFA_CYCLIC
        assert result.cyclic_rule_id is not None

    def test_acyclic_saturation_reports_a_depth_bound(self):
        program = parse_program("P(x) -> exists z . Q(x, z)\nQ(x, y) -> exists w . S(y, w)")
        result = mfa_check(program, mode="full")
        assert result.status == MFA_ACYCLIC
        assert result.depth_bound == 2

    def test_caps_degrade_to_undetermined(self):
        _, tgds = sl_lower_bound(2, 2, 2)
        result = mfa_check(tgds, mode="frontier", max_facts=3)
        assert result.status == MFA_UNDETERMINED
        assert result.reason is not None
        result = mfa_check(tgds, mode="frontier", max_triggers=2)
        assert result.status == MFA_UNDETERMINED


class TestAnalyzeTermination:
    def test_unknown_variant_is_an_error(self):
        program = parse_program(NON_FRONTIER_FEED)
        with pytest.raises(ValueError):
            analyze_termination(None, program, variant="standard")

    def test_uniform_verdict_skips_database_layers(self):
        database, tgds = intro_nonterminating_example()
        uniform = analyze_termination(None, tgds, "semi-oblivious")
        # Without a database the characterization cannot fire, and the
        # set is not uniformly terminating: undetermined, not diverging.
        assert uniform.verdict == UNDETERMINED
        aware = analyze_termination(database, tgds, "semi-oblivious")
        assert aware.verdict == DIVERGING

    def test_classic_criteria_never_leak_into_the_oblivious_verdict(self):
        # NON_FRONTIER_FEED terminates semi-obliviously but the
        # oblivious chase diverges on R(a, b); a "terminating" oblivious
        # verdict here would be unsound.
        program = parse_program(NON_FRONTIER_FEED)
        database = parse_database("R(a, b).")
        semi = analyze_termination(database, program, "semi-oblivious")
        assert semi.verdict == TERMINATING
        oblivious = analyze_termination(database, program, "oblivious")
        assert oblivious.verdict == UNDETERMINED
        runner = VARIANT_RUNNERS["oblivious"]
        result = runner(
            database,
            program,
            budget=ChaseBudget(max_atoms=500, max_rounds=500),
            record_derivation=False,
        )
        assert not result.terminated

    def test_diverging_is_never_issued_for_the_restricted_chase(self):
        database, tgds = intro_nonterminating_example()
        report = analyze_termination(database, tgds, "restricted")
        assert report.verdict == UNDETERMINED

    def test_trace_records_every_layer_tried(self):
        database, tgds = prop45_family(3)
        report = analyze_termination(database, tgds, "semi-oblivious")
        assert report.verdict == UNDETERMINED
        joined = "\n".join(report.trace)
        assert "weak-acyclicity" in joined
        assert "stratification" in joined
        assert "mfa" in joined

    def test_as_dict_is_json_friendly_even_for_huge_bounds(self):
        import json

        database, tgds = linear_lower_bound(2, 2, 2)
        report = analyze_termination(database, tgds, "semi-oblivious")
        document = json.dumps(report.as_dict(), sort_keys=True)
        assert '"verdict": "terminating"' in document


class TestGuardedSizeCap:
    """Past ``GUARDED_NORM_CAP`` the characterization is never tried.

    On ``guarded_lower_bound(2, 2, 1)`` it would build ``simplify_program``
    of a 3,094-rule ``lin(Σ)``: 1,641,271 rules.
    """

    @pytest.fixture()
    def characterization_calls(self, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("characterization reached past the guarded size cap")

        monkeypatch.setattr(termination_analysis, "syntactic_decision", refuse)
        monkeypatch.setattr(decision, "simplify_program", refuse)
        return calls

    def test_analysis_skips_the_characterization(self, characterization_calls):
        database, tgds = guarded_lower_bound(2, 2, 1)
        assert tgds.norm() > GUARDED_NORM_CAP
        report = analyze_termination(database, tgds)
        assert report.trace[0] == (
            f"characterization: skipped (guarded set over size cap, norm={tgds.norm()})"
        )
        assert report.verdict == UNDETERMINED
        assert characterization_calls == []

    def test_an_analysing_budget_policy_skips_it_too(self, characterization_calls):
        database, tgds = guarded_lower_bound(2, 2, 1)
        policy = BudgetPolicy(analyzer=TerminationAnalyzer())
        derived = policy.derive(tgds, len(database), database=database)
        assert derived.verdict == UNDETERMINED
        assert characterization_calls == []


class TestAnalyzerMemo:
    def test_memo_hits_on_repeat_and_respects_variants(self):
        analyzer = TerminationAnalyzer()
        database, tgds = sl_lower_bound(2, 2, 2)
        first = analyzer.analyze(database, tgds, "semi-oblivious")
        again = analyzer.analyze(database, tgds, "semi-oblivious")
        assert again is first
        other = analyzer.analyze(database, tgds, "oblivious")
        assert other.variant == "oblivious"
        assert analyzer.hits == 1
        assert analyzer.misses == 2

    def test_memo_is_invariant_under_rule_reordering(self):
        from repro.model.tgd import TGDSet

        analyzer = TerminationAnalyzer()
        database, tgds = sl_lower_bound(2, 2, 2)
        analyzer.analyze(database, tgds, "semi-oblivious")
        reordered = TGDSet(list(reversed(list(tgds))), name="reordered")
        report = analyzer.analyze(database, reordered, "semi-oblivious")
        assert analyzer.hits == 1
        assert report.verdict == TERMINATING

    def test_memo_is_bounded(self):
        analyzer = TerminationAnalyzer(max_entries=2)
        for n in (1, 2, 3):
            database, tgds = sl_lower_bound(n, 1, 1)
            analyzer.analyze(database, tgds, "semi-oblivious")
        assert len(analyzer._memo) == 2


# --------------------------------------------------------------------------
# Golden verdict table: every family and scenario in the repo, pinned
# per variant.  A changed verdict is a soundness-relevant event and must
# be reviewed against the transfer matrix in termination_analysis.
# --------------------------------------------------------------------------


def _scenario(maker, **kwargs):
    scenario = maker(**kwargs)
    return scenario.database, scenario.tgds


def _turing(machine):
    return machine_database(machine), sigma_star()


GOLDEN = [
    # (name, case factory, oblivious, semi-oblivious, restricted)
    ("intro", intro_nonterminating_example, DIVERGING, DIVERGING, UNDETERMINED),
    ("fairness", fairness_example, DIVERGING, DIVERGING, UNDETERMINED),
    ("example_7_1", example_7_1, TERMINATING, TERMINATING, TERMINATING),
    ("prop45_3", lambda: prop45_family(3), UNDETERMINED, UNDETERMINED, UNDETERMINED),
    ("sl_lower_222", lambda: sl_lower_bound(2, 2, 2), TERMINATING, TERMINATING, TERMINATING),
    (
        "linear_lower_222",
        lambda: linear_lower_bound(2, 2, 2),
        UNDETERMINED,
        TERMINATING,
        TERMINATING,
    ),
    (
        "guarded_lower_111",
        lambda: guarded_lower_bound(1, 1, 1),
        UNDETERMINED,
        UNDETERMINED,
        UNDETERMINED,
    ),
    ("restricted_heavy_32", lambda: restricted_heavy(3, 2), UNDETERMINED, TERMINATING, TERMINATING),
    (
        "university",
        lambda: _scenario(university_ontology_scenario, students=5, courses=3, professors=2),
        TERMINATING,
        TERMINATING,
        TERMINATING,
    ),
    (
        "data_exchange_wa",
        lambda: _scenario(data_exchange_scenario, employees=6, departments=2),
        TERMINATING,
        TERMINATING,
        TERMINATING,
    ),
    (
        "data_exchange_cyclic",
        lambda: _scenario(
            data_exchange_scenario, employees=6, departments=2, weakly_acyclic=False
        ),
        DIVERGING,
        DIVERGING,
        UNDETERMINED,
    ),
    ("turing_halting", lambda: _turing(halting_machine()), UNDETERMINED, UNDETERMINED, UNDETERMINED),
    ("turing_looping", lambda: _turing(looping_machine()), UNDETERMINED, UNDETERMINED, UNDETERMINED),
]

#: Verification budget for golden ``terminating`` verdicts whose chase
#: is cheap enough to actually run (skip the big lower-bound families).
GOLDEN_RUNNABLE = {
    "example_7_1",
    "sl_lower_222",
    "restricted_heavy_32",
    "university",
    "data_exchange_wa",
}


@pytest.mark.parametrize(
    "name,case,expected",
    [
        pytest.param(name, case, dict(zip(ANALYSIS_VARIANTS, (obl, semi, restr))), id=name)
        for name, case, obl, semi, restr in GOLDEN
    ],
)
def test_golden_verdicts(name, case, expected):
    database, tgds = case()
    for variant in ANALYSIS_VARIANTS:
        report = analyze_termination(database, tgds, variant)
        assert report.verdict == expected[variant], (
            f"{name}/{variant}: expected {expected[variant]}, got {report.verdict} "
            f"via {report.method}\n" + "\n".join(report.trace)
        )
        if report.verdict == TERMINATING:
            assert report.depth_bound is not None
        if report.verdict == TERMINATING and name in GOLDEN_RUNNABLE:
            runner = VARIANT_RUNNERS[variant]
            result = runner(
                database,
                tgds,
                budget=ChaseBudget(max_atoms=200_000, max_depth=report.depth_bound),
                record_derivation=False,
            )
            assert result.outcome is ChaseOutcome.TERMINATED, (
                f"{name}/{variant}: verdict terminating (bound "
                f"{report.depth_bound}) but the chase stopped on {result.outcome}"
            )


def test_golden_diverging_verdicts_match_the_chase():
    small = ChaseBudget(max_atoms=4_000, max_rounds=2_000)
    for name, case, *verdicts in GOLDEN:
        expected = dict(zip(ANALYSIS_VARIANTS, verdicts))
        for variant, verdict in expected.items():
            if verdict != DIVERGING:
                continue
            database, tgds = case()
            result = VARIANT_RUNNERS[variant](
                database, tgds, budget=small, record_derivation=False
            )
            assert not result.terminated, (
                f"{name}/{variant}: verdict diverging but the chase terminated "
                f"with {result.size} atoms"
            )


def test_analysis_coverage_beats_the_weak_acyclicity_baseline():
    """Acceptance floor: on the standard 200-job manifest the layered
    analysis must resolve (terminating or diverging) strictly more jobs
    than uniform classic weak acyclicity alone — the whole point of the
    characterization / rank / stratification / MFA stack."""
    from repro.core.weak_acyclicity import is_weakly_acyclic
    from repro.generators.workloads import mixed_workload_jobs

    jobs = mixed_workload_jobs(200, seed=7)
    wa_resolved = sum(1 for job in jobs if is_weakly_acyclic(job.program))
    verdicts = {TERMINATING: 0, DIVERGING: 0, UNDETERMINED: 0}
    for job in jobs:
        report = analyze_termination(job.database, job.program, job.variant)
        verdicts[report.verdict] += 1
    resolved = verdicts[TERMINATING] + verdicts[DIVERGING]
    assert resolved > wa_resolved
    # Pin the measured coverage (EXPERIMENTS.md quotes these numbers);
    # small drifts from generator changes are fine, silent collapses
    # of a whole layer are not.
    assert wa_resolved == 75
    assert resolved >= 150
    assert verdicts[DIVERGING] >= 40
