"""Paper-bound conformance monitoring (obs/conformance.py).

Two directions: terminated runs of correctly classified SL/L programs
must land *under* their d_C/f_C bounds (utilization ≤ 1.0, no
violations), and an intentionally misclassified program whose observed
depth exceeds the wrong class's bound must raise the structured
violation counter — that is the signal the monitor exists for.
"""

import time

import pytest

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ChaseBudget
from repro.core.classify import TGDClass, classify
from repro.generators.families import (
    example_7_1,
    linear_lower_bound,
    sl_lower_bound,
)
from repro.model.parser import parse_database, parse_program
from repro.obs.conformance import conformance_report, record_conformance
from repro.obs.metrics import MetricsRegistry

BUDGET = ChaseBudget(max_atoms=200_000, max_rounds=100_000)

#: A guarded ontology whose termination depends on the data: d_G = 8,388,608.
MENTORING = (
    "Team(t), MemberOf(p, t) -> exists q . Mentors(q, p), MemberOf(q, t)\n"
    "Mentors(q, p) -> Knows(q, p)"
)

#: Terminating SL/L golden-table families (name -> case factory).
TERMINATING_FAMILIES = {
    "example_7_1": example_7_1,
    "sl_lower_222": lambda: sl_lower_bound(2, 2, 2),
    "linear_lower_222": lambda: linear_lower_bound(2, 2, 2),
}


class TestConformingRuns:
    @pytest.mark.parametrize("name", sorted(TERMINATING_FAMILIES))
    @pytest.mark.parametrize("variant", ["semi-oblivious", "restricted"])
    def test_terminating_families_stay_under_their_bounds(self, name, variant):
        database, tgds = TERMINATING_FAMILIES[name]()
        assert classify(tgds).has_paper_bounds
        result = VARIANT_RUNNERS[variant](
            database, tgds, budget=BUDGET, record_derivation=False, engine="store"
        )
        assert result.terminated
        report = conformance_report(result.summary(), tgds)
        assert report is not None
        assert report["terminated"] is True
        assert report["violations"] == []
        assert 0.0 <= report["size_utilization"] <= 1.0
        assert 0.0 <= report["depth_utilization"] <= 1.0
        # A bound printed as an int must actually dominate the observation.
        if isinstance(report["size_bound"], int):
            assert result.size <= report["size_bound"]
        if isinstance(report["depth_bound"], int):
            assert result.max_depth <= report["depth_bound"]

    def test_guarded_block_reads_f_g_off_its_exponent(self):
        # The 2-rule mentoring ontology: |D| · f_G has ~1.9·10^8 bits and
        # building it took about 100 s.  Its magnitude is the one the
        # built integer printed; d_G = 8,388,608 fits a machine word.
        database = parse_database("Knows(ada, bob).")
        summary = VARIANT_RUNNERS["semi-oblivious"](
            database, parse_program(MENTORING), record_derivation=False
        ).summary()
        seconds = []
        for _ in range(3):
            tgds = parse_program(MENTORING)  # cold: nothing memoised on the program
            start = time.perf_counter()
            report = conformance_report(summary, tgds)
            seconds.append(time.perf_counter() - start)
            assert report == {
                "class": "G",
                "terminated": True,
                "size_bound": "~10^56413109",
                "size_utilization": 0.0,
                "depth_bound": 8388608,
                "depth_utilization": 0.0,
                "violations": [],
            }
        assert min(seconds) < 0.005, seconds

    def test_arbitrary_class_has_no_report(self):
        tgds = parse_program("R(x, y), S(y, z) -> exists w . R(z, w)\nR(x, y) -> S(x, y)")
        assert not classify(tgds).has_paper_bounds
        summary = {"size": 5, "database_size": 2, "max_depth": 1, "terminated": True}
        assert conformance_report(summary, tgds) is None

    def test_budget_stopped_runs_never_count_as_violations(self):
        # Even an observation far above the bound is not a violation
        # when the run was stopped by a budget: a prefix of a diverging
        # chase is not a counterexample to a termination bound.
        tgds = parse_program("P(x) -> Q(x)")
        report = conformance_report(
            {
                "size": 10**9,
                "database_size": 1,
                "max_depth": 10**6,
                "terminated": False,
            },
            tgds,
        )
        assert report is not None
        assert report["violations"] == []


#: A terminating program whose null chain grows with the *database*
#: (depth k for a k-link chain): each step passes the previous null
#: through the frontier, so depths stack.  Not simple-linear (two body
#: atoms) — which is the point of the misclassification fixture below.
_DEEP_CHAIN_RULES = "Step(x, y), P(x, u) -> exists v . P(y, v), Link(u, v)"


def _deep_chain(links: int):
    facts = [f"Step(a{i}, a{i + 1})" for i in range(links)]
    facts.append("P(a0, c)")
    return parse_database("\n".join(facts)), parse_program(_DEEP_CHAIN_RULES)


class TestMisclassification:
    def test_deep_chain_exceeds_the_sl_depth_bound(self):
        database, tgds = _deep_chain(links=10)
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False, engine="store"
        )
        assert result.terminated
        # d_SL = |sch| * ar = 3 * 2 = 6, but the chain reaches depth 10.
        assert result.max_depth > 6
        report = conformance_report(
            result.summary(), tgds, tgd_class=TGDClass.SIMPLE_LINEAR
        )
        assert report is not None
        assert report["class"] == str(TGDClass.SIMPLE_LINEAR)
        assert "depth" in report["violations"]
        assert report["depth_utilization"] > 1.0

    def test_violation_fires_the_warning_counter(self):
        database, tgds = _deep_chain(links=10)
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False, engine="store"
        )
        report = conformance_report(
            result.summary(), tgds, tgd_class=TGDClass.SIMPLE_LINEAR
        )
        registry = MetricsRegistry()
        record_conformance(registry, report)
        rendered = registry.render()
        assert "repro_bound_violations_total 1" in rendered
        assert 'repro_bound_utilization{kind="depth"}' in rendered

    def test_guarded_depth_bound_is_checked_at_its_boundary(self):
        # A guarded run is checked against d_G itself: at d_G it
        # conforms, one deeper it is a violation that fires the counter.
        tgds = parse_program(MENTORING)
        summary = {"size": 3, "database_size": 2, "terminated": True}
        at_bound = conformance_report({**summary, "max_depth": 8_388_608}, tgds)
        assert at_bound["violations"] == []
        assert at_bound["depth_utilization"] == 1.0
        over = conformance_report({**summary, "max_depth": 8_388_609}, tgds)
        assert over["violations"] == ["depth"]
        assert over["depth_bound"] == 8_388_608
        registry = MetricsRegistry()
        record_conformance(registry, over)
        assert "repro_bound_violations_total 1" in registry.render()

    def test_utilization_is_the_exactly_rounded_ratio(self):
        # 0.0 is reported without building the bound once it exceeds
        # observed · 2^21; around that edge (depth 4 of d_G = 2^23) the
        # value must still be the plainly rounded ratio.
        tgds = parse_program(MENTORING)
        for depth in range(64):
            report = conformance_report(
                {"size": 1, "database_size": 1, "max_depth": depth, "terminated": True},
                tgds,
            )
            assert report["depth_utilization"] == round(depth / 8_388_608, 6), depth
            assert report["size_utilization"] == 0.0
        sl = parse_program("P(x) -> Q(x)")  # d_SL = 2, |D| · f_SL = 12288 |D|
        for size in (0, 1, 3, 6144, 12288):
            report = conformance_report(
                {"size": size, "database_size": 1, "max_depth": 1, "terminated": True},
                sl,
            )
            assert report["size_bound"] == 12288
            assert report["size_utilization"] == round(size / 12288, 6)
            assert report["depth_utilization"] == 0.5

    def test_conforming_run_keeps_the_counter_at_zero(self):
        database, tgds = TERMINATING_FAMILIES["example_7_1"]()
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False, engine="store"
        )
        report = conformance_report(result.summary(), tgds)
        registry = MetricsRegistry()
        record_conformance(registry, report)
        rendered = registry.render()
        # The counter exists (dashboards can alert on it) but is zero.
        assert "repro_bound_violations_total 0" in rendered

    def test_none_report_is_a_noop(self):
        registry = MetricsRegistry()
        record_conformance(registry, None)
        assert "repro_bound" not in registry.render()
