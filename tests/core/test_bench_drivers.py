"""Tests for the benchmark drivers (they back EXPERIMENTS.md and examples)."""

from repro.bench.drivers import (
    SweepRow,
    chase_size_sweep,
    decision_scaling_sweep,
    depth_bound_rows,
    depth_sweep,
    format_table,
    lower_bound_rows,
    pool_speedup_target_met,
    ucq_data_complexity_rows,
    variant_comparison_rows,
)
from repro.core.bounds import magnitude
from repro.generators.families import example_7_1, sl_lower_bound
from repro.generators.scenarios import data_exchange_scenario


class TestFormatting:
    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_has_header_and_rows(self):
        rows = [
            SweepRow(label="x", parameters={"n": 1}, measured={"value": 10}),
            SweepRow(label="x", parameters={"n": 2}, measured={"value": 20, "extra": "yes"}),
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "value" in lines[0] and "extra" in lines[0]

    def test_magnitude_small_and_large(self):
        assert magnitude(12345) == "12345"
        assert magnitude(10 ** 100).startswith("~10^")


class TestPoolSpeedupTarget:
    def test_met(self):
        assert pool_speedup_target_met(3.1, cpu_count=4, workers=4) is True

    def test_not_met(self):
        assert pool_speedup_target_met(1.01, cpu_count=8, workers=4) is False

    def test_not_evaluable_on_fewer_cores_than_workers(self):
        assert pool_speedup_target_met(1.01, cpu_count=1, workers=4) is None
        assert pool_speedup_target_met(3.1, cpu_count=2, workers=4) is None


class TestSweeps:
    def test_chase_size_sweep_ratio_is_flat(self):
        rows = chase_size_sweep(lambda size: sl_lower_bound(1, 2, size), [1, 2, 4])
        ratios = {row.measured["ratio"] for row in rows}
        assert len(ratios) == 1
        assert all(row.measured["terminated"] for row in rows)

    def test_lower_bound_rows_meet_bounds(self):
        rows = lower_bound_rows("sl", [(1, 1, 1), (1, 2, 1)])
        assert all(row.measured["meets_bound"] for row in rows)

    def test_depth_sweep_matches_prop45(self):
        rows = depth_sweep([2, 3, 4])
        assert [row.measured["maxdepth"] for row in rows] == [1, 2, 3]

    def test_depth_bound_rows(self):
        rows = depth_bound_rows([("example_7_1", *example_7_1())])
        assert rows[0].measured["within_bound"]

    def test_decision_scaling_sweep_reports_both_methods(self):
        rows = decision_scaling_sweep(lambda size: sl_lower_bound(1, 1, size), [1, 2])
        for row in rows:
            assert "syntactic_seconds" in row.measured
            assert "naive_seconds" in row.measured

    def test_ucq_data_complexity_rows(self):
        scenario = data_exchange_scenario(employees=3, departments=2, weakly_acyclic=False)
        rows = ucq_data_complexity_rows(scenario.tgds, [(len(scenario.database), scenario.database)])
        assert rows[0].measured["terminates"] is False

    def test_variant_comparison_rows(self):
        scenario = data_exchange_scenario(employees=5, departments=2)
        rows = variant_comparison_rows([("exchange", scenario.database, scenario.tgds)])
        measured = rows[0].measured
        assert measured["restricted_size"] <= measured["semi_oblivious_size"]
        assert measured["semi_oblivious_size"] <= measured["oblivious_size"]
