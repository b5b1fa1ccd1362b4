"""Tests for the benchmark drivers (they back EXPERIMENTS.md and examples)."""

import json

from repro.bench import drivers
from repro.bench.drivers import (
    SweepRow,
    chase_size_sweep,
    decision_scaling_sweep,
    depth_bound_rows,
    depth_sweep,
    format_table,
    lower_bound_rows,
    ucq_data_complexity_rows,
    variant_comparison_rows,
    write_engine_report,
)
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


class TestEngineReport:
    def test_default_workloads_keep_every_row(self):
        # Four small workloads on all three variants, four big ones on
        # one: the 16 rows of BENCH_engine.json.
        workloads = drivers._engine_workloads()
        assert sum(len(variants) for _, _, _, variants, _ in workloads) == 16
        assert sum(big for *_, big in workloads) == 4

    def test_legacy_runs_once_and_the_store_best_of_repeats(self, monkeypatch):
        calls = {"legacy": 0, "store": 0}
        chase = drivers.semi_oblivious_chase

        def counting(database, tgds, **options):
            calls[options["engine"]] += 1
            return chase(database, tgds, **options)

        monkeypatch.setattr(drivers, "semi_oblivious_chase", counting)
        repeats = 2
        rows = drivers.engine_benchmark_rows(
            [("sl(n=1,m=2,ell=1)", *sl_lower_bound(1, 2, 1), ("semi_oblivious",), False)],
            repeats=repeats,
        )
        # Summary and materialise runs best of `repeats`, then one plain
        # run opening the overhead rounds and three runs (probe, profile,
        # plain) in each of max(9, repeats) rounds.
        assert calls == {"legacy": 1, "store": 2 * repeats + 1 + 3 * 9}
        (row,) = rows
        assert row.parameters == {
            "workload": "sl(n=1,m=2,ell=1)", "variant": "semi_oblivious", "big": False,
        }
        assert row.measured["equivalent"]
        assert "speedup" not in row.measured
        assert row.measured["telemetry_overhead_floor"] <= row.measured["telemetry_overhead"]
        assert row.measured["profile_overhead_floor"] <= row.measured["profile_overhead"]

    def test_write_engine_report_summarises_the_rows(self, tmp_path):
        def row(speedup, telemetry, telemetry_floor, profile, profile_floor):
            return SweepRow("engine-speed", {"workload": "w"}, {
                "speedup_vs_legacy": speedup,
                "telemetry_overhead": telemetry,
                "telemetry_overhead_floor": telemetry_floor,
                "profile_overhead": profile,
                "profile_overhead_floor": profile_floor,
                "equivalent": True,
            })

        path = tmp_path / "BENCH.json"
        report = write_engine_report(
            str(path), [row(12.0, 1.05, 0.95, 1.3, 1.1), row(6.5, 1.2, 1.1, 1.1, 0.9)]
        )
        assert json.loads(path.read_text()) == report
        assert len(report["rows"]) == 2
        assert report["summary"] == {
            "all_equivalent": True,
            "min_speedup_vs_legacy": 6.5,
            "max_telemetry_overhead": 1.2,
            "max_profile_overhead": 1.3,
            "max_telemetry_overhead_floor": 1.1,
            "max_profile_overhead_floor": 1.1,
        }
