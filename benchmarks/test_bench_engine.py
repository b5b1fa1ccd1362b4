"""E18 — the columnar store engine against the legacy rescan.

The store engine must produce results equivalent to the legacy rescan
while being measurably faster, and its instrumentation (per-round
telemetry, per-rule profiling) must stay cheap.  ``python -m repro
bench-engine`` regenerates the full BENCH_engine.json report; this
benchmark gates the same columns on two small rows.
"""

import pytest

from repro.bench.drivers import engine_benchmark_rows
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.generators.families import sl_lower_bound
from repro.generators.workloads import restricted_heavy


@pytest.mark.benchmark(group="E18-columnar-engine")
def test_engine_speed_report(benchmark, report):
    workloads = [
        ("sl(n=2,m=3,ell=2)", *sl_lower_bound(2, 3, 2), ("semi_oblivious",), False),
        ("restricted-heavy(n=60,m=20)", *restricted_heavy(60, 20), ("restricted",), False),
    ]
    # The overheads are measured over max(9, repeats) interleaved
    # rounds (probe-on and profile-on between two plain runs); the gates
    # read each row's floor, the min ratio over those rounds: a
    # per-trigger cost shows in every round, a scheduler interrupt in
    # one round does not move the min.
    rows = engine_benchmark_rows(workloads=workloads, repeats=2)
    report("E18: columnar store engine vs legacy", rows)
    for row in rows:
        measured = row.measured
        assert measured["equivalent"], row
        assert measured["speedup_vs_legacy"] >= 1.5, row
        assert measured["telemetry_overhead_floor"] <= 1.10, row
        assert measured["profile_overhead_floor"] <= 1.10, row
    database, tgds = sl_lower_bound(2, 2, 2)
    benchmark.pedantic(
        lambda: semi_oblivious_chase(database, tgds, record_derivation=False),
        rounds=3,
        iterations=1,
    )
