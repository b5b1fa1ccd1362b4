"""Workload drivers shared by the benchmark harness and the examples.

Each driver returns a list of :class:`SweepRow` — one row per
(parameter point), mirroring the rows a table or the series of a figure
would contain.  ``format_table`` renders them the way EXPERIMENTS.md
reports paper-vs-measured values.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from statistics import median
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.instance import Database
from repro.model.store import collector_paused
from repro.model.tgd import TGDSet
from repro.chase.engine import ChaseBudget, ChaseResult
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.bounds import (
    depth_bound,
    guarded_lower_bound_value,
    linear_lower_bound_value,
    sl_lower_bound_value,
)
from repro.core.decision import decide_termination
from repro.core.ucq import build_termination_ucq
from repro.generators.families import (
    guarded_lower_bound,
    linear_lower_bound,
    prop45_family,
    sl_lower_bound,
)


@dataclass
class SweepRow:
    """One measured point of an experiment."""

    label: str
    parameters: Dict[str, object]
    measured: Dict[str, object]

    def as_flat_dict(self) -> Dict[str, object]:
        flat: Dict[str, object] = {"label": self.label}
        flat.update(self.parameters)
        flat.update(self.measured)
        return flat


def format_table(rows: Sequence[SweepRow]) -> str:
    """Render rows as a fixed-width text table (one line per row)."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row.as_flat_dict():
            if key not in columns:
                columns.append(key)
    widths = {c: len(c) for c in columns}
    rendered_rows = []
    for row in rows:
        flat = {k: str(v) for k, v in row.as_flat_dict().items()}
        rendered_rows.append(flat)
        for column in columns:
            widths[column] = max(widths[column], len(flat.get(column, "")))
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    separator = "-+-".join("-" * widths[c] for c in columns)
    body = "\n".join(
        " | ".join(flat.get(c, "").ljust(widths[c]) for c in columns) for flat in rendered_rows
    )
    return f"{header}\n{separator}\n{body}"


def _count_predicate(result: ChaseResult, name: str) -> int:
    return sum(1 for a in result.instance if a.predicate.name == name)


# --------------------------------------------------------------------------
# E1: chase size is linear in |D|
# --------------------------------------------------------------------------


def chase_size_sweep(
    family: Callable[[int], Tuple[Database, TGDSet]],
    database_sizes: Sequence[int],
    budget: Optional[ChaseBudget] = None,
) -> List[SweepRow]:
    """Measure ``|chase(D_ℓ, Σ)|`` as the database grows (Theorems 6.4/7.5/8.3)."""
    rows: List[SweepRow] = []
    for size in database_sizes:
        database, tgds = family(size)
        result = semi_oblivious_chase(database, tgds, budget=budget, record_derivation=False)
        rows.append(
            SweepRow(
                label="chase-size",
                parameters={"|D|": len(database)},
                measured={
                    "|chase|": result.size,
                    "ratio": round(result.expansion_ratio(), 2),
                    "terminated": result.terminated,
                    "seconds": round(result.statistics.wall_seconds, 4),
                },
            )
        )
    return rows


# --------------------------------------------------------------------------
# E2-E4: lower-bound families
# --------------------------------------------------------------------------


def lower_bound_rows(
    family: str,
    parameters: Sequence[Tuple[int, int, int]],
    budget: Optional[ChaseBudget] = None,
) -> List[SweepRow]:
    """Measure the lower-bound families against their closed-form bounds.

    ``family`` is one of ``"sl"``, ``"linear"`` or ``"guarded"``;
    ``parameters`` is a sequence of ``(n, m, ℓ)`` triples.
    """
    constructors = {
        "sl": (sl_lower_bound, sl_lower_bound_value, lambda n: f"R{n}"),
        "linear": (linear_lower_bound, linear_lower_bound_value, lambda n: f"R{n}"),
        "guarded": (guarded_lower_bound, guarded_lower_bound_value, lambda n: "Node"),
    }
    constructor, bound_value, top_predicate = constructors[family]
    rows: List[SweepRow] = []
    for n, m, ell in parameters:
        database, tgds = constructor(n, m, ell)
        result = semi_oblivious_chase(database, tgds, budget=budget, record_derivation=False)
        measured_count = _count_predicate(result, top_predicate(n))
        paper_bound = bound_value(ell, n, m)
        rows.append(
            SweepRow(
                label=f"{family}-lower-bound",
                parameters={"n": n, "m": m, "|D|": ell},
                measured={
                    "paper_bound": paper_bound,
                    "measured": measured_count,
                    "total_chase": result.size,
                    "meets_bound": measured_count >= paper_bound,
                    "terminated": result.terminated,
                    "seconds": round(result.statistics.wall_seconds, 4),
                },
            )
        )
    return rows


# --------------------------------------------------------------------------
# E5/E6: term depth
# --------------------------------------------------------------------------


def depth_sweep(database_sizes: Sequence[int]) -> List[SweepRow]:
    """Proposition 4.5: ``maxdepth(D_n, Σ) = n − 1`` grows with the database."""
    rows: List[SweepRow] = []
    for size in database_sizes:
        database, tgds = prop45_family(size)
        result = semi_oblivious_chase(database, tgds, record_derivation=False)
        rows.append(
            SweepRow(
                label="prop45-depth",
                parameters={"|D|": size},
                measured={
                    "maxdepth": result.max_depth,
                    "expected": size - 1,
                    "matches": result.max_depth == size - 1,
                },
            )
        )
    return rows


def depth_bound_rows(
    workloads: Sequence[Tuple[str, Database, TGDSet]],
    budget: Optional[ChaseBudget] = None,
) -> List[SweepRow]:
    """Lemmas 6.2 / 7.4 / 8.2: measured maxdepth against ``d_C(Σ)``."""
    rows: List[SweepRow] = []
    for name, database, tgds in workloads:
        result = semi_oblivious_chase(database, tgds, budget=budget, record_derivation=False)
        bound = depth_bound(tgds)
        rows.append(
            SweepRow(
                label="depth-bound",
                parameters={"workload": name},
                measured={
                    "maxdepth": result.max_depth,
                    "d_C": bound.to_json(),
                    "within_bound": (not result.terminated) or result.max_depth <= bound,
                    "terminated": result.terminated,
                },
            )
        )
    return rows


# --------------------------------------------------------------------------
# E7-E9, E13: decision procedures
# --------------------------------------------------------------------------


def decision_scaling_sweep(
    family: Callable[[int], Tuple[Database, TGDSet]],
    database_sizes: Sequence[int],
    methods: Sequence[str] = ("syntactic", "naive"),
    practical_cap: int = 200_000,
) -> List[SweepRow]:
    """Compare decision-procedure run times as the database grows."""
    rows: List[SweepRow] = []
    for size in database_sizes:
        database, tgds = family(size)
        measured: Dict[str, object] = {}
        for method in methods:
            start = time.perf_counter()
            verdict = decide_termination(
                database, tgds, method=method, practical_cap=practical_cap
            )
            elapsed = time.perf_counter() - start
            measured[f"{method}_seconds"] = round(elapsed, 5)
            measured[f"{method}_answer"] = verdict.terminates
        rows.append(
            SweepRow(label="decision-scaling", parameters={"|D|": len(database)}, measured=measured)
        )
    return rows


def ucq_data_complexity_rows(
    tgds: TGDSet,
    databases: Sequence[Tuple[int, Database]],
) -> List[SweepRow]:
    """Split the UCQ procedure into its Σ-only and D-only costs (AC0 claim)."""
    start = time.perf_counter()
    ucq = build_termination_ucq(tgds)
    build_seconds = time.perf_counter() - start
    rows: List[SweepRow] = []
    for size, database in databases:
        start = time.perf_counter()
        violated = ucq.witnessed_by(database)
        evaluate_seconds = time.perf_counter() - start
        rows.append(
            SweepRow(
                label="ucq-data-complexity",
                parameters={"|D|": size},
                measured={
                    "ucq_disjuncts": len(ucq),
                    "build_seconds": round(build_seconds, 5),
                    "evaluate_seconds": round(evaluate_seconds, 6),
                    "terminates": not violated,
                },
            )
        )
    return rows


# --------------------------------------------------------------------------
# E18: columnar store engine vs the legacy rescan
# --------------------------------------------------------------------------


@contextmanager
def _gc_paused():
    """Collect, then hold :func:`collector_paused` over the timed region.

    Collector pauses land arbitrarily inside timed runs and were the
    dominant noise source when comparing engines (the two data planes
    allocate differently, so pauses bias the ratio, not just the
    variance).  The store engine pauses the collector itself; holding
    the pause here extends it to the legacy engine and the deciders.
    """
    gc.collect()
    with collector_paused():
        yield


#: An engine-report workload: (name, D, Σ, variants, big).
EngineWorkload = Tuple[str, Database, TGDSet, Tuple[str, ...], bool]


def _engine_workloads() -> List[EngineWorkload]:
    """The workloads of the engine report.

    ``big`` marks the enlarged rows (small rows are kept for continuity
    with the E14 report but are dominated by fixed per-run costs).
    """
    from repro.generators.workloads import restricted_heavy

    all_variants = ("semi_oblivious", "restricted", "oblivious")
    return [
        ("sl(n=2,m=3,ell=2)", *sl_lower_bound(2, 3, 2), all_variants, False),
        ("sl(n=3,m=2,ell=2)", *sl_lower_bound(3, 2, 2), all_variants, False),
        ("linear(n=2,m=2,ell=1)", *linear_lower_bound(2, 2, 1), all_variants, False),
        ("guarded(n=1,m=1,ell=1)", *guarded_lower_bound(1, 1, 1), all_variants, False),
        ("sl-big(n=3,m=3,ell=2)", *sl_lower_bound(3, 3, 2), ("semi_oblivious",), True),
        ("linear-big(n=2,m=3,ell=3)", *linear_lower_bound(2, 3, 3), ("semi_oblivious",), True),
        ("restricted-heavy(n=250,m=60)", *restricted_heavy(250, 60), ("restricted",), True),
        ("restricted-heavy(n=400,m=100)", *restricted_heavy(400, 100), ("restricted",), True),
    ]


def _results_equivalent(legacy: ChaseResult, store: ChaseResult) -> bool:
    """Byte-level result identity across engines for one bench row.

    Every variant labels a null by its trigger key, so engines that
    fire the same triggers decode equal instances, atom for atom (same
    nulls included).
    """
    return (
        store.size == legacy.size
        and store.statistics.triggers_applied == legacy.statistics.triggers_applied
        and store.statistics.triggers_considered
        == legacy.statistics.triggers_considered
        and store.instance == legacy.instance
    )


def engine_benchmark_rows(
    workloads: Optional[Sequence[EngineWorkload]] = None,
    repeats: int = 3,
) -> List[SweepRow]:
    """The store engine against the legacy rescan, one row per variant.

    Every workload runs through each of its chase variants on both
    engines, GC paused during timed regions: the legacy rescan once
    (the slow baseline, whose runs dominate the report's wall time),
    the columnar fact store best of ``repeats``.  ``*_seconds`` columns
    time the run-to-summary path (the batch runtime's mode);
    ``store_materialize_seconds`` times store runs that also materialise
    the full instance.  Each row records the speedup, the
    instrumentation overheads, and that both engines produced
    equivalent results (:func:`_results_equivalent`).

    ``workloads`` defaults to :func:`_engine_workloads`.
    """
    from repro.obs.probe import ChaseProbe
    from repro.obs.profile import RuleProfiler

    runners = {
        "semi_oblivious": semi_oblivious_chase,
        "restricted": restricted_chase,
        "oblivious": oblivious_chase,
    }
    budget = ChaseBudget(max_atoms=500_000)
    rows: List[SweepRow] = []

    def timed(runner, database, tgds, engine, observers=(), materialize=False):
        with _gc_paused():
            start = time.perf_counter()
            result = runner(
                database, tgds, budget=budget, record_derivation=False,
                engine=engine, observers=observers,
            )
            result.summary()
            if materialize:
                len(result.instance)
            return time.perf_counter() - start, result

    def best(runner, database, tgds, **options):
        runs = (timed(runner, database, tgds, "store", **options) for _ in range(max(1, repeats)))
        return min(runs, key=lambda run: run[0])

    for name, database, tgds, variants, big in workloads or _engine_workloads():
        for variant in variants:
            runner = runners[variant]
            legacy_seconds, legacy = timed(runner, database, tgds, "legacy")
            store_seconds, store = best(runner, database, tgds)
            materialize_seconds, _ = best(runner, database, tgds, materialize=True)
            # Instrumentation overheads: the same store run with a
            # per-round probe (telemetry) and with per-rule attribution
            # (profile).  The modes are measured *interleaved*: each
            # round runs probe-on and profile-on between two plain runs
            # (a round's closing plain run opens the next round) and
            # divides by the faster of the two, so machine drift cancels
            # within the round and one disturbed plain run cannot make
            # its round's ratio look cheap.  The *median* ratio is the
            # central estimate; the *floor* (min ratio) is what a gate
            # reads: a genuine per-trigger cost shows up in every round
            # so it cannot hide from the min, while a scheduler
            # interrupt in any single instrumented run cannot flake it.
            plain = [timed(runner, database, tgds, "store")[0]]
            ratios: Dict[str, List[float]] = {"probe": [], "profile": []}
            instrumented = {"probe": float("inf"), "profile": float("inf")}
            for _ in range(max(9, repeats)):
                seconds = {
                    mode: timed(runner, database, tgds, "store", [observer()])[0]
                    for mode, observer in (("probe", ChaseProbe), ("profile", RuleProfiler))
                }
                plain.append(timed(runner, database, tgds, "store")[0])
                baseline = max(min(plain[-2:]), 1e-9)
                for mode, elapsed in seconds.items():
                    ratios[mode].append(elapsed / baseline)
                    instrumented[mode] = min(instrumented[mode], elapsed)
            measured: Dict[str, object] = {
                "atoms": store.size,
                "legacy_seconds": round(legacy_seconds, 4),
                "store_seconds": round(store_seconds, 4),
                "speedup_vs_legacy": round(legacy_seconds / max(store_seconds, 1e-9), 2),
                "store_atoms_per_s": round(store.size / max(store_seconds, 1e-9)),
                "store_materialize_seconds": round(materialize_seconds, 4),
                "applied": store.statistics.triggers_applied,
                "store_telemetry_seconds": round(instrumented["probe"], 4),
                "telemetry_overhead": round(median(ratios["probe"]), 3),
                "telemetry_overhead_floor": round(min(ratios["probe"]), 3),
                "store_profile_seconds": round(instrumented["profile"], 4),
                "profile_overhead": round(median(ratios["profile"]), 3),
                "profile_overhead_floor": round(min(ratios["profile"]), 3),
                "equivalent": _results_equivalent(legacy, store),
            }
            rows.append(
                SweepRow(
                    label="engine-speed",
                    parameters={"workload": name, "variant": variant, "big": big},
                    measured=measured,
                )
            )
    return rows


def write_engine_report(path: str, rows: Sequence[SweepRow]) -> Dict[str, object]:
    """Write :func:`engine_benchmark_rows` output and its summary to
    ``path`` as JSON.

    The artefact backing the columnar-store claims (E18): the store
    engine beats the legacy rescan on every row (``speedup_vs_legacy``)
    with equivalent results, and per-round telemetry and per-rule
    profiling stay cheap (``*_overhead`` columns).
    """

    def column(key: str) -> List[float]:
        return [float(row.measured[key]) for row in rows]

    summary = {
        "all_equivalent": all(bool(row.measured["equivalent"]) for row in rows),
        "min_speedup_vs_legacy": min(column("speedup_vs_legacy"), default=None),
        "max_telemetry_overhead": max(column("telemetry_overhead"), default=None),
        "max_profile_overhead": max(column("profile_overhead"), default=None),
        "max_telemetry_overhead_floor": max(
            column("telemetry_overhead_floor"), default=None
        ),
        "max_profile_overhead_floor": max(column("profile_overhead_floor"), default=None),
    }
    report = {
        "experiment": "E18-columnar-engine",
        "description": (
            "Columnar fact-store engine vs the legacy rescan: legacy run "
            "once, store best-of-N, run-to-summary wall seconds with GC "
            "paused; interleaved telemetry and profiling overheads"
        ),
        "python": platform.python_version(),
        "rows": [row.as_flat_dict() for row in rows],
        "summary": summary,
    }
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return report


# --------------------------------------------------------------------------
# E12: chase variants
# --------------------------------------------------------------------------


def variant_comparison_rows(
    workloads: Sequence[Tuple[str, Database, TGDSet]],
    budget: Optional[ChaseBudget] = None,
) -> List[SweepRow]:
    """Semi-oblivious vs restricted vs oblivious size and time."""
    rows: List[SweepRow] = []
    runners = {
        "semi_oblivious": semi_oblivious_chase,
        "restricted": restricted_chase,
        "oblivious": oblivious_chase,
    }
    for name, database, tgds in workloads:
        measured: Dict[str, object] = {"|D|": len(database)}
        for variant, runner in runners.items():
            result = runner(database, tgds, budget=budget, record_derivation=False)
            measured[f"{variant}_size"] = result.size if result.terminated else f">{result.size}"
            measured[f"{variant}_seconds"] = round(result.statistics.wall_seconds, 4)
        rows.append(SweepRow(label="chase-variants", parameters={"workload": name}, measured=measured))
    return rows
