"""Workload drivers shared by the benchmark harness and the examples.

Each driver returns a list of :class:`SweepRow` — one row per
(parameter point), mirroring the rows a table or the series of a figure
would contain.  ``format_table`` renders them the way EXPERIMENTS.md
reports paper-vs-measured values.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import sys
import time
from statistics import median
from contextlib import contextmanager
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.model.instance import Database
from repro.model.tgd import TGDSet
from repro.chase.engine import ENGINES, ChaseBudget, ChaseResult
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.bounds import (
    depth_bound,
    guarded_lower_bound_value,
    linear_lower_bound_value,
    sl_lower_bound_value,
)
from repro.core.decision import decide_termination, naive_decision, syntactic_decision, ucq_decision
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
                    "d_C": bound,
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
# E18: columnar engine — speed, snapshots, incremental re-chase
# --------------------------------------------------------------------------

#: The engine implementations the report compares, slow to fast
#: (ENGINES lists them fast to slow).
_ENGINE_ORDER = tuple(reversed(ENGINES))


@contextmanager
def _gc_paused():
    """Collect, then disable the GC for the timed region.

    Collector pauses land arbitrarily inside timed runs and were the
    dominant noise source when comparing engines (the two data planes
    allocate differently, so pauses bias the ratio, not just the
    variance).
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _peak_rss_mb() -> Optional[float]:
    """Process peak RSS in MiB at call time, if known.

    ``ru_maxrss`` is a process-wide monotone high-water mark: a row's
    value includes every workload run before it.  Per-engine footprint
    claims come from :func:`engine_memory_row` (tracemalloc), not from
    comparing these columns.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    divisor = 1024 if sys.platform != "darwin" else 1024 * 1024
    return round(peak / divisor, 1)


def _engine_workloads(
    quick: bool = False,
) -> List[Tuple[str, Database, TGDSet, Tuple[str, ...], bool]]:
    """The workloads of the engine report: (name, D, Σ, variants, big).

    ``big`` marks the enlarged rows (small rows are kept for continuity
    with the E14 report but are dominated by fixed per-run costs).
    """
    from repro.generators.workloads import restricted_heavy

    if quick:
        database, tgds = sl_lower_bound(2, 3, 2)
        heavy_database, heavy_tgds = restricted_heavy(60, 20)
        return [
            ("sl(n=2,m=3,ell=2)", database, tgds, ("semi_oblivious",), False),
            ("restricted-heavy(n=60,m=20)", heavy_database, heavy_tgds, ("restricted",), False),
        ]
    all_variants = ("semi_oblivious", "restricted", "oblivious")
    out: List[Tuple[str, Database, TGDSet, Tuple[str, ...], bool]] = []
    for name, (database, tgds), variants, big in [
        ("sl(n=2,m=3,ell=2)", sl_lower_bound(2, 3, 2), all_variants, False),
        ("sl(n=3,m=2,ell=2)", sl_lower_bound(3, 2, 2), all_variants, False),
        ("linear(n=2,m=2,ell=1)", linear_lower_bound(2, 2, 1), all_variants, False),
        ("guarded(n=1,m=1,ell=1)", guarded_lower_bound(1, 1, 1), all_variants, False),
        ("sl-big(n=3,m=3,ell=2)", sl_lower_bound(3, 3, 2), ("semi_oblivious",), True),
        ("linear-big(n=2,m=3,ell=3)", linear_lower_bound(2, 3, 3), ("semi_oblivious",), True),
        ("restricted-heavy(n=250,m=60)", restricted_heavy(250, 60), ("restricted",), True),
        ("restricted-heavy(n=400,m=100)", restricted_heavy(400, 100), ("restricted",), True),
    ]:
        out.append((name, database, tgds, variants, big))
    return out


def _results_equivalent(results: Dict[str, ChaseResult]) -> bool:
    """Byte-level result identity across engines for one bench row.

    Every variant labels a null by its trigger key, so engines that
    fire the same triggers decode equal instances, atom for atom (same
    nulls included).
    """
    baseline = results["legacy"]
    for engine in results:
        if engine == "legacy":
            continue
        candidate = results[engine]
        if (
            candidate.size != baseline.size
            or candidate.statistics.triggers_applied
            != baseline.statistics.triggers_applied
            or candidate.statistics.triggers_considered
            != baseline.statistics.triggers_considered
        ):
            return False
        if candidate.instance != baseline.instance:
            return False
    return True


def engine_benchmark_rows(
    workloads: Optional[Sequence[Tuple]] = None,
    variants: Sequence[str] = ("semi_oblivious", "restricted", "oblivious"),
    budget: Optional[ChaseBudget] = None,
    repeats: int = 3,
    quick: bool = False,
) -> List[SweepRow]:
    """Engine comparison on the lower-bound families.

    Every workload runs through each chase variant on both engines —
    the columnar fact store (the default) and the legacy per-round
    rescan — best of ``repeats`` runs each, GC paused during timed
    regions.  ``*_seconds`` columns time the run-to-summary path (the
    batch runtime's mode); ``store_materialize_seconds`` times one
    extra store run that also materialises the full instance.  Each
    row records speedups, instrumentation overheads, peak RSS, and
    that both engines produced equivalent results
    (:func:`_results_equivalent`).

    ``workloads`` entries are ``(name, database, tgds)`` or
    ``(name, database, tgds, variants[, big])``.
    """
    runners = {
        "semi_oblivious": semi_oblivious_chase,
        "restricted": restricted_chase,
        "oblivious": oblivious_chase,
    }
    budget = budget or ChaseBudget(max_atoms=500_000)
    rows: List[SweepRow] = []

    def timed(runner, database, tgds, engine, materialize=False):
        best = float("inf")
        result = None
        for _ in range(max(1, repeats)):
            with _gc_paused():
                start = time.perf_counter()
                result = runner(
                    database, tgds, budget=budget, record_derivation=False,
                    engine=engine,
                )
                result.summary()
                if materialize:
                    len(result.instance)
                best = min(best, time.perf_counter() - start)
        return best, result

    for entry in workloads or _engine_workloads(quick=quick):
        name, database, tgds = entry[0], entry[1], entry[2]
        row_variants = entry[3] if len(entry) > 3 else tuple(variants)
        big = entry[4] if len(entry) > 4 else False
        for variant in row_variants:
            runner = runners[variant]
            timings: Dict[str, float] = {}
            results: Dict[str, ChaseResult] = {}
            for engine in _ENGINE_ORDER:
                timings[engine], results[engine] = timed(runner, database, tgds, engine)
            store_seconds = max(timings["store"], 1e-9)
            materialize_store, _ = timed(
                runner, database, tgds, "store", materialize=True
            )
            # Instrumentation overheads: the same store run with a
            # per-round probe (telemetry) and with per-rule attribution
            # (profile).  Both are gated in quick mode (on ≤ 1.10× of
            # off) so instrumentation can never silently become a
            # per-trigger cost.  The three modes are measured
            # *interleaved* — plain, probe-on, profile-on back to back
            # each round — and each round yields its own ratio, so
            # machine drift cancels within the round; the reported
            # overhead is the *median* ratio, which tosses the rounds a
            # scheduler interrupt landed in.  Ratio-of-best-times is
            # not robust enough here: one clean plain run against a
            # noisy instrumented phase flakes the gate on runs this
            # short.
            from repro.obs.probe import ChaseProbe
            from repro.obs.profile import RuleProfiler

            probe_ratios: List[float] = []
            profile_ratios: List[float] = []
            telemetry_store = profile_store = float("inf")
            for _ in range(max(9, repeats)):
                mode_seconds = {}
                for mode in ("plain", "probe", "profile"):
                    observers = (
                        [ChaseProbe()] if mode == "probe"
                        else [RuleProfiler()] if mode == "profile"
                        else []
                    )
                    with _gc_paused():
                        mode_start = time.perf_counter()
                        runner(
                            database, tgds, budget=budget,
                            record_derivation=False, engine="store",
                            observers=observers,
                        ).summary()
                        mode_seconds[mode] = time.perf_counter() - mode_start
                plain = max(mode_seconds["plain"], 1e-9)
                probe_ratios.append(mode_seconds["probe"] / plain)
                profile_ratios.append(mode_seconds["profile"] / plain)
                telemetry_store = min(telemetry_store, mode_seconds["probe"])
                profile_store = min(profile_store, mode_seconds["profile"])
            # The gate reads the *floor* (min ratio): a genuine
            # per-trigger cost shows up in every round so it cannot
            # hide from the min, while a scheduler interrupt in any
            # single round cannot flake the gate.  The median stays the
            # honest central estimate for dashboards.
            telemetry_overhead = median(probe_ratios)
            profile_overhead = median(profile_ratios)
            telemetry_floor = min(probe_ratios)
            profile_floor = min(profile_ratios)
            store_result = results["store"]
            measured: Dict[str, object] = {
                "atoms": store_result.size,
                "legacy_seconds": round(timings["legacy"], 4),
                "store_seconds": round(timings["store"], 4),
                "speedup_vs_legacy": round(timings["legacy"] / store_seconds, 2),
                "store_atoms_per_s": round(store_result.size / store_seconds),
                "store_materialize_seconds": round(materialize_store, 4),
                "applied": store_result.statistics.triggers_applied,
                "store_telemetry_seconds": round(telemetry_store, 4),
                "telemetry_overhead": round(telemetry_overhead, 3),
                "telemetry_overhead_floor": round(telemetry_floor, 3),
                "store_profile_seconds": round(profile_store, 4),
                "profile_overhead": round(profile_overhead, 3),
                "profile_overhead_floor": round(profile_floor, 3),
                "equivalent": _results_equivalent(results),
                "peak_rss_mb": _peak_rss_mb(),
                # Kept for dashboards that read the E14 column.
                "speedup": round(timings["legacy"] / store_seconds, 2),
            }
            rows.append(
                SweepRow(
                    label="engine-speed",
                    parameters={
                        "workload": name,
                        "variant": variant,
                        "big": big,
                        # Part of the bench-history row key: keeps these
                        # rows paired with entries recorded when the
                        # store had a second layout.
                        "layout": "arrays",
                    },
                    measured=measured,
                )
            )
    return rows


def snapshot_roundtrip_row(
    workload: Optional[Tuple[str, Database, TGDSet]] = None,
    budget: Optional[ChaseBudget] = None,
    repeats: int = 3,
) -> SweepRow:
    """Snapshot encode/decode throughput on a big chase result.

    Chases the workload once on the store engine, then times
    ``FactStore.snapshot()`` and ``FactStore.restore()`` (best of
    ``repeats``), reporting MB/s both ways and that the restored store
    decodes to the exact same instance (null recipes included).
    """
    from repro.model.store import FactStore

    if workload is None:
        database, tgds = sl_lower_bound(3, 3, 2)
        name = "sl-big(n=3,m=3,ell=2)"
    else:
        name, database, tgds = workload
    budget = budget or ChaseBudget(max_atoms=500_000)
    result = semi_oblivious_chase(
        database, tgds, budget=budget, record_derivation=False, engine="store"
    )
    blob = result.store_snapshot()
    assert blob is not None
    encode_seconds = float("inf")
    decode_seconds = float("inf")
    restored = None
    for _ in range(max(1, repeats)):
        with _gc_paused():
            start = time.perf_counter()
            blob = result.store_snapshot()
            encode_seconds = min(encode_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            restored = FactStore.restore(blob)
            decode_seconds = min(decode_seconds, time.perf_counter() - start)
    megabytes = len(blob) / (1024 * 1024)
    equivalent = (
        len(restored) == result.size
        and restored.max_depth() == result.max_depth
        and restored.to_instance() == result.instance
    )
    return SweepRow(
        label="snapshot-roundtrip",
        parameters={"workload": name, "atoms": result.size},
        measured={
            "snapshot_bytes": len(blob),
            "encode_seconds": round(encode_seconds, 4),
            "decode_seconds": round(decode_seconds, 4),
            "encode_mb_s": round(megabytes / max(encode_seconds, 1e-9), 1),
            "decode_mb_s": round(megabytes / max(decode_seconds, 1e-9), 1),
            "equivalent": equivalent,
        },
    )


def incremental_rechase_row(
    chain_length: int = 80,
    payloads: int = 320,
    delta_payloads: int = 20,
    budget: Optional[ChaseBudget] = None,
    repeats: int = 3,
) -> SweepRow:
    """Cold re-chase vs ``resume_from`` on a ~5% database delta.

    The base database is ``restricted_heavy(chain_length, payloads -
    delta_payloads)`` and the grown one adds ``delta_payloads`` payload
    seeds (the base facts are a strict subset).  The cold run chases
    the grown database from scratch; the incremental run restores the
    base run's snapshot (restore cost included in its time) and chases
    only the delta.  The semi-oblivious result is unique, so the two
    instances must be equal atom for atom.
    """
    from repro.generators.workloads import restricted_heavy

    budget = budget or ChaseBudget(max_atoms=500_000)
    full_database, tgds = restricted_heavy(chain_length, payloads)
    base_database, _ = restricted_heavy(chain_length, payloads - delta_payloads)
    assert set(base_database) <= set(full_database)
    base = semi_oblivious_chase(
        base_database, tgds, budget=budget, record_derivation=False, engine="store"
    )
    assert base.terminated
    snapshot = base.store_snapshot()
    assert snapshot is not None

    cold_seconds = float("inf")
    cold = None
    for _ in range(max(1, repeats)):
        with _gc_paused():
            start = time.perf_counter()
            cold = semi_oblivious_chase(
                full_database, tgds, budget=budget, record_derivation=False,
                engine="store",
            )
            cold.summary()
            cold_seconds = min(cold_seconds, time.perf_counter() - start)
    resume_seconds = float("inf")
    resumed = None
    for _ in range(max(1, repeats)):
        with _gc_paused():
            start = time.perf_counter()
            resumed = semi_oblivious_chase(
                full_database, tgds, budget=budget, record_derivation=False,
                engine="store", resume_from=snapshot,
            )
            resumed.summary()
            resume_seconds = min(resume_seconds, time.perf_counter() - start)
    equivalent = (
        resumed.terminated
        and cold.terminated
        and resumed.size == cold.size
        and resumed.instance == cold.instance
    )
    delta_fraction = (len(full_database) - len(base_database)) / len(full_database)
    return SweepRow(
        label="incremental-rechase",
        parameters={
            "workload": f"restricted-heavy(n={chain_length},m={payloads})",
            "variant": "semi_oblivious",
            "delta_facts": len(full_database) - len(base_database),
            "delta_fraction": round(delta_fraction, 4),
        },
        measured={
            "base_atoms": base.size,
            "atoms": cold.size,
            "cold_seconds": round(cold_seconds, 4),
            "resume_seconds": round(resume_seconds, 4),
            "incremental_speedup": round(cold_seconds / max(resume_seconds, 1e-9), 2),
            "equivalent": equivalent,
        },
    )


def engine_memory_row(
    workload: Optional[Tuple[str, Database, TGDSet]] = None,
    variant: str = "semi_oblivious",
    budget: Optional[ChaseBudget] = None,
) -> SweepRow:
    """Peak traced Python allocations per engine on one big workload.

    ``tracemalloc`` runs are slow, so this is a single dedicated row
    (not per-row instrumentation): it isolates the data-plane footprint
    claim — packed id tuples against three ``Set[Atom]`` indexes —
    from the wall-clock rows.
    """
    import tracemalloc

    runners = {
        "semi_oblivious": semi_oblivious_chase,
        "restricted": restricted_chase,
        "oblivious": oblivious_chase,
    }
    if workload is None:
        database, tgds = sl_lower_bound(3, 3, 2)
        name = "sl-big(n=3,m=3,ell=2)"
    else:
        name, database, tgds = workload
    budget = budget or ChaseBudget(max_atoms=500_000)
    measured: Dict[str, object] = {}
    for engine in _ENGINE_ORDER:
        tracemalloc.start()
        result = runners[variant](
            database, tgds, budget=budget, record_derivation=False, engine=engine
        )
        result.summary()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del result
        measured[f"{engine}_peak_mb"] = round(peak / (1024 * 1024), 1)
    measured["store_vs_legacy_ratio"] = round(
        float(measured["legacy_peak_mb"]) / max(float(measured["store_peak_mb"]), 1e-9), 2
    )
    return SweepRow(
        label="engine-memory",
        parameters={"workload": name, "variant": variant},
        measured=measured,
    )


def write_engine_report(
    path: str = "BENCH_engine.json",
    rows: Optional[Sequence[SweepRow]] = None,
    quick: bool = False,
    history_path: Optional[str] = None,
    **kwargs,
) -> Dict[str, object]:
    """Run the engine report and write it to ``path`` as JSON.

    The PR-facing artefact backing the columnar-store claims (E18):

    * the store engine beats the legacy rescan on every row
      (``speedup_vs_legacy``), with equivalent results;
    * snapshot round trips are fast enough to ship (encode/decode MB/s
      row) and lossless;
    * ``resume_from`` re-chase of a ~5% database delta is ≥ 3× faster
      than a cold re-chase, atom-for-atom equal;
    * per-round telemetry and per-rule profiling stay cheap
      (``*_overhead`` columns).

    ``quick`` runs the two-row CI smoke variant, whose gates are the
    store-vs-legacy speedup (≥ 1.5×) and the instrumentation overhead
    floors (≤ 1.10×).
    """
    if rows is None:
        # Generating our own rows means owning the extra rows too; a
        # caller-supplied list (tests) is taken as-is.
        rows = engine_benchmark_rows(quick=quick, **kwargs)
        if not quick:
            rows.append(snapshot_roundtrip_row())
            rows.append(incremental_rechase_row())
            rows.append(engine_memory_row())
    else:
        rows = list(rows)
    speed_rows = [r for r in rows if r.label == "engine-speed"]
    vs_legacy = [float(r.measured["speedup_vs_legacy"]) for r in speed_rows]
    telemetry_overheads = [
        float(r.measured["telemetry_overhead"])
        for r in speed_rows
        if "telemetry_overhead" in r.measured
    ]
    profile_overheads = [
        float(r.measured["profile_overhead"])
        for r in speed_rows
        if "profile_overhead" in r.measured
    ]
    telemetry_floors = [
        float(r.measured["telemetry_overhead_floor"])
        for r in speed_rows
        if "telemetry_overhead_floor" in r.measured
    ]
    profile_floors = [
        float(r.measured["profile_overhead_floor"])
        for r in speed_rows
        if "profile_overhead_floor" in r.measured
    ]
    snapshot_rows = [r for r in rows if r.label == "snapshot-roundtrip"]
    incremental_rows = [r for r in rows if r.label == "incremental-rechase"]
    incremental_speedup = (
        min(float(r.measured["incremental_speedup"]) for r in incremental_rows)
        if incremental_rows
        else None
    )
    equivalence_rows = speed_rows + snapshot_rows + incremental_rows
    summary = {
        "all_equivalent": all(
            bool(r.measured["equivalent"]) for r in equivalence_rows
        ),
        "min_speedup_vs_legacy": min(vs_legacy) if vs_legacy else None,
        # Only evaluated on the full report; quick mode reports None
        # (not evaluated) rather than false (regressed).
        "incremental_speedup": incremental_speedup,
        "incremental_target_met": (
            (incremental_speedup >= 3.0) if incremental_speedup is not None else None
        ),
        "snapshot_encode_mb_s": (
            float(snapshot_rows[0].measured["encode_mb_s"]) if snapshot_rows else None
        ),
        "snapshot_decode_mb_s": (
            float(snapshot_rows[0].measured["decode_mb_s"]) if snapshot_rows else None
        ),
        "max_telemetry_overhead": (
            max(telemetry_overheads) if telemetry_overheads else None
        ),
        "max_profile_overhead": (
            max(profile_overheads) if profile_overheads else None
        ),
        # The quick-mode gates read the floors (min interleaved ratio
        # per row, max across rows): robust to scheduler noise, blind
        # to nothing — a real per-trigger cost appears in every round.
        "max_telemetry_overhead_floor": (
            max(telemetry_floors) if telemetry_floors else None
        ),
        "max_profile_overhead_floor": (
            max(profile_floors) if profile_floors else None
        ),
    }
    report = {
        "experiment": "E18-columnar-engine",
        "description": (
            "Columnar fact-store engine vs the legacy rescan, best-of-N "
            "run-to-summary wall seconds with GC paused; plus snapshot "
            "round-trip throughput and incremental (resume_from) re-chase "
            "vs cold on a ~5% database delta"
        ),
        "python": platform.python_version(),
        "rows": [r.as_flat_dict() for r in rows],
        "summary": summary,
    }
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    _maybe_append_history(report, history_path)
    return report


def _maybe_append_history(report: Dict[str, object], history_path: Optional[str]) -> None:
    """Append ``report`` to the bench history log when a path is given.

    ``history_path`` stays ``None`` on library/test calls so they never
    pollute the repo's log; the CLI passes the default
    ``benchmarks/history.jsonl``.  An append failure (read-only
    checkout, say) loses history, not the report — it is warned about,
    never raised.
    """
    if history_path is None:
        return
    from repro.obs.benchhist import append_history

    try:
        append_history(report, history_path)
    except OSError as exc:
        print(f"warning: could not append bench history to {history_path}: {exc}")


# --------------------------------------------------------------------------
# E15: batch runtime — pool vs serial, cache replay, auto-budgets
# --------------------------------------------------------------------------


def _checkpoint_resume_measurement(
    kill_at_round: int = 16,
    checkpoint_every: int = 4,
    max_rounds: int = 24,
) -> Dict[str, object]:
    """Kill a long linear chase mid-run; measure the checkpointed retry.

    The probe is a single-rule linear chain chased for ``max_rounds``
    rounds under an explicit budget — long enough that a kill at round
    ``kill_at_round`` lands well past several checkpoint boundaries.
    The injected ``worker.round`` kill (serial mode: a transient
    failure) forces one retry, which must resume from the newest intact
    checkpoint rather than restart cold.
    """
    import shutil
    import tempfile

    from repro.model.parser import parse_database, parse_program
    from repro.runtime import BatchExecutor, ChaseJob
    from repro.runtime.faults import ENV_VAR, FaultPlan, FaultSpec, reset_injector

    def probe() -> ChaseJob:
        return ChaseJob(
            program=parse_program("E(x, y) -> exists z . E(y, z)"),
            database=parse_database("E(a, b)."),
            job_id="checkpoint-probe",
            variant="semi-oblivious",
            budget_mode="explicit",
            budget=ChaseBudget(max_rounds=max_rounds, max_atoms=10**6),
        )

    cold_start = time.perf_counter()
    cold = BatchExecutor(workers=1).run_all([probe()])[0]
    cold_seconds = time.perf_counter() - cold_start
    cold_rounds = int(cold.summary["rounds"]) if cold.summary else 0
    scratch = tempfile.mkdtemp(prefix="repro-bench-ckpt-")
    plan = FaultPlan(
        faults=(
            FaultSpec(
                point="worker.round",
                action="kill",
                at_round=kill_at_round,
                match="checkpoint-probe",
            ),
        ),
        seed=13,
        state_dir=os.path.join(scratch, "faults"),
    )
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = plan.to_env()
    reset_injector()
    try:
        executor = BatchExecutor(
            workers=1,
            max_retries=1,
            checkpoint_every_rounds=checkpoint_every,
            checkpoint_dir=os.path.join(scratch, "ckpt"),
        )
        resumed_start = time.perf_counter()
        resumed = executor.run_all([probe()])[0]
        resumed_seconds = time.perf_counter() - resumed_start
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        reset_injector()
        shutil.rmtree(scratch, ignore_errors=True)
    provenance = resumed.as_dict().get("checkpoint") or {}
    base_rounds = int(provenance.get("base_rounds", 0))
    resumed_rounds = int(provenance.get("resumed_rounds", 0))
    return {
        "kill_at_round": kill_at_round,
        "checkpoint_every_rounds": checkpoint_every,
        "cold_rounds": cold_rounds,
        "cold_seconds": round(cold_seconds, 3),
        "base_rounds": base_rounds,
        "resumed_rounds": resumed_rounds,
        "killed_seconds": round(resumed_seconds, 3),
        "resumed_from_checkpoint": 0 < base_rounds and resumed_rounds < cold_rounds,
        "byte_identical": resumed.status == cold.status
        and resumed.summary_json() == cold.summary_json(),
    }


def runtime_benchmark_rows(
    job_count: int = 200,
    workers: int = 4,
    repeats: int = 1,
    seed: int = 7,
) -> Tuple[List[SweepRow], Dict[str, object]]:
    """Measure the batch runtime on a mixed manifest.

    Four measurements, each its own row:

    1. **serial** — cold, no cache, ``workers=1`` (best of ``repeats``);
    2. **pool** — cold, no cache, ``workers`` processes;
    3. **cache** — a cold pass filling a fresh cache, then a replay pass
       that must hit on every job and return byte-identical summaries;
    4. **auto-budgets** — over the serial results: auto-budgeted SL/L
       jobs tagged ``terminating`` must never report
       ``ATOM_BUDGET_EXCEEDED`` (or any budget outcome — the paper's
       bounds guarantee termination fits inside them);
    5. **checkpoint-resume** — a long linear job is killed mid-run by
       an injected ``worker.round`` fault; the retry must resume from
       its last round checkpoint (``base_rounds > 0``), re-execute
       fewer rounds than the cold run, and still produce the cold
       run's summary bytes.

    Returns the rows plus a machine-readable summary.
    """
    from repro.generators.workloads import mixed_workload_jobs
    from repro.runtime import BatchExecutor, ResultCache

    jobs = mixed_workload_jobs(job_count=job_count, seed=seed)

    def timed_run(executor: BatchExecutor) -> Tuple[float, List]:
        start = time.perf_counter()
        results = executor.run_all(jobs)
        return time.perf_counter() - start, results

    serial_seconds = float("inf")
    serial_results: List = []
    for _ in range(max(1, repeats)):
        elapsed, results = timed_run(BatchExecutor(workers=1))
        if elapsed < serial_seconds:
            serial_seconds, serial_results = elapsed, results

    pool_seconds = float("inf")
    pool_results: List = []
    for _ in range(max(1, repeats)):
        elapsed, results = timed_run(BatchExecutor(workers=workers))
        if elapsed < pool_seconds:
            pool_seconds, pool_results = elapsed, results

    # Serial and pooled runs of the same job must agree byte for byte.
    by_id_serial = {r.job_id: r.summary_json() for r in serial_results if r.status == "ok"}
    by_id_pool = {r.job_id: r.summary_json() for r in pool_results if r.status == "ok"}
    shared = set(by_id_serial) & set(by_id_pool)
    pool_deterministic = all(by_id_serial[i] == by_id_pool[i] for i in shared)

    cache = ResultCache()
    cold_seconds, cold_results = timed_run(BatchExecutor(workers=1, cache=cache))
    warm_seconds, warm_results = timed_run(BatchExecutor(workers=1, cache=cache))
    cold_by_id = {r.job_id: r for r in cold_results}
    cacheable = [r for r in cold_results if r.status == "ok"]
    warm_hits = [r for r in warm_results if r.cache_hit]
    cache_identical = all(
        r.summary_json() == cold_by_id[r.job_id].summary_json() for r in warm_hits
    )
    all_cacheable_hit = len(warm_hits) >= len(cacheable)
    # Per-hit replay latency, separate from the warm pass total: jobs
    # with non-deterministic outcomes (timeouts) are never cached and
    # re-run on the warm pass, which would otherwise dominate it.
    mean_hit_ms = (
        round(sum(r.wall_seconds for r in warm_hits) / len(warm_hits) * 1000, 3)
        if warm_hits
        else None
    )

    def is_auto_sl_l(result) -> bool:
        budget = result.budget_provenance
        return budget["source"] == "paper-bound" and budget["class"] in ("SL", "L")

    auto_terminating = [
        r
        for r in serial_results
        if is_auto_sl_l(r) and "terminating" in r.tags and "nonterminating" not in r.tags
    ]
    auto_within_budget = all(
        r.summary is not None and r.summary["outcome"] == "terminated"
        for r in auto_terminating
    )
    outcome_histogram = Counter(
        r.summary["outcome"] if r.summary else r.status for r in serial_results
    )

    checkpoint_summary = _checkpoint_resume_measurement()

    cpu_count = os.cpu_count() or 1
    speedup = round(serial_seconds / max(pool_seconds, 1e-9), 2)
    rows = [
        SweepRow(
            label="runtime-serial",
            parameters={"jobs": len(jobs), "workers": 1},
            measured={"seconds": round(serial_seconds, 3),
                      "jobs_per_s": round(len(jobs) / max(serial_seconds, 1e-9), 1)},
        ),
        SweepRow(
            label="runtime-pool",
            parameters={"jobs": len(jobs), "workers": workers},
            measured={
                "seconds": round(pool_seconds, 3),
                "jobs_per_s": round(len(jobs) / max(pool_seconds, 1e-9), 1),
                "speedup": speedup,
                "deterministic": pool_deterministic,
            },
        ),
        SweepRow(
            label="runtime-cache",
            parameters={"jobs": len(jobs), "workers": 1},
            measured={
                "cold_seconds": round(cold_seconds, 3),
                "warm_seconds": round(warm_seconds, 3),
                "hits": len(warm_hits),
                "mean_hit_ms": mean_hit_ms,
                "replay_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
                "byte_identical": cache_identical,
            },
        ),
        SweepRow(
            label="runtime-auto-budget",
            parameters={"jobs": len(auto_terminating)},
            measured={
                "auto_sl_l_terminating": len(auto_terminating),
                "all_within_budget": auto_within_budget,
            },
        ),
        SweepRow(
            label="runtime-checkpoint-resume",
            parameters={
                "kill_at_round": checkpoint_summary["kill_at_round"],
                "checkpoint_every_rounds": checkpoint_summary["checkpoint_every_rounds"],
            },
            measured={
                key: checkpoint_summary[key]
                for key in (
                    "cold_rounds", "base_rounds", "resumed_rounds",
                    "resumed_from_checkpoint", "byte_identical",
                )
            },
        ),
    ]
    summary = {
        "job_count": len(jobs),
        "workers": workers,
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_seconds, 3),
        "pool_seconds": round(pool_seconds, 3),
        "pool_speedup": speedup,
        "pool_deterministic": pool_deterministic,
        "speedup_target_met": pool_speedup_target_met(speedup, cpu_count, workers),
        "cache_warm_seconds": round(warm_seconds, 3),
        "cache_mean_hit_ms": mean_hit_ms,
        "cache_hits_byte_identical": cache_identical,
        "all_cacheable_jobs_hit": all_cacheable_hit,
        "auto_budgeted_sl_l_within_budget": auto_within_budget,
        "checkpoint_resume": checkpoint_summary,
        "outcomes": dict(sorted(outcome_histogram.items())),
    }
    return rows, summary


def pool_speedup_target_met(speedup: float, cpu_count: int, workers: int) -> Optional[bool]:
    """Whether the pool met the 2.5x-over-serial target (E15).

    ``None`` when the target cannot be evaluated: with fewer cores than
    workers a process pool cannot physically reach it.
    """
    return None if cpu_count < workers else speedup >= 2.5


def write_runtime_report(
    path: str = "BENCH_runtime.json",
    rows: Optional[Sequence[SweepRow]] = None,
    summary: Optional[Dict[str, object]] = None,
    job_count: int = 200,
    workers: int = 4,
    repeats: int = 1,
    seed: int = 7,
    history_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run the runtime benchmark and write ``BENCH_runtime.json``.

    The PR-facing artefact backing the batch-runtime claims: pool
    speedup over serial (``speedup_target_met`` is ``None`` on machines
    with fewer cores than workers, where a process pool cannot
    physically win — see :func:`pool_speedup_target_met`),
    byte-identical cache replay, and paper-derived auto-budgets
    never cutting off terminating SL/L jobs.  See EXPERIMENTS.md (E15).
    Pass precomputed ``rows``/``summary`` to write without re-running.
    """
    if rows is None or summary is None:
        rows, summary = runtime_benchmark_rows(
            job_count=job_count, workers=workers, repeats=repeats, seed=seed
        )
    report = {
        "experiment": "E15-batch-runtime",
        "description": (
            "Concurrent batch executor with fingerprint cache and "
            "paper-derived auto-budgets on a mixed SL/L/G/random manifest"
        ),
        "python": platform.python_version(),
        "rows": [r.as_flat_dict() for r in rows],
        "summary": summary,
    }
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    _maybe_append_history(report, history_path)
    return report


# --------------------------------------------------------------------------
# E16: chase service — HTTP daemon throughput, latency, cache speedup
# --------------------------------------------------------------------------


def _percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 1]); None on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, int(math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def service_benchmark_rows(
    job_count: int = 200,
    clients: int = 4,
    workers: int = 2,
    seed: int = 7,
) -> Tuple[List[SweepRow], Dict[str, object]]:
    """Measure the chase service daemon on the E15 mixed manifest.

    Five measurements, each its own row:

    1. **direct** — the same jobs through a serial ``BatchExecutor``,
       the baseline the daemon's results must match byte for byte;
    2. **service-cold** — the manifest over HTTP into a fresh daemon
       (``POST /batches`` + streamed JSONL), summaries compared against
       the direct baseline per job id;
    3. **service-warm** — the identical manifest resubmitted: every
       deterministic job must replay from the daemon's cache, and the
       cacheable subset must be served ≥ 10× faster than its cold run
       (``cache_hit_speedup``; non-deterministic timeout jobs are never
       cached and re-run, so total wall clock is reported separately);
    4. **latency** — ``clients`` threads doing single-job
       submit/long-poll round trips against the warm daemon:
       requests/sec plus p50/p95 latency;
    5. **dedup** — a burst of identical, previously-unseen submissions:
       real (non-cache-hit) executions must total exactly one.

    Returns the rows plus a machine-readable summary.
    """
    import threading

    from repro.generators.workloads import mixed_workload_jobs
    from repro.runtime import BatchExecutor
    from repro.runtime.jobs import ChaseJob, manifest_entry
    from repro.service import ChaseService, ChaseServiceClient

    jobs = mixed_workload_jobs(job_count=job_count, seed=seed)
    manifest_text = "".join(
        json.dumps(manifest_entry(job), sort_keys=True) + "\n" for job in jobs
    )

    start = time.perf_counter()
    direct_results = BatchExecutor(workers=1).run_all(jobs)
    direct_seconds = time.perf_counter() - start
    # Byte-identity is only meaningful for deterministic outcomes: a
    # timeout's summary records how far the run happened to get.
    direct_by_id = {r.job_id: r.summary_json() for r in direct_results if r.status == "ok"}

    # A production-shaped queue bound (64 < job_count): the manifest
    # streams through it via ?admit_wait backpressure rather than the
    # daemon being sized to the batch.  TTL is raised to keep the
    # admission window (clamped to ttl/2) above the full batch wait.
    with ChaseService(workers=workers, max_queue=64, ttl_seconds=3600.0) as service:
        client = ChaseServiceClient(service.url, timeout=60.0)
        client.wait_until_healthy()

        def run_manifest() -> Tuple[float, List[Dict[str, object]]]:
            start = time.perf_counter()
            rows, trailer = client.run_batch(manifest_text, wait=600.0, admit_wait=600.0)
            elapsed = time.perf_counter() - start
            assert trailer["complete"], f"batch did not complete: {trailer}"
            return elapsed, rows

        cold_seconds, cold_rows = run_manifest()
        warm_seconds, warm_rows = run_manifest()

        cold_by_id = {str(r["id"]): r for r in cold_rows}
        byte_identical = set(direct_by_id) <= set(cold_by_id) and all(
            json.dumps(cold_by_id[job_id]["summary"], sort_keys=True) == expected
            for job_id, expected in direct_by_id.items()
        )
        warm_hits = [r for r in warm_rows if r.get("cache") and r["cache"]["hit"]]
        # The speedup numerator counts each cold *execution* once: rows
        # marked deduped_of shared another row's run and inherit its
        # wall clock, so including them would multiply-count it.
        hit_speedup_rows = [
            r
            for r in warm_hits
            if "deduped_of" not in cold_by_id.get(str(r["id"]), {"deduped_of": True})
        ]
        hit_cold_seconds = sum(
            float(cold_by_id[str(r["id"])]["wall_seconds"]) for r in hit_speedup_rows
        )
        hit_warm_seconds = sum(float(r["wall_seconds"]) for r in hit_speedup_rows)
        cache_hit_speedup = round(hit_cold_seconds / max(hit_warm_seconds, 1e-9), 1)
        warm_identical = all(
            json.dumps(r["summary"], sort_keys=True)
            == json.dumps(cold_by_id[str(r["id"])]["summary"], sort_keys=True)
            for r in warm_hits
        )

        # Latency phase: concurrent single-job round trips on the warm
        # daemon — the steady-state serving path.
        latencies: List[float] = []
        latency_lock = threading.Lock()
        thread_errors: List[BaseException] = []
        shards = [jobs[i::clients] for i in range(clients)]

        def round_trips(shard) -> None:
            try:
                shard_client = ChaseServiceClient(service.url, timeout=60.0)
                for job in shard:
                    start = time.perf_counter()
                    record = shard_client.run_job(manifest_entry(job), timeout=120.0)
                    elapsed = time.perf_counter() - start
                    assert record["state"] == "done"
                    with latency_lock:
                        latencies.append(elapsed)
            except BaseException as exc:  # noqa: BLE001 - re-raised after join:
                # a silently-dead thread would bias the percentiles.
                thread_errors.append(exc)

        start = time.perf_counter()
        threads = [threading.Thread(target=round_trips, args=(shard,)) for shard in shards]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if thread_errors:
            raise thread_errors[0]
        latency_seconds = time.perf_counter() - start
        requests_per_second = round(len(latencies) / max(latency_seconds, 1e-9), 1)
        p50 = _percentile(latencies, 0.50)
        p95 = _percentile(latencies, 0.95)

        # Dedup phase: a burst of identical, never-seen-before jobs.
        from repro.generators.families import sl_lower_bound

        database, tgds = sl_lower_bound(2, 3, 3)
        fresh = manifest_entry(
            ChaseJob(program=tgds, database=database, job_id="dedup-probe")
        )
        before = service.scheduler.stats()
        burst = 8
        submissions: List[Dict[str, object]] = []

        def submit_one() -> None:
            try:
                submissions.append(
                    ChaseServiceClient(service.url, timeout=60.0).submit_job(fresh)
                )
            except BaseException as exc:  # noqa: BLE001 - re-raised after join
                thread_errors.append(exc)

        burst_threads = [threading.Thread(target=submit_one) for _ in range(burst)]
        for thread in burst_threads:
            thread.start()
        for thread in burst_threads:
            thread.join()
        if thread_errors:
            raise thread_errors[0]
        for submitted in submissions:
            client.job(str(submitted["job_id"]), wait=60.0)
        after = service.scheduler.stats()
        real_executions = (int(after["executed"]) - int(after["cache_hits"])) - (
            int(before["executed"]) - int(before["cache_hits"])
        )
        single_execution = real_executions == 1

        stats = service.stats_document()

    rows = [
        SweepRow(
            label="service-direct",
            parameters={"jobs": len(jobs)},
            measured={"seconds": round(direct_seconds, 3)},
        ),
        SweepRow(
            label="service-cold",
            parameters={"jobs": len(jobs), "workers": workers},
            measured={
                "seconds": round(cold_seconds, 3),
                "http_overhead": round(cold_seconds / max(direct_seconds, 1e-9), 2),
                "byte_identical_vs_direct": byte_identical,
            },
        ),
        SweepRow(
            label="service-warm",
            parameters={"jobs": len(jobs)},
            measured={
                "seconds": round(warm_seconds, 3),
                "hits": len(warm_hits),
                "cache_hit_speedup": cache_hit_speedup,
                "total_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
                "byte_identical": warm_identical,
            },
        ),
        SweepRow(
            label="service-latency",
            parameters={"requests": len(latencies), "clients": clients},
            measured={
                "requests_per_s": requests_per_second,
                "p50_ms": round(p50 * 1000, 2) if p50 is not None else None,
                "p95_ms": round(p95 * 1000, 2) if p95 is not None else None,
            },
        ),
        SweepRow(
            label="service-dedup",
            parameters={"burst": burst},
            measured={
                "real_executions": real_executions,
                "single_execution": single_execution,
            },
        ),
    ]
    summary = {
        "job_count": len(jobs),
        "clients": clients,
        "workers": workers,
        "direct_seconds": round(direct_seconds, 3),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "warm_total_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "cache_hit_speedup": cache_hit_speedup,
        "cache_speedup_target_met": cache_hit_speedup >= 10.0,
        "warm_hits": len(warm_hits),
        "byte_identical_vs_direct": byte_identical,
        "warm_hits_byte_identical": warm_identical,
        "requests_per_second": requests_per_second,
        "latency_p50_ms": round(p50 * 1000, 2) if p50 is not None else None,
        "latency_p95_ms": round(p95 * 1000, 2) if p95 is not None else None,
        "dedup_real_executions": real_executions,
        "dedup_single_execution": single_execution,
        "cache_hit_rate": stats["cache_hit_rate"],
    }
    return rows, summary


def write_service_report(
    path: str = "BENCH_service.json",
    rows: Optional[Sequence[SweepRow]] = None,
    summary: Optional[Dict[str, object]] = None,
    job_count: int = 200,
    clients: int = 4,
    workers: int = 2,
    seed: int = 7,
    history_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run the service benchmark and write ``BENCH_service.json``.

    The PR-facing artefact backing the daemon claims: HTTP results byte
    identical to a direct ``BatchExecutor`` run, the cacheable subset of
    a resubmitted manifest served ≥ 10× faster from cache, identical
    concurrent submissions executing exactly once, and throughput plus
    p50/p95 latency under concurrent clients.  See EXPERIMENTS.md (E16).
    Pass precomputed ``rows``/``summary`` to write without re-running.
    """
    if rows is None or summary is None:
        rows, summary = service_benchmark_rows(
            job_count=job_count, clients=clients, workers=workers, seed=seed
        )
    report = {
        "experiment": "E16-chase-service",
        "description": (
            "Chase service daemon (HTTP over the batch runtime) on the mixed "
            "manifest: direct-vs-HTTP byte identity, cache replay speedup, "
            "concurrent-client latency, in-flight dedup"
        ),
        "python": platform.python_version(),
        "rows": [r.as_flat_dict() for r in rows],
        "summary": summary,
    }
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    _maybe_append_history(report, history_path)
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
