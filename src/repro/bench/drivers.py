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
import sys
import time
from statistics import median
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.instance import Database
from repro.model.store import collector_paused
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
# E18: columnar engine — speed, snapshots, incremental re-chase
# --------------------------------------------------------------------------

#: The engine implementations the report compares, slow to fast
#: (ENGINES lists them fast to slow).
_ENGINE_ORDER = tuple(reversed(ENGINES))


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
