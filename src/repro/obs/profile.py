"""Per-rule attribution profiling for the chase engine drivers.

A :class:`RuleProfiler` rides along a single chase run and answers the
question the round-level :class:`~repro.obs.probe.ChaseProbe` cannot:
*which rule* is eating the time.  The drivers attribute three phases to
rules:

compile
    Each rule's plan compilation inside the store engine's trigger
    pipeline (:class:`~repro.chase.store_plan.StoreTriggerPipeline`),
    timed per rule at construction.
enumerate
    Trigger enumeration.  Pending lists are built rule-major (the
    pipelines walk rules, then their delta entries, in registration
    order), so the pipelines stamp a clock only at rule *boundaries*
    and accumulate the elapsed segment into the producing rule.
apply
    The driver's apply loop.  Pending lists stay contiguous per rule,
    so the drivers again time contiguous rule segments — one
    ``perf_counter()`` pair per boundary change, never per trigger —
    which is what keeps the profiled overhead under the benchmark's
    1.10x gate while still attributing ≥ 90% of driver wall time.

Trigger counters (considered / fired / pruned) and produced facts are
exact per rule.  Nulls invented are exact on the store engine (O(1)
``null_count()`` diffs at segment boundaries) and counted as the
first-seen nulls of each application's added atoms on the legacy
engine.

Like the probe, the profiler is strictly opt-in: ``profile=None`` (the
default) keeps every driver on its profile-free path and the summary
payload absent, so unprofiled runs stay byte-identical — cache keys,
fingerprints and summaries unchanged.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["RuleProfiler", "top_rules", "format_profile_table"]


class RuleProfiler:
    """Accumulates per-rule attribution across one chase run.

    The hot-path contract mirrors :class:`~repro.obs.probe.ChaseProbe`:
    drivers index the plain list attributes directly (no method call
    per trigger), stamp wall clocks only at rule-segment boundaries,
    and fold everything into :meth:`as_dict` once at the end.
    """

    __slots__ = (
        "rule_ids",
        "_slot_of",
        "seconds",
        "compile_seconds",
        "considered",
        "fired",
        "pruned",
        "facts",
        "nulls",
        "driver_seconds",
        "setup_seconds",
        "runs",
        "index_builds",
        "posting_memory_bytes",
        "engine",
    )

    def __init__(self) -> None:
        self.rule_ids: List[str] = []
        self._slot_of: Dict[str, int] = {}
        #: Enumerate + apply wall seconds per rule slot.
        self.seconds: List[float] = []
        #: Plan-compilation wall seconds per rule slot.
        self.compile_seconds: List[float] = []
        self.considered: List[int] = []
        self.fired: List[int] = []
        #: Applied-memo skips (trigger already fired or found inactive).
        self.pruned: List[int] = []
        #: Facts actually added to the instance/store per rule.
        self.facts: List[int] = []
        self.nulls: List[int] = []
        #: Wall time of the driver region (compile + enumerate + apply
        #: + round bookkeeping); the attribution denominator.
        self.driver_seconds = 0.0
        #: Pre-driver setup (database interning / instance copy) — kept
        #: out of the attribution denominator but reported.
        self.setup_seconds = 0.0
        self.runs = 0
        #: Per-predicate lazy index construction: name -> {builds, seconds}.
        self.index_builds: Dict[str, Dict[str, Any]] = {}
        #: Per-predicate posting/projection container memory: name -> bytes.
        self.posting_memory_bytes: Dict[str, int] = {}
        #: Engine of the (last) profiled run, for display.
        self.engine: Optional[str] = None

    # -- registration -------------------------------------------------------

    def slot(self, rule_id: str) -> int:
        """Bucket index for ``rule_id`` (created on first sight)."""
        index = self._slot_of.get(rule_id)
        if index is None:
            index = len(self.rule_ids)
            self._slot_of[rule_id] = index
            self.rule_ids.append(rule_id)
            self.seconds.append(0.0)
            self.compile_seconds.append(0.0)
            self.considered.append(0)
            self.fired.append(0)
            self.pruned.append(0)
            self.facts.append(0)
            self.nulls.append(0)
        return index

    def attach(self, rule_ids: Iterable[str]) -> List[int]:
        """Register a run's rules; returns their slots in input order.

        Drivers call this once per run with the pipeline's rules in
        rule-index order and then translate ``rule.index`` to a bucket
        through the returned list — so one profiler can aggregate
        repeated runs (benchmark repeats) of the same program.
        """
        return [self.slot(rule_id) for rule_id in rule_ids]

    # -- folding ------------------------------------------------------------

    def add_rule_seconds(self, slots: List[int], seconds: List[float]) -> None:
        """Fold a pipeline's per-rule-index seconds into the buckets."""
        buckets = self.seconds
        for index, elapsed in enumerate(seconds):
            if elapsed:
                buckets[slots[index]] += elapsed

    def add_compile_seconds(self, slots: List[int], seconds: List[float]) -> None:
        buckets = self.compile_seconds
        for index, elapsed in enumerate(seconds):
            if elapsed:
                buckets[slots[index]] += elapsed

    def observe_store(self, store: Any) -> None:
        """Merge a :class:`~repro.model.store.FactStore`'s index-build
        profile and posting-memory footprint (store engine only)."""
        for name, stats in store.index_build_profile().items():
            entry = self.index_builds.setdefault(
                name, {"builds": 0, "seconds": 0.0}
            )
            entry["builds"] += stats["builds"]
            entry["seconds"] += stats["seconds"]
        for name, size in store.posting_memory().items():
            self.posting_memory_bytes[name] = (
                self.posting_memory_bytes.get(name, 0) + size
            )

    def finish_run(self, driver_seconds: float, setup_seconds: float = 0.0,
                   engine: Optional[str] = None) -> None:
        self.driver_seconds += driver_seconds
        self.setup_seconds += setup_seconds
        self.runs += 1
        if engine is not None:
            self.engine = engine

    # -- export -------------------------------------------------------------

    def attributed_seconds(self) -> float:
        return sum(self.seconds) + sum(self.compile_seconds)

    def as_dict(self) -> Dict[str, Any]:
        """Summary payload for ``ChaseResult.summary()["profile"]``.

        Rules come out sorted by attributed seconds, descending — the
        top-K table is a prefix of the list.
        """
        order = sorted(
            range(len(self.rule_ids)),
            key=lambda i: (self.seconds[i] + self.compile_seconds[i]),
            reverse=True,
        )
        attributed = self.attributed_seconds()
        driver = self.driver_seconds
        payload: Dict[str, Any] = {
            "runs": self.runs,
            "driver_seconds": round(driver, 9),
            "setup_seconds": round(self.setup_seconds, 9),
            "attributed_seconds": round(attributed, 9),
            "attributed_fraction": (
                round(attributed / driver, 6) if driver > 0 else 1.0
            ),
            "rules": [
                {
                    "rule": self.rule_ids[i],
                    "seconds": round(self.seconds[i], 9),
                    "compile_seconds": round(self.compile_seconds[i], 9),
                    "triggers_considered": self.considered[i],
                    "triggers_fired": self.fired[i],
                    "triggers_pruned": self.pruned[i],
                    "facts_produced": self.facts[i],
                    "nulls_invented": self.nulls[i],
                }
                for i in order
            ],
        }
        if self.engine is not None:
            payload["engine"] = self.engine
        if self.index_builds:
            payload["index_builds"] = {
                name: {
                    "builds": stats["builds"],
                    "seconds": round(stats["seconds"], 9),
                }
                for name, stats in sorted(self.index_builds.items())
            }
        if self.posting_memory_bytes:
            payload["posting_memory_bytes"] = dict(
                sorted(self.posting_memory_bytes.items())
            )
        return payload


def top_rules(profile: Dict[str, Any], top: int = 10) -> List[Dict[str, Any]]:
    """The top-K rule rows of a profile payload (already ranked)."""
    rules = profile.get("rules", [])
    return list(rules[: max(top, 0)])


def format_profile_table(profile: Dict[str, Any], top: int = 10) -> str:
    """Render a profile payload as the ``repro profile`` top-K table."""
    rows = top_rules(profile, top)
    header = (
        f"{'rule':<24} {'seconds':>10} {'considered':>11} {'fired':>9} "
        f"{'pruned':>9} {'facts':>9} {'nulls':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        seconds = row.get("seconds", 0.0) + row.get("compile_seconds", 0.0)
        lines.append(
            f"{str(row.get('rule', '?'))[:24]:<24} {seconds:>10.6f} "
            f"{row.get('triggers_considered', 0):>11} "
            f"{row.get('triggers_fired', 0):>9} "
            f"{row.get('triggers_pruned', 0):>9} "
            f"{row.get('facts_produced', 0):>9} "
            f"{row.get('nulls_invented', 0):>9}"
        )
    driver = profile.get("driver_seconds", 0.0)
    attributed = profile.get("attributed_seconds", 0.0)
    fraction = profile.get("attributed_fraction", 0.0)
    lines.append(
        f"attributed {attributed:.6f}s of {driver:.6f}s driver time "
        f"({fraction * 100:.1f}%)"
    )
    index_builds = profile.get("index_builds")
    if index_builds:
        total_builds = sum(int(s.get("builds", 0)) for s in index_builds.values())
        total_seconds = sum(float(s.get("seconds", 0.0)) for s in index_builds.values())
        lines.append(
            f"lazy index builds: {total_builds} across "
            f"{len(index_builds)} predicates ({total_seconds:.6f}s)"
        )
    memory = profile.get("posting_memory_bytes")
    if memory:
        lines.append(
            f"posting/projection memory: {sum(memory.values())} bytes across "
            f"{len(memory)} predicates"
        )
    return "\n".join(lines)


# Re-exported for drivers that want a monotonic clock without importing
# ``time`` under a second name.
perf_counter = time.perf_counter
