"""Per-rule attribution profiling for the chase engine drivers.

A :class:`RuleProfiler` is a :class:`~repro.obs.observer.RunObserver`
that answers the question the round-level
:class:`~repro.obs.probe.ChaseProbe` cannot: *which rule* is eating the
time.  It attributes two phases to rules:

compile
    Each rule's plan compilation inside the store engine's trigger
    pipeline (:class:`~repro.chase.store_plan.StoreTriggerPipeline`),
    which times every rule's compile, plus the generation and
    ``compile()`` of the rule's join kernels where the shared kernel
    memo missed; the profiler receives the per-rule seconds with
    ``run_start``.
enumerate + apply
    The drivers walk a round's triggers rule-major — enumeration, then
    application — and send ``rule_segment`` where the owning rule
    changes, never per trigger.  Each segment boundary is logged with
    the clock and the running totals (the store driver appends to the
    profiler's :meth:`~RuleProfiler.segment_log` itself, with no call),
    and the run's end charges each closed segment's wall time and
    counter deltas to its rule: one ``perf_counter()`` per boundary,
    which keeps the profiled overhead
    under the benchmark's 1.10x gate while attributing ≥ 90% of driver
    wall time.  A segment stays open across round boundaries, so round
    bookkeeping lands on the adjacent rule instead of disappearing.

Trigger counters (considered / fired / pruned), produced facts and
invented nulls are exact per rule on both engines: they are deltas of
the drivers' running totals (pruned = considered − fired inside a
segment).

Like every observer, the profiler is strictly opt-in: a run without it
carries no ``profile`` payload, so unprofiled summaries stay
byte-identical — cache keys, fingerprints and summaries unchanged.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .observer import RunObserver, Totals

__all__ = ["RuleProfiler", "top_rules", "format_profile_table"]


class RuleProfiler(RunObserver):
    """Accumulates per-rule attribution across chase runs.

    One profiler can observe repeated runs (benchmark repeats) of the
    same program: every run's rules map onto the same buckets by rule
    id, and :meth:`as_dict` folds the totals once at the end.
    """

    rule_segments = True

    __slots__ = (
        "rule_ids",
        "_slot_of",
        "seconds",
        "compile_seconds",
        "considered",
        "fired",
        "facts",
        "nulls",
        "driver_seconds",
        "setup_seconds",
        "runs",
        "index_builds",
        "posting_memory_bytes",
        "engine",
        "_slots",
        "_start",
        "_log",
    )

    def __init__(self) -> None:
        self.rule_ids: List[str] = []
        self._slot_of: Dict[str, int] = {}
        #: Enumerate + apply wall seconds per rule slot.
        self.seconds: List[float] = []
        #: Plan-compilation wall seconds per rule slot.
        self.compile_seconds: List[float] = []
        self.considered: List[int] = []
        #: Considered but not fired (already fired or found inactive)
        #: is ``considered - fired``, reported as ``triggers_pruned``.
        self.fired: List[int] = []
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
        # Per-run segment state: rule index -> bucket, the clock the
        # first segment starts at, and the run's segment boundaries
        # (rule index, clock, totals), folded at its end.
        self._slots: List[int] = []
        self._start = 0.0
        self._log: List[Tuple[int, float, Totals]] = []

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
            self.facts.append(0)
            self.nulls.append(0)
        return index

    # -- folding ------------------------------------------------------------

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

    # -- observer events ----------------------------------------------------

    def run_start(self, rule_ids: Sequence[str], compile_seconds: Sequence[float]) -> None:
        slot_of = self._slot_of.get
        self._slots = slots = [slot_of(rule_id) for rule_id in rule_ids]
        if None in slots:
            slots[:] = [self.slot(rule_id) for rule_id in rule_ids]
        for index, elapsed in enumerate(compile_seconds):
            self.compile_seconds[slots[index]] += elapsed
        # The first segment keeps this start, so the gap before the
        # first rule opens is charged to that rule.
        self._start = perf_counter()
        self._log = []

    def rule_segment(self, rule_index: int, totals: Totals) -> None:
        """Close the open segment (if any) and open ``rule_index``'s:
        log the boundary, folded at the run's end."""
        self._log.append((rule_index, perf_counter(), totals))

    def segment_log(self) -> List[Tuple[int, float, Totals]]:
        return self._log

    def _fold_segments(self) -> None:
        """The one per-rule counter flush: each closed segment's wall
        time and its deltas of the running totals land on its rule."""
        slots, seconds = self._slots, self.seconds
        considered, fired, facts, nulls = self.considered, self.fired, self.facts, self.nulls
        slot, start, anchor = -1, self._start, (0, 0, 0, 0)
        for rule_index, now, totals in self._log:
            if slot >= 0:
                seconds[slot] += now - start
                start = now
                count = totals[0] - anchor[0]
                # Facts and nulls come only from considered triggers, so
                # an enumeration segment moves no counter.
                if count:
                    considered[slot] += count
                    fired[slot] += totals[1] - anchor[1]
                    facts[slot] += totals[2] - anchor[2]
                    nulls[slot] += totals[3] - anchor[3]
            anchor = totals
            slot = slots[rule_index] if rule_index >= 0 else -1
        self._log = []

    def run_end(self, store: Any, driver_seconds: float, setup_seconds: float) -> None:
        self._fold_segments()
        # store is None exactly on the legacy engine.
        if store is not None:
            self.observe_store(store)
        self.finish_run(
            driver_seconds,
            setup_seconds=setup_seconds,
            engine="legacy" if store is None else "store",
        )

    def payload(self) -> Tuple[str, Dict[str, Any]]:
        return "profile", self.as_dict()

    # -- export -------------------------------------------------------------

    def attributed_seconds(self) -> float:
        return sum(self.seconds) + sum(self.compile_seconds)

    def as_dict(self) -> Dict[str, Any]:
        """Summary payload for ``ChaseResult.summary()["profile"]``.

        Rules come out sorted by attributed seconds, descending — the
        top-K table is a prefix of the list.
        """
        seconds, compile_seconds = self.seconds, self.compile_seconds
        order = sorted(
            range(len(self.rule_ids)),
            key=lambda i: seconds[i] + compile_seconds[i],
            reverse=True,
        )
        attributed = self.attributed_seconds()
        driver = self.driver_seconds
        rule_ids, considered, fired = self.rule_ids, self.considered, self.fired
        facts, nulls = self.facts, self.nulls
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
                    "rule": rule_ids[i],
                    "seconds": round(seconds[i], 9),
                    # A warm run compiles nothing: skip rounding its zeros.
                    "compile_seconds": compile_seconds[i] and round(compile_seconds[i], 9),
                    "triggers_considered": considered[i],
                    "triggers_fired": fired[i],
                    "triggers_pruned": considered[i] - fired[i],
                    "facts_produced": facts[i],
                    "nulls_invented": nulls[i],
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
