"""Metric names, statistics, failure tallies and machine stamps."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Dict, List, Sequence

#: End-to-end metrics, emitted by every workload on untraced runs.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "atoms_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics, emitted by every workload on traced runs.  A
#: layer that does not run on a workload reports 0.
PER_LAYER: Dict[str, str] = {
    "chase.busy_s": "s",
    "chase.rounds": "count",
    "chase.triggers_considered": "count",
    "chase.triggers_applied": "count",
    "chase.applied_ratio": "ratio",
    "chase.atoms_out": "count",
    "chase.summary_busy_s": "s",
    "model.store.decode_busy_s": "s",
    "model.parser.busy_s": "s",
    "model.store.encode_busy_s": "s",
    "model.store.encode_bytes": "bytes",
    "model.store.restore_busy_s": "s",
    "runtime.budget_policy.busy_s": "s",
    "runtime.jobs.fingerprint_busy_s": "s",
    "runtime.executor.busy_s": "s",
    "runtime.executor.worker_busy_s": "s",
    "runtime.executor.overhead_s": "s",
    "runtime.executor.retries": "count",
    "runtime.executor.timeouts": "count",
    "runtime.cache.hits": "count",
    "runtime.cache.misses": "count",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.cache.get_busy_s": "s",
    "runtime.cache.put_busy_s": "s",
    "service.queue.wait_ms_p50": "ms",
    "service.server.exec_ms_p50": "ms",
    "service.server.overhead_ms_p50": "ms",
    "service.queue.deduped": "count",
    "service.queue.rejected": "count",
    "core.classify.busy_s": "s",
    "core.decision.busy_s": "s",
    "core.linearization.busy_s": "s",
    "core.linearization.types": "count",
    "core.linearization.rules_out": "count",
    "core.simplification.busy_s": "s",
    "core.simplification.rules_out": "count",
    "core.weak_acyclicity.busy_s": "s",
    "core.ucq.build_busy_s": "s",
    "core.ucq.eval_busy_s": "s",
    "core.termination_analysis.busy_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}

#: Failure kinds, reported separately in the run record.
FAILURE_KINDS = ("errors", "timeouts", "refusals", "mismatches")


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Tally:
    """Attempted ops and failures by kind, with the first few details."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.details: List[str] = []

    def fail(self, kind: str, detail: str) -> None:
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.failures[kind] += 1
        if len(self.details) < 10:
            self.details.append(f"{kind}: {detail}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {kind: self.failures[kind] for kind in FAILURE_KINDS}
        document["details"] = list(self.details)
        return document


def own_peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _calibration_loop(iterations: int) -> float:
    """Time of a fixed pure-Python loop of ``iterations`` steps."""
    start = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - start


def calibration_seconds(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the machine's speed.

    Recorded beside every run so numbers from different machines can be
    normalised before they are compared; it is never gated.
    """
    return statistics.median(_calibration_loop(200_000) for _ in range(rounds))


#: Steps of one host-speed probe chunk, chunks per probe (their median is
#: the probe's time), and a chunk's time on the reference host (a 2-core
#: Xeon VM at its usual speed).  Reported times are scaled to that host.
PROBE_STEPS = 20_000
PROBE_CHUNKS = 3
REFERENCE_PROBE_S = 0.0025


class HostSpeed:
    """Host-speed probes around timed segments.

    The benchmark host is shared, and its speed drifts by up to 2x from
    second to second and from minute to minute, for CPU time as much as
    for wall time.  A fixed pure-Python probe, timed before and after a
    segment (a group of ops, a window of requests, a set-up), measures
    the speed the segment ran at; :meth:`scale` is the factor that turns
    the segment's times into times on the reference host.  The probes
    run outside the timed segments, so the program's own speed still
    moves every scaled time one for one.
    """

    def __init__(self) -> None:
        self.last = self.probe()
        self.samples: List[float] = [self.last]

    @staticmethod
    def probe() -> float:
        return statistics.median(_calibration_loop(PROBE_STEPS) for _ in range(PROBE_CHUNKS))

    def scale(self) -> float:
        """Factor for the segment since the previous call (or creation)."""
        before, self.last = self.last, self.probe()
        self.samples.append(self.last)
        return 2 * REFERENCE_PROBE_S / (before + self.last)

    def summary(self) -> Dict[str, float]:
        return {
            "probes": len(self.samples),
            "probe_p50_s": statistics.median(self.samples),
            "probe_min_s": min(self.samples),
            "probe_max_s": max(self.samples),
        }


def machine_stamp(calibration_rounds: int = 5) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "calibration_s": calibration_seconds(calibration_rounds),
    }
