"""Job-lifecycle trace spans in Chrome trace event format.

A :class:`TraceRecorder` collects *complete* events (``"ph": "X"``) —
one per span — with microsecond timestamps on a shared monotonic
clock, so spans recorded by different threads (HTTP handler, scheduler
worker, executor pool) line up on one timeline.  Export is JSONL: one
event per line, loadable by ``chrome://tracing`` / Perfetto after
wrapping in a JSON array (``trace inspect`` does the wrapping check;
Perfetto accepts raw JSONL directly).

The span vocabulary used across the repo:

=====================  ====================================================
``job.submit``         HTTP ingest: parse + validate + registry insert
``job.admission``      termination analysis + budget-policy decision
``job.queue_wait``     accepted → picked up by a scheduler worker
``job.execute``        whole executor run for one job
``store.seed``         serial path: plan the run and seed its fact store
``chase.run``          the chase itself inside the executor
``cache.lookup``       cache get (hit or miss)
``cache.write``        cache put (append + index update)
``request``            one HTTP request, by method+route
=====================  ====================================================

Recording is cheap (one lock, one list append) but not free, so the
recorder is opt-in: when no recorder is configured the instrumented
code paths skip straight through (``tracer is None`` checks / null
context managers).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceRecorder", "load_trace", "summarize_trace"]


class TraceRecorder:
    """Thread-safe collector of Chrome-trace complete events."""

    def __init__(self, process_name: str = "repro") -> None:
        self.process_name = process_name
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        # One shared origin so ts values are small and comparable.
        self._origin = time.perf_counter()

    def now(self) -> float:
        """Seconds since the recorder's origin (monotonic)."""
        return time.perf_counter() - self._origin

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        tid: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span from explicit ``now()`` timestamps.

        Used when begin and end happen in different call frames (queue
        wait: stamped at enqueue, closed at worker pickup).
        """
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round(max(0.0, end - start) * 1e6, 3),
            "pid": self.process_name,
            "tid": tid or threading.current_thread().name,
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    @contextmanager
    def span(
        self,
        name: str,
        *,
        tid: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Context manager span. Yields the mutable ``args`` dict so the
        body can attach results (cache hit/miss, atom counts)."""
        span_args: Dict[str, Any] = dict(args) if args else {}
        start = self.now()
        try:
            yield span_args
        finally:
            self.add_span(name, start, self.now(), tid=tid, args=span_args or None)

    def counter(self, name: str, values: Dict[str, float]) -> None:
        """Chrome-trace counter event (``ph: C``) — optional extras."""
        event = {
            "name": name,
            "ph": "C",
            "ts": round(self.now() * 1e6, 3),
            "pid": self.process_name,
            "args": values,
        }
        with self._lock:
            self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def export_jsonl(self, path: str) -> int:
        """Write one event per line; returns the number of events."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")
        return len(events)


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load a trace JSONL file back into a list of events."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            if not isinstance(event, dict) or "ph" not in event:
                raise ValueError(f"{path}:{line_number}: not a trace event: {line!r}")
            events.append(event)
    return events


def summarize_trace(events: List[Dict[str, Any]], top: int = 0) -> Dict[str, Any]:
    """Aggregate a trace: per-span-name counts and total/mean durations.

    This powers ``python -m repro trace inspect`` and the span-sum
    acceptance check (compare e.g. ``job.execute`` total against
    end-to-end wall time).  Span durations are reported in
    milliseconds — the unit the probe/latency summaries already use
    (``latency_p50_ms`` etc.); only the whole-trace wall stays in
    seconds.  ``top > 0`` adds a ``top_spans`` ranking by total time.
    """
    by_name: Dict[str, Dict[str, float]] = {}
    first_ts = None
    last_end = None
    for event in events:
        if event.get("ph") != "X":
            continue
        ts = float(event.get("ts", 0.0))
        dur = float(event.get("dur", 0.0))
        first_ts = ts if first_ts is None else min(first_ts, ts)
        end = ts + dur
        last_end = end if last_end is None else max(last_end, end)
        stats = by_name.setdefault(
            event.get("name", "?"), {"count": 0, "total_us": 0.0, "max_us": 0.0}
        )
        stats["count"] += 1
        stats["total_us"] += dur
        stats["max_us"] = max(stats["max_us"], dur)
    spans = {
        name: {
            "count": int(stats["count"]),
            "total_ms": round(stats["total_us"] / 1e3, 3),
            "mean_ms": round(stats["total_us"] / stats["count"] / 1e3, 6),
            "max_ms": round(stats["max_us"] / 1e3, 3),
        }
        for name, stats in sorted(by_name.items())
    }
    wall = 0.0
    if first_ts is not None and last_end is not None:
        wall = round((last_end - first_ts) / 1e6, 6)
    summary: Dict[str, Any] = {
        "events": len(events),
        "spans": spans,
        "wall_seconds": wall,
    }
    if top > 0:
        ranked = sorted(spans.items(), key=lambda item: item[1]["total_ms"], reverse=True)
        summary["top_spans"] = [
            {"name": name, **stats} for name, stats in ranked[:top]
        ]
    return summary
