"""Observability: metrics registry, chase run observers, trace spans.

Stdlib-only. Everything is opt-in; the disabled configurations
(:data:`NULL_REGISTRY`, a chase run without ``observers``,
``tracer=None``) are designed to keep hot paths byte-identical and
within noise of un-instrumented builds — see ``docs/ARCHITECTURE.md``
for the reasoning.  The chase instrumentation (:class:`ChaseProbe`,
:class:`RuleProfiler`) subscribes through the one
:class:`~repro.obs.observer.RunObserver` seam.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_REGISTRY,
    histogram_consistency_errors,
    parse_prometheus_text,
)
from .conformance import conformance_report, record_conformance
from .observer import RunObserver
from .probe import ChaseProbe, RoundSample
from .profile import RuleProfiler, format_profile_table, top_rules
from .trace import TraceRecorder, load_trace, summarize_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_prometheus_text",
    "histogram_consistency_errors",
    "RunObserver",
    "ChaseProbe",
    "RoundSample",
    "TraceRecorder",
    "load_trace",
    "summarize_trace",
    "RuleProfiler",
    "top_rules",
    "format_profile_table",
    "conformance_report",
    "record_conformance",
]
