"""Timing shims around each layer's public functions, and the per-layer
numbers derived from the spans they record.

:class:`LayerShims` rebinds a layer's public functions and methods to
wrappers that record one :class:`~repro.obs.trace.TraceRecorder` span
per call, named after the layer (``chase``, ``model.store.decode``,
``runtime.cache.get`` ...).  A function is rebound in every loaded
``repro`` module that imported it, so calls through ``from x import f``
are caught too.  Targets that a later version of the package no longer
has are skipped, so the benchmark keeps running across refactors; the
coverage ratio shows when spans stop covering the timed wall.

A span's *self time* is its duration minus the time its direct child
spans (same process and thread) cover.  Per-layer busy time is the sum
of self times of that layer's spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import TraceRecorder

Annotate = Optional[Callable[[object], Dict[str, object]]]


def _chase_counts(result) -> Dict[str, object]:
    stats = result.statistics
    return {
        "rounds": stats.rounds,
        "considered": stats.triggers_considered,
        "applied": stats.triggers_applied,
        "atoms_out": result.size,
    }


def _linearization_counts(result) -> Dict[str, object]:
    return {"types": len(result.types), "rules_out": len(result.program)}


def _rule_count(result) -> Dict[str, object]:
    return {"rules_out": len(result)}


def _byte_count(result) -> Dict[str, object]:
    return {"bytes": len(result)}


#: (module, attribute path, span name, annotation of the return value).
TARGETS: Tuple[Tuple[str, str, str, Annotate], ...] = (
    ("repro.model.parser", "parse_program", "model.parser", None),
    ("repro.model.parser", "parse_database", "model.parser", None),
    ("repro.runtime.jobs", "encode_database_snapshot", "model.store.encode", _byte_count),
    ("repro.model.store", "FactStore.restore", "model.store.restore", None),
    ("repro.chase.semi_oblivious", "semi_oblivious_chase", "chase", _chase_counts),
    ("repro.chase.oblivious", "oblivious_chase", "chase", _chase_counts),
    ("repro.chase.restricted", "restricted_chase", "chase", _chase_counts),
    ("repro.chase.engine", "ChaseResult.summary", "chase.summary", None),
    ("repro.chase.engine", "ChaseResult.instance", "model.store.decode", None),
    ("repro.runtime.budget_policy", "BudgetPolicy.resolve", "runtime.budget_policy", None),
    ("repro.runtime.jobs", "program_fingerprint", "runtime.jobs.fingerprint", None),
    ("repro.runtime.jobs", "database_fingerprint", "runtime.jobs.fingerprint", None),
    ("repro.runtime.executor", "BatchExecutor.run_all", "runtime.executor", None),
    ("repro.runtime.executor", "execute_payload", "runtime.executor.worker", None),
    ("repro.runtime.cache", "ResultCache.get", "runtime.cache.get", None),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache.put", None),
    ("repro.core.classify", "classify", "core.classify", None),
    ("repro.core.decision", "decide_termination", "core.decision", None),
    ("repro.core.linearization", "linearize", "core.linearization", _linearization_counts),
    ("repro.core.simplification", "simplify_program", "core.simplification", _rule_count),
    ("repro.core.simplification", "simplify_database", "core.simplification", None),
    ("repro.core.weak_acyclicity", "weak_acyclicity_report", "core.weak_acyclicity", None),
    ("repro.core.weak_acyclicity", "is_weakly_acyclic_wrt", "core.weak_acyclicity", None),
    ("repro.core.weak_acyclicity", "is_weakly_acyclic", "core.weak_acyclicity", None),
    ("repro.core.ucq", "build_termination_ucq", "core.ucq.build", None),
    ("repro.core.ucq", "TerminationUCQ.witnessed_by", "core.ucq.eval", None),
    (
        "repro.core.termination_analysis", "analyze_termination",
        "core.termination_analysis", None,
    ),
    ("repro.service.client", "ChaseServiceClient.run_job", "service.client", None),
)

#: Span-name prefixes that count as named layers for coverage.
LAYER_PREFIXES = ("model.", "chase", "core.", "runtime.", "service.")


def _timed(recorder: TraceRecorder, span: str, fn: Callable, annotate: Annotate) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = recorder.now()
        extra = None
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                extra = annotate(result)
            return result
        finally:
            recorder.add_span(span, start, recorder.now(), args=extra)

    return wrapper


class LayerShims:
    """Installs the timing wrappers; :meth:`remove` restores the originals."""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder
        #: Targets this version of the package does not have.
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> "LayerShims":
        for module_name, path, span, annotate in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            if "." in path:
                ok = self._wrap_member(module, path, span, annotate)
            else:
                ok = self._wrap_function(module, path, span, annotate)
            if not ok:
                self.missing.append(f"{module_name}.{path}")
        return self

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()

    def __enter__(self) -> "LayerShims":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def _set(self, owner, name: str, value, original) -> None:
        self._undo.append((owner, name, original))
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)

    def _wrap_function(self, module, name: str, span: str, annotate: Annotate) -> bool:
        original = getattr(module, name, None)
        if not callable(original):
            return False
        wrapper = _timed(self.recorder, span, original, annotate)
        # Rebind every alias: ``from repro.x import f`` copies the name.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper, original)
                elif isinstance(value, dict) and attr.isupper():
                    # Registries such as VARIANT_RUNNERS map names to runners.
                    for key, entry in list(value.items()):
                        if entry is original:
                            self._set(value, key, wrapper, original)
        return True

    def _wrap_member(self, module, path: str, span: str, annotate: Annotate) -> bool:
        class_name, member = path.split(".", 1)
        cls = getattr(module, class_name, None)
        if cls is None or member not in vars(cls):
            return False
        original = vars(cls)[member]
        if isinstance(original, property):
            replacement = property(
                _timed(self.recorder, span, original.fget, annotate),
                original.fset, original.fdel, original.__doc__,
            )
        elif isinstance(original, classmethod):
            replacement = classmethod(
                _timed(self.recorder, span, original.__func__, annotate)
            )
        elif callable(original):
            replacement = _timed(self.recorder, span, original, annotate)
        else:
            return False
        self._set(cls, member, replacement, original)
        return True


# -- analysis ---------------------------------------------------------------


def _spans_by_thread(events: Iterable[Dict]) -> Dict[Tuple, List[Dict]]:
    by_thread: Dict[Tuple, List[Dict]] = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            by_thread[(event.get("pid"), event.get("tid"))].append(event)
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    return by_thread


def self_times(events: Iterable[Dict]) -> Dict[str, float]:
    """Seconds of self time per span name (children subtracted)."""
    totals: Dict[str, float] = defaultdict(float)
    for spans in _spans_by_thread(events).values():
        stack: List[List] = []  # [end_us, name, duration_us, children_us]

        def close(frame) -> None:
            totals[frame[1]] += max(0.0, frame[2] - frame[3]) / 1e6

        for event in spans:
            start, duration = float(event["ts"]), float(event["dur"])
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][3] += duration
            stack.append([start + duration, event["name"], duration, 0.0])
        while stack:
            close(stack.pop())
    return dict(totals)


def coverage_seconds(events: Iterable[Dict], pid: str, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by named layer spans of ``pid``.

    Layer spans of all threads of the process are merged, so two client
    threads waiting at once count once.  Times are recorder seconds.
    """
    intervals = sorted(
        (max(start, e["ts"] / 1e6), min(end, (e["ts"] + e["dur"]) / 1e6))
        for e in events
        if e.get("ph") == "X" and e.get("pid") == pid
        and str(e.get("name", "")).startswith(LAYER_PREFIXES)
    )
    covered, reach = 0.0, start
    for low, high in intervals:
        low = max(low, reach)
        if high > low:
            covered += high - low
            reach = high
    return covered


def span_arg_totals(events: Iterable[Dict], name: str) -> Dict[str, float]:
    """Sum of the numeric ``args`` of every span called ``name``."""
    totals: Dict[str, float] = defaultdict(float)
    for event in events:
        if event.get("ph") == "X" and event.get("name") == name:
            for key, value in (event.get("args") or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    totals[key] += value
    return totals


def layer_metrics(events: List[Dict]) -> Dict[str, float]:
    """The span-derived per-layer metrics (see ``common.PER_LAYER``)."""
    busy = self_times(events)
    chase = span_arg_totals(events, "chase")
    linearization = span_arg_totals(events, "core.linearization")
    considered = chase.get("considered", 0.0)
    metrics = {
        "chase.busy_s": busy.get("chase", 0.0),
        "chase.rounds": chase.get("rounds", 0.0),
        "chase.triggers_considered": considered,
        "chase.triggers_applied": chase.get("applied", 0.0),
        "chase.applied_ratio": chase.get("applied", 0.0) / considered if considered else 0.0,
        "chase.atoms_out": chase.get("atoms_out", 0.0),
        "chase.summary_busy_s": busy.get("chase.summary", 0.0),
        "model.store.decode_busy_s": busy.get("model.store.decode", 0.0),
        "model.parser.busy_s": busy.get("model.parser", 0.0),
        "model.store.encode_busy_s": busy.get("model.store.encode", 0.0),
        "model.store.encode_bytes": span_arg_totals(events, "model.store.encode").get(
            "bytes", 0.0
        ),
        "model.store.restore_busy_s": busy.get("model.store.restore", 0.0),
        "runtime.budget_policy.busy_s": busy.get("runtime.budget_policy", 0.0),
        "runtime.jobs.fingerprint_busy_s": busy.get("runtime.jobs.fingerprint", 0.0),
        "runtime.executor.busy_s": busy.get("runtime.executor", 0.0),
        "runtime.executor.worker_busy_s": busy.get("runtime.executor.worker", 0.0),
        "runtime.cache.get_busy_s": busy.get("runtime.cache.get", 0.0),
        "runtime.cache.put_busy_s": busy.get("runtime.cache.put", 0.0),
        "core.classify.busy_s": busy.get("core.classify", 0.0),
        "core.decision.busy_s": busy.get("core.decision", 0.0),
        "core.linearization.busy_s": busy.get("core.linearization", 0.0),
        "core.linearization.types": linearization.get("types", 0.0),
        "core.linearization.rules_out": linearization.get("rules_out", 0.0),
        "core.simplification.busy_s": busy.get("core.simplification", 0.0),
        "core.simplification.rules_out": span_arg_totals(
            events, "core.simplification"
        ).get("rules_out", 0.0),
        "core.weak_acyclicity.busy_s": busy.get("core.weak_acyclicity", 0.0),
        "core.ucq.build_busy_s": busy.get("core.ucq.build", 0.0),
        "core.ucq.eval_busy_s": busy.get("core.ucq.eval", 0.0),
        "core.termination_analysis.busy_s": busy.get("core.termination_analysis", 0.0),
    }
    return metrics
