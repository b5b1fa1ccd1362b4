"""Trace recorder tests: Chrome-trace events, export/load, executor spans."""

import json
import threading

import pytest

from repro.model.parser import parse_database, parse_program
from repro.obs.trace import TraceRecorder, load_trace, summarize_trace
from repro.runtime import BatchExecutor, ChaseJob, ResultCache


def make_job(tag: str, job_id: str = "") -> ChaseJob:
    return ChaseJob(
        program=parse_program(f"R_{tag}(x, y) -> exists z . S_{tag}(y, z)"),
        database=parse_database(f"R_{tag}(a, b)."),
        job_id=job_id or tag,
    )


class TestRecorder:
    def test_add_span_produces_complete_events(self):
        recorder = TraceRecorder(process_name="test")
        start = recorder.now()
        recorder.add_span("job.execute", start, start + 0.5, args={"job": "j1"})
        (event,) = recorder.events()
        assert event["ph"] == "X"
        assert event["name"] == "job.execute"
        assert event["dur"] == pytest.approx(0.5e6, rel=1e-3)
        assert event["pid"] == "test"
        assert event["args"] == {"job": "j1"}

    def test_span_context_manager_attaches_results(self):
        recorder = TraceRecorder()
        with recorder.span("cache.lookup") as args:
            args["hit"] = True
        (event,) = recorder.events()
        assert event["name"] == "cache.lookup" and event["args"] == {"hit": True}

    def test_negative_duration_clamped(self):
        recorder = TraceRecorder()
        recorder.add_span("x", 2.0, 1.0)
        assert recorder.events()[0]["dur"] == 0.0

    def test_thread_safe_appends(self):
        recorder = TraceRecorder()

        def emit():
            for _ in range(500):
                start = recorder.now()
                recorder.add_span("tick", start, recorder.now())

        workers = [threading.Thread(target=emit) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert len(recorder) == 2000

    def test_export_load_roundtrip(self, tmp_path):
        recorder = TraceRecorder()
        start = recorder.now()
        recorder.add_span("a", start, start + 0.1)
        recorder.counter("queue", {"depth": 3})
        path = str(tmp_path / "trace.jsonl")
        assert recorder.export_jsonl(path) == 2
        events = load_trace(path)
        assert [e["ph"] for e in events] == ["X", "C"]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x", "ph": "X"}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            load_trace(str(path))
        path.write_text('["not", "an", "event"]\n')
        with pytest.raises(ValueError, match="not a trace event"):
            load_trace(str(path))

    def test_summarize(self):
        recorder = TraceRecorder()
        recorder.add_span("a", 0.0, 0.2)
        recorder.add_span("a", 0.3, 0.4)
        recorder.add_span("b", 0.0, 1.0)
        summary = summarize_trace(recorder.events())
        assert summary["events"] == 3
        assert summary["spans"]["a"]["count"] == 2
        assert summary["spans"]["a"]["total_ms"] == pytest.approx(300.0)
        assert summary["spans"]["a"]["max_ms"] == pytest.approx(200.0)
        assert summary["wall_seconds"] == pytest.approx(1.0)
        assert "top_spans" not in summary

    def test_summarize_top_ranking(self):
        recorder = TraceRecorder()
        recorder.add_span("a", 0.0, 0.2)
        recorder.add_span("b", 0.0, 1.0)
        recorder.add_span("c", 0.0, 0.5)
        summary = summarize_trace(recorder.events(), top=2)
        assert [row["name"] for row in summary["top_spans"]] == ["b", "c"]


class TestExecutorSpans:
    def test_serial_run_emits_lifecycle_spans(self):
        tracer = TraceRecorder()
        executor = BatchExecutor(
            workers=1, cache=ResultCache(), tracer=tracer, telemetry=True
        )
        executor.run_all([make_job("a"), make_job("b")])
        names = {event["name"] for event in tracer.events()}
        assert {"job.admission", "cache.lookup", "store.seed",
                "job.execute", "cache.write"} <= names
        # Serial jobs run on their own objects: nothing is encoded.
        assert "snapshot.encode" not in names
        executes = [e for e in tracer.events() if e["name"] == "job.execute"]
        assert {e["args"]["job"] for e in executes} == {"a", "b"}
        assert all(e["args"]["status"] == "ok" for e in executes)

    def test_cache_hit_skips_execute_span(self):
        tracer = TraceRecorder()
        executor = BatchExecutor(workers=1, cache=ResultCache(), tracer=tracer)
        executor.run_all([make_job("hit", job_id="cold")])
        before = len([e for e in tracer.events() if e["name"] == "job.execute"])
        executor.run_all([make_job("hit", job_id="warm")])
        lookups = [e for e in tracer.events() if e["name"] == "cache.lookup"]
        assert [e["args"]["hit"] for e in lookups] == [False, True]
        after = len([e for e in tracer.events() if e["name"] == "job.execute"])
        assert after == before  # the warm job never executed

    def test_telemetry_stripped_from_cache_but_kept_in_result(self):
        cache = ResultCache()
        telemetric = BatchExecutor(workers=1, cache=cache, telemetry=True)
        (result,) = telemetric.run_all([make_job("strip")])
        assert "telemetry" in result.summary
        assert result.summary["telemetry"]["rounds"] > 0
        (entry,) = list(cache)
        assert "telemetry" not in entry.summary
        # The cached summary is byte-identical to an untelemetered run's.
        plain = BatchExecutor(workers=1)
        (bare,) = plain.run_all([make_job("strip")])
        assert json.dumps(entry.summary, sort_keys=True) == (
            json.dumps(bare.summary, sort_keys=True)
        )

    def test_cache_replay_unaffected_by_telemetry_flag(self):
        cache = ResultCache()
        writer = BatchExecutor(workers=1, cache=cache, telemetry=True)
        writer.run_all([make_job("replay", job_id="first")])
        reader = BatchExecutor(workers=1, cache=cache)
        (hit,) = reader.run_all([make_job("replay", job_id="second")])
        assert hit.cache_hit and "telemetry" not in hit.summary
