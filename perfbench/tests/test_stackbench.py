"""Smoke-size runs of the whole-stack benchmark, and its self-checks.

Every workload runs once untraced and once traced on tiny inputs; the
tests check that each metric ``BENCHMARK.json`` names is emitted with
its unit, that outputs verify, that a corrupted reference turns into
failed ops, and that the benchmark stays off code the roadmap deletes.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_runner():
    spec = importlib.util.spec_from_file_location("stackbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = _load_runner()
from stackbench import common, workloads  # noqa: E402 - run.py put it on sys.path


def smoke(workload: str, trace: int, *extra: str):
    return runner.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--smoke", *extra,
    ])


@pytest.fixture(scope="module")
def results():
    return {
        (workload["name"], trace): smoke(workload["name"], trace)
        for workload in SPEC["workloads"]
        for trace in (0, 1)
    }


def test_spec_names_the_workloads_and_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == common.PER_LAYER
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert SPEC["end_to_end"][0]["name"] == "setup_s"


def test_every_metric_is_emitted_with_its_unit(results):
    for (name, trace), result in results.items():
        table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        emitted = result["metrics"]
        assert set(emitted) == {m["name"] for m in table}, name
        for metric in table:
            value = emitted[metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
        if not trace:
            assert all(emitted[m]["value"] > 0 for m in emitted), name


def test_smoke_runs_verify_clean(results):
    for (name, trace), result in results.items():
        assert result["correct"], (name, trace)
        assert result["failed"] == 0, (name, trace)
        assert result["attempted"] >= 1


def test_traced_runs_cover_their_wall(results):
    for (name, trace), result in results.items():
        if trace:
            metrics = result["metrics"]
            assert metrics["trace.coverage_ratio"]["value"] >= 0.9, name
            assert metrics["trace.overhead_ratio"]["value"] > 0, name


def test_trace_file_reads_with_trace_inspect(results, capsys):
    from repro.cli import main as repro_main

    path = ROOT / ".perfbench_out" / "decide-seed3.trace.jsonl"
    capsys.readouterr()
    assert repro_main(["trace", "inspect", str(path), "--top", "5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "core.decision" in summary["spans"]
    assert summary["top_spans"]


def test_corrupted_reference_counts_as_failed_ops(tmp_path):
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    reference["materialize"]["smoke"]["so-sl"]["size"] += 1
    name = next(iter(sorted(k for k in reference["decide"] if k.startswith("sl-"))))
    reference["decide"][name] = not reference["decide"][name]
    first_job = workloads.mixed_workload_jobs(1, workloads.MANIFEST_SEED)[0].job_id
    reference["jobs"][first_job] = "0" * 16
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    for workload in ("materialize", "decide", "batch-mixed"):
        result = smoke(workload, 0, "--reference", str(corrupted))
        assert result["failed"] >= 1, workload
        assert not result["correct"], workload


def test_benchmark_avoids_code_slated_for_deletion():
    # Assembled from pieces so this file does not match itself.
    banned = [
        kw + "=" for kw in ("engine", "probe", "profile", "round" + "_hook")
    ] + ["REPRO_STORE" + "_LAYOUT", "fire_invariant" + "_instance_key", "repro.bench" + ".drivers"]
    pattern = re.compile(
        "|".join(r"\b" + re.escape(token) if token[0].isalpha() else re.escape(token)
                 for token in banned)
    )
    files = [ROOT / "BENCHMARK.json", *BENCH_DIR.rglob("*.py"), *BENCH_DIR.rglob("*.md")]
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, offenders


def test_run_fails_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
