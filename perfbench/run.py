"""Whole-stack benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload materialize --seed 1 --seconds 12 --trace 0

Workloads: ``materialize``, ``batch-mixed``, ``service-mixed``, ``decide``
(see ``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced pass, and the merged spans are written to
``.perfbench_out/<workload>-seed<N>.trace.jsonl`` (readable with
``python -m repro trace inspect FILE --top 20``).

Times are scaled to a reference host by probes of the host's speed
around each timed segment (``HostSpeed``), because the host is shared
and its speed drifts.  The second-to-last stdout line is the run record
(machine stamps, seed, raw timed wall, probe times, failure counts by
kind); the last line is the result object.  The
program is imported from ``src/`` beside this directory, so the
benchmark fails, printing no result, outside a full checkout.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - imports are part of the measured set-up
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.obs.trace import TraceRecorder, load_trace  # noqa: E402

from stackbench.common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    HostSpeed,
    Tally,
    machine_stamp,
    percentile,
)
from stackbench.tracing import LayerShims, coverage_seconds, layer_metrics  # noqa: E402
from stackbench.workloads import MANIFEST_SEED, WORKLOADS, Context, OpLog  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - _STARTED
OUT_DIR = ROOT / ".perfbench_out"
#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 5
#: The imports above, timed in a fresh interpreter, so that each set-up
#: can pay for them again.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "start = time.perf_counter()\n"
    "import argparse, gc, json, statistics\n"
    "import repro.obs.trace, stackbench.common, stackbench.tracing, stackbench.workloads\n"
    "print(time.perf_counter() - start)\n"
)


def fresh_import_seconds() -> float:
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(completed.stdout.split()[-1])


def _merge_tallies(logs: List[OpLog]) -> Tally:
    merged = Tally()
    for log in logs:
        merged.attempted += log.tally.attempted
        merged.failures.update(log.tally.failures)
        merged.details.extend(log.tally.details[: 10 - len(merged.details)])
    return merged


def end_to_end(log: OpLog, setup_s: float, tail_pct: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(log.latencies) / log.wall,
        "atoms_per_s": log.atoms / log.wall,
        "op_p50_ms": percentile(log.latencies, 50) * 1e3,
        "op_tail_ms": percentile(log.latencies, tail_pct) * 1e3,
        "peak_rss_mb": log.peak_rss_mb,
    }


def traced_run(workload, inputs, ctx: Context, record: Dict[str, object]):
    """An untraced and a traced pass over the same ops; per-layer metrics."""
    logs: List[OpLog] = []
    record_layers: Dict[str, float] = {}
    if hasattr(workload, "pool_layer"):
        pool = workload.pool_layer(inputs, ctx)
        logs.append(pool)
        record_layers = pool.layer
    base = workload.trace_pass(inputs, ctx, traced=False)
    logs.append(base)
    if not record_layers:
        record_layers = base.layer
    recorder = TraceRecorder("bench")
    with LayerShims(recorder) as shims:
        start = recorder.now()
        log = workload.trace_pass(inputs, ctx, traced=True)
        end = recorder.now()
    logs.append(log)
    events = recorder.events()
    daemon_trace = log.layer.get("daemon_trace")
    if daemon_trace:
        events.extend(load_trace(str(daemon_trace)))
        Path(str(daemon_trace)).unlink()
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layer_metrics(events))
    metrics.update({k: v for k, v in record_layers.items() if k in PER_LAYER})
    metrics["trace.overhead_ratio"] = log.wall / base.wall
    metrics["trace.coverage_ratio"] = (
        coverage_seconds(events, "bench", start, end) / log.raw_wall
    )
    trace_file = OUT_DIR / f"{workload.name}-seed{ctx.seed}.trace.jsonl"
    with open(trace_file, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    record.update(
        trace_file=str(trace_file.relative_to(ROOT)),
        traced_wall_s=log.wall,
        untraced_wall_s=base.wall,
        shims_missing=shims.missing,
    )
    return metrics, _merge_tallies(logs)


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs and one set-up (tests)"
    )
    parser.add_argument(
        "--reference", default=str(HERE / "reference.json"),
        help="expected outputs (default: perfbench/reference.json)",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with open(args.reference, encoding="utf-8") as handle:
        reference = json.load(handle)
    ctx = Context(
        seed=args.seed, seconds=args.seconds, reference=reference,
        out_dir=OUT_DIR, root=ROOT, smoke=args.smoke,
    )
    record: Dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "manifest_seed": MANIFEST_SEED,
        "trace": args.trace,
        "smoke": args.smoke,
        **machine_stamp(calibration_rounds=1 if args.smoke else 5),
    }

    # A set-up is the imports (in a fresh interpreter) plus the inputs,
    # scaled to the reference host by the probes around it like op times.
    speed = HostSpeed()
    setups: List[float] = []
    inputs = None
    try:
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            if inputs is not None:
                workload.teardown(inputs)
                inputs = None
            gc.collect()
            import_s = fresh_import_seconds()
            start = time.perf_counter()
            inputs = workload.setup(ctx)
            setups.append((import_s + time.perf_counter() - start) * speed.scale())
        if args.trace:
            values, tally = traced_run(workload, inputs, ctx, record)
            units = PER_LAYER
        else:
            log = workload.run(inputs, ctx)
            setup_s = statistics.median(setups)
            values, tally = end_to_end(log, setup_s, workload.tail_pct), log.tally
            units = END_TO_END
            record.update(
                ops=len(log.latencies),
                timed_wall_s=log.wall,
                raw_timed_wall_s=log.raw_wall,
                host_speed=log.speed.summary(),
                op_tail_percentile=workload.tail_pct,
                latencies_s=log.latencies,
            )
    finally:
        if inputs is not None:
            workload.teardown(inputs)
    record.update(
        import_s=IMPORT_SECONDS,
        setup_samples_s=setups,
        attempted=tally.attempted,
        failures=tally.as_dict(),
    )
    result = {
        # Timeouts and refusals are failed ops; wrong or missing output
        # makes the run incorrect.
        "correct": tally.failures["errors"] == 0 and tally.failures["mismatches"] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record_file = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    record.pop("latencies_s", None)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return result


if __name__ == "__main__":
    main()
