"""Command-line interface.

Four subcommands mirror the library's main entry points::

    python -m repro classify  ontology.rules
    python -m repro decide    ontology.rules database.facts [--method auto|syntactic|naive|ucq]
    python -m repro chase     ontology.rules database.facts [--variant semi-oblivious|restricted|oblivious]
                                                            [--max-atoms N] [--max-rounds N]
                                                            [--max-depth N] [--max-seconds S]
                                                            [--format text|json] [--output FILE]
                                                            [--engine store|legacy]
                                                            [--resume-from SNAP] [--save-snapshot FILE]
                                                            [--trace FILE] [--profile [--top K]]
                                                            [--conformance]
    python -m repro snapshot  dump database.facts --output FILE [--rules R [--variant V]]
    python -m repro snapshot  inspect FILE
    python -m repro snapshot  restore FILE [--output facts.txt]
    python -m repro batch     manifest.jsonl [--workers N] [--cache FILE] [--output FILE]
                                             [--timeout S] [--materialize] [--incremental]
                                             [--trace FILE] [--profile] [--conformance]
    python -m repro serve     [--host H] [--port P] [--workers N] [--cache FILE]
                              [--cache-max-entries N] [--queue-depth N] [--ttl S]
                              [--timeout S] [--materialize] [--metrics]
                              [--access-log FILE [--access-log-max-bytes N]]
                              [--trace FILE] [--conformance]
    python -m repro trace     inspect FILE [--top N] [--top-rules]
    python -m repro profile   FILE [--top K]

``serve`` starts the long-running chase service daemon: an HTTP job
server (``POST /jobs``, ``POST /batches``, ``GET /jobs/<id>``,
streaming ``GET /batches/<id>``, ``GET /healthz``, ``GET /stats``,
``POST /shutdown``) over the batch runtime — see
:mod:`repro.service`.  It runs until interrupted or shut down over
HTTP, draining accepted jobs first.

``--profile`` attributes wall time, triggers, facts and nulls to
individual rules (``repro profile FILE`` re-renders a saved payload,
``trace inspect --top-rules`` ranks from a trace file);
``--conformance`` checks terminated runs against the paper's
size/depth bounds for their TGD class.

``bench-engine`` regenerates the engine report, the store engine
against the legacy rescan (exit status 1 when a row's results differ).
The batch runtime and the daemon are timed by the whole-stack
benchmark (``perfbench/``, workloads ``batch-mixed`` and
``service-mixed``)::

    python -m repro bench-engine  [--output BENCH_engine.json] [--repeats N]

Rule files contain one TGD per line (``R(x, y) -> exists z . S(y, z)``),
database files one fact per line (``R(a, b).``); ``%`` and ``#`` start
comments.  ``decide`` exits with status 0 when the chase terminates,
1 when it does not, and 2 when the method could not decide.  ``batch``
consumes a JSONL manifest (one job per line, see
:mod:`repro.runtime.jobs`) and emits one JSONL result per job with
outcome, sizes, timings, and cache/budget provenance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.chase import VARIANT_RUNNERS as _VARIANTS
from repro.chase.engine import ENGINES as _ENGINES
from repro.chase.engine import ChaseBudget
from repro.core.bounds import depth_bound, size_bound, size_bound_factor
from repro.core.classify import TGDClass, classify
from repro.core.decision import decide_termination
from repro.model.parser import parse_database, parse_program
from repro.model.serialization import instance_to_text


def _load_program(path: str):
    return parse_program(Path(path).read_text(), name=Path(path).stem)


def _load_database(path: str):
    return parse_database(Path(path).read_text())


def _cmd_classify(args: argparse.Namespace) -> int:
    program = _load_program(args.rules)
    tgd_class = classify(program)
    print(f"class: {tgd_class.value}")
    print(f"rules: {len(program)}")
    print(f"schema: {len(program.schema())} predicates, max arity {program.arity()}")
    if tgd_class is not TGDClass.ARBITRARY:
        print(f"depth bound d_C(Sigma): {depth_bound(program, tgd_class).magnitude()}")
        print(f"size bound factor f_C(Sigma): {size_bound_factor(program, tgd_class).magnitude()}")
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    program = _load_program(args.rules)
    database = _load_database(args.database)
    verdict = decide_termination(database, program, method=args.method)
    answer = {True: "terminates", False: "does not terminate", None: "unknown"}[verdict.terminates]
    print(f"chase of {args.database} w.r.t. {args.rules}: {answer}")
    print(f"method: {verdict.method.value} (class {verdict.tgd_class.value})")
    if verdict.terminates:
        # The f_C(Σ) bound only exists for SL/L/G; an arbitrary set can
        # still be decided terminating (e.g. by the naive method).
        if verdict.tgd_class.has_paper_bounds:
            print(f"size bound: {size_bound(len(database), program).magnitude()}")
        return 0
    return 1 if verdict.terminates is False else 2


def _cmd_chase(args: argparse.Namespace) -> int:
    program = _load_program(args.rules)
    database = _load_database(args.database)
    runner = _VARIANTS[args.variant]
    analysis = None
    if args.analyze:
        from repro.core.termination_analysis import DIVERGING, analyze_termination

        analysis = analyze_termination(database, program, args.variant)
        print(
            f"analysis: {analysis.verdict}"
            + (f" via {analysis.method}" if analysis.method else "")
            + ("" if analysis.depth_bound is None else f", depth bound {analysis.depth_bound}"),
            file=sys.stderr,
        )
        if analysis.verdict == DIVERGING:
            print(
                f"not chasing: the {args.variant} chase provably diverges on this "
                "input (pass no --analyze to run it under an explicit budget)",
                file=sys.stderr,
            )
            if args.format == "json":
                document = {
                    "status": "diverging",
                    "analysis": analysis.as_dict(),
                    "summary": None,
                    "wall_seconds": 0.0,
                    "instance": None,
                }
                print(json.dumps(document, sort_keys=True))
            return 0
    budget = ChaseBudget(
        max_atoms=args.max_atoms,
        max_rounds=args.max_rounds,
        max_depth=args.max_depth,
        max_seconds=args.max_seconds,
    )
    engine = args.engine
    if args.resume_from and engine != "store":
        print(
            "--resume-from requires the store engine (use --engine store)",
            file=sys.stderr,
        )
        return 2
    resume_from = None
    if args.resume_from:
        from repro.model.store import inspect_snapshot

        resume_from = Path(args.resume_from).read_bytes()
        if inspect_snapshot(resume_from).get("complete") is not True:
            print(
                f"{args.resume_from} is not a terminated chase-result snapshot; "
                "resuming from it would silently drop pending triggers "
                "(use 'snapshot dump --rules' or 'chase --save-snapshot' on a "
                "run that terminated)",
                file=sys.stderr,
            )
            return 2
    observers = []
    if args.trace:
        from repro.obs.probe import ChaseProbe

        observers.append(ChaseProbe())
    if args.profile:
        from repro.obs.profile import RuleProfiler

        observers.append(RuleProfiler())
    result = runner(
        database,
        program,
        budget=budget,
        record_derivation=False,
        engine=engine,
        resume_from=resume_from,
        observers=observers,
    )
    profile_payload = result.profile
    if args.trace:
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder(process_name="repro-chase")
        telemetry = result.telemetry or {}
        # Round wall times are relative; lay the sampled rounds out
        # sequentially so the trace shows where the run spent its time.
        cursor = 0.0
        for sample in telemetry.get("samples", []):
            wall = float(sample.get("wall_seconds", 0.0))
            recorder.add_span(
                "chase.round", cursor, cursor + wall, tid="chase", args=dict(sample)
            )
            cursor += wall
        run_args = {
            "rounds": result.statistics.rounds,
            "size": result.size,
            "terminated": result.terminated,
            "sample_stride": telemetry.get("sample_stride"),
        }
        if profile_payload is not None:
            # Embedded so 'trace inspect --top-rules' can rank rules
            # straight from the trace file.
            run_args["profile"] = profile_payload
        recorder.add_span(
            "chase.run",
            0.0,
            result.statistics.wall_seconds,
            tid="chase",
            args=run_args,
        )
        events = recorder.export_jsonl(args.trace)
        print(f"trace: {events} events -> {args.trace}", file=sys.stderr)
    if args.save_snapshot:
        blob = result.store_snapshot()
        if blob is None:
            print(
                "--save-snapshot requires the store engine (use --engine store)",
                file=sys.stderr,
            )
            return 2
        if not result.terminated:
            print(
                f"not saving a snapshot of a budget-stopped run "
                f"({result.outcome.value}): it is an incomplete prefix that "
                "--resume-from would refuse anyway",
                file=sys.stderr,
            )
            return 2
        Path(args.save_snapshot).write_bytes(blob)
        print(f"snapshot: {len(blob)} bytes -> {args.save_snapshot}", file=sys.stderr)
    status = "terminated" if result.terminated else f"stopped ({result.outcome.value})"
    print(
        f"{status}: {result.size} atoms, max depth {result.max_depth}, "
        f"{result.statistics.triggers_applied} trigger applications, "
        f"{result.statistics.wall_seconds:.3f}s",
        file=sys.stderr,
    )
    if profile_payload is not None:
        from repro.obs.profile import format_profile_table

        print(format_profile_table(profile_payload, top=args.top), file=sys.stderr)
    summary = result.summary()
    if args.conformance:
        from repro.obs.conformance import conformance_report

        block = conformance_report(summary, program)
        if block is None:
            print(
                "conformance: no paper bounds for this TGD class",
                file=sys.stderr,
            )
        else:
            summary["conformance"] = block
            verdict = (
                f"VIOLATED ({', '.join(block['violations'])})"
                if block["violations"]
                else "within bounds"
            )
            print(
                f"conformance: class {block['class']}, "
                f"size utilization {block['size_utilization']}, "
                f"depth utilization {block['depth_utilization']} — {verdict}",
                file=sys.stderr,
            )
    text = instance_to_text(result.instance)
    if args.output:
        Path(args.output).write_text(text + "\n")
    if args.format == "json":
        document = {
            "status": status,
            "summary": summary,
            "wall_seconds": round(result.statistics.wall_seconds, 6),
            "instance": None if args.output else text,
        }
        if analysis is not None:
            document["analysis"] = analysis.as_dict()
        print(json.dumps(document, sort_keys=True))
    elif not args.output:
        print(text)
    return 0 if result.terminated else 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.model.serialization import instance_to_text
    from repro.model.store import FactStore, inspect_snapshot
    from repro.runtime.jobs import encode_database_snapshot

    if args.action == "dump":
        database = _load_database(args.database)
        if args.rules:
            program = _load_program(args.rules)
            runner = _VARIANTS[args.variant]
            result = runner(database, program, record_derivation=False, engine="store")
            blob = result.store_snapshot()
            assert blob is not None  # engine="store" always carries a store
            status = "terminated" if result.terminated else result.outcome.value
            print(
                f"chased {len(database)} facts -> {result.size} atoms ({status})",
                file=sys.stderr,
            )
            if not result.terminated:
                print(
                    "warning: budget-stopped prefix — the snapshot is marked "
                    "incomplete and --resume-from will refuse it",
                    file=sys.stderr,
                )
        else:
            blob = encode_database_snapshot(database)
        Path(args.output).write_bytes(blob)
        print(f"wrote {len(blob)} bytes to {args.output}", file=sys.stderr)
        return 0
    data = Path(args.snapshot).read_bytes()
    if args.action == "inspect":
        header = inspect_snapshot(data)
        null_count = sum(1 for t in header["terms"] if not isinstance(t, str))
        document = {
            "bytes": len(data),
            "complete": header.get("complete"),
            "predicates": {
                f"{name}/{arity}": count
                for (name, arity), count in zip(header["predicates"], header["facts"])
            },
            "facts": header["size"],
            "terms": len(header["terms"]),
            "nulls": null_count,
            "max_depth": header["max_depth"],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    # restore: decode back to fact text.
    store = FactStore.restore(data)
    text = instance_to_text(store.to_instance())
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"restored {len(store)} facts to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _arm_faults(args: argparse.Namespace):
    """Honour ``--inject-faults`` (inline JSON or ``@plan.json``).

    Publishes the plan through the ``REPRO_FAULTS`` environment
    variable — the same channel forked pool workers inherit it by —
    and returns the armed injector (or ``None`` when faults are off).
    """
    import os

    from repro.runtime.faults import ENV_VAR, FaultPlanError, get_injector, reset_injector

    plan_text = getattr(args, "inject_faults", None)
    if plan_text:
        os.environ[ENV_VAR] = plan_text
        reset_injector()
    injector = get_injector()
    if plan_text and not injector.enabled:
        raise FaultPlanError(f"--inject-faults parsed to an empty plan: {plan_text!r}")
    return injector if injector.enabled else None


def _fault_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-faults",
        metavar="PLAN",
        help="arm the deterministic fault-injection layer: inline JSON "
        '({"faults": [{"point": "worker.round", "action": "kill", '
        '"at_round": 3}], "seed": 1, ...}) or @path to a plan file; '
        "equivalently set the REPRO_FAULTS environment variable",
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.runtime import BatchExecutor, ResultCache, read_manifest_lenient
    from repro.runtime.jobs import ManifestError

    injector = _arm_faults(args)
    items = read_manifest_lenient(args.manifest)
    jobs = [item for item in items if not isinstance(item, ManifestError)]
    bad = [item for item in items if isinstance(item, ManifestError)]
    cache = ResultCache(args.cache) if args.cache else None
    if args.incremental and cache is None:
        print(
            "--incremental needs --cache to hold resume snapshots; running cold",
            file=sys.stderr,
        )
    executor_kwargs = {}
    if args.analyze:
        from repro.core.termination_analysis import TerminationAnalyzer
        from repro.runtime.budget_policy import BudgetPolicy

        executor_kwargs["policy"] = BudgetPolicy(analyzer=TerminationAnalyzer())
    tracer = None
    if args.trace:
        from repro.obs.trace import TraceRecorder

        tracer = TraceRecorder(process_name="repro-batch")
    checkpoint_dir = args.checkpoint_dir
    if args.checkpoint_every_rounds is not None and checkpoint_dir is None:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    executor = BatchExecutor(
        workers=args.workers,
        cache=cache,
        materialize=args.materialize,
        per_job_timeout=args.timeout,
        engine=args.engine,
        incremental=args.incremental,
        tracer=tracer,
        profile=args.profile,
        conformance=args.conformance,
        max_retries=args.max_retries,
        checkpoint_every_rounds=args.checkpoint_every_rounds,
        checkpoint_dir=checkpoint_dir,
        stuck_timeout_seconds=args.stuck_timeout,
        **executor_kwargs,
    )
    if cache is not None:
        cache.tracer = tracer
    out_handle = Path(args.output).open("w") if args.output else sys.stdout
    counts = {"ok": 0, "timeout": 0, "error": len(bad), "cached": 0}
    try:
        for entry in bad:
            row = {
                "id": entry.job_id,
                "status": "error",
                "outcome": None,
                "summary": None,
                "error": f"manifest line {entry.line_number}: {entry.error}",
            }
            out_handle.write(json.dumps(row, sort_keys=True) + "\n")
        for result in executor.run(jobs):
            counts[result.status] = counts.get(result.status, 0) + 1
            if result.cache_hit:
                counts["cached"] += 1
            out_handle.write(json.dumps(result.as_dict(), sort_keys=True) + "\n")
            out_handle.flush()
    finally:
        if args.output:
            out_handle.close()
    if tracer is not None:
        events = tracer.export_jsonl(args.trace)
        print(f"trace: {events} events -> {args.trace}", file=sys.stderr)
    print(
        f"{len(items)} jobs: {counts['ok']} ok ({counts['cached']} from cache), "
        f"{counts['timeout']} timed out, {counts['error']} failed"
        + (f"; cache {cache.stats()}" if cache is not None else ""),
        file=sys.stderr,
    )
    if injector is not None:
        print(
            f"faults: {injector.fired_total()} injected {dict(injector.fired_counts())}; "
            f"recovery {executor.fault_stats}",
            file=sys.stderr,
        )
    return 1 if counts["error"] else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.runtime.cache import ResultCache
    from repro.service import ChaseService

    _arm_faults(args)
    cache = ResultCache(args.cache or None, max_entries=args.cache_max_entries)
    checkpoint_dir = args.checkpoint_dir
    if args.checkpoint_every_rounds is not None and checkpoint_dir is None:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    service = ChaseService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.queue_depth,
        cache=cache,
        materialize=args.materialize,
        per_job_timeout=args.timeout if args.timeout and args.timeout > 0 else None,
        ttl_seconds=args.ttl,
        admission_analysis=args.admission_analysis,
        metrics=args.metrics,
        access_log=args.access_log,
        access_log_max_bytes=args.access_log_max_bytes,
        trace_path=args.trace,
        conformance=args.conformance,
        checkpoint_every_rounds=args.checkpoint_every_rounds,
        checkpoint_dir=checkpoint_dir,
    )
    service.start()

    def _sigterm(_signum, _frame) -> None:
        # Graceful drain: running jobs finish (checkpointing per the
        # configured cadence), queued-but-unstarted jobs go back to the
        # registry as requeueable instead of being dropped.  The actual
        # stop runs off the signal frame so the handler returns fast.
        print("SIGTERM: finishing running jobs, requeueing the rest...", file=sys.stderr)
        threading.Thread(
            target=service.stop, kwargs={"requeue_queued": True},
            name="chase-sigterm", daemon=True,
        ).start()

    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    print(
        f"chase service listening on {service.url} "
        f"({args.workers} workers, queue depth {args.queue_depth}"
        + (f", cache {args.cache}" if args.cache else ", in-memory cache")
        + ")",
        file=sys.stderr,
    )
    try:
        while not service.wait_stopped(0.5):
            pass
    except KeyboardInterrupt:
        print("interrupt: draining accepted jobs...", file=sys.stderr)
        service.stop()
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
    print(f"stopped; final stats: {service.scheduler.stats()}", file=sys.stderr)
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.runtime.cache import verify_spill

    target = Path(args.cache_file)
    if not target.exists():
        print(f"error: no such file: {target}", file=sys.stderr)
        return 2
    report = verify_spill(target, repair=args.repair)
    print(json.dumps(report, sort_keys=True))
    damaged = report["crc_mismatch"] + report["torn"] + report["corrupt"]
    if damaged and not args.repair:
        print(
            f"{target}: {damaged} damaged line(s); re-run with --repair to drop them",
            file=sys.stderr,
        )
        return 1
    if report["repaired"]:
        print(f"{target}: repaired ({damaged} damaged line(s) dropped)", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import load_trace, summarize_trace

    try:
        events = load_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.top_rules:
        from repro.obs.profile import format_profile_table

        profiles = [
            event["args"]["profile"]
            for event in events
            if isinstance(event.get("args"), dict)
            and isinstance(event["args"].get("profile"), dict)
        ]
        if not profiles:
            print(
                "no embedded rule profiles in this trace "
                "(record one with 'chase --trace FILE --profile')",
                file=sys.stderr,
            )
            return 2
        for profile in profiles:
            print(format_profile_table(profile, top=args.top or 10))
        return 0
    print(json.dumps(summarize_trace(events, top=args.top), indent=2, sort_keys=True))
    return 0


def _profile_payloads(document: object) -> list:
    """Every profile payload reachable in a loaded JSON document.

    Accepts a raw ``RuleProfiler.as_dict()`` payload, a ``chase
    --format json`` document, a run summary, or a batch/bench result
    row — anywhere a ``profile`` block can end up.
    """
    if not isinstance(document, dict):
        return []
    if "rules" in document and "attributed_seconds" in document:
        return [document]  # a raw profile payload
    found = []
    profile = document.get("profile")
    if isinstance(profile, dict):
        found.append(profile)
    summary = document.get("summary")
    if isinstance(summary, dict) and isinstance(summary.get("profile"), dict):
        found.append(summary["profile"])
    return found


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import format_profile_table

    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiles = []
    try:
        profiles = _profile_payloads(json.loads(text))
    except json.JSONDecodeError:
        # JSONL (batch results): scan each row for profile blocks.
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                profiles.extend(_profile_payloads(json.loads(line)))
            except json.JSONDecodeError:
                continue
    if not profiles:
        print(
            f"no profile payloads in {args.file} "
            "(produce one with 'chase --profile --format json')",
            file=sys.stderr,
        )
        return 2
    for index, profile in enumerate(profiles):
        if index:
            print()
        print(format_profile_table(profile, top=args.top))
    return 0


def _cmd_bench_engine(args: argparse.Namespace) -> int:
    from repro.bench.drivers import engine_benchmark_rows, format_table, write_engine_report

    rows = engine_benchmark_rows(repeats=args.repeats)
    summary = write_engine_report(path=args.output, rows=rows)["summary"]
    print(format_table(rows))
    print(
        f"\nmin speedup vs legacy: {summary['min_speedup_vs_legacy']}x, "
        f"all runs equivalent: {summary['all_equivalent']}",
        file=sys.stderr,
    )
    print(f"wrote {args.output}", file=sys.stderr)
    return 0 if summary["all_equivalent"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Non-uniformly terminating semi-oblivious chase toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify_parser = subparsers.add_parser("classify", help="classify an ontology (SL/L/G/TGD)")
    classify_parser.add_argument("rules", help="file with one TGD per line")
    classify_parser.set_defaults(handler=_cmd_classify)

    decide_parser = subparsers.add_parser("decide", help="decide non-uniform chase termination")
    decide_parser.add_argument("rules")
    decide_parser.add_argument("database")
    decide_parser.add_argument(
        "--method", choices=["auto", "syntactic", "naive", "ucq"], default="auto"
    )
    decide_parser.set_defaults(handler=_cmd_decide)

    chase_parser = subparsers.add_parser("chase", help="materialise the chase")
    chase_parser.add_argument("rules")
    chase_parser.add_argument("database")
    chase_parser.add_argument("--variant", choices=sorted(_VARIANTS), default="semi-oblivious")
    chase_parser.add_argument("--max-atoms", type=int, default=1_000_000)
    chase_parser.add_argument("--max-rounds", type=int, default=1_000_000)
    chase_parser.add_argument(
        "--max-depth", type=int, default=None, help="stop once a null deeper than N appears"
    )
    chase_parser.add_argument(
        "--max-seconds", type=float, default=None, help="wall-clock budget for the run"
    )
    chase_parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="print the materialised instance as text (default) or a JSON document",
    )
    chase_parser.add_argument("--output", help="write the materialised instance to a file")
    chase_parser.add_argument(
        "--engine",
        choices=list(_ENGINES),
        default="store",
        help="engine implementation: interned fact store (default) or the "
        "legacy rescan",
    )
    chase_parser.add_argument(
        "--resume-from",
        help="resume incrementally from a store snapshot of a previous "
        "terminated run over a sub-database (store engine only); pass the "
        "full grown database as the facts file",
    )
    chase_parser.add_argument(
        "--save-snapshot",
        help="write the result's store snapshot here (store engine only)",
    )
    chase_parser.add_argument(
        "--trace",
        help="record per-round telemetry and write a Chrome-trace JSONL "
        "file here (view with 'trace inspect' or Perfetto); the JSON "
        "summary gains a 'telemetry' key",
    )
    chase_parser.add_argument(
        "--analyze",
        action="store_true",
        help="run static termination analysis first: report the verdict "
        "(terminating/diverging/undetermined) for the chosen variant, skip "
        "the chase entirely when it provably diverges, and include the "
        "analysis in --format json output",
    )
    chase_parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall time, triggers, facts and nulls to individual "
        "rules; prints a top-K table and adds a 'profile' key to the "
        "--format json summary (and to the --trace file)",
    )
    chase_parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows in the --profile table (default 10)",
    )
    chase_parser.add_argument(
        "--conformance",
        action="store_true",
        help="compare the run against the paper's size/depth bounds for "
        "its TGD class: prints the utilizations and adds a 'conformance' "
        "key to the --format json summary",
    )
    chase_parser.set_defaults(handler=_cmd_chase)

    snapshot_parser = subparsers.add_parser(
        "snapshot",
        help="dump, inspect, or restore fact-store snapshots",
    )
    snapshot_subparsers = snapshot_parser.add_subparsers(dest="action", required=True)
    snapshot_dump = snapshot_subparsers.add_parser(
        "dump", help="encode a database (or its chase result) as a snapshot"
    )
    snapshot_dump.add_argument("database", help="file with one fact per line")
    snapshot_dump.add_argument("--output", required=True, help="snapshot file to write")
    snapshot_dump.add_argument(
        "--rules", help="chase the database with these rules first and snapshot the result"
    )
    snapshot_dump.add_argument(
        "--variant", choices=sorted(_VARIANTS), default="semi-oblivious"
    )
    snapshot_dump.set_defaults(handler=_cmd_snapshot)
    snapshot_inspect = snapshot_subparsers.add_parser(
        "inspect", help="print a snapshot's header (predicates, sizes) as JSON"
    )
    snapshot_inspect.add_argument("snapshot", help="snapshot file")
    snapshot_inspect.set_defaults(handler=_cmd_snapshot)
    snapshot_restore = snapshot_subparsers.add_parser(
        "restore", help="decode a snapshot back to fact text"
    )
    snapshot_restore.add_argument("snapshot", help="snapshot file")
    snapshot_restore.add_argument("--output", help="write facts here instead of stdout")
    snapshot_restore.set_defaults(handler=_cmd_snapshot)

    batch_parser = subparsers.add_parser(
        "batch",
        help="run a JSONL manifest of chase jobs through the batch runtime",
    )
    batch_parser.add_argument("manifest", help="JSONL file, one job per line")
    batch_parser.add_argument(
        "--workers", type=int, default=1, help="process pool size (1 = serial, deterministic)"
    )
    batch_parser.add_argument("--cache", help="JSONL result cache file (created if missing)")
    batch_parser.add_argument("--output", help="write JSONL results here instead of stdout")
    batch_parser.add_argument(
        "--timeout", type=float, default=None, help="per-job wall-clock limit in seconds"
    )
    batch_parser.add_argument(
        "--materialize",
        action="store_true",
        help="include the materialised instance text in each result",
    )
    batch_parser.add_argument(
        "--engine",
        choices=list(_ENGINES),
        default=None,
        help="chase engine implementation for all jobs (default: store)",
    )
    batch_parser.add_argument(
        "--incremental",
        action="store_true",
        help="resume cache-missed jobs from cached snapshots of the same "
        "program over a sub-database (needs --cache; stores snapshots "
        "alongside summaries)",
    )
    batch_parser.add_argument(
        "--analyze",
        action="store_true",
        help="derive auto budgets with static termination analysis: provably "
        "diverging jobs get a clamped budget instead of the million-atom "
        "default, and each result row's budget provenance carries the verdict",
    )
    batch_parser.add_argument(
        "--trace",
        help="record job-lifecycle spans (admission, cache lookup, snapshot "
        "encode, execute, cache write) and write Chrome-trace JSONL here",
    )
    batch_parser.add_argument(
        "--profile",
        action="store_true",
        help="attach a per-rule attribution profile to every executed "
        "result's summary (inspect with 'repro profile RESULTS.jsonl')",
    )
    batch_parser.add_argument(
        "--conformance",
        action="store_true",
        help="stamp a paper-bound conformance block (observed size/depth "
        "vs the class's d_C/f_C bounds) into every SL/L/G result summary",
    )
    batch_parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="bounded re-executions of a job after a transient failure "
        "(crashed worker, injected fault); deterministic failures are "
        "never retried (default 2)",
    )
    batch_parser.add_argument(
        "--checkpoint-every-rounds",
        type=int,
        default=None,
        metavar="N",
        help="write a resumable checkpoint every N chase rounds so a "
        "retried job resumes from its last checkpoint instead of round 0 "
        "(semi-oblivious/oblivious jobs on the store engine)",
    )
    batch_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for round checkpoints (default: a fresh temp dir "
        "when --checkpoint-every-rounds is set)",
    )
    batch_parser.add_argument(
        "--stuck-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="pool watchdog: recycle worker processes stuck on one job "
        "longer than this; the job retries (from its checkpoint, if any)",
    )
    _fault_flag(batch_parser)
    batch_parser.set_defaults(handler=_cmd_batch)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the chase service daemon (HTTP job server over the batch runtime)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8765, help="0 = ephemeral")
    serve_parser.add_argument("--workers", type=int, default=2, help="scheduler worker threads")
    serve_parser.add_argument("--cache", help="JSONL result cache file (created if missing)")
    serve_parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=10_000,
        help="LRU bound on in-memory cache entries",
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=64, help="admission control: max queued jobs"
    )
    serve_parser.add_argument(
        "--ttl", type=float, default=300.0, help="retention of finished job records (seconds)"
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-job wall-clock ceiling in seconds, bounding even hostile "
        "explicit budgets (0 disables; default 60)",
    )
    serve_parser.add_argument(
        "--materialize",
        action="store_true",
        help="include the materialised instance text in each result",
    )
    serve_parser.add_argument(
        "--admission-analysis",
        action="store_true",
        help="reject provably diverging programs at POST /jobs with a 422 "
        "and derive budgets with static termination analysis (POST /batches "
        "still accepts them under a clamped budget)",
    )
    serve_parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable the metrics registry and serve GET /metrics in "
        "Prometheus text exposition format (request latency histograms, "
        "queue depth, cache and job counters)",
    )
    serve_parser.add_argument(
        "--access-log",
        help="append one JSONL line per HTTP request (ts, remote, method, "
        "path, status, seconds) to this file",
    )
    serve_parser.add_argument(
        "--access-log-max-bytes",
        type=int,
        default=16 * 1024 * 1024,
        help="rotate the access log once it reaches this size: the file "
        "moves to <name>.1 (replacing any previous rollover) and a fresh "
        "log starts (default 16 MiB)",
    )
    serve_parser.add_argument(
        "--conformance",
        action="store_true",
        help="stamp paper-bound conformance blocks into result summaries "
        "and export bound_utilization gauges / the bound-violation "
        "counter at /metrics",
    )
    serve_parser.add_argument(
        "--trace",
        help="record job-lifecycle and request spans; the Chrome-trace "
        "JSONL is written here when the daemon stops",
    )
    serve_parser.add_argument(
        "--checkpoint-every-rounds",
        type=int,
        default=None,
        metavar="N",
        help="write a resumable checkpoint every N chase rounds so a "
        "SIGTERM drain (or crash) leaves running jobs resumable on disk",
    )
    serve_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for round checkpoints (default: a fresh temp dir "
        "when --checkpoint-every-rounds is set)",
    )
    _fault_flag(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect and repair JSONL result-cache spill files",
    )
    cache_subparsers = cache_parser.add_subparsers(dest="action", required=True)
    cache_verify = cache_subparsers.add_parser(
        "verify",
        help="audit a spill file's per-line CRC32 integrity; --repair "
        "rewrites it keeping only healthy lines (checksums re-stamped)",
    )
    cache_verify.add_argument("cache_file", help="JSONL spill file to audit")
    cache_verify.add_argument(
        "--repair",
        action="store_true",
        help="rewrite the file in place, dropping torn/corrupt/checksum-"
        "failed lines and stamping checksums on legacy lines",
    )
    cache_verify.set_defaults(handler=_cmd_cache_verify)

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect Chrome-trace JSONL files written by --trace options",
    )
    trace_subparsers = trace_parser.add_subparsers(dest="action", required=True)
    trace_inspect = trace_subparsers.add_parser(
        "inspect", help="validate a trace file and print a per-span summary"
    )
    trace_inspect.add_argument("trace_file", help="Chrome-trace JSONL file")
    trace_inspect.add_argument(
        "--top",
        type=int,
        default=0,
        help="also rank the N most expensive span names by total time",
    )
    trace_inspect.add_argument(
        "--top-rules",
        action="store_true",
        help="print the per-rule attribution table embedded by "
        "'chase --trace FILE --profile' instead of the span summary",
    )
    trace_inspect.set_defaults(handler=_cmd_trace)

    profile_parser = subparsers.add_parser(
        "profile",
        help="print the top-K per-rule attribution table from a profiled "
        "run's JSON output (chase --profile --format json, or batch JSONL)",
    )
    profile_parser.add_argument(
        "file", help="JSON document or JSONL results file carrying 'profile' blocks"
    )
    profile_parser.add_argument(
        "--top", type=int, default=10, help="rows per table (default 10)"
    )
    profile_parser.set_defaults(handler=_cmd_profile)

    bench_parser = subparsers.add_parser(
        "bench-engine",
        help="measure the fact-store engine vs the legacy rescan, "
        "write BENCH_engine.json",
    )
    bench_parser.add_argument(
        "--output", default="BENCH_engine.json", help="report path"
    )
    bench_parser.add_argument("--repeats", type=int, default=3)
    bench_parser.set_defaults(handler=_cmd_bench_engine)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "inject_faults", None):
        # Arm before the handler touches any fault point (handlers that
        # need the injector reference re-arm idempotently).
        _arm_faults(args)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
