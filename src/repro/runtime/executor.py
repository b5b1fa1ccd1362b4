"""Batch executor: run many chase jobs, serially or across processes.

The executor is the runtime's scheduler.  For each job it

1. resolves the budget through the :class:`BudgetPolicy` (paper-derived
   auto-budgets, explicit, or default — see
   :mod:`repro.runtime.budget_policy`),
2. consults the :class:`ResultCache` and replays hits without running
   anything,
3. otherwise ships a plain-data payload to a worker — the program as
   text, the database as a packed fact-store *snapshot*
   (:func:`~repro.runtime.jobs.encode_database_snapshot`; workers
   restore it and skip parse + intern entirely, and nothing with
   interpreter-local state such as interned null uids crosses a
   process boundary), and
4. streams :class:`JobResult` records back as jobs finish, storing
   deterministic outcomes in the cache.

With ``incremental=True`` the executor additionally recognises
"previous job + delta": cache misses consult the lineage index
(:func:`~repro.runtime.cache.lineage_cache_key`) for a snapshot of a
terminated run of the same program/variant/budget-policy over a
*subset* of the new database, and resume the chase from it with only
the delta facts (``resume_from``).  Resumed results report the same
instance/size/outcome as a cold run for the variants with
order-independent results, but their round/trigger statistics reflect
only the delta work — which is the point — so incremental mode is
opt-in for deployments that assert cold-run byte-identity.

``workers <= 1`` selects the serial in-process mode, which yields
results in submission order and is bit-for-bit deterministic; larger
values use a ``multiprocessing`` pool (fork context where available)
and yield in completion order.  Per-job timeouts are enforced
cooperatively through the engine's ``max_seconds`` budget, which the
chase driver checks after every trigger application.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ChaseBudget, ChaseOutcome, EngineCheckpoint
from repro.model.parser import parse_database, parse_program
from repro.model.serialization import instance_to_text, program_to_text
from repro.model.store import FactStore
from repro.obs.conformance import conformance_report
from repro.obs.observer import RunObserver
from repro.obs.probe import ChaseProbe
from repro.obs.profile import RuleProfiler
from repro.obs.trace import TraceRecorder
from repro.runtime.budget_policy import BudgetDecision, BudgetPolicy
from repro.runtime.cache import CacheEntry, ResultCache, lineage_cache_key, result_cache_key
from repro.runtime.checkpoint import RoundCheckpointer, load_checkpoint
from repro.runtime.faults import (
    RoundFaultPoint,
    backoff_schedule,
    classify_failure,
    get_injector,
    mark_worker_process,
)
from repro.runtime.jobs import ChaseJob


@dataclass
class JobResult:
    """The outcome of one scheduled job, with full provenance."""

    job_id: str
    status: str  # "ok" | "timeout" | "error"
    summary: Optional[Dict[str, object]]
    variant: str
    cache_hit: bool
    cache_key: str
    budget_provenance: Dict[str, object]
    wall_seconds: float
    worker_seconds: Optional[float] = None
    instance_text: Optional[str] = None
    error: Optional[str] = None
    tags: Tuple[str, ...] = ()
    #: Cache key of the snapshot this run resumed from (incremental
    #: re-chase), None for cold runs.
    resumed_from: Optional[str] = None
    #: Transient-failure retries this job consumed (0 on the first
    #: successful attempt — and then absent from :meth:`as_dict`, so
    #: fault-free batch rows keep their exact pre-existing shape).
    retries: int = 0
    #: Checkpoint-resume provenance (``base_rounds`` already executed
    #: before the crash, ``resumed_rounds`` re-executed after it) when a
    #: retry resumed from a mid-run checkpoint; ``None`` otherwise and
    #: then absent from :meth:`as_dict`.  Deliberately *not* part of the
    #: summary: a resumed run's summary is byte-identical to a cold
    #: run's, and this records how little work that identity cost.
    checkpoint: Optional[Dict[str, object]] = None

    @property
    def outcome(self) -> Optional[str]:
        return self.summary.get("outcome") if self.summary else None  # type: ignore[return-value]

    def as_dict(self) -> Dict[str, object]:
        """The JSONL row ``python -m repro batch`` emits."""
        row: Dict[str, object] = {
            "id": self.job_id,
            "status": self.status,
            "outcome": self.outcome,
            "summary": self.summary,
            "variant": self.variant,
            "cache": {"hit": self.cache_hit, "key": self.cache_key},
            "budget": self.budget_provenance,
            "wall_seconds": round(self.wall_seconds, 6),
            "worker_seconds": self.worker_seconds,
            "instance": self.instance_text,
            "error": self.error,
            "tags": list(self.tags),
            "resumed_from": self.resumed_from,
        }
        if self.retries:
            row["retries"] = self.retries
        if self.checkpoint is not None:
            row["checkpoint"] = self.checkpoint
        return row

    def summary_json(self) -> str:
        """Canonical bytes of the summary (cache byte-identity checks)."""
        return json.dumps(self.summary, sort_keys=True)


def execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one job payload; module-level so it pickles into workers.

    The payload and the returned record are plain data: texts, numbers,
    bytes and dicts — nothing with interpreter-local state (interned
    null uids) crosses a process boundary.  Two database shapes:

    * ``database_snapshot`` — packed store bytes; the worker restores
      the store and chases it directly, skipping parse + intern (every
      cold payload);
    * ``resume_snapshot`` + ``database_text`` — incremental re-chase:
      the snapshot is a previously terminated run, the text carries
      only the *delta* facts, and ``database_size`` is the full grown
      database's size for summary bookkeeping.

    A summary-only job never materialises atom objects at all; the
    instance is decoded to text solely when ``materialize`` asks for
    it, and ``want_snapshot`` returns the terminated run's snapshot
    bytes (taken before any materialisation) for the cache's lineage
    index.
    """
    try:
        injector = get_injector()
        program = parse_program(
            str(payload["program_text"]), name=str(payload.get("program_name", "Sigma"))
        )
        snapshot_bytes = payload.get("database_snapshot")
        if snapshot_bytes is not None:
            database = FactStore.restore(snapshot_bytes)  # type: ignore[arg-type]
        else:
            database = parse_database(str(payload["database_text"]))
        budget = ChaseBudget(**payload["budget"])  # type: ignore[arg-type]
        runner = VARIANT_RUNNERS[str(payload["variant"])]
        resume_snapshot = payload.get("resume_snapshot")
        database_size = payload.get("database_size")
        observers: List[RunObserver] = []
        if payload.get("telemetry"):
            observers.append(ChaseProbe())
        if payload.get("profile"):
            observers.append(RuleProfiler())
        # Crash-safe execution: a checkpoint path makes the run persist
        # its loop state every N round boundaries, and — on a retry — a
        # decodable checkpoint left by a dead attempt turns this run
        # into a same-run resume instead of a cold start.  A corrupt or
        # truncated checkpoint silently falls back to cold (costs time,
        # never correctness).
        checkpoint_path = payload.get("checkpoint_path")
        checkpoint_every = payload.get("checkpoint_every_rounds")
        engine_checkpoint: Optional[EngineCheckpoint] = None
        checkpointer: Optional[RoundCheckpointer] = None
        if checkpoint_path and checkpoint_every:
            loaded = load_checkpoint(str(checkpoint_path))
            if loaded is not None:
                header, blob = loaded
                engine_checkpoint = EngineCheckpoint(
                    store_blob=blob,
                    marks=tuple(int(m) for m in header["marks"]),
                    rounds=int(header["rounds"]),
                    considered=int(header["considered"]),
                    applied=int(header["applied"]),
                    created=int(header["created"]),
                    database_size=int(header["database_size"]),
                )
            checkpointer = RoundCheckpointer(
                str(checkpoint_path),
                int(checkpoint_every),  # type: ignore[arg-type]
                database_size=(
                    int(database_size) if database_size is not None else len(database)
                ),
                injector=injector if injector.enabled else None,
            )
            observers.append(checkpointer)
        if injector.enabled:
            # After the checkpointer: a kill at round N must find the
            # round-N state already durable.
            observers.append(RoundFaultPoint(injector, str(payload["job_id"])))

        start = time.perf_counter()
        result = runner(
            database,
            program,
            budget=budget,
            record_derivation=False,
            resume_from=resume_snapshot,
            database_size=int(database_size) if database_size is not None else None,
            observers=observers,
            checkpoint=engine_checkpoint,
        )
        status = (
            "timeout" if result.outcome is ChaseOutcome.TIME_BUDGET_EXCEEDED else "ok"
        )
        snapshot_out: Optional[bytes] = None
        if payload.get("want_snapshot") and status == "ok" and result.terminated:
            # Before reading .instance: materialisation releases the store.
            snapshot_out = result.store_snapshot()
        record: Dict[str, object] = {
            "job_id": payload["job_id"],
            "status": status,
            "summary": result.summary(),
            "worker_seconds": round(time.perf_counter() - start, 6),
            "instance_text": (
                instance_to_text(result.instance) if payload.get("materialize") else None
            ),
            "error": None,
            "snapshot": snapshot_out,
        }
        if engine_checkpoint is not None:
            record["checkpoint"] = {
                "base_rounds": engine_checkpoint.rounds,
                "resumed_rounds": result.statistics.rounds - engine_checkpoint.rounds,
            }
        if checkpointer is not None:
            # The run reached a verdict; there is nothing left to resume.
            checkpointer.discard()
        return record
    except Exception as exc:  # noqa: BLE001 - worker faults become job errors
        return {
            "job_id": payload.get("job_id", "?"),
            "status": "error",
            "summary": None,
            "worker_seconds": None,
            "instance_text": None,
            "error": f"{type(exc).__name__}: {exc}",
            "snapshot": None,
            "failure_kind": classify_failure(exc),
        }


@dataclass
class BatchExecutor:
    """Runs :class:`ChaseJob` batches against a policy and a cache."""

    workers: int = 1
    policy: BudgetPolicy = field(default_factory=BudgetPolicy)
    cache: Optional[ResultCache] = None
    materialize: bool = False
    per_job_timeout: Optional[float] = None
    #: Opt-in incremental re-chase: on a cache miss, resume from a
    #: cached snapshot of "the same job over a smaller database" with
    #: only the delta facts, and store terminated runs' snapshots for
    #: future resumes.  Off by default because resumed summaries report
    #: delta-only round/trigger statistics (see the module docstring).
    incremental: bool = False
    #: Attach a round-level :class:`~repro.obs.probe.ChaseProbe` to
    #: every executed chase; its payload lands under
    #: ``summary["telemetry"]`` in the job result.  Telemetry is
    #: stripped before caching (wall times are non-deterministic), so
    #: replays stay byte-identical to unprobed runs.
    telemetry: bool = False
    #: Attach a per-rule :class:`~repro.obs.profile.RuleProfiler` to
    #: every executed chase; its payload lands under
    #: ``summary["profile"]``.  Stripped before caching for the same
    #: byte-identity reason as telemetry.
    profile: bool = False
    #: Stamp a paper-bound ``conformance`` block
    #: (:func:`~repro.obs.conformance.conformance_report`) into every
    #: SL/L/G summary.  Computed post-cache from the summary itself, so
    #: cached bytes stay identical and hits get the block too.
    conformance: bool = False
    #: Optional :class:`~repro.obs.trace.TraceRecorder`: when set, each
    #: executed job emits ``job.admission`` / ``cache.lookup`` /
    #: ``snapshot.encode`` / ``job.execute`` spans.  ``None`` (the
    #: default) keeps the run loops span-free.
    tracer: Optional[TraceRecorder] = None
    #: Bounded per-job retries for *transient* failures (dead workers,
    #: broken pools, injected faults, I/O blips).  Deterministic
    #: failures — the kind that would fail identically again — are
    #: never retried.  0 restores the old one-error-row behaviour.
    max_retries: int = 2
    #: First retry delay; attempt ``i`` sleeps ``base * 2**i`` (capped),
    #: a deterministic schedule with no jitter so retried batches stay
    #: reproducible.
    retry_backoff_base: float = 0.05
    #: Persist a mid-run checkpoint every N round boundaries (requires
    #: ``checkpoint_dir``); a retried job then resumes from its last
    #: checkpoint instead of cold.  Jobs of every variant checkpoint;
    #: probed, profiled and depth-truncating jobs retry cold (see
    #: :meth:`_checkpoint_capable`).  ``None`` disables checkpointing.
    checkpoint_every_rounds: Optional[int] = None
    #: Directory for checkpoint files (one per cache key, deleted when
    #: the job reaches a verdict).
    checkpoint_dir: Optional[str] = None
    #: Pool mode only: when a worker makes no progress for this many
    #: seconds past a job's submission, the pool's processes are
    #: recycled and the outstanding jobs retried (from their
    #: checkpoints where available).  ``None`` disables the watchdog.
    stuck_timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # Wire the tracer into the cache so ``cache.write`` /
        # ``cache.compact`` spans land in the same trace without every
        # caller having to remember the second hookup.
        if self.cache is not None and self.tracer is not None:
            self.cache.tracer = self.tracer
        #: Fault-recovery counters surfaced on the service's /metrics
        #: (``repro_job_retries_total``, ``repro_checkpoint_resumes_total``).
        self.fault_stats: Dict[str, int] = {"retries": 0, "checkpoint_resumes": 0}
        self._fault_stats_lock = threading.Lock()
        # Checkpoint writes deliberately swallow OSError (a checkpoint
        # is an optimisation), so a missing directory would silently
        # disable them — create it up front instead.
        if self.checkpoint_dir is not None:
            Path(self.checkpoint_dir).mkdir(parents=True, exist_ok=True)

    def _count(self, stat: str, amount: int = 1) -> None:
        if amount:
            with self._fault_stats_lock:
                self.fault_stats[stat] = self.fault_stats.get(stat, 0) + amount

    # -- job preparation --------------------------------------------------

    def _resolve(self, job: ChaseJob) -> Tuple[BudgetDecision, ChaseBudget, str]:
        """Budget decision, effective budget (timeout folded in), cache key."""
        decision = self.policy.resolve(
            job.program,
            len(job.database),
            job.budget_mode,
            job.budget,
            database=job.database,
            variant=job.variant,
        )
        key = result_cache_key(job, decision.budget)
        # A provably terminating job cannot run forever, so the daemon's
        # blanket per-job wall ceiling is dead weight: skip folding it
        # and let the analysis-derived depth/atom budget do the work.
        # Job-level explicit timeouts are still honoured.
        daemon_ceiling = (
            None if decision.verdict == "terminating" else self.per_job_timeout
        )
        timeouts = [
            t
            for t in (decision.budget.max_seconds, job.timeout_seconds, daemon_ceiling)
            if t is not None
        ]
        effective = (
            decision.budget.replace(max_seconds=min(timeouts))
            if timeouts
            else decision.budget
        )
        return decision, effective, key

    def _payload(
        self,
        job: ChaseJob,
        budget: ChaseBudget,
        include_database: bool = True,
        key: Optional[str] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "job_id": job.job_id,
            "program_text": program_to_text(job.program),
            "program_name": job.program.name,
            "variant": job.variant,
            "budget": budget.as_dict(),
            "materialize": self.materialize,
        }
        if include_database:
            # Encoded once per job and shared across retries and dedup
            # re-runs (``ChaseJob.database_snapshot``).
            payload["database_snapshot"] = job.database_snapshot
        if self.incremental and self.cache is not None:
            payload["want_snapshot"] = True
        if self.telemetry:
            payload["telemetry"] = True
        if self.profile:
            payload["profile"] = True
        if self._checkpoint_capable(job) and key is not None:
            payload["checkpoint_every_rounds"] = self.checkpoint_every_rounds
            payload["checkpoint_path"] = str(
                Path(self.checkpoint_dir)  # type: ignore[arg-type]
                / (hashlib.sha256(key.encode("utf-8")).hexdigest()[:24] + ".ckpt")
            )
        return payload

    def _checkpoint_capable(self, job: ChaseJob) -> bool:
        """Whether this job's runs persist (and resume from) checkpoints.

        Checkpoints freeze the columnar driver's loop state; every
        variant's null labels are functions of the trigger key and
        survive a restart.
        Probed/profiled runs are excluded: their payloads
        sample per-round, and a resume would observe only the tail.
        Depth-truncating runs are excluded too: a checkpoint does not
        carry the run's ``depth_truncated`` flag.
        """
        return (
            self.checkpoint_every_rounds is not None
            and self.checkpoint_dir is not None
            and not (job.budget is not None and job.budget.truncate_at_depth)
            and not self.telemetry
            and not self.profile
        )

    def _resume_base(self, job: ChaseJob) -> Optional[Tuple["CacheEntry", List[str]]]:
        """A cached snapshot this job can resume from, plus the delta.

        Returns ``(entry, delta_lines)`` when the cache holds a
        terminated run of the job's lineage whose base database is a
        subset of the job's — the "previous job + delta" shape — and
        ``None`` otherwise.
        """
        if not self.incremental or self.cache is None:
            return None
        entry = self.cache.snapshot_for(lineage_cache_key(job))
        if entry is None or entry.snapshot is None or entry.database_lines is None:
            return None
        new_lines = job.database_lines
        base = set(entry.database_lines)
        if not base.issubset(new_lines):
            return None
        return entry, [line for line in new_lines if line not in base]

    def _resume_payload(
        self, job: ChaseJob, budget: ChaseBudget, entry: "CacheEntry", delta: List[str]
    ) -> Dict[str, object]:
        # The cold payload minus the database, plus the resume fields —
        # so any future payload knob automatically covers resumed runs.
        payload = self._payload(job, budget, include_database=False)
        payload["database_text"] = "\n".join(delta)
        payload["resume_snapshot"] = entry.snapshot
        payload["database_size"] = len(job.database)
        payload["want_snapshot"] = self.cache is not None
        return payload

    def _build_payload(
        self, job: ChaseJob, budget: ChaseBudget, key: Optional[str] = None
    ) -> Tuple[Dict[str, object], Optional[str]]:
        """The payload to execute, plus the resumed-from key (if any)."""
        base = self._resume_base(job)
        if base is not None:
            entry, delta = base
            return self._resume_payload(job, budget, entry, delta), entry.key
        return self._payload(job, budget, key=key), None

    def _wrap(
        self,
        job: ChaseJob,
        decision: BudgetDecision,
        key: str,
        record: Dict[str, object],
        wall_seconds: float,
        resumed_from: Optional[str] = None,
        retries: int = 0,
    ) -> JobResult:
        checkpoint = record.get("checkpoint")
        if checkpoint is not None:
            self._count("checkpoint_resumes")
        result = JobResult(
            job_id=job.job_id,
            status=str(record["status"]),
            summary=record["summary"],  # type: ignore[arg-type]
            variant=job.variant,
            cache_hit=False,
            cache_key=key,
            budget_provenance=decision.provenance(),
            wall_seconds=wall_seconds,
            worker_seconds=record.get("worker_seconds"),  # type: ignore[arg-type]
            instance_text=record.get("instance_text"),  # type: ignore[arg-type]
            error=record.get("error"),  # type: ignore[arg-type]
            tags=job.tags,
            resumed_from=resumed_from,
            retries=retries,
            checkpoint=checkpoint,  # type: ignore[arg-type]
        )
        if self.cache is not None and result.status == "ok" and result.summary is not None:
            # Telemetry carries wall-clock round timings, which are not
            # deterministic; cached summaries must replay byte-identical
            # to an unprobed cold run, so the key is stripped before the
            # store (the caller's JobResult keeps it).
            cache_summary = result.summary
            if "telemetry" in cache_summary or "profile" in cache_summary:
                cache_summary = {
                    k: v
                    for k, v in cache_summary.items()
                    if k not in ("telemetry", "profile")
                }
            snapshot = record.get("snapshot")
            if resumed_from is not None:
                # A resumed run's statistics — and, under a tight round
                # budget, even its outcome — can differ from what a
                # cold execution of the same job would report, so it
                # must never become a replayable entry under the cold
                # result key.  Its snapshot still chains the lineage
                # (stored under a "delta:" key no result lookup ever
                # asks for).
                if snapshot is not None:
                    self.cache.put(
                        "delta:" + key,
                        cache_summary,
                        result.instance_text,
                        snapshot=snapshot,  # type: ignore[arg-type]
                        database_lines=job.database_lines,
                        lineage=lineage_cache_key(job),
                    )
            elif snapshot is not None:
                # A terminated cold run: replayable result and the
                # freshest incremental base of its lineage in one entry.
                self.cache.put(
                    key,
                    cache_summary,
                    result.instance_text,
                    snapshot=snapshot,  # type: ignore[arg-type]
                    database_lines=job.database_lines,
                    lineage=lineage_cache_key(job),
                )
            else:
                self.cache.put(key, cache_summary, result.instance_text)
        self._stamp_conformance(job, result)
        return result

    def _stamp_conformance(self, job: ChaseJob, result: JobResult) -> None:
        """Attach the paper-bound conformance block to ``result``.

        Runs strictly *after* caching so the stored bytes never carry
        the block; the block itself is deterministic (class + bounds +
        observed counts), so hits and cold runs agree.
        """
        if not self.conformance or result.summary is None:
            return
        block = conformance_report(result.summary, job.program)
        if block is None:
            return
        result.summary = dict(result.summary)
        result.summary["conformance"] = block

    def _hit(
        self, job: ChaseJob, decision: BudgetDecision, key: str, entry, wall_seconds: float
    ) -> JobResult:
        result = JobResult(
            job_id=job.job_id,
            status="ok",
            summary=entry.summary,
            variant=job.variant,
            cache_hit=True,
            cache_key=key,
            budget_provenance=decision.provenance(),
            wall_seconds=wall_seconds,
            worker_seconds=None,
            instance_text=entry.instance_text if self.materialize else None,
            tags=job.tags,
        )
        self._stamp_conformance(job, result)
        return result

    # -- execution --------------------------------------------------------

    def run(self, jobs: Iterable[ChaseJob]) -> Iterator[JobResult]:
        """Stream results as they complete (submission order when serial)."""
        if self.workers <= 1:
            yield from self._run_serial(jobs)
        else:
            yield from self._run_pool(jobs)

    def run_all(self, jobs: Iterable[ChaseJob]) -> List[JobResult]:
        """Run the whole batch and return the results as a list."""
        return list(self.run(jobs))

    @staticmethod
    def _transient_error(record: Dict[str, object]) -> bool:
        return (
            record.get("status") == "error"
            and record.get("failure_kind") == "transient"
        )

    def _execute_with_retries(
        self, payload: Dict[str, object]
    ) -> Tuple[Dict[str, object], int]:
        """Run a payload in-process, retrying transient failures.

        Deterministic failures return immediately; transient ones are
        re-executed up to ``max_retries`` times under the deterministic
        backoff schedule.  A checkpointed payload resumes from its last
        checkpoint on each retry (``execute_payload`` reads the file).
        Returns ``(record, retries_consumed)``.
        """
        record = execute_payload(payload)
        retries = 0
        if not self._transient_error(record) or self.max_retries <= 0:
            return record, retries
        for delay in backoff_schedule(self.retry_backoff_base, self.max_retries):
            retries += 1
            self._count("retries")
            if delay > 0:
                time.sleep(delay)
            record = execute_payload(payload)
            if not self._transient_error(record):
                break
        return record, retries

    def _cache_get(self, key: str):
        """A usable cache entry for this executor, or ``None``.

        A materialising executor must not replay entries stored without
        an instance — ``require_instance`` turns those into misses.
        """
        assert self.cache is not None
        return self.cache.get(key, require_instance=self.materialize)

    def _run_serial(self, jobs: Iterable[ChaseJob]) -> Iterator[JobResult]:
        tracer = self.tracer
        for job in jobs:
            start = time.perf_counter()
            mark = tracer.now() if tracer is not None else 0.0
            decision, budget, key = self._resolve(job)
            if tracer is not None:
                tracer.add_span(
                    "job.admission", mark, tracer.now(), args={"job": job.job_id}
                )
            if self.cache is not None:
                mark = tracer.now() if tracer is not None else 0.0
                entry = self._cache_get(key)
                if tracer is not None:
                    tracer.add_span(
                        "cache.lookup", mark, tracer.now(),
                        args={"job": job.job_id, "hit": entry is not None},
                    )
                if entry is not None:
                    yield self._hit(job, decision, key, entry, time.perf_counter() - start)
                    continue
            mark = tracer.now() if tracer is not None else 0.0
            payload, resumed_from = self._build_payload(job, budget, key=key)
            if tracer is not None:
                # Payload building is dominated by the database snapshot
                # encode (or the text serialisation fallback).
                tracer.add_span(
                    "snapshot.encode", mark, tracer.now(), args={"job": job.job_id}
                )
                mark = tracer.now()
            record, retries = self._execute_with_retries(payload)
            if tracer is not None:
                tracer.add_span(
                    "job.execute", mark, tracer.now(),
                    args={"job": job.job_id, "status": str(record["status"])},
                )
            yield self._wrap(
                job, decision, key, record, time.perf_counter() - start,
                resumed_from=resumed_from, retries=retries,
            )

    def _run_pool(self, jobs: Iterable[ChaseJob]) -> Iterator[JobResult]:
        jobs = list(jobs)
        tracer = self.tracer
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()

        def new_pool() -> ProcessPoolExecutor:
            # The initializer arms hard "kill" faults: only a real
            # worker process may honour one with os._exit.
            return ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=mark_worker_process,
            )

        pool = new_pool()
        # future -> mutable in-flight entry; entries survive their
        # future (a retry resubmits the same entry to a fresh future).
        pending: Dict[object, Dict[str, object]] = {}
        submitted_keys: set = set()
        duplicates: List[Tuple[ChaseJob, BudgetDecision, str]] = []
        # Pool-level collateral (a dead worker breaks every in-flight
        # future) is retried without consuming per-job budgets, bounded
        # globally so a crash-looping worker cannot respawn forever.
        respawns = 0
        max_respawns = max(8, 4 * self.workers)

        def submit(entry: Dict[str, object]) -> None:
            # A kill fault can break the pool *between* our bookkeeping
            # and this submit (or break the fresh replacement before we
            # reach it), in which case submit itself raises
            # BrokenProcessPool synchronously — respawn and retry here
            # too, under the same global budget.
            nonlocal pool, respawns
            while True:
                try:
                    future = pool.submit(execute_payload, entry["payload"])
                    break
                except BrokenProcessPool:
                    if respawns >= max_respawns:
                        raise
                    pool.shutdown(wait=False)
                    pool = new_pool()
                    respawns += 1
                    self._count("pool_respawns")
            entry["pool"] = pool
            entry.pop("running_since", None)
            pending[future] = entry
            if tracer is not None:
                entry["mark"] = tracer.now()

        def error_record(job: ChaseJob, exc: BaseException) -> Dict[str, object]:
            return {
                "job_id": job.job_id,
                "status": "error",
                "summary": None,
                "worker_seconds": None,
                "instance_text": None,
                "error": f"{type(exc).__name__}: {exc}",
                "failure_kind": classify_failure(exc),
            }

        try:
            for job in jobs:
                start = time.perf_counter()
                decision, budget, key = self._resolve(job)
                if self.cache is not None:
                    entry = self._cache_get(key)
                    if entry is not None:
                        yield self._hit(job, decision, key, entry, time.perf_counter() - start)
                        continue
                    if key in submitted_keys:
                        # An identical job is already in flight: replay
                        # its result once it lands instead of racing it.
                        duplicates.append((job, decision, key))
                        continue
                    submitted_keys.add(key)
                payload, resumed_from = self._build_payload(job, budget, key=key)
                submit({
                    "job": job, "decision": decision, "key": key, "start": start,
                    "resumed_from": resumed_from, "payload": payload, "retries": 0,
                })
            watchdog = self.stuck_timeout_seconds
            tick = None if watchdog is None else max(0.05, min(0.5, watchdog / 4.0))
            while pending:
                done, _ = wait(set(pending), timeout=tick, return_when=FIRST_COMPLETED)
                if not done:
                    # Watchdog tick: a future that has been *running*
                    # (not queued) past the stuck budget means a wedged
                    # worker — recycle the pool's processes; the broken
                    # futures surface below and retry from their
                    # checkpoints.
                    now = time.monotonic()
                    stuck = False
                    for future, entry in pending.items():
                        if entry["pool"] is not pool or not future.running():  # type: ignore[attr-defined]
                            continue
                        since = entry.setdefault("running_since", now)
                        if now - since > watchdog:  # type: ignore[operator]
                            stuck = True
                    if stuck:
                        self._count("stuck_recycles")
                        for process in list(getattr(pool, "_processes", {}).values()):
                            process.terminate()
                    continue
                resubmit: List[Dict[str, object]] = []
                for future in done:
                    entry = pending.pop(future)
                    job = entry["job"]  # type: ignore[assignment]
                    broken = False
                    try:
                        record = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        record = error_record(job, exc)
                    except Exception as exc:  # noqa: BLE001 - a dead worker
                        # costs a bounded retry, not the rest of the batch.
                        record = error_record(job, exc)
                    if broken:
                        if entry["pool"] is pool:
                            # First casualty of this pool: respawn once;
                            # later casualties just resubmit to the
                            # replacement.
                            pool.shutdown(wait=False)
                            pool = new_pool()
                            respawns += 1
                            self._count("pool_respawns")
                        if respawns <= max_respawns:
                            resubmit.append(entry)
                            continue
                        # Respawn budget exhausted: fall through to the
                        # per-job retry accounting.
                    if (
                        self._transient_error(record)
                        and int(entry["retries"]) < self.max_retries  # type: ignore[call-overload]
                    ):
                        entry["retries"] = int(entry["retries"]) + 1  # type: ignore[call-overload]
                        self._count("retries")
                        resubmit.append(entry)
                        continue
                    if tracer is not None:
                        # Pool spans run submit-to-completion: they
                        # include queueing inside the pool, which is
                        # the latency the caller actually observes.
                        tracer.add_span(
                            "job.execute", entry.get("mark", 0.0), tracer.now(),
                            args={"job": job.job_id, "status": str(record["status"])},
                        )
                    yield self._wrap(
                        job, entry["decision"], entry["key"], record,  # type: ignore[arg-type]
                        time.perf_counter() - float(entry["start"]),  # type: ignore[arg-type]
                        resumed_from=entry["resumed_from"],  # type: ignore[arg-type]
                        retries=int(entry["retries"]),  # type: ignore[call-overload]
                    )
                for entry in resubmit:
                    submit(entry)
        finally:
            pool.shutdown(wait=True)
        for job, decision, key in duplicates:
            start = time.perf_counter()
            entry = self._cache_get(key) if self.cache is not None else None
            if entry is not None:
                yield self._hit(job, decision, key, entry, time.perf_counter() - start)
            else:  # the in-flight twin failed or timed out: run it here
                decision, budget, key = self._resolve(job)
                payload, resumed_from = self._build_payload(job, budget, key=key)
                record, retries = self._execute_with_retries(payload)
                yield self._wrap(
                    job, decision, key, record, time.perf_counter() - start,
                    resumed_from=resumed_from, retries=retries,
                )
