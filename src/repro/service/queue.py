"""Worker-pool scheduler for the chase service daemon.

The scheduler sits between the HTTP layer and the batch runtime.  Each
accepted submission becomes an *execution group*: the job to run plus
every registry record waiting on it.  Groups flow through a FIFO queue
into a small pool of worker threads, each of which runs jobs through a
shared serial :class:`~repro.runtime.executor.BatchExecutor` (budget
policy, result cache, and all).

Three properties the daemon needs live here:

* **Admission control** — at most ``max_queue`` groups may wait;
  beyond that :meth:`submit` rejects (the HTTP layer turns this into
  429) instead of letting a traffic spike grow the queue without
  bound.  The paper's budgets make this safe to run on untrusted
  input: admitted work is bounded per job, so the queue bound is a
  bound on total outstanding work.
* **In-flight dedup** — submissions are keyed by
  :func:`~repro.runtime.cache.result_cache_key` (canonical
  fingerprints + variant + deterministic budget), so identical
  concurrent submissions attach to the already-queued or running
  group and share its single execution.  The cache alone cannot do
  this: it only has the result *after* a run finishes.
* **Graceful drain** — :meth:`shutdown` stops admissions, lets the
  workers finish everything already accepted, and only then joins the
  pool, so no accepted job is ever dropped on the floor.

Chase execution is pure Python and holds the GIL, so worker threads
overlap I/O and queueing rather than CPU; the pool exists to keep many
small jobs flowing and to bound concurrent memory.  (Process-level
parallelism stays available per batch via ``BatchExecutor(workers=N)``.)
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.model.terms import trim_null_intern
from repro.runtime.cache import result_cache_key
from repro.runtime.executor import BatchExecutor, JobResult
from repro.runtime.jobs import ChaseJob

from repro.service.state import JobRecord, JobRegistry

#: Dispositions ``submit`` can return.
ACCEPTED, DEDUPED, REJECTED = "accepted", "deduped", "rejected"

#: Outcomes that count as "stopped by a budget" in the stats.
_BUDGET_STOP_OUTCOMES = frozenset(
    {
        "atom_budget_exceeded",
        "depth_budget_exceeded",
        "round_budget_exceeded",
        "time_budget_exceeded",
    }
)


@dataclass
class ExecutionGroup:
    """One scheduled execution and every submission sharing its result.

    ``members`` pairs each registry record with the :class:`ChaseJob`
    *that submission* carried: dedup keys ignore tags and wall-clock
    timeouts, so members may differ in both.  Each completed row
    reports its own submission's tags; and because a timeout/error
    outcome depends on the *primary's* timeout hint, only ``ok``
    (deterministic) results fan out to members — a non-``ok`` result
    re-queues the remaining members to run under their own terms,
    mirroring the executor's pool-duplicate semantics.
    """

    key: str
    job: ChaseJob
    members: List[Tuple[JobRecord, ChaseJob]] = field(default_factory=list)
    started: bool = False  # a worker has picked this group up
    enqueued_at: float = 0.0  # tracer timestamp at admission (0.0 = untraced)


class ChaseScheduler:
    """FIFO worker pool with admission control and in-flight dedup."""

    def __init__(
        self,
        registry: JobRegistry,
        executor: Optional[BatchExecutor] = None,
        workers: int = 2,
        max_queue: int = 64,
        before_execute: Optional[Callable[[ChaseJob], None]] = None,
        on_result: Optional[Callable[[JobResult], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.registry = registry
        self.executor = executor if executor is not None else BatchExecutor(workers=1)
        self.workers = workers
        self.max_queue = max_queue
        #: Null-intern entries tolerated before the idle-point trim
        #: (see :func:`repro.model.terms.trim_null_intern`).
        self.intern_trim_threshold = 200_000
        #: Test/instrumentation hook, called in the worker thread right
        #: before a group's job executes (used to hold a worker still
        #: while concurrent submissions pile onto the dedup map).
        self.before_execute = before_execute
        #: Observer called with every JobResult (cache hits included)
        #: from the worker thread, under the scheduler lock; the server
        #: uses it to mirror conformance blocks into the metrics
        #: registry.  Failures are swallowed — an observer bug must
        #: never kill a worker or lose a result.
        self.on_result = on_result
        self._queue: "queue_module.Queue[Optional[ExecutionGroup]]" = queue_module.Queue()
        self._inflight: Dict[str, ExecutionGroup] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._queued = 0  # groups waiting (not yet picked up)
        self._running = 0  # groups currently executing
        self._draining = False
        self._stats = {
            "submitted": 0,
            "accepted": 0,
            "deduped": 0,
            "rejected": 0,
            "requeued": 0,
            "executed": 0,
            "cache_hits": 0,
            "budget_stops": 0,
        }
        self._class_counts: Dict[str, int] = {}
        self._outcome_counts: Dict[str, int] = {}
        self._threads = [
            threading.Thread(target=self._worker, name=f"chase-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -------------------------------------------------------

    def dedup_key(self, job: ChaseJob) -> str:
        """The in-flight/dedup key: identical to the result cache key."""
        decision = self.executor.policy.resolve(
            job.program,
            len(job.database),
            job.budget_mode,
            job.budget,
            database=job.database,
            variant=job.variant,
        )
        return result_cache_key(job, decision.budget)

    def submit(
        self, job: ChaseJob, _key: Optional[str] = None, _count: bool = True
    ) -> Tuple[Optional[JobRecord], str]:
        """Admit one job; returns ``(record, disposition)``.

        ``deduped`` submissions get a record attached to the in-flight
        group; ``rejected`` ones (queue full, group full, or daemon
        draining) get no record at all.  ``_key`` lets retry loops pass
        a precomputed dedup key instead of re-canonicalizing the job,
        and ``_count=False`` suppresses the submitted/rejected counters
        so a backpressure retry loop counts as one logical submission.
        """
        key = self.dedup_key(job) if _key is None else _key
        with self._lock:
            if _count:
                self._stats["submitted"] += 1
            if self._draining:
                if _count:
                    self._stats["rejected"] += 1
                return None, REJECTED
            group = self._inflight.get(key)
            if group is not None and len(group.members) >= self.max_queue:
                # Dedup shares the execution, but each member still
                # costs a record and a result fan-out; an identical-
                # submission flood is bounded like any other.
                if _count:
                    self._stats["rejected"] += 1
                return None, REJECTED
            if group is None and self._queued >= self.max_queue:
                if _count:
                    self._stats["rejected"] += 1
                return None, REJECTED
            return self._admit_locked(job, key)

    def _admit_locked(self, job: ChaseJob, key: str) -> Tuple[JobRecord, str]:
        """Join-or-create for an already-capacity-checked job.

        Caller holds the scheduler lock.  The single implementation of
        the group-join/group-create sequence shared by ``submit`` and
        ``submit_atomic``, so the two admission paths cannot drift.
        """
        record = self.registry.create_job(job.job_id)
        group = self._inflight.get(key)
        if group is not None:
            group.members.append((record, job))
            if group.started:
                self.registry.mark_running(record.job_id)
            self._stats["deduped"] += 1
            return record, DEDUPED
        group = ExecutionGroup(key=key, job=job, members=[(record, job)])
        tracer = self.executor.tracer
        if tracer is not None:
            group.enqueued_at = tracer.now()
        self._inflight[key] = group
        self._queued += 1
        self._stats["accepted"] += 1
        self._queue.put(group)
        return record, ACCEPTED

    def submit_atomic(
        self, jobs: List[ChaseJob]
    ) -> Optional[List[Tuple[JobRecord, str]]]:
        """Admit a whole batch or none of it; ``None`` when it cannot fit.

        The capacity check and the submissions happen under one lock
        acquisition, so a racing ``submit`` can never split the batch
        into a partially-accepted state.  Jobs that dedup onto
        in-flight groups (including duplicates *within* the batch)
        consume no queue slot, so the needed capacity is the count of
        distinct new dedup keys.
        """
        keyed = [(job, self.dedup_key(job)) for job in jobs]  # keys: no lock needed
        with self._lock:
            self._stats["submitted"] += len(jobs)
            if self._draining:
                self._stats["rejected"] += len(jobs)
                return None
            needed = len({key for _, key in keyed if key not in self._inflight})
            # The per-group member cap must hold for in-batch
            # duplicates too: existing members plus this batch's
            # occurrences of the same key may not exceed it.
            key_counts: Dict[str, int] = {}
            for _, key in keyed:
                key_counts[key] = key_counts.get(key, 0) + 1
            over_cap = any(
                (len(self._inflight[key].members) if key in self._inflight else 0) + count
                > self.max_queue
                for key, count in key_counts.items()
            )
            if over_cap or self._queued + needed > self.max_queue:
                self._stats["rejected"] += len(jobs)
                return None
            return [self._admit_locked(job, key) for job, key in keyed]

    def submit_waiting(
        self, job: ChaseJob, timeout: Optional[float] = None
    ) -> Tuple[Optional[JobRecord], str]:
        """Admit with backpressure: when the queue is full, wait for a
        slot (up to ``timeout`` seconds) instead of rejecting.

        This is what lets a manifest larger than ``max_queue`` stream
        through the bound: the HTTP batch handler blocks its own
        request thread here while workers drain.  Draining still
        rejects immediately.
        """
        key = self.dedup_key(job)  # canonicalize/hash once, not per retry
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._stats["submitted"] += 1  # one logical submission, however many retries
        while True:
            record, disposition = self.submit(job, _key=key, _count=False)
            if disposition != REJECTED:
                return record, disposition
            with self._idle:
                if self._draining:
                    self._stats["rejected"] += 1
                    return None, REJECTED
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._stats["rejected"] += 1
                    return None, REJECTED
                # Wake on worker pickup/completion and re-check the
                # deadline at least every 250 ms.  Wait on *any*
                # rejection cause — queue full or dedup group full —
                # both clear only when a worker makes progress, so
                # retrying without waiting would busy-spin.
                self._idle.wait(
                    0.25 if remaining is None else max(0.0, min(remaining, 0.25))
                )

    # -- execution --------------------------------------------------------

    def _worker(self) -> None:
        while True:
            group = self._queue.get()
            if group is None:
                self._queue.task_done()
                return
            with self._idle:
                self._queued -= 1
                self._running += 1
                group.started = True  # late dedup joins mark themselves running
                members_at_start = list(group.members)
                self._idle.notify_all()  # a queue slot freed: wake submit_waiting
            tracer = self.executor.tracer
            if tracer is not None and group.enqueued_at:
                tracer.add_span(
                    "job.queue_wait", group.enqueued_at, tracer.now(),
                    args={"job": group.job.job_id, "members": len(members_at_start)},
                )
            for record, _ in members_at_start:
                self.registry.mark_running(record.job_id)
            try:
                if self.before_execute is not None:
                    self.before_execute(group.job)
                result = self.executor.run_all([group.job])[0]
            except Exception as exc:  # noqa: BLE001 - a scheduler bug or hook
                # failure becomes an error row, never a dead worker.
                result = JobResult(
                    job_id=group.job.job_id,
                    status="error",
                    summary=None,
                    variant=group.job.variant,
                    cache_hit=False,
                    cache_key=group.key,
                    budget_provenance={},
                    wall_seconds=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                    tags=group.job.tags,
                )
            with self._idle:
                # Remove from the dedup map *before* completing records:
                # anything submitted after this point starts a fresh
                # group (and will typically replay from the cache).
                self._inflight.pop(group.key, None)
                members = list(group.members)
                self._record_result(result)
                if result.status != "ok" and len(members) > 1:
                    # A timeout/error depends on the primary's own
                    # timeout hint and isn't cacheable; members run
                    # under their own terms instead of inheriting it.
                    # Re-queued under this same lock acquisition so
                    # drain() can never observe the work as finished.
                    requeued = members[1:]
                    members = members[:1]
                    regroup = ExecutionGroup(
                        key=group.key, job=requeued[0][1], members=requeued
                    )
                    requeue_tracer = self.executor.tracer
                    if requeue_tracer is not None:
                        regroup.enqueued_at = requeue_tracer.now()
                    self._inflight[group.key] = regroup
                    self._queued += 1
                    self._stats["requeued"] += len(requeued)
                    for record, _ in requeued:
                        self.registry.mark_requeued(record.job_id)
                    self._queue.put(regroup)
            row = result.as_dict()
            primary = members[0][0]
            self.registry.mark_done(primary.job_id, row)
            for member, member_job in members[1:]:
                member_row = dict(row)
                member_row["id"] = member.client_id
                member_row["tags"] = list(member_job.tags)
                member_row["deduped_of"] = primary.job_id
                self.registry.mark_done(
                    member.job_id, member_row, deduped_of=primary.job_id
                )
            self.registry.maybe_sweep()
            with self._idle:
                # Only now may drain() observe this group as finished:
                # every record is terminal, so the "block until all
                # accepted work has finished" contract holds.
                self._running -= 1
                if self._queued == 0 and self._running == 0:
                    # Idle moment with no chase running anywhere (a
                    # worker only starts one by passing through this
                    # lock): safe point to drop the process-global
                    # null intern table, which otherwise grows with
                    # every execution the daemon ever performs.
                    trim_null_intern(self.intern_trim_threshold)
                self._idle.notify_all()
            self._queue.task_done()

    def _record_result(self, result: JobResult) -> None:
        """Update counters; caller holds the lock."""
        self._stats["executed"] += 1
        if result.cache_hit:
            self._stats["cache_hits"] += 1
        tgd_class = result.budget_provenance.get("class")
        if tgd_class is not None:
            self._class_counts[str(tgd_class)] = self._class_counts.get(str(tgd_class), 0) + 1
        outcome = result.outcome or result.status
        self._outcome_counts[str(outcome)] = self._outcome_counts.get(str(outcome), 0) + 1
        if outcome in _BUDGET_STOP_OUTCOMES:
            self._stats["budget_stops"] += 1
        if self.on_result is not None:
            try:
                self.on_result(result)
            except Exception:  # noqa: BLE001 - observer bugs stay observer bugs
                pass

    # -- lifecycle --------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until all accepted work has finished; True on success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._queued > 0 or self._running > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Stop admissions, drain accepted work, and join the pool.

        Returns True when every accepted job finished within
        ``timeout`` (None = wait forever).  Idempotent.
        """
        with self._lock:
            already = self._draining
            self._draining = True
        drained = self.drain(timeout)
        if not already:
            for _ in self._threads:
                self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        return drained and all(not t.is_alive() for t in self._threads)

    def quiesce(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """SIGTERM-style drain: finish running work, requeue the rest.

        Stops admissions, pulls every *unstarted* group off the queue
        and returns its members to the registry as ``queued`` (via
        :meth:`JobRegistry.mark_requeued`) so a successor daemon — or
        an operator reading the registry — can resubmit them, then
        waits only for the groups already executing and joins the pool.
        Under a deep queue this terminates in one job's time instead of
        the whole backlog's, and no accepted job is silently dropped.

        Returns ``{"requeued": n, "drained": bool}``.
        """
        with self._lock:
            already = self._draining
            self._draining = True
        requeued = 0
        while True:
            try:
                group = self._queue.get_nowait()
            except queue_module.Empty:
                break
            if group is None:  # another shutdown's sentinel: put it back
                self._queue.put(None)
                break
            # A worker may race this loop for the same queue; whatever
            # it wins it executes normally (the group counts as
            # running, not queued, by the time it leaves the queue).
            with self._idle:
                self._inflight.pop(group.key, None)
                self._queued -= 1
                for record, _ in group.members:
                    self.registry.mark_requeued(record.job_id)
                    requeued += 1
                self._stats["requeued"] += len(group.members)
                self._idle.notify_all()
            self._queue.task_done()
        drained = self.drain(timeout)
        if not already:
            for _ in self._threads:
                self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        return {"requeued": requeued, "drained": drained}

    # -- reporting --------------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._stats)
            counters["queue_depth"] = self._queued
            counters["running"] = self._running
            counters["inflight_groups"] = len(self._inflight)
            counters["draining"] = self._draining
            counters["by_class"] = dict(sorted(self._class_counts.items()))
            counters["by_outcome"] = dict(sorted(self._outcome_counts.items()))
        cache = self.executor.cache
        counters["cache"] = cache.stats() if cache is not None else None
        return counters
