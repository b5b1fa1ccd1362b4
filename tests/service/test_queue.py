"""Scheduler: admission control, in-flight dedup, graceful drain."""

import threading

import pytest

from repro.model.parser import parse_database, parse_program
from repro.runtime import BatchExecutor, ChaseJob, ResultCache
from repro.service import ACCEPTED, DEDUPED, REJECTED, ChaseScheduler, JobRegistry


def make_job(tag: str = "a", job_id: str = "") -> ChaseJob:
    """Distinct ``tag`` ⇒ distinct program ⇒ distinct dedup key."""
    return ChaseJob(
        program=parse_program(f"R_{tag}(x, y) -> exists z . S_{tag}(y, z)"),
        database=parse_database(f"R_{tag}(a, b)."),
        job_id=job_id,
    )


def make_scheduler(**kwargs):
    registry = JobRegistry()
    defaults = dict(executor=BatchExecutor(workers=1, cache=ResultCache()), workers=1)
    defaults.update(kwargs)
    return registry, ChaseScheduler(registry, **defaults)


class TestSubmission:
    def test_accept_execute_complete(self):
        registry, scheduler = make_scheduler()
        record, disposition = scheduler.submit(make_job())
        assert disposition == ACCEPTED
        assert scheduler.drain(timeout=30.0)
        done = registry.job(record.job_id)
        assert done.terminal and done.result["outcome"] == "terminated"
        scheduler.shutdown(timeout=10.0)

    def test_validation(self):
        registry = JobRegistry()
        with pytest.raises(ValueError):
            ChaseScheduler(registry, workers=0)
        with pytest.raises(ValueError):
            ChaseScheduler(registry, max_queue=0)

    def test_dedup_key_matches_cache_key_semantics(self):
        _, scheduler = make_scheduler()
        renamed = ChaseJob(
            program=parse_program("R_a(u, v) -> exists w . S_a(v, w)"),
            database=parse_database("R_a(a, b)."),
        )
        assert scheduler.dedup_key(make_job("a")) == scheduler.dedup_key(renamed)
        assert scheduler.dedup_key(make_job("a")) != scheduler.dedup_key(make_job("b"))
        scheduler.shutdown(timeout=10.0)


class TestDedupAndAdmission:
    def test_concurrent_identical_submissions_share_one_execution(self):
        gate = threading.Event()
        registry, scheduler = make_scheduler(
            workers=1, before_execute=lambda job: gate.wait(timeout=30.0)
        )
        # The worker picks up the blocker and parks in before_execute.
        blocker, _ = scheduler.submit(make_job("blocker"))
        first, d1 = scheduler.submit(make_job("dup", job_id="first"))
        second, d2 = scheduler.submit(make_job("dup", job_id="second"))
        third, d3 = scheduler.submit(make_job("dup", job_id="third"))
        assert d1 == ACCEPTED and d2 == DEDUPED and d3 == DEDUPED
        gate.set()
        assert scheduler.drain(timeout=30.0)
        rows = [registry.job(r.job_id).result for r in (first, second, third)]
        assert all(row["outcome"] == "terminated" for row in rows)
        # Exactly one real execution of the duplicated job; members carry
        # their own client ids and point at the primary.
        stats = scheduler.stats()
        assert stats["deduped"] == 2
        assert stats["executed"] == 2  # blocker + the dup group
        assert rows[1]["id"] == "second" and rows[1]["deduped_of"] == first.job_id
        assert registry.job(second.job_id).deduped_of == first.job_id
        # All three share byte-identical summaries.
        import json

        summaries = {json.dumps(row["summary"], sort_keys=True) for row in rows}
        assert len(summaries) == 1
        scheduler.shutdown(timeout=10.0)

    def test_queue_full_rejects(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        registry, scheduler = make_scheduler(workers=1, max_queue=2, before_execute=hold)
        scheduler.submit(make_job("blocker"))
        assert started.wait(timeout=30.0)  # the worker now holds the blocker
        assert scheduler.submit(make_job("q1"))[1] == ACCEPTED
        assert scheduler.submit(make_job("q2"))[1] == ACCEPTED
        record, disposition = scheduler.submit(make_job("q3"))
        assert disposition == REJECTED and record is None
        assert scheduler.stats()["rejected"] == 1
        # Identical-to-inflight submissions are deduped even at capacity:
        # they consume no queue slot.
        assert scheduler.submit(make_job("q1"))[1] == DEDUPED
        gate.set()
        assert scheduler.drain(timeout=30.0)
        scheduler.shutdown(timeout=10.0)

    def test_deduped_members_keep_their_own_tags(self):
        gate = threading.Event()
        registry, scheduler = make_scheduler(
            workers=1, before_execute=lambda job: gate.wait(timeout=30.0)
        )
        scheduler.submit(make_job("blocker"))
        base = make_job("tagged", job_id="primary")
        primary = ChaseJob(
            program=base.program, database=base.database, job_id="primary",
            tags=("tenant:a",),
        )
        member = ChaseJob(
            program=base.program, database=base.database, job_id="member",
            tags=("tenant:b",),
        )
        first, d1 = scheduler.submit(primary)
        second, d2 = scheduler.submit(member)
        assert d1 == ACCEPTED and d2 == DEDUPED  # tags don't affect the key
        gate.set()
        assert scheduler.drain(timeout=30.0)
        assert registry.job(first.job_id).result["tags"] == ["tenant:a"]
        assert registry.job(second.job_id).result["tags"] == ["tenant:b"]
        scheduler.shutdown(timeout=10.0)

    def test_submit_waiting_backpressure_admits_past_the_bound(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        registry, scheduler = make_scheduler(workers=1, max_queue=1, before_execute=hold)
        scheduler.submit(make_job("blocker"))
        assert started.wait(timeout=30.0)
        assert scheduler.submit(make_job("q1"))[1] == ACCEPTED  # fills the slot
        # Plain submit rejects; waiting submit blocks until released.
        assert scheduler.submit(make_job("q2"))[1] == REJECTED
        results = {}

        def waiting_submit():
            results["q2"] = scheduler.submit_waiting(make_job("q2"), timeout=30.0)

        thread = threading.Thread(target=waiting_submit)
        thread.start()
        gate.set()
        thread.join(timeout=30.0)
        record, disposition = results["q2"]
        assert disposition == ACCEPTED and record is not None
        assert scheduler.drain(timeout=30.0)
        assert registry.job(record.job_id).result["status"] == "ok"
        scheduler.shutdown(timeout=10.0)

    def test_submit_waiting_times_out_when_queue_stays_full(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        _, scheduler = make_scheduler(workers=1, max_queue=1, before_execute=hold)
        scheduler.submit(make_job("blocker"))
        assert started.wait(timeout=30.0)
        scheduler.submit(make_job("q1"))
        record, disposition = scheduler.submit_waiting(make_job("q2"), timeout=0.2)
        assert disposition == REJECTED and record is None
        gate.set()
        scheduler.shutdown(timeout=30.0)

    def test_members_rerun_when_primary_result_is_not_deterministic(self):
        gate = threading.Event()
        registry, scheduler = make_scheduler(
            workers=1, before_execute=lambda job: gate.wait(timeout=30.0)
        )
        scheduler.submit(make_job("blocker"))
        base = make_job("shared")
        # Primary carries an instant wall-clock timeout; the member has
        # none.  The dedup key ignores timeouts, so they group — but a
        # timeout outcome must not fan out to the member.
        primary_job = ChaseJob(
            program=base.program, database=base.database, job_id="impatient",
            timeout_seconds=0.0,
        )
        member_job = ChaseJob(
            program=base.program, database=base.database, job_id="patient",
        )
        primary, d1 = scheduler.submit(primary_job)
        member, d2 = scheduler.submit(member_job)
        assert d1 == ACCEPTED and d2 == DEDUPED
        gate.set()
        assert scheduler.drain(timeout=30.0)
        assert registry.job(primary.job_id).result["status"] == "timeout"
        patient = registry.job(member.job_id)
        assert patient.result["status"] == "ok"
        assert patient.result["outcome"] == "terminated"
        assert patient.deduped_of is None  # ran on its own terms
        assert scheduler.stats()["requeued"] == 1
        scheduler.shutdown(timeout=10.0)

    def test_members_rerun_when_primary_execution_crashes(self):
        """A worker *crash* (not a timeout) must not fan out to members.

        The primary's execution is killed by an injected worker crash
        with the retry budget at zero, so its record is a transient
        error row.  The dedup member must be requeued and re-run on its
        own — where the (exhausted) fault no longer fires — to a clean
        verdict.
        """
        import os

        from repro.runtime.faults import ENV_VAR, FaultPlan, FaultSpec, reset_injector

        plan = FaultPlan(
            faults=(
                FaultSpec(point="worker.round", action="kill", match="crash-primary"),
            ),
            seed=9,
        )
        previous = os.environ.get(ENV_VAR)
        os.environ[ENV_VAR] = plan.to_env()
        reset_injector()
        try:
            registry, scheduler = make_scheduler(
                executor=BatchExecutor(workers=1, cache=ResultCache(), max_retries=0)
            )
            base = make_job("crashy")
            primary_job = ChaseJob(
                program=base.program, database=base.database, job_id="crash-primary"
            )
            member_job = ChaseJob(
                program=base.program, database=base.database, job_id="crash-member"
            )
            primary, d1 = scheduler.submit(primary_job)
            member, d2 = scheduler.submit(member_job)
            assert d1 == ACCEPTED and d2 == DEDUPED
            assert scheduler.drain(timeout=30.0)
            crashed = registry.job(primary.job_id)
            assert crashed.result["status"] == "error"
            assert "injected fault" in crashed.result["error"]
            survivor = registry.job(member.job_id)
            assert survivor.result["status"] == "ok"
            assert survivor.result["outcome"] == "terminated"
            assert survivor.deduped_of is None  # re-ran on its own terms
            assert scheduler.stats()["requeued"] == 1
            scheduler.shutdown(timeout=10.0)
        finally:
            if previous is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = previous
            reset_injector()

    def test_submit_atomic_all_or_nothing_and_dedup_aware(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        registry, scheduler = make_scheduler(workers=1, max_queue=2, before_execute=hold)
        scheduler.submit(make_job("blocker"))
        assert started.wait(timeout=30.0)
        # 3 jobs but only 2 distinct keys: fits the 2-slot queue.
        batch = [make_job("x", job_id="x1"), make_job("x", job_id="x2"), make_job("y")]
        admitted = scheduler.submit_atomic(batch)
        assert admitted is not None
        assert [d for _, d in admitted] == [ACCEPTED, DEDUPED, ACCEPTED]
        # Queue now full: another batch is refused whole, nothing admitted.
        before = registry.counts()["jobs"]
        assert scheduler.submit_atomic([make_job("z1"), make_job("z2")]) is None
        assert registry.counts()["jobs"] == before
        gate.set()
        assert scheduler.drain(timeout=30.0)
        assert all(registry.job(r.job_id).terminal for r, _ in admitted)
        scheduler.shutdown(timeout=10.0)

    def test_identical_submission_flood_is_bounded_by_group_cap(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        registry, scheduler = make_scheduler(workers=1, max_queue=2, before_execute=hold)
        scheduler.submit(make_job("blocker"))
        assert started.wait(timeout=30.0)
        assert scheduler.submit(make_job("flood"))[1] == ACCEPTED
        assert scheduler.submit(make_job("flood"))[1] == DEDUPED  # 2nd member
        record, disposition = scheduler.submit(make_job("flood"))  # over the cap
        assert disposition == REJECTED and record is None
        gate.set()
        assert scheduler.drain(timeout=30.0)
        scheduler.shutdown(timeout=10.0)

    def test_late_dedup_joiner_is_marked_running(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        registry, scheduler = make_scheduler(workers=1, before_execute=hold)
        first, _ = scheduler.submit(make_job("live"))
        assert started.wait(timeout=30.0)  # the group is now executing
        late, disposition = scheduler.submit(make_job("live"))
        assert disposition == DEDUPED
        assert registry.job(late.job_id).state == "running"
        assert registry.job(late.job_id).started_at is not None
        gate.set()
        assert scheduler.drain(timeout=30.0)
        scheduler.shutdown(timeout=10.0)

    def test_submit_atomic_caps_in_batch_duplicates(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        registry, scheduler = make_scheduler(workers=1, max_queue=2, before_execute=hold)
        scheduler.submit(make_job("blocker"))
        assert started.wait(timeout=30.0)
        before = registry.counts()["jobs"]
        # 5 identical lines would build a 5-member group on a 2-deep queue.
        batch = [make_job("same", job_id=f"d{i}") for i in range(5)]
        assert scheduler.submit_atomic(batch) is None
        assert registry.counts()["jobs"] == before  # nothing admitted
        gate.set()
        assert scheduler.drain(timeout=30.0)
        scheduler.shutdown(timeout=10.0)

    def test_submit_waiting_on_full_group_waits_instead_of_spinning(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        _, scheduler = make_scheduler(workers=1, max_queue=1, before_execute=hold)
        scheduler.submit(make_job("blocker"))
        assert started.wait(timeout=30.0)
        assert scheduler.submit(make_job("full"))[1] == ACCEPTED  # 1-member group at cap
        before = scheduler.stats()["submitted"]
        record, disposition = scheduler.submit_waiting(make_job("full"), timeout=0.6)
        assert disposition == REJECTED and record is None
        # A busy-spin would retry hundreds of thousands of times in 0.6s;
        # the 250ms wait bounds it to a handful.
        assert scheduler.stats()["submitted"] - before < 10
        gate.set()
        scheduler.shutdown(timeout=30.0)

    def test_second_wave_hits_cache_not_dedup(self):
        registry, scheduler = make_scheduler()
        scheduler.submit(make_job("x"))
        assert scheduler.drain(timeout=30.0)
        record, disposition = scheduler.submit(make_job("x"))
        assert disposition == ACCEPTED  # group completed: fresh submission
        assert scheduler.drain(timeout=30.0)
        assert registry.job(record.job_id).result["cache"]["hit"] is True
        stats = scheduler.stats()
        assert stats["cache_hits"] == 1
        scheduler.shutdown(timeout=10.0)


class TestDrainAndStats:
    def test_shutdown_drains_accepted_work(self):
        registry, scheduler = make_scheduler(workers=2)
        records = [scheduler.submit(make_job(f"job{i}"))[0] for i in range(6)]
        assert scheduler.shutdown(timeout=60.0)
        assert all(registry.job(r.job_id).terminal for r in records)
        assert all(registry.job(r.job_id).result is not None for r in records)

    def test_draining_scheduler_rejects_new_work(self):
        _, scheduler = make_scheduler()
        scheduler.shutdown(timeout=10.0)
        record, disposition = scheduler.submit(make_job())
        assert disposition == REJECTED and record is None
        assert scheduler.shutdown(timeout=10.0)  # idempotent

    def test_stats_track_classes_outcomes_and_budget_stops(self):
        registry, scheduler = make_scheduler()
        scheduler.submit(make_job("t"))  # SL, terminates
        looping = ChaseJob(
            program=parse_program("R(x, y) -> exists z . R(y, z)"),
            database=parse_database("R(a, b)."),
        )
        scheduler.submit(looping)  # SL, stopped by the d_C depth budget
        assert scheduler.drain(timeout=30.0)
        stats = scheduler.stats()
        assert stats["by_class"].get("SL") == 2
        assert stats["by_outcome"].get("terminated") == 1
        assert stats["by_outcome"].get("depth_budget_exceeded") == 1
        assert stats["budget_stops"] == 1
        assert stats["cache"]["stores"] == 2
        scheduler.shutdown(timeout=10.0)

    def test_quiesce_finishes_running_and_requeues_the_backlog(self):
        """SIGTERM-style drain: running jobs finish, queued jobs requeue."""
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        registry, scheduler = make_scheduler(workers=1, before_execute=hold)
        blocker, _ = scheduler.submit(make_job("blocker"))
        assert started.wait(timeout=30.0)  # the worker holds the blocker
        backlog = [scheduler.submit(make_job(f"bk{i}"))[0] for i in range(3)]
        gate.set()
        outcome = scheduler.quiesce(timeout=30.0)
        assert outcome["requeued"] == 3 and outcome["drained"] is True
        # The running job ran to a verdict; nothing was silently dropped.
        finished = registry.job(blocker.job_id)
        assert finished.terminal and finished.result["status"] == "ok"
        for record in backlog:
            requeued = registry.job(record.job_id)
            assert not requeued.terminal
            assert requeued.state == "queued"
            assert requeued.started_at is None
        assert scheduler.stats()["requeued"] == 3
        # The scheduler is drained and refuses new work.
        assert scheduler.submit(make_job("late"))[1] == REJECTED

    def test_worker_survives_before_execute_crash(self):
        def explode(job):
            raise RuntimeError("boom")

        registry, scheduler = make_scheduler(before_execute=explode)
        record, _ = scheduler.submit(make_job())
        assert scheduler.drain(timeout=30.0)
        done = registry.job(record.job_id)
        assert done.terminal and done.result["status"] == "error"
        assert "boom" in done.result["error"]
        # The pool is still alive for the next job.
        scheduler.before_execute = None
        record2, _ = scheduler.submit(make_job("next"))
        assert scheduler.drain(timeout=30.0)
        assert registry.job(record2.job_id).result["status"] == "ok"
        scheduler.shutdown(timeout=10.0)


class TestSnapshotSharing:
    """Snapshots cross process boundaries only: the daemon's serial
    executor chases each job's own objects, and a process pool encodes
    a job's database once however many attempts it takes."""

    def _counting_encoder(self, monkeypatch):
        import repro.runtime.jobs as jobs_module

        calls = []
        real = jobs_module.encode_database_snapshot

        def counting(database):
            calls.append(1)
            return real(database)

        monkeypatch.setattr(jobs_module, "encode_database_snapshot", counting)
        return calls

    def test_identical_burst_never_encodes(self, monkeypatch):
        calls = self._counting_encoder(monkeypatch)
        release = threading.Event()
        registry, scheduler = make_scheduler(
            before_execute=lambda job: release.wait(10.0)
        )
        # Pile 8 identical submissions onto one in-flight group while
        # the single worker is held inside the first (blocker) job.
        scheduler.submit(make_job("blocker"))
        records = [
            scheduler.submit(make_job("burst", job_id=f"b{i}"))[0] for i in range(8)
        ]
        assert all(r is not None for r in records)
        release.set()
        assert scheduler.drain(timeout=30.0)
        assert all(registry.job(r.job_id).terminal for r in records)
        # Serial daemon jobs seed a store in-process: no snapshot bytes.
        assert sum(calls) == 0
        scheduler.shutdown(timeout=10.0)

    def test_timeout_requeues_never_encode(self, monkeypatch):
        calls = self._counting_encoder(monkeypatch)
        release = threading.Event()
        registry, scheduler = make_scheduler(
            before_execute=lambda job: release.wait(10.0)
        )
        looping = parse_program("R_t(x, y) -> exists z . R_t(y, z)")
        database = parse_database("R_t(a, b).")

        from repro.chase.engine import ChaseBudget

        def timeout_job(job_id: str) -> ChaseJob:
            return ChaseJob(
                program=looping,
                database=database,
                job_id=job_id,
                # A budget far past what 5 ms of wall clock reaches, so
                # the primary (and every re-run) times out.
                budget_mode="explicit",
                budget=ChaseBudget(max_atoms=50_000_000, max_rounds=10**9),
                timeout_seconds=0.005,
            )

        scheduler.submit(make_job("blocker"))
        records = [scheduler.submit(timeout_job(f"t{i}"))[0] for i in range(8)]
        assert all(r is not None for r in records)
        release.set()
        assert scheduler.drain(timeout=60.0)
        results = [registry.job(r.job_id).result for r in records]
        assert all(r is not None and r["status"] == "timeout" for r in results)
        # Every dedup member re-ran under its own terms (7 requeues),
        # each on a freshly seeded store, and nothing was encoded.
        assert sum(calls) == 0
        scheduler.shutdown(timeout=10.0)

    def test_pool_encodes_once_per_job_and_reuses_bytes_across_retries(
        self, monkeypatch, tmp_path
    ):
        from repro.runtime.faults import ENV_VAR, FaultPlan, FaultSpec

        calls = self._counting_encoder(monkeypatch)
        plan = FaultPlan(
            faults=(
                FaultSpec(point="worker.round", action="error", at_round=1, match="flaky"),
            ),
            seed=5,
            state_dir=str(tmp_path / "faults"),
        )
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        jobs = [make_job("steady", job_id="steady"), make_job("flaky", job_id="flaky")]
        results = {
            r.job_id: r
            for r in BatchExecutor(workers=2, retry_backoff_base=0.0).run_all(jobs)
        }
        assert results["flaky"].status == results["steady"].status == "ok"
        assert results["flaky"].retries == 1
        # One encode per job: the retry resubmitted the same bytes.
        assert sum(calls) == 2
