"""Batch executor: serial/pool equivalence, streaming, errors, timeouts."""

import pytest

from repro.chase.engine import ChaseBudget
from repro.model.parser import parse_database, parse_program
from repro.runtime import (
    BatchExecutor,
    ChaseJob,
    ResultCache,
    execute_payload,
)
from repro.generators.workloads import mixed_workload_jobs


def small_batch():
    return [
        ChaseJob(
            program=parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> T(x)"),
            database=parse_database("R(a, b).\nR(b, c)."),
            job_id="terminating",
        ),
        ChaseJob(
            program=parse_program("R(x, y) -> exists z . R(y, z)"),
            database=parse_database("R(a, b)."),
            job_id="looping",  # auto depth budget stops this instantly
        ),
        ChaseJob(
            program=parse_program("Emp(x) -> exists d . Dept(x, d)"),
            database=parse_database("Emp(e1).\nEmp(e2).\nEmp(e3)."),
            job_id="explicit",
            budget_mode="explicit",
            budget=ChaseBudget(max_atoms=50),
        ),
    ]


class TestSerialExecutor:
    def test_results_in_submission_order_with_provenance(self):
        results = BatchExecutor(workers=1).run_all(small_batch())
        assert [r.job_id for r in results] == ["terminating", "looping", "explicit"]
        by_id = {r.job_id: r for r in results}
        assert by_id["terminating"].summary["outcome"] == "terminated"
        assert by_id["looping"].summary["outcome"] == "depth_budget_exceeded"
        assert by_id["looping"].budget_provenance["source"] == "paper-bound"
        assert by_id["explicit"].budget_provenance["source"] == "explicit"
        assert all(r.status == "ok" for r in results)

    def test_streaming_yields_incrementally(self):
        executor = BatchExecutor(workers=1)
        stream = executor.run(small_batch())
        first = next(stream)
        assert first.job_id == "terminating"
        assert [r.job_id for r in stream] == ["looping", "explicit"]

    def test_materialize_includes_instance_text(self):
        executor = BatchExecutor(workers=1, materialize=True)
        result = executor.run_all(small_batch()[:1])[0]
        assert "S(b, " in result.instance_text

    def test_unparsable_program_becomes_error_result(self):
        payload = {
            "job_id": "bad",
            "program_text": "this is not a rule",
            "database_text": "R(a).",
            "variant": "semi-oblivious",
            "budget": ChaseBudget().as_dict(),
        }
        record = execute_payload(payload)
        assert record["status"] == "error"
        assert "ParseError" in record["error"]

    def test_per_job_timeout_is_reported(self):
        executor = BatchExecutor(workers=1, per_job_timeout=0.0)
        looping = ChaseJob(
            program=parse_program("R(x, y) -> exists z . R(y, z)"),
            database=parse_database("R(a, b)."),
            budget_mode="default",  # no depth budget: only time stops it
        )
        result = executor.run_all([looping])[0]
        assert result.status == "timeout"
        assert result.summary["outcome"] == "time_budget_exceeded"


class TestPoolExecutor:
    def test_pool_matches_serial_byte_for_byte(self):
        jobs = small_batch()
        serial = {r.job_id: r for r in BatchExecutor(workers=1).run_all(jobs)}
        pooled = {r.job_id: r for r in BatchExecutor(workers=2).run_all(jobs)}
        assert set(serial) == set(pooled)
        for job_id in serial:
            assert serial[job_id].summary_json() == pooled[job_id].summary_json()

    def test_pool_with_cache_replays_duplicates(self):
        jobs = small_batch()
        duplicates = jobs + [
            ChaseJob(
                program=jobs[0].program,
                database=jobs[0].database,
                job_id="terminating-again",
            )
        ]
        cache = ResultCache()
        results = BatchExecutor(workers=2, cache=cache).run_all(duplicates)
        by_id = {r.job_id: r for r in results}
        assert len(by_id) == 4
        assert by_id["terminating-again"].cache_hit
        assert (
            by_id["terminating-again"].summary_json()
            == by_id["terminating"].summary_json()
        )

    def test_pool_on_mixed_workload_matches_serial(self):
        jobs = mixed_workload_jobs(job_count=20, seed=3)
        serial = {r.job_id: r for r in BatchExecutor(workers=1).run_all(jobs)}
        pooled = {r.job_id: r for r in BatchExecutor(workers=2).run_all(jobs)}
        assert set(serial) == set(pooled)
        agreeing = [
            job_id
            for job_id in serial
            if serial[job_id].status == "ok" and pooled[job_id].status == "ok"
        ]
        # Timeout-free jobs must agree byte for byte.
        for job_id in agreeing:
            assert serial[job_id].summary_json() == pooled[job_id].summary_json()


class TestMixedWorkload:
    def test_manifest_is_deterministic_and_mixed(self):
        a = mixed_workload_jobs(job_count=30, seed=11)
        b = mixed_workload_jobs(job_count=30, seed=11)
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert [j.fingerprint for j in a] == [j.fingerprint for j in b]
        families = {tag for j in a for tag in j.tags if tag.startswith("family:")}
        assert len(families) >= 8

    def test_auto_budgeted_terminating_sl_l_jobs_stay_within_budget(self):
        jobs = mixed_workload_jobs(job_count=30, seed=11)
        results = BatchExecutor(workers=1).run_all(jobs)
        for result in results:
            if (
                result.budget_provenance["source"] == "paper-bound"
                and result.budget_provenance["class"] in ("SL", "L")
                and "terminating" in result.tags
            ):
                assert result.summary["outcome"] == "terminated", result.job_id


class TestSnapshotPayloads:
    def test_ship_snapshots_matches_text_payloads_byte_for_byte(self):
        jobs = small_batch()
        with_snapshots = BatchExecutor(workers=1, ship_snapshots=True).run_all(jobs)
        with_text = BatchExecutor(workers=1, ship_snapshots=False).run_all(jobs)
        assert [r.summary_json() for r in with_snapshots] == [
            r.summary_json() for r in with_text
        ]

    def test_non_store_engine_falls_back_to_text(self):
        executor = BatchExecutor(workers=1, engine="legacy")
        payload = executor._payload(*_resolved(executor, small_batch()[0]))
        assert "database_text" in payload and "database_snapshot" not in payload

    def test_depth_truncating_jobs_are_not_checkpointed(self, tmp_path):
        # A checkpoint does not carry depth_truncated, and the engine
        # refuses to resume a truncating run from one.
        executor = BatchExecutor(
            workers=1, checkpoint_every_rounds=1, checkpoint_dir=str(tmp_path)
        )
        job = small_batch()[2]
        payload = executor._payload(*_resolved(executor, job), key="k")
        assert payload["checkpoint_every_rounds"] == 1
        truncating = ChaseJob(
            program=job.program,
            database=job.database,
            job_id="truncating",
            budget_mode="explicit",
            budget=ChaseBudget(max_depth=2, truncate_at_depth=True),
        )
        payload = executor._payload(*_resolved(executor, truncating), key="k")
        assert "checkpoint_every_rounds" not in payload

    def test_store_engine_payload_carries_snapshot(self):
        executor = BatchExecutor(workers=1)
        job = small_batch()[0]
        payload = executor._payload(*_resolved(executor, job))
        assert "database_snapshot" not in payload or payload["database_snapshot"]
        assert payload.get("database_snapshot") == job.database_snapshot
        # The encoding is cached: a retry reuses the same bytes object.
        assert executor._payload(*_resolved(executor, job))[
            "database_snapshot"
        ] is payload["database_snapshot"]

    def test_snapshot_payload_executes_identically(self):
        job = small_batch()[0]
        executor = BatchExecutor(workers=1)
        decision, budget, key = executor._resolve(job)
        from repro.runtime.executor import execute_payload

        snap_record = execute_payload(executor._payload(job, budget))
        text_executor = BatchExecutor(workers=1, ship_snapshots=False)
        text_record = execute_payload(text_executor._payload(job, budget))
        assert snap_record["summary"] == text_record["summary"]


def _resolved(executor, job):
    decision, budget, key = executor._resolve(job)
    return job, budget


def _split_database(database, keep: int):
    from repro.model.instance import Database
    from repro.model.serialization import atom_to_text

    facts = sorted(database, key=atom_to_text)
    return Database(facts[:keep]), Database(facts)


class TestIncrementalRechase:
    def _grown_pair(self):
        from repro.generators.workloads import restricted_heavy

        full_db, tgds = restricted_heavy(30, 8)
        base_db, _ = restricted_heavy(30, 6)
        return tgds, base_db, full_db

    def test_resumes_from_cached_snapshot(self):
        tgds, base_db, full_db = self._grown_pair()
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache, incremental=True)
        base = executor.run_all([ChaseJob(program=tgds, database=base_db)])[0]
        assert base.status == "ok" and base.resumed_from is None
        entry = cache.get(base.cache_key)
        assert entry is not None and entry.snapshot is not None
        assert entry.lineage is not None and entry.database_lines

        grown = executor.run_all([ChaseJob(program=tgds, database=full_db)])[0]
        assert grown.status == "ok"
        assert grown.resumed_from == base.cache_key

        cold = BatchExecutor(workers=1).run_all(
            [ChaseJob(program=tgds, database=full_db)]
        )[0]
        for field in ("size", "database_size", "terminated", "outcome", "max_depth"):
            assert grown.summary[field] == cold.summary[field]

    def test_incremental_result_chains_without_polluting_replay(self):
        tgds, base_db, full_db = self._grown_pair()
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache, incremental=True)
        executor.run_all([ChaseJob(program=tgds, database=base_db)])
        grown = executor.run_all([ChaseJob(program=tgds, database=full_db)])[0]
        # The resumed run's snapshot becomes the lineage's freshest
        # base — under a "delta:" key, so the cold result key stays
        # unclaimed: a resumed run's statistics (and, under tight round
        # budgets, outcome) are not what a cold execution would report,
        # and must never be replayed as one.
        from repro.runtime.cache import lineage_cache_key

        job = ChaseJob(program=tgds, database=full_db)
        fresh = cache.snapshot_for(lineage_cache_key(job))
        assert fresh is not None and fresh.key == "delta:" + grown.cache_key
        assert cache.get(grown.cache_key) is None  # no replayable entry
        # Resubmitting the grown job misses the result cache and
        # resumes again — this time from its own delta entry.
        again = executor.run_all([ChaseJob(program=tgds, database=full_db)])[0]
        assert not again.cache_hit
        assert again.resumed_from == "delta:" + grown.cache_key
        assert again.summary["size"] == grown.summary["size"]

    def test_resume_survives_nulls_in_the_base_database(self):
        # A base instance that already contains labelled nulls (e.g. a
        # prior chase result used as input): the snapshot recipe-encodes
        # them, and re-interning the same null on the resumed run must
        # find the recipe id instead of inventing a duplicate — or the
        # delta-derived T(n) below would coexist with the base run's
        # T(n) as two distinct packed facts.
        from repro.model.atoms import Atom, Predicate
        from repro.model.instance import Instance
        from repro.model.terms import Constant, make_null
        from repro.chase.semi_oblivious import semi_oblivious_chase

        r = Predicate("R", 2)
        a, b = Constant("a"), Constant("b")
        null = make_null("seed_rule", "z", {"x": a})
        base_db = Instance([Atom(r, (a, null))])
        full_db = Instance([Atom(r, (a, null)), Atom(r, (b, null))])
        tgds = parse_program("R(x, y) -> T(y)")
        base = semi_oblivious_chase(base_db, tgds, record_derivation=False, engine="store")
        assert base.terminated
        resumed = semi_oblivious_chase(
            full_db, tgds, record_derivation=False, engine="store",
            resume_from=base.store_snapshot(),
        )
        cold = semi_oblivious_chase(full_db, tgds, record_derivation=False, engine="store")
        assert cold.terminated and resumed.terminated
        assert resumed.size == cold.size == 3  # R, R, T(n) — no duplicate T
        assert resumed.instance == cold.instance

    def test_no_resume_when_database_is_not_a_superset(self):
        tgds, base_db, _ = self._grown_pair()
        from repro.model.instance import Database

        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache, incremental=True)
        executor.run_all([ChaseJob(program=tgds, database=base_db)])
        disjoint = Database(list(base_db)[: len(base_db) // 2])
        shrunk = executor.run_all([ChaseJob(program=tgds, database=disjoint)])[0]
        assert shrunk.resumed_from is None  # subset, not superset: cold run

    def test_no_resume_across_programs(self):
        tgds, base_db, full_db = self._grown_pair()
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache, incremental=True)
        executor.run_all([ChaseJob(program=tgds, database=base_db)])
        other_program = parse_program("R(x, y) -> exists z . S(y, z)")
        other = executor.run_all(
            [ChaseJob(program=other_program, database=full_db)]
        )[0]
        assert other.resumed_from is None

    def test_incremental_off_never_stores_snapshots(self):
        tgds, base_db, _ = self._grown_pair()
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache, incremental=False)
        result = executor.run_all([ChaseJob(program=tgds, database=base_db)])[0]
        entry = cache.get(result.cache_key)
        assert entry is not None and entry.snapshot is None

    def test_nonterminating_runs_are_not_resume_bases(self):
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache, incremental=True)
        job = ChaseJob(
            program=parse_program("R(x, y) -> exists z . R(y, z)"),
            database=parse_database("R(a, b)."),
            budget_mode="explicit",
            budget=ChaseBudget(max_atoms=40),
        )
        result = executor.run_all([job])[0]
        assert result.status == "ok" and result.summary["terminated"] is False
        entry = cache.get(result.cache_key)
        assert entry is not None and entry.snapshot is None

    def test_incremental_survives_jsonl_spill(self, tmp_path):
        tgds, base_db, full_db = self._grown_pair()
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        executor = BatchExecutor(workers=1, cache=cache, incremental=True)
        base = executor.run_all([ChaseJob(program=tgds, database=base_db)])[0]
        # A fresh process (fresh cache object) reloads the snapshot from
        # the spill and resumes from it.
        reloaded = ResultCache(path)
        executor2 = BatchExecutor(workers=1, cache=reloaded, incremental=True)
        grown = executor2.run_all([ChaseJob(program=tgds, database=full_db)])[0]
        assert grown.resumed_from == base.cache_key
