"""Batch executor: serial/pool equivalence, streaming, errors, timeouts."""

import json

import pytest

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import BaseChaseEngine, ChaseBudget
from repro.model.parser import parse_database, parse_program
from repro.runtime import (
    BatchExecutor,
    ChaseJob,
    ResultCache,
    execute_payload,
)
from repro.generators.workloads import mixed_workload_jobs
from repro.runtime.faults import ENV_VAR, FaultPlan, FaultSpec


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


def _direct_summary(job, budget):
    """The summary of an in-process run on the job's own objects."""
    result = VARIANT_RUNNERS[job.variant](
        job.database, job.program, budget=budget, record_derivation=False
    )
    return result.summary()


class TestSnapshotPayloads:
    def test_executor_summaries_match_direct_runs(self):
        jobs = small_batch()
        executor = BatchExecutor(workers=1)
        results = executor.run_all(jobs)
        for job, result in zip(jobs, results):
            _, budget, _ = executor._resolve(job)
            assert result.summary == _direct_summary(job, budget), job.job_id

    def test_depth_truncating_jobs_are_not_checkpointed(self, tmp_path):
        # A checkpoint does not carry depth_truncated, and the engine
        # refuses to resume a truncating run from one.
        executor = BatchExecutor(
            workers=1, checkpoint_every_rounds=1, checkpoint_dir=str(tmp_path)
        )
        job = small_batch()[2]
        payload = executor._payload(job, executor._spec(*_resolved(executor, job), key="k"))
        assert payload["checkpoint_every_rounds"] == 1
        truncating = ChaseJob(
            program=job.program,
            database=job.database,
            job_id="truncating",
            budget_mode="explicit",
            budget=ChaseBudget(max_depth=2, truncate_at_depth=True),
        )
        payload = executor._payload(
            truncating, executor._spec(*_resolved(executor, truncating), key="k")
        )
        assert "checkpoint_every_rounds" not in payload

    def test_store_engine_payload_carries_snapshot(self):
        executor = BatchExecutor(workers=1)
        job = small_batch()[0]
        spec = executor._spec(*_resolved(executor, job))
        payload = executor._payload(job, spec)
        assert "database_snapshot" not in payload or payload["database_snapshot"]
        assert payload.get("database_snapshot") == job.database_snapshot
        # The encoding is cached: a retry reuses the same bytes object.
        assert executor._payload(job, spec)["database_snapshot"] is payload[
            "database_snapshot"
        ]

    def test_snapshot_payload_executes_identically(self):
        executor = BatchExecutor(workers=1)
        for job in small_batch():
            _, budget, _ = executor._resolve(job)
            payload = executor._payload(job, executor._spec(job, budget))
            assert "database_text" not in payload
            record = execute_payload(payload)
            assert record["summary"] == _direct_summary(job, budget), job.job_id


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

    def test_no_resume_across_rule_ids(self):
        # Manifest jobs name their rules after the job id, so m1 and m2
        # share the rule text but label nulls as m1_r0 and m2_r0.  The
        # delta R(a, c) reaches S's trigger for x = a, which the base
        # already fired under m1_r0: resuming m2 from m1's snapshot
        # would invent a second null for it (size 7, not 5).
        from repro.runtime.jobs import job_from_manifest_entry

        program = "R(x, y) -> exists z . S(x, z)\nS(x, z), Q(x) -> T(z)"

        def job(job_id, database):
            return job_from_manifest_entry(
                {"id": job_id, "program": program, "database": database}
            )

        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache, incremental=True)
        executor.run_all([job("m1", "R(a, b).\nQ(a).")])
        grown = executor.run_all([job("m2", "R(a, b).\nQ(a).\nR(a, c).")])[0]
        cold = BatchExecutor(workers=1).run_all([job("m2", "R(a, b).\nQ(a).\nR(a, c).")])[0]
        assert grown.status == cold.status == "ok"
        assert grown.resumed_from is None
        assert grown.summary == cold.summary
        assert grown.summary["size"] == 5
        # The same job id labels nulls the same way: that one resumes,
        # and its result equals the cold run's.
        again = executor.run_all([job("m1", "R(a, b).\nQ(a).\nR(a, d).")])[0]
        assert again.resumed_from is not None
        assert again.summary["size"] == 5

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


@pytest.mark.parametrize("variant", ["semi-oblivious", "oblivious", "restricted"])
def test_killed_job_resumes_from_its_checkpoint(variant, tmp_path, monkeypatch):
    """A ``worker.round`` kill at round 16 of a 24-round chain: the retry
    resumes from the last checkpoint and reports the cold run's summary
    byte for byte, for every chase variant."""

    def probe():
        return ChaseJob(
            program=parse_program("E(x, y) -> exists z . E(y, z)"),
            database=parse_database("E(a, b)."),
            job_id="checkpoint-probe",
            variant=variant,
            budget_mode="explicit",
            budget=ChaseBudget(max_rounds=24, max_atoms=10**6),
        )

    cold = BatchExecutor(workers=1).run_all([probe()])[0]
    cold_rounds = cold.summary["rounds"]
    plan = FaultPlan(
        faults=(
            FaultSpec(
                point="worker.round", action="kill", at_round=16, match="checkpoint-probe"
            ),
        ),
        seed=13,
        state_dir=str(tmp_path / "faults"),
    )
    # The injector re-reads the plan whenever the variable changes.
    monkeypatch.setenv(ENV_VAR, plan.to_env())
    executor = BatchExecutor(
        workers=1,
        max_retries=1,
        checkpoint_every_rounds=4,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    resumed = executor.run_all([probe()])[0]
    provenance = resumed.as_dict()["checkpoint"]
    assert provenance["base_rounds"] > 0
    assert provenance["resumed_rounds"] < cold_rounds
    assert resumed.status == cold.status == "ok"
    assert resumed.summary_json() == cold.summary_json()


class TestProductionPathAvoidsTheLegacyRescan:
    """The runtime and the CLI reach only the store driver: the legacy
    rescan is the library's ``engine="legacy"`` specification."""

    @pytest.fixture(autouse=True)
    def _no_legacy(self, monkeypatch):
        def refuse(self, database):
            raise AssertionError("the legacy rescan ran on a production path")

        monkeypatch.setattr(BaseChaseEngine, "_run_legacy", refuse)

    def test_serial_batch(self):
        results = BatchExecutor(workers=1).run_all(small_batch())
        assert [r.status for r in results] == ["ok", "ok", "ok"]

    def test_incremental_resume(self):
        from repro.generators.workloads import restricted_heavy

        full_db, tgds = restricted_heavy(30, 8)
        base_db, _ = restricted_heavy(30, 6)
        executor = BatchExecutor(workers=1, cache=ResultCache(), incremental=True)
        base = executor.run_all([ChaseJob(program=tgds, database=base_db)])[0]
        grown = executor.run_all([ChaseJob(program=tgds, database=full_db)])[0]
        assert base.status == grown.status == "ok"
        assert grown.resumed_from == base.cache_key

    def test_checkpointed_job(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            faults=(FaultSpec(point="worker.round", action="kill", at_round=6),),
            seed=13,
            state_dir=str(tmp_path / "faults"),
        )
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        job = ChaseJob(
            program=parse_program("E(x, y) -> exists z . E(y, z)"),
            database=parse_database("E(a, b)."),
            budget_mode="explicit",
            budget=ChaseBudget(max_rounds=10, max_atoms=10**6),
        )
        executor = BatchExecutor(
            workers=1,
            max_retries=1,
            checkpoint_every_rounds=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        result = executor.run_all([job])[0]
        assert result.status == "ok"
        assert result.as_dict()["checkpoint"]["base_rounds"] > 0

    def test_cli_chase_and_batch(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "r.rules"
        rules.write_text("R(x, y) -> exists z . S(y, z)\nS(x, y) -> T(x)\n")
        facts = tmp_path / "db.facts"
        facts.write_text("R(a, b).\nR(b, c).\n")
        assert main(["chase", str(rules), str(facts), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["terminated"] is True
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps({"id": "j", "rules": "r.rules", "facts": "db.facts"}) + "\n"
        )
        assert main(["batch", str(manifest)]) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["status"] == "ok" and row["summary"]["terminated"] is True
