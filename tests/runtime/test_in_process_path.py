"""In-process jobs run on their own objects.

The serial executor (and a pool's duplicate fallback) hands
:func:`execute_job` the job's program and a fact store seeded from its
database; only a process pool ships the plain-data payload that
:func:`execute_payload` decodes.  These tests pin that the two layers
agree byte for byte, that in-process runs never touch the job's own
objects, and that a retry starts from a freshly seeded store.
"""

import json

import pytest

from repro.chase import semi_oblivious_chase
from repro.chase.engine import ChaseBudget
from repro.generators.workloads import mixed_workload_jobs, restricted_heavy
from repro.model.instance import Database, Instance
from repro.model.parser import parse_database, parse_program
from repro.model.serialization import atom_to_text, canonical_instance_text
from repro.runtime import (
    BatchExecutor,
    ChaseJob,
    ResultCache,
    execute_job,
    execute_payload,
    seed_database_store,
)
from repro.runtime.faults import ENV_VAR, FaultPlan, FaultSpec


def _both_paths(executor, job):
    """``(in-process record, payload record, cache key)`` for one job."""
    _, budget, key = executor._resolve(job)
    spec, delta, _ = executor._plan(job, budget, key=key)
    in_process = execute_job(job.program, executor._seed(job, delta), spec)
    payload = execute_payload(executor._payload(job, spec, delta))
    return in_process, payload, key


def _summary_bytes(record):
    return json.dumps(record["summary"], sort_keys=True)


def _untimed(summary):
    """A summary with its wall-clock fields dropped (telemetry keeps
    per-round timings, which no two runs share)."""
    if isinstance(summary, dict):
        return {
            k: _untimed(v) for k, v in summary.items() if not k.endswith("seconds")
        }
    if isinstance(summary, list):
        return [_untimed(v) for v in summary]
    return summary


def _null_bearing_instance() -> Instance:
    """A budget-stopped chase prefix: an input that holds labelled nulls."""
    program = parse_program(
        "R(x, y) -> exists z . S(y, z)\n"
        "S(x, y) -> exists w . R(y, w)\n"
        "S(x, y), R(y, u) -> T(x, u)"
    )
    prefix = semi_oblivious_chase(
        parse_database("R(a, b).\nR(b, c)."), program,
        budget=ChaseBudget(max_rounds=3), record_derivation=False,
    )
    return program, prefix.instance


class TestPathEquivalence:
    def test_mixed_workload_summaries_and_cache_keys_match(self):
        jobs = mixed_workload_jobs(200, 11)
        cache = ResultCache()
        serial = BatchExecutor(workers=1, cache=cache).run_all(jobs)
        executor = BatchExecutor(workers=1)
        for job, result in zip(jobs, serial):
            _, budget, key = executor._resolve(job)
            spec = executor._spec(job, budget, key=key)
            record = execute_payload(executor._payload(job, spec))
            assert result.cache_key == key, job.job_id
            assert result.status == record["status"], job.job_id
            assert result.summary_json() == _summary_bytes(record), job.job_id
            if result.status == "ok":
                assert cache.get(key).summary == record["summary"], job.job_id

    @pytest.mark.parametrize("variant", ["semi-oblivious", "restricted", "oblivious"])
    def test_null_bearing_database(self, variant):
        program, instance = _null_bearing_instance()
        assert any(t.is_null for atom in instance for t in atom.args)
        job = ChaseJob(
            program=program,
            database=instance,
            variant=variant,
            budget_mode="explicit",
            budget=ChaseBudget(max_rounds=6, max_atoms=5000),
        )
        for executor in (BatchExecutor(workers=1), BatchExecutor(workers=1, telemetry=True)):
            in_process, payload, _ = _both_paths(executor, job)
            assert in_process["status"] == payload["status"] == "ok"
            # The probe's per-round null counts see the input nulls the
            # same way on both paths.
            assert _untimed(in_process["summary"]) == _untimed(payload["summary"])

    def test_incremental_resume(self):
        full_db, tgds = restricted_heavy(30, 8)
        base_db, _ = restricted_heavy(30, 6)
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache, incremental=True)
        executor.run_all([ChaseJob(program=tgds, database=base_db)])
        job = ChaseJob(program=tgds, database=full_db)
        _, budget, key = executor._resolve(job)
        spec, delta, resumed_from = executor._plan(job, budget, key=key)
        assert resumed_from is not None and delta
        in_process, payload, _ = _both_paths(executor, job)
        assert in_process["summary"]["resumed"] is True
        assert _summary_bytes(in_process) == _summary_bytes(payload)
        assert in_process["snapshot"] == payload["snapshot"]

    def test_payload_decodes_the_jobs_own_program(self):
        # A generated program's rule ids are not the parser's
        # ``{name}_r{i}``: the payload carries them, so a pooled run
        # labels nulls and profiles rules exactly like an in-process one.
        job = mixed_workload_jobs(10, 11)[1]
        executor = BatchExecutor(workers=1)
        payload = executor._payload(job, executor._spec(job, ChaseBudget()))
        assert payload["rule_ids"] == [tgd.rule_id for tgd in job.program]
        record = execute_payload(dict(payload, profile=True))
        profiled = {row["rule"] for row in record["summary"]["profile"]["rules"]}
        assert profiled == {tgd.rule_id for tgd in job.program}


class TestSeeding:
    def test_store_is_seeded_in_sorted_text_order(self):
        facts = sorted(parse_database("R(c, d).\nS(a).\nR(a, b).\nT(b, a)."), key=atom_to_text)
        reversed_db = Database(list(reversed(facts)))
        store = seed_database_store(reversed_db)
        seeded = [
            store.decode_fact(pid, ids)
            for pid in range(3)
            for ids in store.facts_of(pid)
        ]
        # Predicates are interned in first-fact order and rows follow
        # the sorted order — the snapshot the pool ships has the same
        # dense ids.
        assert seeded == facts
        assert [store.predicate_of(pid).name for pid in range(3)] == ["R", "S", "T"]

    def test_order_sensitive_job_matches_the_payload_path(self):
        # ``triggers_applied`` of the university jobs depends on trigger
        # order, which the seed order fixes: a database built in
        # reverse-sorted order must still run like the pool's sorted
        # snapshot.
        job = next(j for j in mixed_workload_jobs(10, 11) if j.job_id == "university-0")
        reversed_db = Database(list(reversed(sorted(job.database, key=atom_to_text))))
        job = ChaseJob(program=job.program, database=reversed_db, job_id=job.job_id)
        in_process, payload, _ = _both_paths(BatchExecutor(workers=1), job)
        assert _summary_bytes(in_process) == _summary_bytes(payload)


class TestIsolation:
    def test_rerunning_a_job_is_identical_and_leaves_its_database_alone(self):
        for job in mixed_workload_jobs(20, 11):
            before = (len(job.database), canonical_instance_text(job.database))
            first, second = BatchExecutor(workers=1).run_all([job, job])
            assert first.summary_json() == second.summary_json(), job.job_id
            assert (len(job.database), canonical_instance_text(job.database)) == before

    def test_transient_round_error_retries_on_a_freshly_seeded_store(
        self, tmp_path, monkeypatch
    ):
        def chain():
            return ChaseJob(
                program=parse_program("E(x, y) -> exists z . E(y, z)"),
                database=parse_database("E(a, b).\nE(c, d)."),
                job_id="flaky-chain",
                budget_mode="explicit",
                budget=ChaseBudget(max_rounds=12, max_atoms=10**6),
            )

        cold = BatchExecutor(workers=1).run_all([chain()])[0]
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    point="worker.round", action="error", at_round=5, match="flaky-chain"
                ),
            ),
            seed=3,
            state_dir=str(tmp_path / "faults"),
        )
        monkeypatch.setenv(ENV_VAR, plan.to_env())
        retried = BatchExecutor(workers=1, retry_backoff_base=0.0).run_all([chain()])[0]
        assert retried.retries == 1
        assert retried.status == cold.status == "ok"
        # The first attempt died with five rounds of facts in its store;
        # the retry saw none of them.
        assert retried.summary_json() == cold.summary_json()
        assert retried.summary["database_size"] == 2
