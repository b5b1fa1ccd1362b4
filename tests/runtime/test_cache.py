"""Result cache: keys, persistence, byte-identical replay, LRU, versioning."""

import json

import pytest

from repro.chase.engine import ChaseBudget
from repro.generators.workloads import mixed_workload_jobs
from repro.model.parser import parse_database, parse_program
from repro.runtime import (
    BatchExecutor,
    ChaseJob,
    ResultCache,
    result_cache_key,
)
from repro.runtime.cache import SCHEMA_VERSION


def make_job(**kwargs):
    defaults = dict(
        program=parse_program("R(x, y) -> exists z . S(y, z)"),
        database=parse_database("R(a, b)."),
    )
    defaults.update(kwargs)
    return ChaseJob(**defaults)


class TestCacheKey:
    def test_key_covers_fingerprints_variant_and_budget(self):
        job = make_job()
        budget = ChaseBudget(max_atoms=100)
        key = result_cache_key(job, budget)
        pfp, dfp = job.fingerprint
        assert pfp in key and dfp in key
        assert ":semi-oblivious:" in key and ":a100:" in key

    def test_key_ignores_max_seconds(self):
        job = make_job()
        assert result_cache_key(job, ChaseBudget(max_seconds=1.0)) == result_cache_key(
            job, ChaseBudget(max_seconds=9.0)
        )

    def test_key_differs_by_variant_and_budget(self):
        job = make_job()
        other = make_job(variant="restricted")
        budget = ChaseBudget()
        assert result_cache_key(job, budget) != result_cache_key(other, budget)
        assert result_cache_key(job, budget) != result_cache_key(
            job, budget.with_max_atoms(7)
        )

    def test_isomorphic_jobs_share_a_key(self):
        a = make_job()
        b = make_job(
            program=parse_program("R(u, v) -> exists q . S(v, q)"),
            database=parse_database("R(a, b)."),
        )
        assert result_cache_key(a, ChaseBudget()) == result_cache_key(b, ChaseBudget())


class TestResultCache:
    def test_put_get_roundtrip_and_stats(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"size": 3}, "R(a, b)")
        entry = cache.get("k")
        assert entry is not None and entry.summary == {"size": 3}
        assert entry.instance_text == "R(a, b)"
        assert cache.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "evictions": 0,
            "version_skipped": 0,
            "torn_lines": 0,
            "crc_mismatches": 0,
            "degraded": 0,
        }

    def test_get_require_instance_misses_instanceless_entries(self):
        cache = ResultCache()
        cache.put("k", {"size": 1}, None)
        assert cache.get("k", require_instance=True) is None
        cache.put("k", {"size": 1}, "R(a, b)")
        assert cache.get("k", require_instance=True) is not None

    def test_corrupt_jsonl_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        cache.put("good", {"size": 1}, None)
        # Simulate a process killed mid-append: a truncated last line.
        with path.open("a") as handle:
            handle.write('{"key": "trunc", "summ')
        reloaded = ResultCache(path)
        assert len(reloaded) == 1
        assert reloaded.get("good") is not None

    def test_jsonl_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        cache.put("k1", {"size": 1}, None)
        cache.put("k2", {"size": 2}, "S(a)")
        reloaded = ResultCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("k2").instance_text == "S(a)"
        # The file is line-oriented JSON.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        payload = lines[0].rpartition("\tcrc32=")[0]
        assert json.loads(payload)["key"] == "k1"


class TestLRUEviction:
    def test_put_evicts_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"size": 1})
        cache.put("b", {"size": 2})
        cache.put("c", {"size": 3})
        assert len(cache) == 2
        assert cache.evictions == 1
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"size": 1})
        cache.put("b", {"size": 2})
        assert cache.get("a") is not None  # a is now the fresh one
        cache.put("c", {"size": 3})
        assert "a" in cache and "b" not in cache

    def test_restore_respects_cap_keeping_newest_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        full = ResultCache(path)
        for index in range(5):
            full.put(f"k{index}", {"size": index})
        bounded = ResultCache(path, max_entries=2)
        assert len(bounded) == 2
        assert bounded.get("k4") is not None and bounded.get("k3") is not None
        assert bounded.get("k0") is None

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_eviction_is_memory_only_file_keeps_entries(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path, max_entries=1)
        cache.put("a", {"size": 1})
        cache.put("b", {"size": 2})
        assert "a" not in cache
        # The append-only spill still holds both committed entries.
        assert len(path.read_text().strip().splitlines()) == 2


class TestSchemaVersioning:
    def test_entries_are_stamped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResultCache(path).put("k", {"size": 1})
        record = json.loads(path.read_text().rpartition("\tcrc32=")[0])
        assert record["schema_version"] == SCHEMA_VERSION

    def test_stale_version_lines_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        stale = {"key": "old", "summary": {"size": 9}, "schema_version": SCHEMA_VERSION - 1}
        unversioned = {"key": "ancient", "summary": {"size": 8}}  # pre-stamp file
        current = {"key": "new", "summary": {"size": 1}, "schema_version": SCHEMA_VERSION}
        path.write_text("".join(json.dumps(r) + "\n" for r in (stale, unversioned, current)))
        with pytest.warns(UserWarning, match="schema version"):
            reloaded = ResultCache(path)
        assert len(reloaded) == 1
        assert reloaded.get("new") is not None
        assert reloaded.get("old") is None and reloaded.get("ancient") is None
        assert reloaded.stats()["version_skipped"] == 2

    def test_compact_drops_stale_and_superseded_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with path.open("w") as handle:
            handle.write(json.dumps({"key": "old", "summary": {}, "schema_version": 0}) + "\n")
        with pytest.warns(UserWarning):
            cache = ResultCache(path)
        cache.put("k", {"size": 1})
        cache.put("k", {"size": 2})  # supersedes the first append
        assert len(path.read_text().strip().splitlines()) == 3
        assert cache.compact() == 1
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        payload = lines[0].rpartition("\tcrc32=")[0]
        assert json.loads(payload)["summary"] == {"size": 2}
        # A reload sees exactly the compacted state, warning-free.
        reloaded = ResultCache(path)
        assert len(reloaded) == 1 and reloaded.version_skipped == 0

    def test_load_restores_from_sidecar_after_crashed_compact(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        cache.put("k1", {"size": 1})
        cache.put("k2", {"size": 2})
        # Simulate a SIGKILL between compact()'s truncate and write:
        # the main file is empty, the sidecar holds the full content.
        sidecar = path.with_suffix(path.suffix + ".compacting")
        sidecar.write_text(path.read_text())
        path.write_text("")
        recovered = ResultCache(path)
        assert len(recovered) == 2
        assert recovered.get("k1") is not None and recovered.get("k2") is not None
        assert not sidecar.exists()  # restored and cleaned up
        assert len(path.read_text().strip().splitlines()) == 2

    def test_compact_preserves_entries_appended_by_other_writers(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        mine = ResultCache(path)
        mine.put("mine", {"size": 1})
        # A second process sharing the file commits its own entry...
        ResultCache(path).put("theirs", {"size": 2})
        # ...and an eviction drops "mine" from *memory* only.
        bounded = ResultCache(path, max_entries=1)
        assert "mine" not in bounded  # "theirs" is the fresher line
        assert bounded.compact() == 2  # both committed entries survive
        reloaded = ResultCache(path)
        assert reloaded.get("mine") is not None
        assert reloaded.get("theirs") is not None


class TestExecutorCacheIntegration:
    def test_hit_replays_byte_identical_summary(self):
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache)
        job = make_job()
        cold = executor.run_all([job])[0]
        warm = executor.run_all([job])[0]
        assert not cold.cache_hit and warm.cache_hit
        assert warm.summary_json() == cold.summary_json()

    def test_manifest_replay_hits_on_every_cacheable_job(self):
        jobs = mixed_workload_jobs(30, seed=7)
        cache = ResultCache()
        cold = BatchExecutor(workers=1, cache=cache).run_all(jobs)
        warm = {r.job_id: r for r in BatchExecutor(workers=1, cache=cache).run_all(jobs)}
        cacheable = [r for r in cold if r.status == "ok"]
        assert len(cacheable) >= 25  # a vacuous replay proves nothing
        for result in cacheable:
            replay = warm[result.job_id]
            assert replay.cache_hit, result.job_id
            assert replay.summary_json() == result.summary_json(), result.job_id

    def test_isomorphic_job_hits_cache(self):
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache)
        executor.run_all([make_job()])
        renamed = make_job(program=parse_program("R(p, q) -> exists n . S(q, n)"))
        result = executor.run_all([renamed])[0]
        assert result.cache_hit

    def test_timeouts_are_not_cached(self):
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache)
        looping = make_job(
            program=parse_program("R(x, y) -> exists z . R(y, z)"),
            budget_mode="explicit",
            budget=ChaseBudget(max_seconds=0.0),
        )
        result = executor.run_all([looping])[0]
        assert result.status == "timeout"
        assert len(cache) == 0
        # A rerun executes again rather than replaying the timeout.
        rerun = executor.run_all([looping])[0]
        assert not rerun.cache_hit

    def test_materializing_executor_reruns_instanceless_hits(self):
        cache = ResultCache()
        job = make_job()
        plain = BatchExecutor(workers=1, cache=cache).run_all([job])[0]
        assert plain.instance_text is None  # stored without the instance
        materialized = BatchExecutor(workers=1, cache=cache, materialize=True).run_all(
            [job]
        )[0]
        assert not materialized.cache_hit  # re-ran instead of replaying None
        assert "S(b, " in materialized.instance_text
        # The re-run upgraded the entry; a second materialising pass hits.
        again = BatchExecutor(workers=1, cache=cache, materialize=True).run_all([job])[0]
        assert again.cache_hit
        assert again.instance_text == materialized.instance_text

    def test_shared_jsonl_cache_across_executors(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        job = make_job()
        first = BatchExecutor(workers=1, cache=ResultCache(path)).run_all([job])[0]
        second = BatchExecutor(workers=1, cache=ResultCache(path)).run_all([job])[0]
        assert not first.cache_hit and second.cache_hit
        assert second.summary_json() == first.summary_json()


class TestSnapshotEntries:
    def _put_snapshot(self, cache, key="k1", lineage="lin1"):
        return cache.put(
            key,
            {"outcome": "terminated", "size": 3},
            snapshot=b"RSNP1\n fake bytes \x00\x01",
            database_lines=["R(a, b).", "R(b, c)."],
            lineage=lineage,
        )

    def test_snapshot_round_trips_through_jsonl(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        entry = self._put_snapshot(cache)
        reloaded = ResultCache(path)
        got = reloaded.get("k1")
        assert got is not None
        assert got.snapshot == entry.snapshot
        assert got.database_lines == entry.database_lines
        assert got.lineage == "lin1"
        assert reloaded.snapshot_for("lin1").key == "k1"

    def test_snapshot_survives_compaction(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        self._put_snapshot(cache)
        cache.put("plain", {"outcome": "terminated", "size": 1})
        cache.compact()
        reloaded = ResultCache(path)
        assert reloaded.get("k1").snapshot is not None
        assert reloaded.snapshot_for("lin1") is not None

    def test_lineage_tracks_freshest_entry(self):
        cache = ResultCache()
        self._put_snapshot(cache, key="old")
        self._put_snapshot(cache, key="new")
        assert cache.snapshot_for("lin1").key == "new"

    def test_lineage_cleared_on_eviction(self):
        cache = ResultCache(max_entries=2)
        self._put_snapshot(cache, key="base")
        cache.put("x1", {"s": 1})
        cache.put("x2", {"s": 2})  # evicts "base"
        assert cache.snapshot_for("lin1") is None

    def test_entries_without_snapshot_do_not_claim_lineage(self):
        cache = ResultCache()
        cache.put("plain", {"s": 1})
        assert cache.snapshot_for("lin1") is None

    def test_lineage_key_composition(self):
        from repro.chase.engine import ChaseBudget
        from repro.model.parser import parse_database, parse_program
        from repro.runtime.cache import lineage_cache_key
        from repro.runtime.jobs import ChaseJob

        program = parse_program("R(x, y) -> exists z . S(y, z)")
        small = ChaseJob(program=program, database=parse_database("R(a, b)."))
        grown = ChaseJob(
            program=program, database=parse_database("R(a, b).\nR(b, c).")
        )
        # Same program + variant + budget policy: same lineage even
        # though the databases (and auto-resolved budgets) differ.
        assert lineage_cache_key(small) == lineage_cache_key(grown)
        other_variant = ChaseJob(
            program=program, database=small.database, variant="oblivious"
        )
        assert lineage_cache_key(other_variant) != lineage_cache_key(small)
        explicit = ChaseJob(
            program=program,
            database=small.database,
            budget_mode="explicit",
            budget=ChaseBudget(max_atoms=7),
        )
        assert lineage_cache_key(explicit) != lineage_cache_key(small)
