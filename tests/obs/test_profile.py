"""Per-rule attribution profiling (obs/profile.py).

The profiler's contract has two halves.  Invisibility: without a
profiler observer every driver stays on its seed code path, so
summaries are byte-identical with and without the feature compiled in
— cache keys, fingerprints and payloads unchanged.  Attribution: with
a profiler attached, per-rule counters are exact and attributed wall
time covers ≥ 90% of the driver window, at single-digit overhead.
"""

import json

import pytest

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ENGINES, ChaseBudget
from repro.generators.families import sl_lower_bound
from repro.model.parser import parse_database, parse_program
from repro.obs.profile import RuleProfiler, format_profile_table, top_rules
from repro.runtime.cache import ResultCache
from repro.runtime.executor import BatchExecutor
from repro.runtime.jobs import ChaseJob

BUDGET = ChaseBudget(max_atoms=100_000)

RULES = "P(x) -> exists z . Q(x, z)\nQ(x, z) -> R(z)\nR(z) -> S(z)"
FACTS = "P(a)\nP(b)\nP(c)"


def _run(variant, engine, profiler=None):
    return VARIANT_RUNNERS[variant](
        parse_database(FACTS),
        parse_program(RULES),
        budget=BUDGET,
        record_derivation=False,
        engine=engine,
        observers=() if profiler is None else [profiler],
    )


def _summary_bytes(result):
    return json.dumps(result.summary(), sort_keys=True).encode()


class TestInvisibility:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("variant", sorted(VARIANT_RUNNERS))
    def test_profile_off_is_byte_identical(self, variant, engine):
        """Seed behaviour: two profile-off runs produce identical bytes,
        and a profiled run differs only by its 'profile' key."""
        off_a = _summary_bytes(_run(variant, engine))
        off_b = _summary_bytes(_run(variant, engine))
        assert off_a == off_b
        assert b'"profile"' not in off_a

        profiled = _run(variant, engine, profiler=RuleProfiler())
        summary = profiled.summary()
        payload = summary.pop("profile")
        assert json.dumps(summary, sort_keys=True).encode() == off_a
        assert payload["runs"] == 1

    def test_cached_summaries_are_stripped(self):
        """The executor must strip profile payloads before cache.put, so
        profiled and unprofiled batches share byte-identical entries."""
        job = ChaseJob(
            program=parse_program(RULES),
            database=parse_database(FACTS),
            job_id="p1",
            variant="semi-oblivious",
        )
        cache = ResultCache(None)
        executor = BatchExecutor(workers=1, cache=cache, profile=True)
        result = executor.run_all([job])[0]
        assert "profile" in result.summary
        entry = cache.get(result.cache_key)
        assert entry is not None
        assert "profile" not in entry.summary

        replay = executor.run_all([job])[0]
        assert replay.cache_hit
        assert "profile" not in replay.summary


class TestAttribution:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_counters_are_exact(self, engine):
        profiler = RuleProfiler()
        result = _run("semi-oblivious", engine, profiler=profiler)
        stats = result.statistics
        assert sum(profiler.fired) == stats.triggers_applied
        assert sum(profiler.considered) == stats.triggers_considered
        assert sum(profiler.facts) == stats.atoms_created
        # One null per P fact from the single existential rule.
        assert sum(profiler.nulls) == 3
        payload = profiler.as_dict()
        assert {row["rule"] for row in payload["rules"]} == {
            t.rule_id for t in parse_program(RULES)
        }

    def test_attributed_fraction_meets_the_floor(self):
        """≥ 90% of driver wall time lands on rules on a workload big
        enough for the clock to resolve (the acceptance criterion's
        200-job batch measures 0.92; this is the in-suite proxy)."""
        database, tgds = sl_lower_bound(2, 3, 2)
        profiler = RuleProfiler()
        VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False,
            engine="store", observers=[profiler],
        )
        payload = profiler.as_dict()
        assert payload["attributed_fraction"] >= 0.9
        assert payload["driver_seconds"] > 0

    def test_store_observation_carries_index_and_memory(self):
        profiler = RuleProfiler()
        _run("semi-oblivious", "store", profiler=profiler)
        payload = profiler.as_dict()
        assert payload["engine"] == "store"
        assert payload.get("posting_memory_bytes")

    def test_aggregates_across_repeated_runs(self):
        profiler = RuleProfiler()
        _run("semi-oblivious", "store", profiler=profiler)
        _run("semi-oblivious", "store", profiler=profiler)
        payload = profiler.as_dict()
        assert payload["runs"] == 2
        assert sum(profiler.nulls) == 6


class TestRendering:
    def _payload(self):
        profiler = RuleProfiler()
        _run("semi-oblivious", "store", profiler=profiler)
        return profiler.as_dict()

    def test_top_rules_is_a_ranked_prefix(self):
        payload = self._payload()
        ranked = top_rules(payload, top=2)
        assert len(ranked) == 2
        totals = [r["seconds"] + r["compile_seconds"] for r in payload["rules"]]
        assert totals == sorted(totals, reverse=True)

    def test_table_renders_every_requested_row(self):
        payload = self._payload()
        table = format_profile_table(payload, top=10)
        for row in payload["rules"]:
            assert row["rule"] in table
        assert "attributed" in table
