"""Batch runtime: declarative chase jobs, auto-budgets, caching, pooling.

This layer turns the chase engine into a service-shaped runtime::

    ChaseJob ──▶ BudgetPolicy ──▶ ResultCache ──▶ BatchExecutor
    (what to     (paper-derived    (fingerprint-    (serial or
     run)         d_C/f_C limits)   keyed replay)    process pool)

``python -m repro batch`` is the CLI front end: it consumes a JSONL
manifest of jobs and emits JSONL results with outcome, sizes, timings,
and cache/budget provenance.
"""

from repro.runtime.budget_policy import (
    DEFAULT_ATOM_CAP,
    DEFAULT_DEPTH_CAP,
    BudgetDecision,
    BudgetPolicy,
)
from repro.runtime.cache import (
    CacheEntry,
    ResultCache,
    lineage_cache_key,
    result_cache_key,
)
from repro.runtime.executor import BatchExecutor, JobResult, execute_job, execute_payload
from repro.runtime.jobs import (
    BUDGET_MODES,
    VARIANTS,
    ChaseJob,
    ManifestError,
    database_fingerprint,
    encode_database_snapshot,
    job_from_manifest_entry,
    manifest_entry,
    parse_manifest_text,
    program_fingerprint,
    read_manifest,
    read_manifest_lenient,
    seed_database_store,
    write_manifest,
)

__all__ = [
    "BUDGET_MODES",
    "VARIANTS",
    "ChaseJob",
    "ManifestError",
    "database_fingerprint",
    "encode_database_snapshot",
    "program_fingerprint",
    "job_from_manifest_entry",
    "manifest_entry",
    "parse_manifest_text",
    "read_manifest",
    "read_manifest_lenient",
    "seed_database_store",
    "write_manifest",
    "BudgetDecision",
    "BudgetPolicy",
    "DEFAULT_ATOM_CAP",
    "DEFAULT_DEPTH_CAP",
    "CacheEntry",
    "ResultCache",
    "lineage_cache_key",
    "result_cache_key",
    "BatchExecutor",
    "JobResult",
    "execute_job",
    "execute_payload",
]
