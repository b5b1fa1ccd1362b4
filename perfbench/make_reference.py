"""Regenerate ``perfbench/reference.json``, the expected outputs.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Run it only when the benchmark's inputs change, never to make a change
to the program pass: the file is what every run is checked against.
It records

* for ``materialize``, each input's result size, database size, depth
  and termination;
* for the mixed manifest, a digest of each job's result fields from a
  serial in-process run.  Jobs that take more than a quarter of their
  wall budget here are left out of the workloads, so that no op can run
  into its budget on a slower machine;
* for ``decide``, the syntactic verdict of every (program, database)
  pair.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _path in (str(HERE), str(HERE.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.chase import VARIANT_RUNNERS  # noqa: E402
from repro.core import decide_termination  # noqa: E402
from repro.generators.workloads import mixed_workload_jobs  # noqa: E402
from repro.runtime import BatchExecutor  # noqa: E402

from stackbench.workloads import (  # noqa: E402
    MANIFEST_SEED,
    MATERIALIZE_INPUTS,
    SERVICE_MANIFEST_JOBS,
    decide_inputs,
    summary_digest,
)

#: Share of a job's wall budget it may use here to stay in the workloads.
BUDGET_SHARE = 0.25


def materialize_reference(pick: int) -> dict:
    reference = {}
    for name, spec in MATERIALIZE_INPUTS.items():
        database, tgds = spec[pick]()
        result = VARIANT_RUNNERS[spec[0]](database, tgds, record_derivation=False)
        reference[name] = {
            "size": len(result.instance),
            "database_size": result.database_size,
            "max_depth": result.max_depth,
            "terminated": result.terminated,
        }
    return reference


def job_reference(count: int) -> dict:
    jobs = mixed_workload_jobs(count, MANIFEST_SEED)
    digests = {}
    for job, result in zip(jobs, BatchExecutor(workers=1).run_all(jobs)):
        budget = job.timeout_seconds
        too_slow = budget is not None and (result.worker_seconds or 0.0) > BUDGET_SHARE * budget
        if result.status == "ok" and not too_slow:
            digests[job.job_id] = summary_digest(result.summary)
    return digests


def main() -> None:
    reference = {
        "manifest_seed": MANIFEST_SEED,
        "materialize": {"full": materialize_reference(1), "smoke": materialize_reference(2)},
        "jobs": job_reference(SERVICE_MANIFEST_JOBS),
        "decide": {
            name: decide_termination(database, program, method="syntactic").terminates
            for smoke in (False, True)
            for name, _, program, database in decide_inputs(smoke)
        },
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}: {len(reference['jobs'])} job digests")


if __name__ == "__main__":
    main()
