"""Cost gates: reading a paper bound is cheap on every input.

The bounds are :class:`~repro.core.bounds.Bound` values and never built
as integers, so the conformance monitor and the budget policy, which
see every job, stay under 5 ms even where ``d_G`` has hundreds of
millions of bits (``guarded_lower_bound(2, 2, 1)``).
"""

import time

from repro.core.decision import naive_decision
from repro.generators.families import (
    example_7_1,
    guarded_lower_bound,
    linear_lower_bound,
    sl_lower_bound,
)
from repro.generators.scenarios import data_exchange_scenario, university_ontology_scenario
from repro.generators.workloads import mixed_workload_jobs
from repro.model.parser import parse_database, parse_program
from repro.obs.conformance import conformance_report
from repro.runtime import BudgetPolicy

GATE_SECONDS = 0.005

MENTORING = (
    "Team(t), MemberOf(p, t) -> exists q . Mentors(q, p), MemberOf(q, t)\n"
    "Mentors(q, p) -> Knows(q, p)"
)


def _inputs():
    """(name, database, program) for every input the gates cover."""
    for job in mixed_workload_jobs(200, seed=11):
        yield job.job_id, job.database, job.program
    families = {
        "sl": (sl_lower_bound, [(1, 2, 2), (2, 2, 1), (2, 3, 4)]),
        "linear": (linear_lower_bound, [(1, 2, 1), (2, 2, 2), (2, 3, 1)]),
        "guarded": (guarded_lower_bound, [(1, 1, 1), (1, 2, 1), (2, 2, 1)]),
    }
    for family, (build, parameters) in families.items():
        for n, m, ell in parameters:
            yield (f"{family}-{n}-{m}-{ell}", *build(n, m, ell))
    yield ("example-7-1", *example_7_1())
    yield "mentoring", parse_database("Knows(ada, bob)."), parse_program(MENTORING)
    for scenario in (
        university_ontology_scenario(),
        data_exchange_scenario(),
        data_exchange_scenario(weakly_acyclic=False),
    ):
        yield scenario.name, scenario.database, scenario.tgds


def _best_of_3(call) -> float:
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return min(seconds)


def test_conformance_and_budget_policy_cost_under_5ms_everywhere():
    policy = BudgetPolicy()
    slow = []
    for name, database, program in _inputs():
        summary = {
            "size": len(database) + 1000,
            "database_size": len(database),
            "max_depth": 50,
            "terminated": True,
        }
        conformance = _best_of_3(lambda: conformance_report(summary, program))
        derive = _best_of_3(lambda: policy.derive(program, len(database)))
        if max(conformance, derive) >= GATE_SECONDS:
            slow.append((name, round(conformance * 1e3, 2), round(derive * 1e3, 2)))
    assert not slow, f"over {GATE_SECONDS * 1e3} ms (name, conformance ms, derive ms): {slow}"


def test_naive_decision_on_a_guarded_ontology_never_builds_f_g():
    # |D| · f_G has ~1.9·10^8 bits: building it took about 90 s.
    database = parse_database("Knows(ada, bob).")
    start = time.perf_counter()
    verdict = naive_decision(database, parse_program(MENTORING))
    assert verdict.terminates is True
    assert verdict.details["theoretical_bound"].magnitude() == "~10^56413109"
    assert time.perf_counter() - start < 2.0

