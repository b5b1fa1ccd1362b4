"""Cross-process determinism of the decision pipeline and the chase.

Terms and predicates cache a hash salted with a string tag.  A class
object as salt hashes by its memory address, which differs between
interpreters even under one fixed ``PYTHONHASHSEED``; set iteration
orders then differ, and with them the numbering of ``lin(Σ)`` rules and
the witness cycle a report picks.  Instances iterate predicate-major in
insertion order, so no output may depend on the hash seed either:
processes under ``PYTHONHASHSEED`` 1 and 3 must print the same
``lin(Σ)`` and report text as one under 0, and processes under 0, 1
and 2 the same chase summaries, trigger counts included.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro
from repro.model.atoms import Predicate
from repro.model.terms import Constant, Variable

#: Linearize ``g-56-8`` of the ``decide`` inputs and report on
#: ``gsimple``; the witness cycle and the rule ids depend on set orders.
SCRIPT = """
from repro.core.linearization import linearize
from repro.core.simplification import simplified_schema, simplify_program
from repro.core.weak_acyclicity import weak_acyclicity_report
from repro.generators.random_programs import random_database, random_guarded_program

program = random_guarded_program(56)
database = random_database(program, 1056, fact_count=8, constant_count=4)
linearized = linearize(database, program)
for rule in linearized.program:
    print(rule.rule_id, rule)
gsimple = simplify_program(linearized.program)
report = weak_acyclicity_report(gsimple, simplified_schema(linearized.database))
print(report.uniformly_weakly_acyclic, report.weakly_acyclic_wrt_database)
print(sorted(str(p) for p in report.positions_on_special_cycles))
print(sorted(str(p) for p in report.supporting_predicates))
for edge in report.witness_cycle or ():
    print(edge)
"""


#: Print the existential-free random programs the restricted-chase
#: suites compare exactly; their heads must not depend on set order.
FULL_PROGRAMS_SCRIPT = """
from repro.generators.random_programs import random_full_program
from repro.model.serialization import program_to_text

for seed in range(12):
    print(program_to_text(random_full_program(seed)))
"""


#: Chase the six ``materialize`` inputs of the whole-stack benchmark at
#: full size, then a serial 200-job mixed batch, and print each
#: summary.  Summaries carry no wall times; the trigger counts in them
#: follow the order in which triggers are met.
CHASE_SCRIPT = """
import json
from repro.chase import VARIANT_RUNNERS
from repro.generators.families import guarded_lower_bound, linear_lower_bound, sl_lower_bound
from repro.generators.scenarios import university_ontology_scenario
from repro.generators.workloads import mixed_workload_jobs, restricted_heavy
from repro.runtime import BatchExecutor

university = university_ontology_scenario(students=3000, courses=300, professors=75, seed=3)
inputs = {
    "so-sl": ("semi-oblivious", sl_lower_bound(2, 3, 16)),
    "so-linear": ("semi-oblivious", linear_lower_bound(2, 2, 64)),
    "so-guarded": ("semi-oblivious", guarded_lower_bound(1, 1, 4)),
    "so-university": ("semi-oblivious", (university.database, university.tgds)),
    "ob-sl": ("oblivious", sl_lower_bound(2, 3, 16)),
    "re-heavy": ("restricted", restricted_heavy(100, 40)),
}
for name, (variant, (database, tgds)) in inputs.items():
    result = VARIANT_RUNNERS[variant](database, tgds, record_derivation=False)
    print(name, json.dumps(result.summary(), sort_keys=True))
for result in BatchExecutor(workers=1).run(mixed_workload_jobs(200, 11)):
    print(result.job_id, result.status, json.dumps(result.summary, sort_keys=True))
"""


def _run(seed: str, script: str = SCRIPT) -> str:
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": seed},
    ).stdout


def test_linearize_and_report_print_identically_in_two_processes():
    first = _run("0")
    # The input is non-trivial: a non-uniform violation with a witness.
    assert "|lin" in first and "False False" in first and "=*=>" in first
    assert first == _run("0")
    assert first == _run("1")
    assert first == _run("3")


def test_chase_summaries_do_not_depend_on_the_hash_seed():
    # The semi-oblivious university scenario's applied-trigger count
    # depends on the order in which triggers are met; a hash-ordered
    # instance makes it differ between these seeds.
    first = _run("0", CHASE_SCRIPT)
    lines = first.splitlines()
    assert len(lines) == 206 and lines[3].startswith("so-university ")
    assert all(" ok " in line for line in lines[6:])
    assert "telemetry" not in first and "profile" not in first
    assert first == _run("1", CHASE_SCRIPT)
    assert first == _run("2", CHASE_SCRIPT)


def test_random_full_programs_do_not_depend_on_the_hash_seed():
    # Seeds 0 and 1 happen to order the existentials alike; seed 3
    # does not, so a set-ordered generator fails here.
    first = _run("0", FULL_PROGRAMS_SCRIPT)
    assert first.count("->") >= 12
    assert first == _run("1", FULL_PROGRAMS_SCRIPT)
    assert first == _run("3", FULL_PROGRAMS_SCRIPT)


def test_cached_hashes_are_salted_with_strings():
    assert hash(Constant("a")) == hash(("Constant", "a"))
    assert hash(Variable("a")) == hash(("Variable", "a"))
    assert hash(Predicate("R", 2)) == hash(("Predicate", "R", 2))
