"""Cross-process determinism of the decision pipeline.

Terms and predicates cache a hash salted with a string tag.  A class
object as salt hashes by its memory address, which differs between
interpreters even under one fixed ``PYTHONHASHSEED``; set iteration
orders then differ, and with them the numbering of ``lin(Σ)`` rules and
the witness cycle a report picks.  Two fresh processes with the same
seed must print the same text.
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


def _run(seed: str) -> str:
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": seed},
    ).stdout


def test_linearize_and_report_print_identically_in_two_processes():
    first, second = _run("0"), _run("0")
    # The input is non-trivial: a non-uniform violation with a witness.
    assert "|lin" in first and "False False" in first and "=*=>" in first
    assert first == second


def test_cached_hashes_are_salted_with_strings():
    assert hash(Constant("a")) == hash(("Constant", "a"))
    assert hash(Variable("a")) == hash(("Variable", "a"))
    assert hash(Predicate("R", 2)) == hash(("Predicate", "R", 2))
