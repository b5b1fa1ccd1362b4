#!/usr/bin/env python3
"""Termination audit: classify an ontology and explain the verdict.

Given an ontology and a database, the audit reports:

* the syntactic class (SL ⊊ L ⊊ G ⊊ TGD) — it selects the procedure;
* the termination verdict and the technique that produced it
  (weak-acyclicity, simplification, linearization, or bounded chase);
* the offending cycle and the supporting database predicates when the
  verdict is negative — the actionable piece for an ontology engineer;
* the size / depth bounds when the verdict is positive.

Run with::

    python examples/termination_audit.py
"""

from repro import parse_database, parse_program
from repro.core import certify, classify
from repro.core.decision import naive_decision, syntactic_decision
from repro.generators.families import example_7_1
from repro.generators.turing import halting_machine, machine_database, sigma_star


def audit(name: str, database, tgds) -> None:
    print(f"=== {name} ===")
    tgd_class = classify(tgds)
    print(f"class: {tgd_class.value} ({len(tgds)} rules, {len(database)} facts)")
    if tgd_class.value == "TGD":
        verdict = naive_decision(database, tgds)
        print(f"outside the guarded fragment; bounded-chase verdict: {verdict.terminates}")
        print()
        return
    verdict = syntactic_decision(database, tgds)
    print(f"terminates: {verdict.terminates}  via {verdict.method.value}")
    report = verdict.details.get("report")
    if verdict.terminates:
        certificate = certify(database, tgds, run_chase=True)
        print(f"size bound |D|*f_C: {certificate.size_bound.magnitude()}")
        print(f"depth bound d_C   : {certificate.depth_bound.magnitude()}")
        if certificate.chase_result is not None:
            print(
                f"measured          : {certificate.chase_result.size} atoms, "
                f"depth {certificate.chase_result.max_depth}"
            )
    elif report is not None:
        offenders = sorted(p.name for p in report.supporting_predicates)
        print(f"supporting database predicates: {offenders}")
        if report.witness_cycle:
            print("offending cycle:")
            for edge in report.witness_cycle:
                print("   ", edge)
    print()


def main() -> None:
    # A guarded ontology whose termination depends on the data.
    ontology = parse_program(
        """
        Team(t), MemberOf(p, t) -> exists q . Mentors(q, p), MemberOf(q, t)
        Mentors(q, p) -> Knows(q, p)
        """
    )
    audit("guarded mentoring ontology / supported data",
          parse_database("Team(core).\nMemberOf(ada, core)."), ontology)
    audit("guarded mentoring ontology / unsupported data",
          parse_database("Knows(ada, bob)."), ontology)

    database, tgds = example_7_1()
    audit("Example 7.1 (linear, needs simplification)", database, tgds)

    audit("Appendix A: Sigma* with a halting machine",
          machine_database(halting_machine()), sigma_star())


if __name__ == "__main__":
    main()
