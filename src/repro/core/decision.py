"""Decision procedures for ``ChTrm(C)`` (Theorems 6.6, 7.7, 8.5).

Three procedures are provided:

* the *syntactic* decider, which implements the paper's
  characterisations: ``D``-weak-acyclicity for SL, weak-acyclicity of
  ``simple(Σ)`` w.r.t. ``simple(D)`` for L, and weak-acyclicity of
  ``gsimple(Σ) = simple(lin(Σ))`` w.r.t. ``gsimple(D)`` for G.  The
  database enters only through its schema (Definition 6.1), so the L
  and G branches compute ``sch(simple(D))`` and ``sch(gsimple(D))``
  directly and never build the simplified database;
* the *naive* decider, which materialises the chase and compares its
  size against the bound ``|D| · f_C(Σ)`` of item (2) of the
  characterisations (three-valued: the theoretical bound may exceed the
  practical atom budget);
* the *UCQ* decider for SL and L data complexity, which evaluates a
  database-independent UCQ over ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from repro.model.instance import Database
from repro.model.tgd import TGDSet
from repro.chase.engine import ChaseBudget, ChaseResult
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.bounds import size_bound
from repro.core.classify import TGDClass, classify
from repro.core.linearization import linearize
from repro.core.simplification import simplified_program, simplified_schema, simplify_program
from repro.core.ucq import TerminationUCQ, build_termination_ucq
from repro.core.weak_acyclicity import weak_acyclicity_report


class DecisionMethod(Enum):
    """How a termination verdict was obtained."""

    WEAK_ACYCLICITY = "weak-acyclicity"
    SIMPLIFICATION = "simplification + weak-acyclicity"
    LINEARIZATION = "linearization + simplification + weak-acyclicity"
    NAIVE_CHASE = "naive chase materialisation"
    UCQ = "UCQ evaluation"


@dataclass
class TerminationVerdict:
    """The answer to ``Σ ∈ CT_D``?

    ``terminates`` is ``None`` when the procedure could not decide (the
    naive decider with a practical cap below the theoretical bound, or
    an arbitrary TGD set outside the guarded fragment).
    """

    terminates: Optional[bool]
    method: DecisionMethod
    tgd_class: TGDClass
    details: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.terminates)


# --------------------------------------------------------------------------
# Syntactic decision (the paper's characterisations)
# --------------------------------------------------------------------------


def syntactic_decision(database: Database, tgds: TGDSet) -> TerminationVerdict:
    """Decide ``Σ ∈ CT_D`` via the class-specific syntactic criterion."""
    tgd_class = classify(tgds)
    if tgd_class is TGDClass.SIMPLE_LINEAR:
        report = weak_acyclicity_report(tgds, database)
        return TerminationVerdict(
            terminates=report.weakly_acyclic_wrt_database,
            method=DecisionMethod.WEAK_ACYCLICITY,
            tgd_class=tgd_class,
            details={"report": report},
        )
    if tgd_class is TGDClass.LINEAR:
        simple_program = simplified_program(tgds)
        report = weak_acyclicity_report(simple_program, simplified_schema(database))
        return TerminationVerdict(
            terminates=report.weakly_acyclic_wrt_database,
            method=DecisionMethod.SIMPLIFICATION,
            tgd_class=tgd_class,
            details={
                "report": report,
                "simplified_rule_count": len(simple_program),
            },
        )
    if tgd_class is TGDClass.GUARDED:
        linearized = linearize(database, tgds)
        gsimple_program = simplify_program(linearized.program)
        report = weak_acyclicity_report(
            gsimple_program, simplified_schema(linearized.database)
        )
        return TerminationVerdict(
            terminates=report.weakly_acyclic_wrt_database,
            method=DecisionMethod.LINEARIZATION,
            tgd_class=tgd_class,
            details={
                "report": report,
                "linearized_rule_count": len(linearized.program),
                "type_count": len(linearized.types),
                "gsimple_rule_count": len(gsimple_program),
            },
        )
    raise ValueError(
        "the syntactic decision procedure covers SL, L and G; "
        "use naive_decision for arbitrary TGDs (ChTrm(TGD) is undecidable)"
    )


# --------------------------------------------------------------------------
# Naive decision (materialise and compare against the size bound)
# --------------------------------------------------------------------------


def naive_decision(
    database: Database,
    tgds: TGDSet,
    practical_cap: int = 500_000,
) -> TerminationVerdict:
    """Decide by running the chase against the bound ``|D| · f_C(Σ)``.

    If the chase reaches a fixpoint the answer is *yes*.  If it exceeds
    the theoretical bound the answer is *no* (item (2) of the
    characterisations).  If it exceeds only the practical cap — the
    theoretical bound being astronomically larger — the answer is
    *unknown* (``None``).
    """
    tgd_class = classify(tgds)
    # Arbitrary TGDs have no bound (Proposition 4.2).
    bound = size_bound(len(database), tgds, tgd_class) if tgd_class.has_paper_bounds else None
    cap = int(bound) if bound is not None and bound < practical_cap else practical_cap
    budget = ChaseBudget(max_atoms=max(cap, len(database) + 1))
    result = semi_oblivious_chase(database, tgds, budget=budget, record_derivation=False)
    if result.terminated:
        terminates: Optional[bool] = True
    elif bound is not None and result.size > bound:
        terminates = False
    else:
        terminates = None
    return TerminationVerdict(
        terminates=terminates,
        method=DecisionMethod.NAIVE_CHASE,
        tgd_class=tgd_class,
        details={
            "chase_result": result,
            "theoretical_bound": bound,
            "practical_cap": cap,
        },
    )


# --------------------------------------------------------------------------
# UCQ decision (data complexity, Theorems 6.6 and 7.7)
# --------------------------------------------------------------------------


def ucq_decision(database: Database, tgds: TGDSet) -> TerminationVerdict:
    """Decide via the database-independent UCQ ``Q_Σ`` (SL and L only).

    ``Q_Σ`` is built once per program and reused for every database,
    the data-complexity setting of the theorems.
    """
    tgd_class = classify(tgds)
    ucq = tgds.memo(TerminationUCQ, lambda: build_termination_ucq(tgds))
    violated = ucq.witnessed_by(database)
    return TerminationVerdict(
        terminates=not violated,
        method=DecisionMethod.UCQ,
        tgd_class=tgd_class,
        details={"ucq_size": len(ucq)},
    )


# --------------------------------------------------------------------------
# Dispatch
# --------------------------------------------------------------------------


def decide_termination(
    database: Database,
    tgds: TGDSet,
    method: str = "auto",
    practical_cap: int = 500_000,
) -> TerminationVerdict:
    """Decide ``Σ ∈ CT_D`` with the requested (or best available) method.

    ``method`` is one of ``"auto"``, ``"syntactic"``, ``"naive"`` or
    ``"ucq"``.  ``auto`` uses the syntactic procedure for guarded sets
    and falls back to the (possibly inconclusive) naive procedure for
    arbitrary TGDs.
    """
    tgd_class = classify(tgds)
    if method == "syntactic":
        return syntactic_decision(database, tgds)
    if method == "naive":
        return naive_decision(database, tgds, practical_cap=practical_cap)
    if method == "ucq":
        return ucq_decision(database, tgds)
    if method != "auto":
        raise ValueError(f"unknown decision method {method!r}")
    if tgd_class is TGDClass.ARBITRARY:
        return naive_decision(database, tgds, practical_cap=practical_cap)
    return syntactic_decision(database, tgds)
