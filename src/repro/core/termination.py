"""High-level termination API: bounds, verdicts and certificates.

The paper's Target Characterisation states that, for
``C ∈ {SL, L, G}``, the following are equivalent: (1) ``Σ ∈ CT_D``,
(2) ``|chase(D, Σ)| ≤ |D| · f_C(Σ)``, and (3) a syntactic
weak-acyclicity condition holds.  :func:`certify` evaluates all three
faces on a concrete input and reports whether they agree, which is both
a user-facing audit tool and the backbone of the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.model.instance import Database
from repro.model.tgd import TGDSet
from repro.chase.engine import ChaseBudget, ChaseResult
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.bounds import Bound, depth_bound, size_bound
from repro.core.classify import TGDClass, classify
from repro.core.decision import DecisionMethod, TerminationVerdict, syntactic_decision


def chase_size_bound(database: Database, tgds: TGDSet) -> Bound:
    """The characterisation bound ``|D| · f_C(Σ)`` for the class of ``Σ``."""
    return size_bound(len(database), tgds)


@dataclass
class TerminationCertificate:
    """Evidence connecting the three faces of the Target Characterisation.

    Attributes
    ----------
    verdict:
        The syntactic decision (item 3).
    size_bound:
        ``|D| · f_C(Σ)`` (item 2), a :class:`~repro.core.bounds.Bound`.
    depth_bound:
        ``d_C(Σ)``, the database-independent depth bound.
    chase_result:
        The materialised chase when it was run and fit in the budget.
    size_within_bound / depth_within_bound:
        Whether the measured size and depth respect the bounds
        (``None`` when the chase was not materialised).
    consistent:
        True when all available pieces of evidence agree, i.e. the
        syntactic verdict matches the chase's observed (non-)termination
        and, for terminating inputs, both bounds hold.
    """

    verdict: TerminationVerdict
    tgd_class: TGDClass
    size_bound: Bound
    depth_bound: Bound
    chase_result: Optional[ChaseResult] = None
    size_within_bound: Optional[bool] = None
    depth_within_bound: Optional[bool] = None

    @property
    def consistent(self) -> bool:
        if self.chase_result is None:
            return True
        if self.verdict.terminates and self.chase_result.terminated:
            return bool(self.size_within_bound) and bool(self.depth_within_bound)
        if self.verdict.terminates != self.chase_result.terminated:
            # A budget-limited chase run cannot refute a positive verdict.
            return bool(self.verdict.terminates) and not self.chase_result.terminated
        return True


def certify(
    database: Database,
    tgds: TGDSet,
    run_chase: bool = True,
    chase_budget: Optional[ChaseBudget] = None,
) -> TerminationCertificate:
    """Check the three-way characterisation on a concrete input.

    The chase materialisation is skipped when ``run_chase`` is False or
    when the syntactic verdict is negative and no explicit budget was
    supplied (materialising a provably infinite chase is pointless).
    """
    verdict = syntactic_decision(database, tgds)
    tgd_class = classify(tgds)
    bound = size_bound(len(database), tgds, tgd_class)
    d_bound = depth_bound(tgds, tgd_class)
    certificate = TerminationCertificate(
        verdict=verdict,
        tgd_class=tgd_class,
        size_bound=bound,
        depth_bound=d_bound,
    )
    should_run = run_chase and (verdict.terminates or chase_budget is not None)
    if not should_run:
        return certificate
    budget = chase_budget or ChaseBudget(max_atoms=int(bound) if bound <= 500_000 else 500_000)
    result = semi_oblivious_chase(database, tgds, budget=budget, record_derivation=False)
    certificate.chase_result = result
    if result.terminated:
        certificate.size_within_bound = result.size <= bound
        certificate.depth_within_bound = result.max_depth <= d_bound
    return certificate
