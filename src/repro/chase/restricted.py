"""The restricted (standard) chase.

The restricted chase only fires a trigger when the head is not already
satisfied by *some* extension of the frontier binding, so it produces
the smallest materialisation of the three variants.  Its result depends
on the order of trigger applications; the engine below applies all
active triggers level by level, which yields one particular fair
derivation.  The paper's introduction recommends it for RAM-based
implementations; we include it as a comparison baseline.

Both engines decide activeness through one implementation per data
plane: :func:`head_extension_exists` for term-level instances (behind
:meth:`Trigger.is_active_restricted`, the legacy engine's test) and
:meth:`~repro.chase.store_plan.StoreCompiledRule.head_satisfied` on the
store path, which the equivalence suite pins to the same verdicts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.model.atoms import Atom
from repro.model.homomorphism import Substitution, extend_homomorphism
from repro.model.instance import Database, Instance
from repro.model.tgd import TGDSet
from repro.obs.observer import RunObserver
from repro.chase.engine import ChaseBudget, ChaseResult
from repro.chase.semi_oblivious import SemiObliviousChase
from repro.chase.trigger import Trigger


def head_extension_exists(
    head_atoms: Sequence[Atom], instance: Instance, frontier_binding: Substitution
) -> bool:
    """True iff some ``h' ⊇ h|fr(σ)`` maps the head into ``instance``.

    The single term-level implementation of the restricted chase's
    head-satisfaction test (the negation of activeness), used by the
    trigger API.
    """
    return extend_homomorphism(head_atoms, instance, frontier_binding) is not None


class RestrictedChase(SemiObliviousChase):
    """Restricted chase engine: fire only when the head is not yet satisfied.

    Trigger identity and null labelling are the semi-oblivious chase's:
    a trigger is keyed by ``(σ, h|fr(σ))`` and its nulls are labelled
    ``⊥^z_{σ,h|fr(σ)}``.  The variants differ only in when a trigger is
    active.  The labels stay fresh because each key fires at most once
    per run, and a key that fired before a resume or checkpoint restart
    has its head satisfied in the restored store (head satisfaction is
    monotone), so it never fires again.
    """

    def is_active(self, trigger: Trigger, instance: Instance) -> bool:
        return trigger.is_active_restricted(instance)

    # -- store engine --------------------------------------------------------

    def _begin_store_run(self) -> None:
        self._satisfied_memo = set()

    def store_evaluate(self, store, rule, canonical, key):
        # Head satisfaction is monotone (the chase only adds facts), so
        # a positive verdict is memoised for the rest of the run under
        # the trigger's frontier key.  The driver's applied-key memo
        # already covers evaluated triggers; this memo additionally
        # keeps triggers that stay pending (depth truncation) from
        # re-running the head join.
        memo = self._satisfied_memo
        if key in memo:
            return None
        if rule.head_satisfied(store, canonical):
            memo.add(key)
            return None
        return rule.result_facts(store, canonical)


def restricted_chase(
    database: Database,
    tgds: TGDSet,
    budget: Optional[ChaseBudget] = None,
    record_derivation: bool = True,
    engine: Optional[str] = None,
    resume_from: Optional[object] = None,
    database_size: Optional[int] = None,
    observers: Sequence[RunObserver] = (),
    checkpoint: Optional[object] = None,
) -> ChaseResult:
    """Run one fair restricted-chase derivation of ``database`` w.r.t. ``tgds``.

    ``resume_from`` continues a terminated restricted chase after a
    database delta.  Head satisfaction is monotone, so the resumed run
    is itself a valid fair restricted-chase derivation of the enlarged
    database — but because the restricted chase is order-dependent in
    general, it need not equal the cold derivation atom for atom.  On
    order-invariant programs (full TGDs, the ``restricted_heavy``
    family) the two agree *exactly*: restricted nulls carry the
    semi-oblivious label ``⊥^z_{σ,h|fr(σ)}``, so equal fired triggers
    mean equal atoms.  ``checkpoint`` restarts an interrupted run and
    reproduces the uninterrupted one, summary and instance (see
    :meth:`~repro.chase.engine.BaseChaseEngine.run`).
    """
    chase_engine = RestrictedChase(
        tgds, budget=budget, record_derivation=record_derivation, engine=engine,
        observers=observers,
    )
    return chase_engine.run(
        database,
        resume_from=resume_from,
        database_size=database_size,
        checkpoint=checkpoint,
    )
