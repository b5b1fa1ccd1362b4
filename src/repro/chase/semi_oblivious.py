"""The semi-oblivious chase (Section 3).

The semi-oblivious chase identifies two triggers ``(σ, h)`` and
``(σ, g)`` whenever ``h`` and ``g`` agree on the frontier of ``σ``: the
nulls they invent carry the same label, so their results coincide and
only one of them ever fires.  Its result ``chase(D, Σ)`` is unique
(independent of the derivation order) which is what makes the
termination problem well defined.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.model.atoms import Atom
from repro.model.instance import Database, Instance
from repro.model.tgd import TGDSet
from repro.obs.observer import RunObserver
from repro.chase.engine import BaseChaseEngine, ChaseBudget, ChaseResult
from repro.chase.trigger import Trigger


class SemiObliviousChase(BaseChaseEngine):
    """Semi-oblivious chase engine: trigger identity is ``(σ, h|fr(σ))``."""

    uses_frontier_identity = True

    def trigger_key(self, trigger: Trigger):
        return trigger.frontier_key()

    def is_active(self, trigger: Trigger, instance: Instance) -> bool:
        return trigger.is_active_semi_oblivious(instance)

    def trigger_result(self, trigger: Trigger) -> List[Atom]:
        return trigger.result()

    # Class-level alias, not a wrapper def: store_evaluate runs once
    # per considered trigger, so the extra frame would be measurable.
    store_evaluate = BaseChaseEngine._store_evaluate_by_containment


def semi_oblivious_chase(
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
    """Run the semi-oblivious chase of ``database`` w.r.t. ``tgds``.

    Returns a :class:`ChaseResult`; ``result.terminated`` is True iff
    the chase reached a fixpoint within the budget, in which case
    ``result.instance`` is ``chase(D, Σ)`` and ``result.max_depth`` is
    ``maxdepth(D, Σ)``.  ``engine`` picks the implementation
    (``"store"`` or ``"legacy"``, the rescan that serves as the
    benchmark baseline), and ``observers`` attach
    :class:`~repro.obs.observer.RunObserver` instrumentation.

    ``database`` may also be a pre-seeded
    :class:`~repro.model.store.FactStore` (store engine only), and
    ``resume_from`` a snapshot of a previously *terminated* run over a
    sub-database: the chase then replays incrementally from the new
    facts — because the semi-oblivious result is unique, the resumed
    instance equals the cold ``chase(D ∪ Δ, Σ)`` exactly.  See
    :meth:`~repro.chase.engine.BaseChaseEngine.run`.
    """
    chase_engine = SemiObliviousChase(
        tgds, budget=budget, record_derivation=record_derivation, engine=engine,
        observers=observers,
    )
    return chase_engine.run(
        database,
        resume_from=resume_from,
        database_size=database_size,
        checkpoint=checkpoint,
    )
