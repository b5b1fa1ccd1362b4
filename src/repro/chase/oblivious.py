"""The oblivious chase.

The oblivious chase is the most eager variant: a trigger ``(σ, h)`` is
identified by the *whole* body homomorphism, so two triggers that agree
on the frontier but differ elsewhere both fire and invent distinct
nulls.  It terminates on strictly fewer inputs than the semi-oblivious
chase and is included as an ablation baseline (the paper's bounds are
specific to the semi-oblivious variant).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.model.atoms import Atom
from repro.model.instance import Database, Instance
from repro.model.tgd import TGDSet
from repro.obs.observer import RunObserver
from repro.chase.engine import BaseChaseEngine, ChaseBudget, ChaseResult
from repro.chase.trigger import Trigger


class ObliviousChase(BaseChaseEngine):
    """Oblivious chase engine: trigger identity is ``(σ, h)`` in full."""

    uses_frontier_identity = False

    def trigger_key(self, trigger: Trigger):
        return trigger.full_key()

    def is_active(self, trigger: Trigger, instance: Instance) -> bool:
        # The oblivious chase fires every not-yet-fired trigger.  Its
        # nulls are labelled by the whole binding, so a fired trigger's
        # result is stored and stays so: activeness reduces to result
        # containment with the oblivious null labelling (the legacy
        # loop's applied memo only skips that test).
        return any(a not in instance for a in self.trigger_result(trigger))

    def trigger_result(self, trigger: Trigger) -> List[Atom]:
        full_binding = {name: term for name, term in trigger.homomorphism}
        return trigger.result(null_binding=full_binding)

    store_evaluate = BaseChaseEngine._store_evaluate_by_containment


def oblivious_chase(
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
    """Run the oblivious chase of ``database`` w.r.t. ``tgds``.

    Supports pre-seeded fact stores and incremental ``resume_from``
    snapshots like :func:`~repro.chase.semi_oblivious.semi_oblivious_chase`
    (the oblivious result is unique too, so resumed and cold runs
    produce equal instances).
    """
    chase_engine = ObliviousChase(
        tgds, budget=budget, record_derivation=record_derivation, engine=engine,
        observers=observers,
    )
    return chase_engine.run(
        database,
        resume_from=resume_from,
        database_size=database_size,
        checkpoint=checkpoint,
    )
