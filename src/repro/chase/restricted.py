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

import itertools
from typing import List, Optional, Sequence

from repro.model.atoms import Atom
from repro.model.homomorphism import Substitution, extend_homomorphism
from repro.model.instance import Database, Instance
from repro.model.terms import Constant
from repro.model.tgd import TGDSet
from repro.chase.engine import BaseChaseEngine, ChaseBudget, ChaseResult
from repro.chase.trigger import Trigger


def head_extension_exists(
    head_atoms: Sequence[Atom], instance: Instance, frontier_binding: Substitution
) -> bool:
    """True iff some ``h' ⊇ h|fr(σ)`` maps the head into ``instance``.

    The single term-level implementation of the restricted chase's
    head-satisfaction test (the negation of activeness), used by the
    trigger API.  Runs on a compiled head plan cached per (head,
    frontier), so repeated checks of the same rule reuse one plan.
    """
    return extend_homomorphism(head_atoms, instance, frontier_binding) is not None


class RestrictedChase(BaseChaseEngine):
    """Restricted chase engine: fire only when the head is not yet satisfied."""

    uses_frontier_identity = True

    def __init__(self, tgds: TGDSet, budget: Optional[ChaseBudget] = None,
                 record_derivation: bool = True, compiled: bool = True,
                 engine: Optional[str] = None, probe=None, profile=None,
                 round_hook=None) -> None:
        super().__init__(tgds, budget=budget, record_derivation=record_derivation,
                         compiled=compiled, engine=engine, probe=probe,
                         profile=profile, round_hook=round_hook)
        self._fire_counter = itertools.count()
        self._satisfied_memo: set = set()

    def trigger_key(self, trigger: Trigger):
        # Like the semi-oblivious chase, a restricted-chase trigger never
        # needs to fire twice for the same frontier binding: after the
        # first application the head is satisfied by the invented nulls.
        return trigger.frontier_key()

    def is_active(self, trigger: Trigger, instance: Instance) -> bool:
        return trigger.is_active_restricted(instance)

    def trigger_result(self, trigger: Trigger) -> List[Atom]:
        # Nulls are fresh per application; a per-engine counter entry is
        # mixed into the label so distinct applications yield distinct
        # nulls while the depth bookkeeping (driven by the frontier
        # images in the binding) stays correct.
        binding = dict(trigger.frontier_binding())
        binding["__fire__"] = Constant(f"fire{next(self._fire_counter)}")
        return trigger.result(null_binding=binding)

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
        # The counter ticks for every fired trigger — full rules
        # included — to keep null numbering aligned with the legacy
        # engine; the constant itself is only interned when a null will
        # actually carry it.
        fire = next(self._fire_counter)
        fire_tid = (
            store.intern_term(Constant(f"fire{fire}")) if rule.has_existentials else -1
        )
        return rule.result_facts_fired(store, canonical, fire_tid)


def restricted_chase(
    database: Database,
    tgds: TGDSet,
    budget: Optional[ChaseBudget] = None,
    record_derivation: bool = True,
    compiled: bool = True,
    engine: Optional[str] = None,
    resume_from: Optional[object] = None,
    database_size: Optional[int] = None,
    probe: Optional[object] = None,
    profile: Optional[object] = None,
    round_hook: Optional[object] = None,
    checkpoint: Optional[object] = None,
) -> ChaseResult:
    """Run one fair restricted-chase derivation of ``database`` w.r.t. ``tgds``.

    ``resume_from`` continues a terminated restricted chase after a
    database delta.  Head satisfaction is monotone, so the resumed run
    is itself a valid fair restricted-chase derivation of the enlarged
    database — but because the restricted chase is order-dependent in
    general, it need not equal the cold derivation atom for atom; on
    order-invariant programs (full TGDs, the ``restricted_heavy``
    family) the two agree up to fire numbering
    (:func:`~repro.model.serialization.fire_invariant_instance_key`).
    """
    if checkpoint is not None:
        # A checkpoint cannot restore the per-run fire counter that
        # numbers restricted-chase nulls, so a resumed run would reuse
        # labels and silently merge facts.  Restricted retries run cold.
        raise ValueError("the restricted chase does not support checkpoint resume")
    chase_engine = RestrictedChase(
        tgds, budget=budget, record_derivation=record_derivation, compiled=compiled,
        engine=engine, probe=probe, profile=profile, round_hook=round_hook,
    )
    return chase_engine.run(database, resume_from=resume_from, database_size=database_size)
