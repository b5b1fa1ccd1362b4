"""Triggers and trigger application (Definition 3.1).

A trigger for ``Σ`` on an instance ``I`` is a pair ``(σ, h)`` where
``σ ∈ Σ`` and ``h`` is a homomorphism from ``body(σ)`` to ``I``.  Its
result maps each frontier variable to its image under ``h`` and each
existentially quantified variable ``z`` to the labelled null
``⊥^z_{σ, h|fr(σ)}``.  A trigger is *active* (for the semi-oblivious
chase) if its result is not already contained in ``I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.model.atoms import Atom
from repro.model.homomorphism import Substitution, apply_substitution
from repro.model.instance import Instance
from repro.model.terms import Term, Variable, make_null


@dataclass(frozen=True)
class Trigger:
    """A trigger ``(σ, h)``: a rule together with a body homomorphism."""

    tgd: "TGD"  # forward reference to avoid import cycle at type level
    homomorphism: Tuple[Tuple[str, Term], ...]

    @staticmethod
    def from_substitution(tgd, substitution: Substitution) -> "Trigger":
        """Build a trigger from a rule and a body substitution."""
        items = tuple(
            sorted(((var.name, term) for var, term in substitution.items()), key=lambda kv: kv[0])
        )
        return Trigger(tgd=tgd, homomorphism=items)

    def substitution(self) -> Dict[Variable, Term]:
        return {Variable(name): term for name, term in self.homomorphism}

    def frontier_binding(self) -> Dict[str, Term]:
        """``h|fr(σ)`` as a mapping from variable names to ground terms."""
        frontier_names = {v.name for v in self.tgd.frontier()}
        return {name: term for name, term in self.homomorphism if name in frontier_names}

    def frontier_key(self) -> Tuple[str, Tuple[Tuple[str, Term], ...]]:
        """Canonical identity of the trigger for the semi-oblivious chase.

        Two triggers with the same rule and the same frontier binding
        produce the same result, so the chase never needs to apply both.
        """
        binding = tuple(sorted(self.frontier_binding().items(), key=lambda kv: kv[0]))
        return (self.tgd.rule_id, binding)

    def full_key(self) -> Tuple[str, Tuple[Tuple[str, Term], ...]]:
        """Identity used by the oblivious chase (keyed by the full body image)."""
        return (self.tgd.rule_id, self.homomorphism)

    # -- results -----------------------------------------------------------

    def result(self, null_binding: Optional[Dict[str, Term]] = None) -> List[Atom]:
        """``result(σ, h)``: the head instantiated with frontier images and nulls.

        ``null_binding`` overrides the binding used to *label* the
        invented nulls.  The semi-oblivious and restricted chases use
        the frontier binding (the default), so a null is
        ``⊥^z_{σ,h|fr(σ)}``; the oblivious chase passes the full body
        binding.
        """
        substitution = self.substitution()
        label_binding = null_binding if null_binding is not None else self.frontier_binding()
        mapping: Dict[Variable, Term] = {}
        frontier = self.tgd.frontier()
        for variable in self.tgd.head_variables():
            if variable in frontier:
                mapping[variable] = substitution[variable]
            else:
                mapping[variable] = make_null(self.tgd.rule_id, variable.name, label_binding)
        return [apply_substitution(a, mapping) for a in self.tgd.head]

    # -- activeness ----------------------------------------------------------

    def is_active_semi_oblivious(self, instance: Instance) -> bool:
        """Active iff ``result(σ, h) ⊄ I`` (Definition 3.1)."""
        return any(a not in instance for a in self.result())

    def is_active_restricted(self, instance: Instance) -> bool:
        """Active for the restricted chase iff no head extension exists.

        The restricted (standard) chase only fires a trigger when there
        is *no* homomorphism ``h' ⊇ h|fr(σ)`` from the head into the
        instance.  Delegates to the single shared implementation
        (:func:`repro.chase.restricted.head_extension_exists`) so the
        trigger API and the engines cannot drift; the verdict is a pure
        existence check, so the candidate exploration order underneath
        cannot change it.
        """
        from repro.chase.restricted import head_extension_exists

        frontier = self.tgd.frontier()
        substitution = self.substitution()
        seed: Substitution = {v: substitution[v] for v in frontier}
        return not head_extension_exists(self.tgd.head, instance, seed)

    def guard_image(self) -> Optional[Atom]:
        """The image of the rule's guard atom, if the rule is guarded.

        This is the parent node used when building the guarded chase
        forest (Section 5).
        """
        guard = self.tgd.guard()
        if guard is None:
            return None
        return apply_substitution(guard, self.substitution())
