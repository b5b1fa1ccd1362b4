"""The UCQ-based data-complexity procedure (Theorems 6.6 and 7.7).

For a fixed set ``Σ`` of simple linear (resp. linear) TGDs, the paper
builds a union of conjunctive queries ``Q_Σ`` that depends only on
``Σ`` such that, for every database ``D``, ``Σ`` is not
``D``-weakly-acyclic (resp. ``simple(Σ)`` is not
``simple(D)``-weakly-acyclic) iff ``D ⊨ Q_Σ``.  Building ``Q_Σ`` costs
whatever it costs, but it is a one-off, database-independent cost;
evaluating it is a fixed first-order query, which is the AC0 data
complexity claim.

Two evaluation modes are provided:

* :meth:`TerminationUCQ.evaluate` — the literal UCQ of the paper
  (single-atom CQs with repeated variables for the linear case);
* :meth:`TerminationUCQ.witnessed_by` — the equivalent direct test used
  by the decision procedures ("does the database contain a fact whose
  (simplified) predicate supports a special cycle?"), which is the
  criterion the UCQ is proved correct against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.model.atoms import Atom, Predicate
from repro.model.homomorphism import find_homomorphisms
from repro.model.instance import Database, Instance
from repro.model.terms import Variable
from repro.model.tgd import TGDSet
from repro.core.classify import TGDClass, classify
from repro.core.simplification import simplified_program, simplified_schema
from repro.core.weak_acyclicity import special_cycles


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A Boolean conjunctive query: a set of atoms over variables."""

    atoms: Tuple[Atom, ...]

    def holds_in(self, database: Database) -> bool:
        """True iff there is a homomorphism from the query into ``database``."""
        for _ in find_homomorphisms(self.atoms, database):
            return True
        return False

    def __str__(self) -> str:
        return " ∧ ".join(str(a) for a in self.atoms)


@dataclass(frozen=True)
class TerminationUCQ:
    """The UCQ ``Q_Σ`` together with the predicate-level criterion.

    ``disjuncts`` is the paper's query; ``violating_predicates`` (for
    SL) or ``violating_simplified_predicates`` (for L) is the set used
    by the direct criterion.
    """

    tgds_name: str
    tgd_class: TGDClass
    disjuncts: Tuple[ConjunctiveQuery, ...]
    violating_predicates: FrozenSet[Predicate]
    violating_simplified_predicates: FrozenSet[Predicate]

    def evaluate(self, database: Database) -> bool:
        """Evaluate the literal UCQ over ``database`` (D ⊨ Q_Σ?)."""
        return any(query.holds_in(database) for query in self.disjuncts)

    def witnessed_by(self, database: Database) -> bool:
        """Direct criterion: does some database fact support a special cycle?"""
        if self.tgd_class is TGDClass.SIMPLE_LINEAR:
            return bool(database.predicates() & self.violating_predicates)
        return not self.violating_simplified_predicates.isdisjoint(
            simplified_schema(database)
        )

    def __len__(self) -> int:
        return len(self.disjuncts)


def _fresh_variables(count: int, prefix: str) -> List[Variable]:
    return [Variable(f"{prefix}{i}") for i in range(1, count + 1)]


def _parse_simplified_name(predicate: Predicate) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """Recover ``(R, id-tuple)`` from a simplified predicate name ``R[i,...]``."""
    name = predicate.name
    if not name.endswith("]") or "[" not in name:
        return None
    base, _, suffix = name.partition("[")
    identifiers = tuple(int(part) for part in suffix[:-1].split(",") if part)
    return base, identifiers


def build_termination_ucq(tgds: TGDSet) -> TerminationUCQ:
    """Build ``Q_Σ`` for a simple linear or linear set of TGDs.

    For simple linear TGDs each disjunct is ``∃x̄ R(x̄)`` with distinct
    variables; for linear TGDs the disjuncts range over the simplified
    predicates ``R_ℓ̄`` and use repeated variables to express the
    equality constraints of ``ℓ̄``.
    """
    tgd_class = classify(tgds)
    if tgd_class is TGDClass.SIMPLE_LINEAR:
        violating = special_cycles(tgds).reaching
        disjuncts = []
        for predicate in sorted(violating, key=lambda p: (p.name, p.arity)):
            variables = _fresh_variables(predicate.arity, f"x_{predicate.name}_")
            disjuncts.append(ConjunctiveQuery((Atom(predicate, tuple(variables)),)))
        return TerminationUCQ(
            tgds_name=tgds.name,
            tgd_class=tgd_class,
            disjuncts=tuple(disjuncts),
            violating_predicates=frozenset(violating),
            violating_simplified_predicates=frozenset(),
        )
    if tgd_class is TGDClass.LINEAR:
        simplified = simplified_program(tgds)
        violating_simplified = special_cycles(simplified).reaching
        original_by_name = {p.name: p for p in tgds.schema()}
        disjuncts = []
        for predicate in sorted(violating_simplified, key=lambda p: (p.name, p.arity)):
            parsed = _parse_simplified_name(predicate)
            if parsed is None:
                continue
            base_name, identifiers = parsed
            original = original_by_name.get(base_name)
            if original is None:
                continue
            # Repeated variables encode the equalities required by ℓ̄.
            distinct = _fresh_variables(max(identifiers), f"x_{base_name}_")
            args = tuple(distinct[i - 1] for i in identifiers)
            disjuncts.append(ConjunctiveQuery((Atom(original, args),)))
        return TerminationUCQ(
            tgds_name=tgds.name,
            tgd_class=tgd_class,
            disjuncts=tuple(disjuncts),
            violating_predicates=frozenset(),
            violating_simplified_predicates=frozenset(violating_simplified),
        )
    raise ValueError(
        "the UCQ-based procedure is defined for simple linear and linear TGDs; "
        f"got class {tgd_class}"
    )
