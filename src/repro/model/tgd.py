"""Tuple-generating dependencies (TGDs) and TGD sets.

A TGD is a constant-free sentence ``∀x̄∀ȳ (φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄))``.
We represent it as a body (tuple of atoms over variables), a head
(tuple of atoms over variables), and a stable identifier used to label
the nulls it invents.  The class hierarchy of the paper — simple linear
(SL) ⊊ linear (L) ⊊ guarded (G) ⊊ arbitrary TGDs — is exposed through
syntactic predicates on :class:`TGD` and :class:`TGDSet`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.model.atoms import Atom, Position, Predicate, atoms_schema, atoms_variables
from repro.model.terms import Constant, Term, Variable

_FRESH_RULE_COUNTER = itertools.count()

_T = TypeVar("_T")


def _fresh_rule_id() -> str:
    return f"r{next(_FRESH_RULE_COUNTER)}"


@dataclass(frozen=True)
class TGD:
    """A tuple-generating dependency ``body → ∃ z̄ head``.

    The body and head are non-empty tuples of atoms whose arguments are
    variables (constants are not allowed, matching the paper's
    definition of constant-free TGDs).
    """

    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]
    rule_id: str = field(default_factory=_fresh_rule_id)

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("a TGD must have a non-empty body")
        if not self.head:
            raise ValueError("a TGD must have a non-empty head")
        for a in self.body + self.head:
            for arg in a.args:
                if isinstance(arg, Constant):
                    raise ValueError(f"TGDs are constant-free, found {arg} in {a}")
                if not isinstance(arg, Variable):
                    raise ValueError(f"TGD atoms range over variables, found {arg!r}")

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        head = ", ".join(str(a) for a in self.head)
        existentials = sorted(v.name for v in self.existential_variables())
        prefix = f"exists {', '.join(existentials)} . " if existentials else ""
        return f"{body} -> {prefix}{head}"

    # -- variable structure ----------------------------------------------

    def body_variables(self) -> Set[Variable]:
        return atoms_variables(self.body)

    def head_variables(self) -> Set[Variable]:
        return atoms_variables(self.head)

    def frontier(self) -> Set[Variable]:
        """``fr(σ)``: variables shared between body and head."""
        return self.body_variables() & self.head_variables()

    def existential_variables(self) -> Set[Variable]:
        """Head variables that do not occur in the body."""
        return self.head_variables() - self.body_variables()

    # -- syntactic classes -------------------------------------------------

    def guard(self) -> Optional[Atom]:
        """The leftmost body atom containing all body variables, if any."""
        body_vars = self.body_variables()
        for a in self.body:
            if a.variables() >= body_vars:
                return a
        return None

    @property
    def is_guarded(self) -> bool:
        """True if some body atom guards all body variables."""
        return self.guard() is not None

    @property
    def is_linear(self) -> bool:
        """True if the body consists of a single atom."""
        return len(self.body) == 1

    @property
    def is_simple_linear(self) -> bool:
        """True if linear and no variable repeats in the body atom."""
        if not self.is_linear:
            return False
        args = self.body[0].args
        return len(set(args)) == len(args)

    @property
    def is_full(self) -> bool:
        """True if the TGD has no existentially quantified variables."""
        return not self.existential_variables()

    # -- derived data -----------------------------------------------------

    def schema(self) -> Set[Predicate]:
        """Predicates occurring in the TGD."""
        return atoms_schema(self.body + self.head)

    def atoms(self) -> Tuple[Atom, ...]:
        return self.body + self.head

    def positions_of_variable_in_body(self, variable: Variable) -> List[Position]:
        """``pos(body(σ), x)``."""
        positions: List[Position] = []
        for a in self.body:
            positions.extend(a.positions_of(variable))
        return positions

    def rename_apart(self, suffix: str) -> "TGD":
        """A copy with every variable renamed by appending ``suffix``.

        Used to guarantee the standard assumption that no two TGDs of a
        set share a variable.
        """
        mapping: Dict[Term, Term] = {
            v: Variable(f"{v.name}{suffix}") for v in self.body_variables() | self.head_variables()
        }
        return TGD(
            body=tuple(a.substitute(mapping) for a in self.body),
            head=tuple(a.substitute(mapping) for a in self.head),
            rule_id=self.rule_id,
        )


class TGDSet:
    """A finite set ``Σ`` of TGDs with the derived quantities of the paper.

    Exposes ``sch(Σ)``, ``ar(Σ)``, ``atoms(Σ)`` and the norm
    ``‖Σ‖ = |atoms(Σ)| · |sch(Σ)| · ar(Σ)`` used in the size bounds.

    Every artifact that depends on Σ alone — compiled chase plans,
    ``lin(Σ)`` rule expansions, ``simple(Σ)``, ``Q_Σ``, the special
    cycles of ``dg(Σ)`` — is built once per object through
    :meth:`memo` and reused by every chase and decision over it.  The
    memo lives and dies with the object; it is not part of the
    program's value (equality, hashing and pickles ignore it) and must
    never hold anything derived from a database.
    """

    def __init__(self, tgds: Iterable[TGD], name: str = "Sigma") -> None:
        self._tgds: Tuple[TGD, ...] = tuple(tgds)
        self.name = name
        self._memo: Dict[Hashable, Any] = {}
        if not self._tgds:
            raise ValueError("a TGD set must contain at least one TGD")
        ids = [t.rule_id for t in self._tgds]
        if len(ids) != len(set(ids)):
            raise ValueError("TGDs in a set must have distinct rule identifiers")

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[TGD]:
        return iter(self._tgds)

    def __len__(self) -> int:
        return len(self._tgds)

    def __getitem__(self, index: int) -> TGD:
        return self._tgds[index]

    def __str__(self) -> str:
        return "\n".join(str(t) for t in self._tgds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TGDSet):
            return NotImplemented
        return set(self._tgds) == set(other._tgds)

    def __hash__(self) -> int:
        return hash(frozenset(self._tgds))

    def __getstate__(self) -> Dict[str, Any]:
        # Memo entries hold compiled closures that do not pickle, and a
        # copy rebuilds them on demand anyway.
        state = self.__dict__.copy()
        state["_memo"] = {}
        return state

    # -- per-program memo -----------------------------------------------------

    def memo(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The artifact under ``key``, built by ``build()`` on first use.

        ``key`` names a Σ-only artifact and must not contain anything
        derived from a database.  Concurrent first uses may both build;
        either result is kept, which is harmless for pure artifacts.
        """
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, build())

    def predicates_in_order(self) -> Tuple[Predicate, ...]:
        """``sch(Σ)`` in order of first occurrence (rules, body then head)."""
        return self.memo(
            "predicates_in_order",
            lambda: tuple(
                dict.fromkeys(a.predicate for t in self._tgds for a in t.atoms())
            ),
        )

    # -- derived quantities ---------------------------------------------------

    def schema(self) -> Set[Predicate]:
        """``sch(Σ)``: the predicates occurring in Σ."""
        result: Set[Predicate] = set()
        for tgd in self._tgds:
            result |= tgd.schema()
        return result

    def arity(self) -> int:
        """``ar(Σ)``: the maximum arity over the schema of Σ."""
        return max((p.arity for p in self.schema()), default=0)

    def atom_count(self) -> int:
        """``|atoms(Σ)|``: number of atoms occurring in the TGDs of Σ."""
        return sum(len(t.body) + len(t.head) for t in self._tgds)

    def norm(self) -> int:
        """``‖Σ‖ = |atoms(Σ)| · |sch(Σ)| · ar(Σ)``."""
        return self.atom_count() * len(self.schema()) * self.arity()

    def by_rule_id(self) -> Dict[str, TGD]:
        return {t.rule_id: t for t in self._tgds}

    # -- syntactic classes ------------------------------------------------------

    @property
    def is_guarded(self) -> bool:
        return all(t.is_guarded for t in self._tgds)

    @property
    def is_linear(self) -> bool:
        return all(t.is_linear for t in self._tgds)

    @property
    def is_simple_linear(self) -> bool:
        return all(t.is_simple_linear for t in self._tgds)

    def rename_apart(self) -> "TGDSet":
        """Rename variables so that no two TGDs share a variable."""
        renamed = [t.rename_apart(f"_{i}") for i, t in enumerate(self._tgds)]
        return TGDSet(renamed, name=self.name)

    def predicates_in_bodies(self) -> Set[Predicate]:
        result: Set[Predicate] = set()
        for t in self._tgds:
            result |= atoms_schema(t.body)
        return result

    def predicates_in_heads(self) -> Set[Predicate]:
        result: Set[Predicate] = set()
        for t in self._tgds:
            result |= atoms_schema(t.head)
        return result
