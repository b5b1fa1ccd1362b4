"""Terms: constants, variables, and labelled nulls.

The paper works with three disjoint countably infinite sets of terms:
constants ``C``, labelled nulls ``N``, and variables ``V``.  Labelled
nulls are the values invented by the chase for existentially quantified
variables.  In the semi-oblivious chase a null is uniquely determined by
the trigger restricted to the frontier, i.e. it carries the label
``⊥^z_{σ, h|fr(σ)}`` (Definition 3.1).  We therefore identify a null by
the triple (rule identifier, frontier binding, existential variable),
which makes trigger application idempotent by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant from the countably infinite set ``C``."""

    name: str
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Constants are hashed on every instance-index lookup; caching
        # the hash keeps that O(1) instead of re-hashing the name.  The
        # salt is a string, not the class: a class object hashes by its
        # address, which would make hashes (and so set orders) differ
        # between processes even under a fixed PYTHONHASHSEED.
        object.__setattr__(self, "_hash", hash(("Constant", self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constant({self.name!r})"

    def __str__(self) -> str:
        return self.name

    @property
    def depth(self) -> int:
        """Constants have depth 0 (Definition 4.3)."""
        return 0

    @property
    def is_null(self) -> bool:
        return False

    @property
    def is_constant(self) -> bool:
        return True

    @property
    def is_variable(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Variable:
    """A variable from the countably infinite set ``V``.

    Variables only appear inside TGDs and conjunctive queries, never in
    instances.
    """

    name: str
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Variables key substitution dicts on the join's hot path.
        # String salt for cross-process stable hashes (see Constant).
        object.__setattr__(self, "_hash", hash(("Variable", self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"?{self.name}"

    @property
    def is_null(self) -> bool:
        return False

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_variable(self) -> bool:
        return True


# Interning table for null identities.  A null's label nests the labels
# of the terms in its binding; comparing or hashing those labels
# structurally would recurse as deeply as the chase is, so each distinct
# label is assigned a small integer once and identity reduces to that
# integer.  The table only grows with the number of *distinct* nulls
# ever created in the process, which is bounded by the materialised
# chase sizes.
_NULL_INTERN: dict = {}

#: Guards the read-len-then-insert in ``_intern_uid`` and
#: ``intern_null_labels``: the chase service scheduler runs chases from
#: several threads of one process, and two racing inserts computing
#: ``len(_NULL_INTERN)`` before either lands would assign the same uid
#: to two distinct nulls (silent atom merging).  A single null pays one
#: uncontended acquire, a bulk decode one per run of nulls.
_NULL_INTERN_LOCK = threading.Lock()


def trim_null_intern(threshold: int = 0) -> int:
    """Clear the intern table once it exceeds ``threshold`` entries;
    returns how many entries were dropped (0 if under the threshold).

    The table grows with every distinct null the *process* ever
    creates — fine for one-shot batch runs, unbounded for the chase
    service daemon, which re-parses programs (fresh rule ids) per
    execution so no entry is ever reused.  Only call this when no
    ``Null`` from an earlier run can ever be compared with one created
    later: uids restart from zero, so a stale null held across the
    trim could alias a fresh one.  The daemon's scheduler calls it
    between executions, when results have already been reduced to
    plain text and no chase is running.
    """
    with _NULL_INTERN_LOCK:
        size = len(_NULL_INTERN)
        if size <= threshold:
            return 0
        _NULL_INTERN.clear()
        return size


def _intern_uid(rule_id: str, variable: str, binding: tuple) -> int:
    """The interned uid of the null label ``(rule_id, variable, binding)``."""
    key = (
        rule_id,
        variable,
        tuple(
            [
                # term_label, inlined: this runs once per binding term.
                (name, term.uid if isinstance(term, Null) else ("c", term.name))
                for name, term in binding
            ]
        ),
    )
    with _NULL_INTERN_LOCK:
        return _NULL_INTERN.setdefault(key, len(_NULL_INTERN))


def term_label(term: "GroundTerm") -> object:
    """A ground term's entry in the intern key of a null built over it:
    the null's uid, or ``("c", name)`` for a constant."""
    return term.uid if isinstance(term, Null) else ("c", term.name)


def intern_null_labels(recipes: Iterator, labels: List) -> Optional[int]:
    """Intern a run of null labels in order, under one hold of the lock.

    ``labels[i]`` is the :func:`term_label` of term ``i``, or ``None``
    while unknown.  ``recipes`` yields ``(i, (rule_id, variable, names,
    ids))``: the null ``i`` over the terms ``ids`` bound to the variable
    ``names``.  Each null whose label is unknown gets the uid
    ``Null(rule_id, variable, binding)`` would get, stored at
    ``labels[i]``, so a later null of the run can be built over it.
    Returns the index of the first null with a binding term of unknown
    label, leaving ``recipes`` just past it (the caller labels that
    null some other way, then calls again), or ``None`` once
    ``recipes`` is exhausted.
    """
    label = labels.__getitem__
    with _NULL_INTERN_LOCK:
        table = _NULL_INTERN
        setdefault = table.setdefault
        for index, (rule_id, variable, names, ids) in recipes:
            if labels[index] is not None:
                continue
            binding = tuple(map(label, ids))
            if None in binding:
                return index
            labels[index] = setdefault(
                (rule_id, variable, tuple(zip(names, binding))), len(table)
            )
    return None


@dataclass(frozen=True, eq=False)
class Null:
    """A labelled null ``⊥^var_{rule, binding}`` from the set ``N``.

    Attributes
    ----------
    rule_id:
        Identifier of the TGD whose trigger invented this null.
    variable:
        Name of the existentially quantified head variable the null was
        invented for.
    binding:
        The trigger's homomorphism restricted to the frontier of the
        rule (for the semi-oblivious chase) or to the whole body (for
        the oblivious chase), as a sorted tuple of
        ``(variable name, term)`` pairs.  Because the binding is part of
        the identity, re-firing the same trigger reproduces *equal*
        nulls, which is exactly what makes the semi-oblivious chase
        insensitive to the order of trigger applications.
    depth:
        The depth of the null per Definition 4.3, precomputed at
        creation time: ``1 + max(depth of binding terms, 0)``.
    uid:
        The interned identity; equality and hashing use only this, so
        deeply nested nulls stay O(1) to compare.
    """

    rule_id: str
    variable: str
    binding: Tuple[Tuple[str, "GroundTerm"], ...]
    depth: int = -1
    uid: int = -1

    def __post_init__(self) -> None:
        if self.depth < 0:
            computed = 1 + max((term.depth for _, term in self.binding), default=0)
            object.__setattr__(self, "depth", computed)
        object.__setattr__(
            self, "uid", _intern_uid(self.rule_id, self.variable, self.binding)
        )

    @staticmethod
    def from_trusted(
        rule_id: str,
        variable: str,
        binding: Tuple[Tuple[str, "GroundTerm"], ...],
        depth: int,
        uid: Optional[int] = None,
    ) -> "Null":
        """Construct with a known depth, skipping the dataclass ``__init__``.

        The fact store's decode boundary builds one null per invented
        id and already tracks each id's depth; this mirrors
        :meth:`Atom.from_trusted <repro.model.atoms.Atom.from_trusted>`
        and yields a null indistinguishable from
        ``Null(rule_id, variable, binding)`` (same fields, same uid)
        provided ``depth`` is the Definition 4.3 depth of ``binding``
        and ``uid``, if given, is the label's interned uid (see
        :func:`intern_null_labels`).
        """
        null = object.__new__(Null)
        null.__dict__.update(
            rule_id=rule_id,
            variable=variable,
            binding=binding,
            depth=depth,
            uid=_intern_uid(rule_id, variable, binding) if uid is None else uid,
        )
        return null

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Null):
            return NotImplemented
        return self.uid == other.uid

    def __hash__(self) -> int:
        # The interned uid is already a small unique int; use it directly.
        return self.uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Null({self.rule_id!r}, {self.variable!r}, depth={self.depth})"

    def __str__(self) -> str:
        return f"_:{self.variable}_{self.uid}"

    @property
    def is_null(self) -> bool:
        return True

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_variable(self) -> bool:
        return False


GroundTerm = Union[Constant, Null]
Term = Union[Constant, Variable, Null]


def make_null(rule_id: str, variable: str, binding: dict) -> Null:
    """Create the canonical null for a (rule, frontier binding, variable).

    ``binding`` maps frontier variable names to ground terms; it is
    normalised to a sorted tuple so equal bindings always yield equal
    nulls.
    """
    items = tuple(sorted(binding.items(), key=lambda kv: kv[0]))
    return Null(rule_id=rule_id, variable=variable, binding=items)


def term_depth(term: Term) -> int:
    """Depth of a term per Definition 4.3 (variables are not ranked)."""
    if isinstance(term, Constant):
        return 0
    if isinstance(term, Null):
        return term.depth
    raise TypeError(f"variables have no depth: {term!r}")


def is_ground(term: Term) -> bool:
    """True for constants and nulls, false for variables."""
    return not isinstance(term, Variable)
