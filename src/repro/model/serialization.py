"""Text serialisation of atoms, databases and programs.

The output of :func:`tgd_to_text` and :func:`database_to_text` round
trips through :mod:`repro.model.parser`, which the test suite checks.
Nulls are rendered with a ``_:`` prefix and are only meant for human
inspection of chase results, not for re-parsing.

The ``canonical_*`` functions produce *content-canonical* forms: two
programs that differ only in rule order, rule identifiers, or a
consistent variable renaming serialise identically, and two instances
that differ only in fact order or a labelled-null renaming serialise
identically.  The batch runtime fingerprints jobs by hashing these
forms (:mod:`repro.runtime.jobs`), so the cache recognises isomorphic
inputs no matter how they were constructed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.model.atoms import Atom
from repro.model.instance import Database, Instance
from repro.model.terms import Constant, Null, Variable
from repro.model.tgd import TGD, TGDSet, rule_from_shape, rule_layout, shared


def term_to_text(term) -> str:
    if isinstance(term, Constant):
        return term.name
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Null):
        return str(term)
    raise TypeError(f"unsupported term {term!r}")


def atom_to_text(atom: Atom) -> str:
    args = ", ".join(term_to_text(t) for t in atom.args)
    return f"{atom.predicate.name}({args})"


def tgd_to_text(tgd: TGD) -> str:
    body = ", ".join(atom_to_text(a) for a in tgd.body)
    head = ", ".join(atom_to_text(a) for a in tgd.head)
    existentials = sorted(v.name for v in tgd.existential_variables())
    prefix = f"exists {', '.join(existentials)} . " if existentials else ""
    return f"{body} -> {prefix}{head}"


def program_to_text(program: TGDSet) -> str:
    return "\n".join(tgd_to_text(t) for t in program)


def database_to_text(database: Database) -> str:
    return "\n".join(database_fact_lines(database))


def database_fact_lines(database: Database) -> Tuple[str, ...]:
    """The database's facts as sorted ``R(a, b).`` lines.

    The set-comparison currency of incremental re-chase: a cache entry
    stores its base database as these lines, and the executor
    recognises "previous job + delta" by checking that the base lines
    are a subset of the new job's (the delta being the complement).
    Databases are ground, so the sorted line tuple is canonical without
    any null relabelling.
    """
    return tuple(sorted(f"{atom_to_text(a)}." for a in database))


def instance_to_text(instance: Instance) -> str:
    """Human-readable dump of an instance (chase result)."""
    return "\n".join(sorted(atom_to_text(a) for a in instance))


# --------------------------------------------------------------------------
# Canonical forms
# --------------------------------------------------------------------------
#
# Renaming-invariant serialisation reduces to canonically labelling the
# renameable terms (variables of a TGD, labelled nulls of an instance).
# The algorithm is the classic two-phase canonical labelling used by
# graph and RDF canonicalisation: (1) partition-refine the terms by
# their occurrence structure until the partition is stable, then
# (2) assign indices greedily, always extending with the candidate
# whose assignment yields the lexicographically smallest rendering.
# Both phases only look at structure (predicates, argument positions,
# colours of co-occurring terms), never at the original names, so a
# consistent renaming cannot change the outcome.


def _canonical_labels(
    tagged_atoms: Sequence[Tuple[str, Atom]], renameable: Set
) -> Dict[object, int]:
    """Assign each renameable term a canonical index, invariant under
    consistent renaming of those terms and under atom reordering."""
    if not renameable:
        return {}
    colors: Dict[object, int] = {t: 0 for t in renameable}
    occurrences: Dict[object, List[Tuple[str, Atom, int]]] = {t: [] for t in renameable}
    for tag, a in tagged_atoms:
        for i, arg in enumerate(a.args):
            if arg in occurrences:
                occurrences[arg].append((tag, a, i))

    def token(term) -> Tuple[str, object]:
        if term in colors:
            return ("r", colors[term])
        return ("f", term_to_text(term))

    distinct = 1
    for _ in range(len(colors)):
        signatures = {
            t: (
                colors[t],
                tuple(
                    sorted(
                        (tag, a.predicate.name, a.predicate.arity, i,
                         tuple(token(arg) for arg in a.args))
                        for tag, a, i in occurrences[t]
                    )
                ),
            )
            for t in colors
        }
        ranked = {sig: rank for rank, sig in enumerate(sorted(set(signatures.values())))}
        colors = {t: ranked[signatures[t]] for t in colors}
        if len(ranked) == distinct:
            break
        distinct = len(ranked)

    assigned: Dict[object, int] = {}

    def render_key(candidate) -> Tuple:
        trial = dict(assigned)
        trial[candidate] = len(assigned)
        lines = []
        for tag, a in tagged_atoms:
            parts = []
            for arg in a.args:
                if arg in trial:
                    parts.append(("a", trial[arg]))
                elif arg in colors:
                    parts.append(("u", colors[arg]))
                else:
                    parts.append(("f", term_to_text(arg)))
            lines.append((tag, a.predicate.name, a.predicate.arity, tuple(parts)))
        return tuple(sorted(lines))

    unassigned = set(colors)
    while unassigned:
        lowest = min(colors[t] for t in unassigned)
        group = [t for t in unassigned if colors[t] == lowest]
        best = group[0] if len(group) == 1 else min(group, key=render_key)
        assigned[best] = len(assigned)
        unassigned.discard(best)
    return assigned


def _render_canonical_atom(a: Atom, labels: Dict[object, int], prefix: str) -> str:
    parts = []
    for arg in a.args:
        if arg in labels:
            parts.append(f"{prefix}{labels[arg]}")
        else:
            parts.append(term_to_text(arg))
    return f"{a.predicate.name}({', '.join(parts)})"


#: Canonical variable labels of every rule seen, shared by all programs:
#: (rule shape, name rank of each local predicate) -> label per
#: variable rank.  Keys hold ints only, so the memo is bounded by the
#: number of distinct rule shapes and predicate-name orders.
_LABELS: Dict[tuple, Tuple[int, ...]] = {}


def _direct_labels(tgd: TGD) -> Dict[object, int]:
    """The rule's canonical variable labels, computed from the rule."""
    tagged = [("B", a) for a in tgd.body] + [("H", a) for a in tgd.head]
    return _canonical_labels(tagged, tgd.body_variables() | tgd.head_variables())


def _rule_labels(tgd: TGD) -> Dict[object, int]:
    """:func:`_direct_labels`, memoised by rule shape.

    :func:`_canonical_labels` looks at a rule's structure and compares
    predicate names only with each other, so the rule's shape plus the
    order of its predicate names determine the labels.  A miss labels
    :func:`~repro.model.tgd.rule_from_shape`'s rule, whose predicate
    names keep that order.
    """
    shape, predicates, variables = rule_layout(tgd)
    name_rank = {name: r for r, name in enumerate(sorted({p.name for p in predicates}))}
    key = (shape, tuple(name_rank[p.name] for p in predicates))
    labels = _LABELS.get(key)
    if labels is None:
        rule = rule_from_shape(*key)
        direct = _direct_labels(rule)
        labels = shared(tuple(direct[v] for v in rule_layout(rule)[2]))
        labels = _LABELS.setdefault(shared(key), labels)
    return dict(zip(variables, labels))


def _render_tgd(tgd: TGD, labels: Dict[object, int]) -> str:
    body = sorted(_render_canonical_atom(a, labels, "v") for a in tgd.body)
    head = sorted(_render_canonical_atom(a, labels, "v") for a in tgd.head)
    return f"{', '.join(body)} -> {', '.join(head)}"


def canonical_tgd_text(tgd: TGD) -> str:
    """A renaming- and atom-order-invariant rendering of a TGD.

    The rule identifier is deliberately excluded: two TGDs with the
    same logical content fingerprint equal.  The output is for hashing
    and display, not for re-parsing.
    """
    return _render_tgd(tgd, _rule_labels(tgd))


def canonical_program_text(program: TGDSet) -> str:
    """Canonical form of a program: sorted canonical rules, one per line.

    Invariant under rule reordering, rule-identifier changes, and
    per-rule variable renamings.
    """
    return "\n".join(sorted(canonical_tgd_text(t) for t in program))


def canonical_instance_text(instance: Instance) -> str:
    """Canonical form of an instance: sorted atoms, nulls renumbered.

    Invariant under fact reordering and any consistent relabelling of
    the instance's labelled nulls; for a :class:`Database` (no nulls)
    this is simply the sorted fact list.
    """
    atoms = list(instance)
    nulls: Set[Null] = set()
    for a in atoms:
        nulls |= a.nulls()
    labels = _canonical_labels([("I", a) for a in atoms], nulls)
    return "\n".join(sorted(_render_canonical_atom(a, labels, "_:n") for a in atoms))


def canonical_database_text(database: Database) -> str:
    """Canonical form of a database (sorted facts; see
    :func:`canonical_instance_text`)."""
    return canonical_instance_text(database)
