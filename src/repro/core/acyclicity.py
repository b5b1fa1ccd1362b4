"""Model-faithful acyclicity (MFA) via a critical-instance chase.

MFA asks whether the oblivious chase of the *critical instance* —
``P(*, …, *)`` for every predicate occurring in a rule body, with a
single fresh constant ``*`` — terminates without ever building a
*cyclic* term: a null whose ancestry already contains a null invented
by the same (rule, existential variable) pair.  Every database maps
homomorphically into the critical instance (all constants to ``*``),
chase steps lift along that homomorphism, and the image of a null is a
null of the *same* depth, so:

* if the critical chase saturates cleanly, the chase of **every**
  database terminates, and the critical chase's maximal term depth
  bounds ``maxdepth(D, Σ)`` uniformly;
* if a cyclic term appears, the set may or may not terminate —
  the verdict is ``cyclic``, which callers treat as *undetermined*
  (matching Rulewerk's ``CYCLIC`` / ``ACYCLIC`` / ``UNDETERMINED``
  trichotomy);
* if a work cap trips first, the verdict is ``undetermined`` outright.

Null labels follow the engine's two labelling disciplines: ``full``
mode keys nulls (and triggers) on the whole body homomorphism, making
the check sound for the oblivious chase; ``frontier`` mode keys them on
the frontier only — classic MFA — sound for the semi-oblivious and
restricted chases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.model.atoms import Atom, Predicate
from repro.model.tgd import TGD, TGDSet

MFA_ACYCLIC = "acyclic"
MFA_CYCLIC = "cyclic"
MFA_UNDETERMINED = "undetermined"

#: The critical instance's single constant, encoded as term id -1;
#: nulls get non-negative ids.
_STAR = -1


@dataclass(frozen=True)
class MFAResult:
    """Outcome of the critical-instance chase.

    ``depth_bound`` is the maximal term depth of the saturated critical
    chase when ``status == "acyclic"`` — a uniform ``maxdepth`` bound —
    and ``None`` otherwise.  ``cyclic_rule_id`` names the rule whose
    existential re-nested on a ``cyclic`` verdict.
    """

    status: str
    mode: str
    depth_bound: Optional[int]
    cyclic_rule_id: Optional[str]
    facts: int
    triggers: int
    reason: Optional[str] = None


def critical_instance_facts(tgds: TGDSet) -> List[Tuple[Predicate, Tuple[int, ...]]]:
    """``P(*, …, *)`` for every predicate occurring in some body.

    Head-only predicates need no star fact: database facts over them
    are never matched by any body, hence inert for termination.
    """
    return [
        (predicate, (_STAR,) * predicate.arity)
        for predicate in sorted(tgds.predicates_in_bodies(), key=lambda p: (p.name, p.arity))
    ]


def _match_atom(
    atom: Atom, fact_args: Tuple[int, ...], binding: Dict[str, int]
) -> Optional[Dict[str, int]]:
    """Extend ``binding`` so that ``atom`` matches ``fact_args``."""
    extension: Dict[str, int] = {}
    for variable, term in zip(atom.args, fact_args):
        name = variable.name
        bound = binding.get(name, extension.get(name))
        if bound is None:
            extension[name] = term
        elif bound != term:
            return None
    return extension


def _homomorphisms(
    body: Sequence[Atom],
    facts_by_predicate: Dict[Predicate, Tuple[Tuple[int, ...], ...]],
) -> Iterator[Dict[str, int]]:
    """All homomorphisms of ``body`` into the (frozen) fact lists."""
    return _extend(body, facts_by_predicate, 0, {})


def _extend(
    body: Sequence[Atom],
    facts_by_predicate: Dict[Predicate, Tuple[Tuple[int, ...], ...]],
    index: int,
    binding: Dict[str, int],
) -> Iterator[Dict[str, int]]:
    """The homomorphisms of ``body`` that extend ``binding`` on ``body[:index]``.

    A module-level generator, not a self-recursive closure: the closure
    would be a reference cycle (function → cell → function) per call.
    """
    if index == len(body):
        yield dict(binding)
        return
    atom = body[index]
    for fact_args in facts_by_predicate.get(atom.predicate, ()):
        extension = _match_atom(atom, fact_args, binding)
        if extension is None:
            continue
        binding.update(extension)
        yield from _extend(body, facts_by_predicate, index + 1, binding)
        for name in extension:
            del binding[name]


def mfa_check(
    tgds: TGDSet,
    mode: str = "full",
    max_facts: int = 20_000,
    max_triggers: int = 200_000,
    max_rounds: int = 500,
) -> MFAResult:
    """Run the critical-instance chase and classify Σ.

    ``mode`` selects the null-labelling discipline (see module
    docstring).  The caps bound the work of the check itself; tripping
    one yields ``undetermined``, never a wrong answer.
    """
    if mode not in ("full", "frontier"):
        raise ValueError(f"unknown MFA mode {mode!r}, expected 'full' or 'frontier'")

    rules = sorted(tgds, key=lambda t: t.rule_id)
    rule_info = []
    for tgd in rules:
        frontier = {v.name for v in tgd.frontier()}
        existentials = sorted(v.name for v in tgd.existential_variables())
        label_names = (
            sorted({v.name for v in tgd.body_variables()}) if mode == "full" else sorted(frontier)
        )
        rule_info.append((tgd, label_names, existentials))

    facts: Set[Tuple[Predicate, Tuple[int, ...]]] = set()
    facts_by_predicate: Dict[Predicate, List[Tuple[int, ...]]] = {}
    null_ids: Dict[Tuple[str, str, Tuple[Tuple[str, int], ...]], int] = {}
    null_tags: List[FrozenSet[Tuple[str, str]]] = []
    null_depth: List[int] = []
    fired: Set[Tuple[str, Tuple[Tuple[str, int], ...]]] = set()
    max_depth_seen = 0
    triggers = 0

    def term_depth(term: int) -> int:
        return 0 if term == _STAR else null_depth[term]

    def add_fact(fact: Tuple[Predicate, Tuple[int, ...]]) -> bool:
        nonlocal max_depth_seen
        if fact in facts:
            return False
        facts.add(fact)
        facts_by_predicate.setdefault(fact[0], []).append(fact[1])
        depth = max((term_depth(t) for t in fact[1]), default=0)
        if depth > max_depth_seen:
            max_depth_seen = depth
        return True

    for fact in critical_instance_facts(tgds):
        add_fact(fact)

    for _ in range(max_rounds):
        frozen = {predicate: tuple(args) for predicate, args in facts_by_predicate.items()}
        progressed = False
        for tgd, label_names, existentials in rule_info:
            for binding in _homomorphisms(tgd.body, frozen):
                triggers += 1
                if triggers > max_triggers:
                    return MFAResult(
                        status=MFA_UNDETERMINED,
                        mode=mode,
                        depth_bound=None,
                        cyclic_rule_id=None,
                        facts=len(facts),
                        triggers=triggers,
                        reason=f"trigger cap {max_triggers} exceeded",
                    )
                label = tuple((name, binding[name]) for name in label_names)
                trigger_key = (tgd.rule_id, label)
                if trigger_key in fired:
                    continue
                fired.add(trigger_key)
                progressed = True
                ancestry: FrozenSet[Tuple[str, str]] = frozenset()
                label_depth = 0
                for _, term in label:
                    if term != _STAR:
                        ancestry |= null_tags[term]
                        if null_depth[term] > label_depth:
                            label_depth = null_depth[term]
                head_binding = dict(binding)
                for variable_name in existentials:
                    tag = (tgd.rule_id, variable_name)
                    if tag in ancestry:
                        return MFAResult(
                            status=MFA_CYCLIC,
                            mode=mode,
                            depth_bound=None,
                            cyclic_rule_id=tgd.rule_id,
                            facts=len(facts),
                            triggers=triggers,
                        )
                    null_key = (tgd.rule_id, variable_name, label)
                    null_id = null_ids.get(null_key)
                    if null_id is None:
                        null_id = len(null_tags)
                        null_ids[null_key] = null_id
                        null_tags.append(ancestry | {tag})
                        null_depth.append(label_depth + 1)
                    head_binding[variable_name] = null_id
                for head_atom in tgd.head:
                    fact = (
                        head_atom.predicate,
                        tuple(head_binding[v.name] for v in head_atom.args),
                    )
                    add_fact(fact)
                if len(facts) > max_facts:
                    return MFAResult(
                        status=MFA_UNDETERMINED,
                        mode=mode,
                        depth_bound=None,
                        cyclic_rule_id=None,
                        facts=len(facts),
                        triggers=triggers,
                        reason=f"fact cap {max_facts} exceeded",
                    )
        if not progressed:
            return MFAResult(
                status=MFA_ACYCLIC,
                mode=mode,
                depth_bound=max_depth_seen,
                cyclic_rule_id=None,
                facts=len(facts),
                triggers=triggers,
            )
    return MFAResult(
        status=MFA_UNDETERMINED,
        mode=mode,
        depth_bound=None,
        cyclic_rule_id=None,
        facts=len(facts),
        triggers=triggers,
        reason=f"round cap {max_rounds} exceeded",
    )
