"""Unified static termination verdicts: terminating / diverging / undetermined.

One entry point — :func:`analyze_termination` — layers every static
criterion the repo knows, cheapest first, and returns a per-variant
verdict with an explanation trace:

1. **Characterization** (SL / L / G only): the paper's exact criteria
   via :func:`repro.core.decision.syntactic_decision`.  ``True`` means
   the *semi-oblivious* chase terminates on this database (and the
   restricted chase with it, firing a subset of triggers); ``False``
   means it diverges — and so does the oblivious chase, which fires a
   superset of triggers.  Neither direction decides the *restricted*
   chase negatively nor the *oblivious* chase positively.
2. **Weak acyclicity** (classic for semi-oblivious/restricted,
   augmented for oblivious), uniformly or relative to the database's
   predicates: facts only ever appear over predicates reachable from
   the database in the predicate graph, so acyclicity of the induced
   subgraph suffices, and its rank bounds ``maxdepth``.
3. **Stratification** with the matching per-stratum acyclicity check
   (:mod:`repro.core.stratification`).
4. **MFA** (:mod:`repro.core.acyclicity`), full-label for the
   oblivious chase, frontier-label otherwise.

The soundness direction is deliberately asymmetric: ``terminating``
only ever comes from a criterion sound for the *requested* variant,
and ``diverging`` only from the paper's exact characterizations.
Everything else is ``undetermined`` — never a guess.

:class:`TerminationAnalyzer` adds an LRU memo keyed on content
fingerprints so the budget policy and the service admission path can
consult verdicts per job without re-running graph analyses for
recurring programs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.model.instance import Database
from repro.model.tgd import TGDSet
from repro.core.acyclicity import MFA_ACYCLIC, MFA_CYCLIC, mfa_check
from repro.core.bounds import Bound, depth_bound
from repro.core.classify import TGDClass, classify
from repro.core.decision import syntactic_decision
from repro.core.dependency_graph import DependencyGraph, PredicateGraph
from repro.core.stratification import (
    AugmentedDependencyGraph,
    positions_of_predicates,
    rank_depth_bound,
    stratification_report,
)

TERMINATING = "terminating"
DIVERGING = "diverging"
UNDETERMINED = "undetermined"

#: Variants a verdict can be requested for (the chase runner spellings).
ANALYSIS_VARIANTS: Tuple[str, ...] = ("oblivious", "semi-oblivious", "restricted")

#: Guarded characterization involves linearization, whose type
#: construction is exponential in the arity; skip it for sets/databases
#: beyond these sizes and let the uniform layers have a go instead.
GUARDED_NORM_CAP = 5_000
GUARDED_DATABASE_CAP = 10_000


@dataclass(frozen=True)
class TerminationReport:
    """A static termination verdict for one chase variant.

    ``depth_bound`` is a bound on ``maxdepth(D, Σ)`` for the analyzed
    variant when the verdict is ``terminating`` and the deciding layer
    yields one (it may be ``None`` — terminating with no usable bound).
    ``trace`` records one line per layer tried, for explanation.
    """

    verdict: str
    variant: str
    method: Optional[str]
    tgd_class: str
    depth_bound: Optional[Bound]
    trace: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the bound in its JSON form)."""
        return {
            "verdict": self.verdict,
            "variant": self.variant,
            "method": self.method,
            "class": self.tgd_class,
            "depth_bound": (
                None if self.depth_bound is None else self.depth_bound.to_json()
            ),
            "trace": list(self.trace),
        }


def _reachable_predicates(database: Database, tgds: TGDSet) -> Set:
    """Predicates reachable (``⇝_Σ``) from the database's predicates."""
    graph = PredicateGraph.of(tgds)
    reachable: Set = set()
    for predicate in database.predicates():
        if predicate in reachable:
            continue
        reachable |= graph.reachable_from(predicate)
    return reachable


def analyze_termination(
    database: Optional[Database],
    tgds: TGDSet,
    variant: str = "semi-oblivious",
    mfa_max_facts: int = 20_000,
    mfa_max_triggers: int = 200_000,
) -> TerminationReport:
    """Layered static analysis for one chase variant.

    ``database=None`` requests a *uniform* verdict: the database-aware
    layers (characterization, D-relative weak acyclicity) are skipped,
    and a ``terminating`` answer holds for every database.
    """
    if variant not in ANALYSIS_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {ANALYSIS_VARIANTS}")
    trace = []
    tgd_class = classify(tgds)
    oblivious = variant == "oblivious"

    def report(
        verdict: str, method: Optional[str], bound: Optional[Bound] = None
    ) -> TerminationReport:
        return TerminationReport(
            verdict=verdict,
            variant=variant,
            method=method,
            tgd_class=tgd_class.value,
            depth_bound=bound,
            trace=tuple(trace),
        )

    # Layer 1: the paper's exact characterizations (database-aware).
    if database is not None and tgd_class.has_paper_bounds:
        guarded = tgd_class is TGDClass.GUARDED
        if guarded and (tgds.norm() > GUARDED_NORM_CAP or len(database) > GUARDED_DATABASE_CAP):
            trace.append(
                f"characterization: skipped (guarded set over size cap, norm={tgds.norm()})"
            )
        else:
            try:
                verdict = syntactic_decision(database, tgds)
            except Exception as exc:  # noqa: BLE001 - analysis must never take a job down
                trace.append(f"characterization: failed ({type(exc).__name__}: {exc})")
                verdict = None
            if verdict is not None and verdict.terminates is True:
                if oblivious:
                    trace.append(
                        "characterization: CT_D holds (semi-oblivious); "
                        "not sound for the oblivious chase, continuing"
                    )
                else:
                    trace.append(f"characterization: CT_D holds via {verdict.method.value}")
                    return report(
                        TERMINATING,
                        f"characterization({verdict.method.value})",
                        depth_bound(tgds, tgd_class),
                    )
            elif verdict is not None and verdict.terminates is False:
                if variant == "restricted":
                    trace.append(
                        "characterization: CT_D fails (semi-oblivious); "
                        "restricted chase may still terminate, continuing"
                    )
                else:
                    trace.append(f"characterization: CT_D fails via {verdict.method.value}")
                    return report(DIVERGING, f"characterization({verdict.method.value})")

    # Layer 2: weak acyclicity with the variant's labelling discipline.
    graph = (AugmentedDependencyGraph if oblivious else DependencyGraph).of(tgds)
    graph_name = "augmented-weak-acyclicity" if oblivious else "weak-acyclicity"
    bound = rank_depth_bound(graph)
    if bound is not None:
        trace.append(f"{graph_name}: acyclic, rank bound {bound}")
        return report(TERMINATING, graph_name, Bound(bound))
    trace.append(f"{graph_name}: special cycle")
    if database is not None:
        reachable = _reachable_predicates(database, tgds)
        bound = rank_depth_bound(graph, within=positions_of_predicates(reachable))
        if bound is not None:
            trace.append(f"{graph_name}(D): acyclic on reachable predicates, rank bound {bound}")
            return report(TERMINATING, f"{graph_name}(D)", Bound(bound))
        trace.append(f"{graph_name}(D): special cycle over database-reachable predicates")

    # Layer 3: stratification with the matching per-stratum check.
    strat = stratification_report(tgds, augmented=oblivious)
    if strat.stratified:
        trace.append(
            f"stratification: {len(strat.strata)} strata, "
            f"{len(strat.cyclic_strata)} cyclic, bound {strat.depth_bound}"
        )
        return report(
            TERMINATING,
            "stratification" + ("(augmented)" if oblivious else ""),
            Bound(strat.depth_bound),
        )
    trace.append(
        f"stratification: stratum {'+'.join(strat.failed_stratum or ())} "
        "fails per-stratum acyclicity"
    )

    # Layer 4: MFA over the critical instance.
    mfa = mfa_check(
        tgds,
        mode="full" if oblivious else "frontier",
        max_facts=mfa_max_facts,
        max_triggers=mfa_max_triggers,
    )
    if mfa.status == MFA_ACYCLIC:
        trace.append(
            f"mfa({mfa.mode}): acyclic, critical chase depth {mfa.depth_bound} "
            f"({mfa.facts} facts)"
        )
        return report(TERMINATING, f"mfa({mfa.mode})", Bound(mfa.depth_bound))
    if mfa.status == MFA_CYCLIC:
        trace.append(f"mfa({mfa.mode}): cyclic term via rule {mfa.cyclic_rule_id}")
    else:
        trace.append(f"mfa({mfa.mode}): undetermined ({mfa.reason})")

    return report(UNDETERMINED, None)


class TerminationAnalyzer:
    """An :func:`analyze_termination` front end with a content-keyed memo.

    Keys are (program fingerprint, database fingerprint, variant) — the
    same canonical fingerprints the job layer uses, so rule reordering
    and renamings hit the same entry.  The memo is bounded LRU; the
    service's scheduler threads may share one instance (reads and
    writes hold the GIL per operation, and a racy double-compute is
    harmless).
    """

    def __init__(self, max_entries: int = 256, **analysis_options: int) -> None:
        self.max_entries = max_entries
        self.analysis_options = analysis_options
        self._memo: "OrderedDict[Tuple[str, str, str], TerminationReport]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def analyze(
        self,
        database: Optional[Database],
        tgds: TGDSet,
        variant: str = "semi-oblivious",
    ) -> TerminationReport:
        from repro.runtime.jobs import database_fingerprint, program_fingerprint

        key = (
            program_fingerprint(tgds),
            database_fingerprint(database) if database is not None else "-",
            variant,
        )
        cached = self._memo.get(key)
        if cached is not None:
            self._memo.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        report = analyze_termination(database, tgds, variant, **self.analysis_options)
        self._memo[key] = report
        if len(self._memo) > self.max_entries:
            self._memo.popitem(last=False)
        return report
