"""Paper-derived auto-budgets for chase jobs.

The engine's default budget (one million atoms) is a blunt instrument:
it lets provably non-terminating runs burn through a million atoms
before stopping, and it tells a caller nothing about *why* a run was
cut off.  The paper does better: for ``Σ ∈ C ∩ CT_D`` with
``C ∈ {SL, L, G}``,

* ``maxdepth(D, Σ) ≤ d_C(Σ)``  (Lemmas 6.2 / 7.4 / 8.2), and
* ``|chase(D, Σ)| ≤ |D| · f_C(Σ)``  (Theorems 6.4 / 7.5 / 8.3).

So for a classified set the budget policy sets ``max_depth = d_C(Σ)``
and, when it fits under a practical cap, ``max_atoms = |D| · f_C(Σ)``.
On terminating inputs these budgets are *never* hit — the bounds are
theorems — while non-terminating runs trip the depth budget as soon as
a null deeper than ``d_C(Σ)`` appears, typically after a handful of
rounds instead of a million atoms.  For guarded sets the bounds are
astronomically large (the paper's point about the naive decision
procedure), so they are used only when they fit the caps; unclassified
sets fall back to the explicit or default budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.chase.engine import ChaseBudget
from repro.core.bounds import depth_bound, size_bound
from repro.core.classify import TGDClass, classify
from repro.core.termination_analysis import (
    DIVERGING,
    TERMINATING,
    TerminationAnalyzer,
    TerminationReport,
)
from repro.model.instance import Database
from repro.model.tgd import TGDSet

#: Size-bound values above this never become ``max_atoms``.
DEFAULT_ATOM_CAP = 5_000_000

#: Depth-bound values above this never become ``max_depth`` (a depth
#: budget of ``2^100`` would be dead weight in every pickled payload).
DEFAULT_DEPTH_CAP = 1_000_000

#: The budget handed to provably diverging jobs by an analysis-aware
#: policy: enough atoms to produce a meaningful budget-stop row, a
#: fraction of the default million-atom burn.
DEFAULT_DIVERGING_CLAMP = ChaseBudget(max_atoms=50_000, max_rounds=5_000)


def _depth_source(budget: ChaseBudget) -> str:
    """Provenance of a ``max_depth`` taken from ``budget`` as it is."""
    return "explicit" if budget.max_depth is not None else "unset"


def _min_cap(current: Optional[int], cap: Optional[int]) -> Optional[int]:
    """The tighter of two optional limits (``None`` means unlimited)."""
    if current is None:
        return cap
    if cap is None:
        return current
    return min(current, cap)


@dataclass(frozen=True)
class BudgetDecision:
    """A resolved budget plus the provenance of every limit in it."""

    budget: ChaseBudget
    tgd_class: TGDClass
    source: str  # "explicit" | "paper-bound" | "default" | "analysis" | "analysis-clamp"
    max_atoms_source: str  # "explicit" | "size-bound" | "default" | "analysis-clamp"
    max_depth_source: str  # "explicit" | "depth-bound" | "analysis-depth-bound" | "unset"
    depth_bound_magnitude: Optional[str] = None
    size_bound_magnitude: Optional[str] = None
    #: Static termination verdict, set only by an analysis-aware policy
    #: (:class:`BudgetPolicy` with an ``analyzer``); ``None`` on the
    #: default path so provenance stays byte-identical to the seed.
    verdict: Optional[str] = None
    verdict_method: Optional[str] = None

    def provenance(self) -> Dict[str, object]:
        """JSON-friendly provenance record carried into job results."""
        record: Dict[str, object] = {
            "class": self.tgd_class.value,
            "source": self.source,
            "max_atoms": {"value": self.budget.max_atoms, "from": self.max_atoms_source},
            "max_depth": {"value": self.budget.max_depth, "from": self.max_depth_source},
            "depth_bound": self.depth_bound_magnitude,
            "size_bound": self.size_bound_magnitude,
        }
        if self.verdict is not None:
            record["verdict"] = {"value": self.verdict, "method": self.verdict_method}
        return record


@dataclass(frozen=True)
class BudgetPolicy:
    """Derives a :class:`ChaseBudget` for a job from the paper's bounds.

    ``derive`` implements the ``auto`` mode; :meth:`resolve` dispatches
    on a job's ``budget_mode`` (``auto`` / ``explicit`` / ``default``).

    Passing an ``analyzer`` opts the policy into static termination
    analysis (:mod:`repro.core.termination_analysis`): provably
    diverging jobs get the ``diverging_clamp`` budget instead of
    burning the default million atoms, provably terminating arbitrary
    sets gain the analysis-derived ``max_depth``, and every decision
    carries the verdict so the executor can lift its per-job wall
    ceiling for guaranteed-terminating runs.  ``undetermined`` jobs —
    and every job under the default ``analyzer=None`` — take exactly
    the seed code path, byte for byte.
    """

    default: ChaseBudget = field(default_factory=ChaseBudget)
    atom_cap: int = DEFAULT_ATOM_CAP
    depth_cap: int = DEFAULT_DEPTH_CAP
    analyzer: Optional[TerminationAnalyzer] = None
    diverging_clamp: ChaseBudget = DEFAULT_DIVERGING_CLAMP

    def derive(
        self,
        program: TGDSet,
        database_size: int,
        tgd_class: Optional[TGDClass] = None,
        database: Optional[Database] = None,
        variant: str = "semi-oblivious",
    ) -> BudgetDecision:
        """Auto-budget: classify Σ and bound the run by ``d_C``/``f_C``."""
        tgd_class = tgd_class or classify(program)
        if self.analyzer is not None:
            report = self._safe_analyze(database, program, variant)
            if report is not None:
                return self._derive_with_verdict(
                    program, database_size, tgd_class, report
                )
        if not tgd_class.has_paper_bounds:
            return BudgetDecision(
                budget=self.default,
                tgd_class=tgd_class,
                source="default",
                max_atoms_source="default",
                max_depth_source=_depth_source(self.default),
            )
        depth = depth_bound(program, tgd_class)
        size = size_bound(database_size, program, tgd_class)
        use_size = size <= self.atom_cap
        use_depth = depth <= self.depth_cap
        budget = self.default.replace(
            max_atoms=int(size) if use_size else self.default.max_atoms,
            max_depth=int(depth) if use_depth else self.default.max_depth,
        )
        return BudgetDecision(
            budget=budget,
            tgd_class=tgd_class,
            source="paper-bound" if use_size or use_depth else "default",
            max_atoms_source="size-bound" if use_size else "default",
            max_depth_source="depth-bound" if use_depth else _depth_source(self.default),
            depth_bound_magnitude=depth.magnitude(),
            size_bound_magnitude=size.magnitude() if use_size else "over-cap",
        )

    # -- analysis-aware derivation ----------------------------------------

    def _safe_analyze(
        self,
        database: Optional[Database],
        program: TGDSet,
        variant: str,
    ) -> Optional[TerminationReport]:
        """Run the analyzer, swallowing failures: a broken analysis must
        degrade to the default budget, never take a job down."""
        try:
            return self.analyzer.analyze(database, program, variant)  # type: ignore[union-attr]
        except Exception:  # noqa: BLE001
            return None

    def _derive_with_verdict(
        self,
        program: TGDSet,
        database_size: int,
        tgd_class: TGDClass,
        report: TerminationReport,
    ) -> BudgetDecision:
        """Fold a termination verdict into the auto-budget decision."""
        if report.verdict == DIVERGING:
            clamp = self.diverging_clamp
            budget = self.default.replace(
                max_atoms=_min_cap(self.default.max_atoms, clamp.max_atoms),
                max_rounds=_min_cap(self.default.max_rounds, clamp.max_rounds),
            )
            return BudgetDecision(
                budget=budget,
                tgd_class=tgd_class,
                source="analysis-clamp",
                max_atoms_source="analysis-clamp",
                max_depth_source=_depth_source(self.default),
                verdict=report.verdict,
                verdict_method=report.method,
            )
        # The seed derivation (paper bounds / default), analyzer-blind.
        base = replace(self, analyzer=None).derive(program, database_size, tgd_class)
        if (
            report.verdict == TERMINATING
            and not tgd_class.has_paper_bounds
            and report.depth_bound is not None
            and report.depth_bound <= self.depth_cap
        ):
            base = replace(
                base,
                budget=base.budget.replace(max_depth=int(report.depth_bound)),
                source="analysis",
                max_depth_source="analysis-depth-bound",
                depth_bound_magnitude=report.depth_bound.magnitude(),
            )
        return replace(base, verdict=report.verdict, verdict_method=report.method)

    def resolve(
        self,
        program: TGDSet,
        database_size: int,
        budget_mode: str = "auto",
        explicit: Optional[ChaseBudget] = None,
        database: Optional[Database] = None,
        variant: str = "semi-oblivious",
    ) -> BudgetDecision:
        """Resolve a job's budget according to its ``budget_mode``."""
        if budget_mode == "explicit":
            if explicit is None:
                raise ValueError("budget_mode='explicit' requires a budget")
            return BudgetDecision(
                budget=explicit,
                tgd_class=classify(program),
                source="explicit",
                max_atoms_source="explicit",
                max_depth_source=_depth_source(explicit),
            )
        if budget_mode == "default":
            return BudgetDecision(
                budget=self.default,
                tgd_class=classify(program),
                source="default",
                max_atoms_source="default",
                max_depth_source=_depth_source(self.default),
            )
        if budget_mode == "auto":
            return self.derive(program, database_size, database=database, variant=variant)
        raise ValueError(f"unknown budget mode {budget_mode!r}")
