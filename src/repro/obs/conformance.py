"""Paper-bound conformance monitoring.

The paper proves, for each class ``C ∈ {SL, L, G}``, a depth bound
``d_C(Σ)`` on ``maxdepth(D, Σ)`` and a size bound ``|D| · f_C(Σ)`` on
``|chase(D, Σ)|`` whenever ``Σ ∈ C ∩ CT_D``.  A terminated run of a
program in one of these classes must therefore land *under* its
bounds; observing a run above them means either the classifier put the
program in the wrong class or an engine invented facts it should not
have — a bug worth a structured warning, not a log line.

:func:`conformance_report` turns a run summary into a plain-data block
with the observed-over-bound utilizations, and
:func:`record_conformance` mirrors that block into a metrics registry
as ``repro_bound_utilization{kind=...}`` gauges plus a
``repro_bound_violations_total`` counter surfaced at ``/metrics``.

Each bound field is the :class:`~repro.core.bounds.Bound`'s JSON form
(the int when it fits in 64 bits, else its magnitude) and depends only
on Σ, the class and ``|D|``.  Comparing the run with a bound is exact
and cheap even for the astronomical guarded bounds, which are never
built; so is the utilization, ``round(observed / bound, 6)``, which is
``0.0`` exactly when the bound exceeds ``observed · 2^21``.

Conformance is computed *post-run* from the summary — nothing here
touches engine hot paths, cache keys, or stored summaries unless a
caller explicitly asks for the block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bounds import Bound
    from repro.core.classify import TGDClass
    from repro.model.tgd import TGDSet

__all__ = ["conformance_report", "record_conformance"]


def conformance_report(
    summary: Mapping[str, object],
    tgds: TGDSet,
    tgd_class: Optional[TGDClass] = None,
) -> Optional[Dict[str, object]]:
    """The ``conformance`` block for a run summary, or ``None``.

    ``None`` means the program's class (``tgd_class`` overrides the
    classifier — test fixtures use that to simulate misclassification)
    carries no paper bounds, so there is nothing to conform to.
    Violations are only reported for *terminated* runs: a
    budget-stopped prefix of a diverging chase is not a counterexample
    to anything.
    """
    # Imported here, not at module top: repro.core reaches back into
    # repro.chase.engine, which imports repro.obs — a module-level
    # import would be circular.
    from repro.core.bounds import depth_bound, size_bound
    from repro.core.classify import classify

    tgd_class = tgd_class or classify(tgds)
    if not tgd_class.has_paper_bounds:
        return None
    terminated = bool(summary.get("terminated", False))
    database_size = int(summary.get("database_size", 0))
    observed = {
        "size": (int(summary.get("size", 0)), size_bound(database_size, tgds, tgd_class)),
        "depth": (int(summary.get("max_depth", 0)), depth_bound(tgds, tgd_class)),
    }
    report: Dict[str, object] = {"class": str(tgd_class), "terminated": terminated}
    for kind, (value, bound) in observed.items():
        report[f"{kind}_bound"] = bound.to_json()
        report[f"{kind}_utilization"] = _utilization(value, bound)
    report["violations"] = [
        kind
        for kind, (value, bound) in observed.items()
        if terminated and bound > 0 and value > bound
    ]
    return report


def _utilization(observed: int, bound: Bound) -> float:
    """``round(observed / bound, 6)``, exactly, without building a huge bound.

    Above ``observed · 2^21`` the ratio is below 5·10^-7, which rounds
    to ``0.0``; at or below it the bound is small enough to build.
    """
    if bound == 0 or observed << 21 < bound:
        return 0.0
    return round(observed / int(bound), 6)


def record_conformance(registry, report: Optional[Mapping[str, object]]) -> None:
    """Mirror a conformance block into ``registry`` (no-op on ``None``).

    Exports the latest run's utilizations as
    ``repro_bound_utilization{kind="size"|"depth"}`` gauges and counts
    bound violations into ``repro_bound_violations_total`` — the
    structured warning a dashboard alerts on, since a violation is a
    classification or engine bug by construction.
    """
    if report is None:
        return
    for kind in ("size", "depth"):
        registry.gauge(
            "repro_bound_utilization",
            "Observed value over the paper bound for the last conforming run",
            labels={"kind": kind},
        ).set(float(report.get(f"{kind}_utilization", 0.0)))
    registry.counter(
        "repro_bound_violations_total",
        "Runs observed above their paper bound (classification/engine bug)",
    ).inc(len(report.get("violations") or ()))
