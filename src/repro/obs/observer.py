"""The chase drivers' one instrumentation seam.

Both chase drivers (the columnar store loop and the legacy rescan)
take ``observers=`` and send every :class:`RunObserver` the same
events, in registration order::

    run_start(rule_ids, compile_seconds)          once, after setup + compile
      round_start(store, delta_size, totals)      every round
        rule_segment(rule_index, totals)          where the rule changes
        enumerated(totals)                        the round's triggers are listed
        rule_segment(rule_index, totals)          where the rule changes
      round_end(rounds, store, marks, totals, complete)
    rule_segment(-1, totals)                      closes the open segment
    run_end(store, driver_seconds, setup_seconds) once

``totals`` is the running ``(considered, fired, created, nulls)`` tuple
(nulls: all nulls the instance holds); observers derive their own
deltas from it.  ``enumerated`` splits a round into its two phases:
enumeration (building the round's trigger list) before it, application
after it.  ``rule_segment`` goes only to classes that set
``rule_segments = True``: the drivers walk triggers rule-major, so it
fires where the owning rule changes, never per trigger.  ``complete``
is False only on the round a budget stopped mid-way; ``marks`` (the
round's frontier row marks) and ``store`` are ``None`` on the legacy
engine, whose ``compile_seconds`` is empty.  After the run,
:meth:`RunObserver.payload` lands in the result under its key.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["RunObserver", "Totals"]

#: ``(considered, fired, created, nulls)`` running totals of one run.
Totals = Tuple[int, int, int, int]


class RunObserver:
    """No-op base class: subclasses override the events they need."""

    #: Opt in to :meth:`rule_segment` events.  Only per-rule observers
    #: set this; the drivers skip segment bookkeeping when none does.
    rule_segments: bool = False

    __slots__ = ()

    def run_start(self, rule_ids: Sequence[str], compile_seconds: Sequence[float]) -> None:
        pass

    def round_start(self, store: Any, delta_size: int, totals: Totals) -> None:
        pass

    def rule_segment(self, rule_index: int, totals: Totals) -> None:
        pass

    def segment_log(self) -> Optional[List[Tuple[int, float, Totals]]]:
        """A list the store driver may append this run's
        ``rule_segment`` events to, as ``(rule_index, perf_counter(),
        totals)``, in place of calling :meth:`rule_segment`; asked once
        after ``run_start``.  An observer that returns one folds it at
        ``run_end``.  ``None`` (the default) asks for the calls."""
        return None

    def enumerated(self, totals: Totals) -> None:
        pass

    def round_end(
        self, rounds: int, store: Any, marks: Any, totals: Totals, complete: bool
    ) -> None:
        pass

    def run_end(self, store: Any, driver_seconds: float, setup_seconds: float) -> None:
        pass

    def payload(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        """``(summary key, dict)`` to publish with the result, or ``None``."""
        return None
