"""Sampled round-level instrumentation for the chase engine drivers.

A :class:`ChaseProbe` is a :class:`~repro.obs.observer.RunObserver`
that rides along a single chase run.  It listens to the round events
only (``round_start`` / ``enumerated`` / ``round_end``, once per round
— never per trigger) and derives each round's deltas from the drivers'
running totals, so the enabled overhead is a handful of attribute
writes per round.  ``enumerated`` splits each round's wall time into
its enumerate phase (building the trigger list) and the rest.  Telemetry off means no probe object exists at all: the run is
unobserved and its summary carries no ``telemetry`` key.

Totals (rounds, triggers, atoms, nulls, index builds) are always exact.
Per-round *samples* are bounded: the probe keeps at most
``max_samples`` rounds, recording every ``sample_every``-th round and,
when the buffer would overflow, decimating it (drop every other sample,
double the stride).  Long runs therefore keep an evenly spaced timeline
instead of only the first N rounds, and memory stays O(max_samples)
regardless of run length.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from .observer import RunObserver, Totals

__all__ = ["ChaseProbe", "RoundSample"]


class RoundSample:
    """One sampled round. Plain attributes, converted to a dict on export."""

    __slots__ = (
        "round_index",
        "wall_seconds",
        "enumerate_seconds",
        "delta_size",
        "triggers_considered",
        "triggers_applied",
        "atoms_created",
        "nulls_invented",
        "index_builds",
    )

    def __init__(
        self,
        round_index: int,
        wall_seconds: float,
        delta_size: int,
        triggers_considered: int,
        triggers_applied: int,
        atoms_created: int,
        nulls_invented: int,
        index_builds: int,
        enumerate_seconds: float = 0.0,
    ) -> None:
        self.round_index = round_index
        self.wall_seconds = wall_seconds
        self.enumerate_seconds = enumerate_seconds
        self.delta_size = delta_size
        self.triggers_considered = triggers_considered
        self.triggers_applied = triggers_applied
        self.atoms_created = atoms_created
        self.nulls_invented = nulls_invented
        self.index_builds = index_builds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round_index,
            "wall_seconds": round(self.wall_seconds, 9),
            "enumerate_seconds": round(self.enumerate_seconds, 9),
            "delta_size": self.delta_size,
            "triggers_considered": self.triggers_considered,
            "triggers_applied": self.triggers_applied,
            "atoms_created": self.atoms_created,
            "nulls_invented": self.nulls_invented,
            "index_builds": self.index_builds,
        }


class ChaseProbe(RunObserver):
    """Collects per-round chase telemetry with bounded sampling."""

    __slots__ = (
        "sample_every",
        "max_samples",
        "samples",
        "rounds",
        "total_wall_seconds",
        "total_enumerate_seconds",
        "total_triggers_considered",
        "total_triggers_applied",
        "total_atoms_created",
        "total_nulls_invented",
        "total_index_builds",
        "_round_start",
        "_enumerate_seconds",
        "_stride",
        "_clock",
        "_delta_size",
        "_before",
        "_builds_before",
    )

    def __init__(self, sample_every: int = 1, max_samples: int = 512) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.sample_every = sample_every
        self.max_samples = max_samples
        self.samples: List[RoundSample] = []
        self.rounds = 0
        self.total_wall_seconds = 0.0
        self.total_enumerate_seconds = 0.0
        self.total_triggers_considered = 0
        self.total_triggers_applied = 0
        self.total_atoms_created = 0
        self.total_nulls_invented = 0
        self.total_index_builds = 0
        self._round_start = 0.0
        self._enumerate_seconds = 0.0
        self._stride = sample_every
        self._clock = time.perf_counter
        self._delta_size = 0
        self._before: Totals = (0, 0, 0, 0)
        self._builds_before = 0

    def round_start(self, store: Any, delta_size: int, totals: Totals) -> None:
        self.begin_round()
        self._delta_size = delta_size
        self._before = totals
        # Lazy index builds exist only on the store engine.
        self._builds_before = store.index_builds if store is not None else 0

    def enumerated(self, totals: Totals) -> None:
        self._enumerate_seconds = self._clock() - self._round_start

    def round_end(
        self, rounds: int, store: Any, marks: Any, totals: Totals, complete: bool
    ) -> None:
        before = self._before
        self.end_round(
            self._delta_size,
            totals[0] - before[0],
            totals[1] - before[1],
            totals[2] - before[2],
            nulls_invented=totals[3] - before[3],
            index_builds=(
                store.index_builds - self._builds_before if store is not None else 0
            ),
            enumerate_seconds=self._enumerate_seconds,
        )

    def payload(self) -> Tuple[str, Dict[str, Any]]:
        return "telemetry", self.as_dict()

    def begin_round(self) -> None:
        self._round_start = self._clock()
        self._enumerate_seconds = 0.0

    def end_round(
        self,
        delta_size: int,
        triggers_considered: int,
        triggers_applied: int,
        atoms_created: int,
        nulls_invented: int = 0,
        index_builds: int = 0,
        enumerate_seconds: float = 0.0,
    ) -> None:
        elapsed = self._clock() - self._round_start
        round_index = self.rounds
        self.rounds += 1
        self.total_wall_seconds += elapsed
        self.total_enumerate_seconds += enumerate_seconds
        self.total_triggers_considered += triggers_considered
        self.total_triggers_applied += triggers_applied
        self.total_atoms_created += atoms_created
        self.total_nulls_invented += nulls_invented
        self.total_index_builds += index_builds
        if round_index % self._stride:
            return
        self.samples.append(
            RoundSample(
                round_index,
                elapsed,
                delta_size,
                triggers_considered,
                triggers_applied,
                atoms_created,
                nulls_invented,
                index_builds,
                enumerate_seconds,
            )
        )
        if len(self.samples) > self.max_samples:
            # Decimate: keep every other sample, double the stride.  The
            # retained samples remain evenly spaced at the new stride.
            self.samples = self.samples[::2]
            self._stride *= 2

    def as_dict(self) -> Dict[str, Any]:
        """Summary payload for ``ChaseResult.summary()["telemetry"]``."""
        return {
            "rounds": self.rounds,
            "wall_seconds": round(self.total_wall_seconds, 9),
            "enumerate_seconds": round(self.total_enumerate_seconds, 9),
            "triggers_considered": self.total_triggers_considered,
            "triggers_applied": self.total_triggers_applied,
            "atoms_created": self.total_atoms_created,
            "nulls_invented": self.total_nulls_invented,
            "index_builds": self.total_index_builds,
            "sample_stride": self._stride,
            "samples": [sample.as_dict() for sample in self.samples],
        }
