"""Chase engines.

Implements the semi-oblivious chase (the paper's object of study) plus
the oblivious and restricted variants used as baselines, the guarded
chase forest of Section 5, and depth bookkeeping (Definition 4.3).
"""

from repro.chase.store_plan import StoreCompiledRule, StoreTriggerPipeline
from repro.chase.trigger import Trigger
from repro.chase.engine import (
    ENGINES,
    ChaseBudget,
    ChaseResult,
    ChaseStatistics,
    DerivationStep,
)
from repro.chase.semi_oblivious import SemiObliviousChase, semi_oblivious_chase
from repro.chase.oblivious import ObliviousChase, oblivious_chase
from repro.chase.restricted import RestrictedChase, restricted_chase
from repro.chase.forest import GuardedChaseForest, build_guarded_forest
from repro.chase.depth import instance_max_depth, max_depth

#: The single registry of chase variants, keyed by CLI/manifest
#: spelling.  The CLI, the batch runtime's job validation and its
#: worker dispatch all derive from this map — adding a variant here is
#: the only edit needed to expose it everywhere.
VARIANT_RUNNERS = {
    "semi-oblivious": semi_oblivious_chase,
    "restricted": restricted_chase,
    "oblivious": oblivious_chase,
}

__all__ = [
    "VARIANT_RUNNERS",
    "ENGINES",
    "Trigger",
    "StoreCompiledRule",
    "StoreTriggerPipeline",
    "ChaseBudget",
    "ChaseResult",
    "ChaseStatistics",
    "DerivationStep",
    "SemiObliviousChase",
    "semi_oblivious_chase",
    "ObliviousChase",
    "oblivious_chase",
    "RestrictedChase",
    "restricted_chase",
    "GuardedChaseForest",
    "build_guarded_forest",
    "instance_max_depth",
    "max_depth",
]
