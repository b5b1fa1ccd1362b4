"""Shared chase machinery: budgets, derivation records, results, drivers.

Every chase variant runs through one of two drivers over the same
skeleton — rounds of semi-naive trigger enumeration, an applied-trigger
memo, and a budget that bounds the materialised instance so that
provably non-terminating runs fail fast instead of exhausting memory:

``engine="store"`` (the default)
    The production driver (:meth:`BaseChaseEngine._run_columnar`) over
    the columnar :class:`~repro.model.store.FactStore`.  Every engine
    feature runs here: summary and derivation-recording runs, depth
    truncation, checkpoints and incremental ``resume_from`` re-chase.
``engine="legacy"``
    The original per-round rescan over the term-level homomorphism
    search (:meth:`BaseChaseEngine._run_legacy`): the executable
    specification the equivalence suites compare the store driver to,
    and the "before" engine of the benchmarks.

Both drivers send the same events to the run's ``observers``
(:class:`~repro.obs.observer.RunObserver`): the one seam the probe, the
profiler, the checkpointer and the ``worker.round`` fault point attach
to.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from functools import partial
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.model.atoms import Atom
from repro.model.homomorphism import (
    find_homomorphisms,
    find_homomorphisms_with_forced_atom,
)
from repro.model.instance import Instance
from repro.model.store import Fact, FactStore, collector_paused
from repro.model.terms import Null
from repro.model.tgd import TGDSet
from repro.obs.observer import RunObserver
from repro.chase.store_plan import StoreCompiledRule, compiled_pipeline
from repro.chase.trigger import Trigger

#: Engine implementations selectable per run: the columnar fact-store
#: driver (the default) and the legacy rescan (the executable
#: specification).
ENGINES = ("store", "legacy")


class ChaseOutcome(Enum):
    """Why a chase run stopped."""

    TERMINATED = "terminated"
    ATOM_BUDGET_EXCEEDED = "atom_budget_exceeded"
    DEPTH_BUDGET_EXCEEDED = "depth_budget_exceeded"
    ROUND_BUDGET_EXCEEDED = "round_budget_exceeded"
    TIME_BUDGET_EXCEEDED = "time_budget_exceeded"


@dataclass(frozen=True)
class ChaseBudget:
    """Resource limits for a chase run.

    A finite chase needs no budget; the defaults are generous enough for
    every terminating workload in the test-suite and benchmarks while
    letting non-terminating runs stop deterministically.
    """

    max_atoms: int = 1_000_000
    max_rounds: int = 1_000_000
    max_depth: Optional[int] = None
    max_seconds: Optional[float] = None
    truncate_at_depth: bool = False

    def replace(self, **changes: object) -> "ChaseBudget":
        """A copy with the given fields changed.

        All copy helpers go through :func:`dataclasses.replace` so a
        newly added budget field can never silently drop out of a copy.
        """
        return dataclasses.replace(self, **changes)

    def with_max_atoms(self, max_atoms: int) -> "ChaseBudget":
        return self.replace(max_atoms=max_atoms)

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON- and pickle-friendly), field for field."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class DerivationStep:
    """One trigger application: the trigger, its guard image, the new atoms."""

    trigger: Trigger
    guard_image: Optional[Atom]
    new_atoms: Tuple[Atom, ...]


@dataclass
class ChaseStatistics:
    """Counters reported by a chase run."""

    rounds: int = 0
    triggers_considered: int = 0
    triggers_applied: int = 0
    atoms_created: int = 0
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class EngineCheckpoint:
    """Frozen mid-run loop state a retried job resumes from.

    Produced by the executor from a :mod:`repro.runtime.checkpoint`
    blob.  Unlike ``resume_from`` (an incremental re-chase over a
    database delta), a checkpoint resumes the *same* run: the store
    blob is the instance as of a round boundary, ``marks`` are the
    per-predicate row counts delimiting that round's frontier, and the
    counters seed the statistics so the final summary is byte-identical
    to an uninterrupted run.  Only summary runs support it: the blob
    carries neither a recorded derivation prefix nor the
    depth-truncation flag.
    """

    store_blob: bytes
    marks: Tuple[int, ...]
    rounds: int
    considered: int
    applied: int
    created: int
    database_size: int


@dataclass
class ChaseResult:
    """The outcome of a chase run.

    Attributes
    ----------
    instance:
        The materialised instance (the chase result if ``terminated``).
        On the store engine this decodes *lazily* on first access: a
        caller that only reads the summary (the batch runtime's normal
        mode) never pays for atom materialisation at all.
    terminated:
        True iff the run reached a fixpoint within budget, i.e. the
        instance is ``chase(D, Σ)``.
    outcome:
        The precise stop reason.
    max_depth:
        ``maxdepth(D, Σ)`` of the materialised part (the true value if
        ``terminated``).
    derivation:
        The sequence of trigger applications, used to build the guarded
        chase forest; empty when recording was disabled.
    """

    terminated: bool
    outcome: ChaseOutcome
    statistics: ChaseStatistics
    max_depth: int
    database_size: int
    derivation: Tuple[DerivationStep, ...] = ()
    depth_truncated: bool = False
    #: Eagerly materialised instance (legacy engine) — internal,
    #: read through the ``instance`` property.
    _materialized: Optional[Instance] = None
    #: Pending decode source (store engine) plus its O(1) atom count.
    _store: Optional["FactStore"] = None
    _atom_count: int = 0
    #: Round-level probe payload (a ``ChaseProbe`` observer's) when the
    #: run carried a probe; ``None`` otherwise — and then absent from
    #: :meth:`summary`, which keeps unprobed summaries byte-identical.
    telemetry: Optional[Dict[str, object]] = None
    #: True for incremental (``resume_from``) runs, whose statistics
    #: cover only the delta work; ``base_rounds`` is the base run's
    #: round count when its snapshot carried one (else 0).
    resumed: bool = False
    base_rounds: int = 0
    #: Per-rule attribution payload (a ``RuleProfiler`` observer's) when
    #: the run carried a profiler; ``None`` otherwise — and then absent
    #: from :meth:`summary`, exactly like ``telemetry``.
    profile: Optional[Dict[str, object]] = None

    @property
    def instance(self) -> Instance:
        """The materialised instance (decoded from the store on demand)."""
        if self._materialized is None:
            assert self._store is not None
            self._materialized = self._store.to_instance()
            self._store = None
        return self._materialized

    def store_snapshot(self) -> Optional[bytes]:
        """Encode the result's fact store as transferable plain bytes.

        Only available on the store engine while the result is still
        backed by its store (i.e. before :attr:`instance` materialised
        and released it); returns ``None`` otherwise.  The bytes feed
        :func:`~repro.model.store.FactStore.restore` — and with it the
        executor's snapshot payloads and ``resume_from`` re-chase.
        Taking a snapshot does not consume the store: reading
        :attr:`instance` afterwards still works.
        """
        if self._store is None:
            return None
        return self._store.snapshot(
            complete=self.terminated,
            rounds=self.base_rounds + self.statistics.rounds,
        )

    @property
    def size(self) -> int:
        """Number of atoms in the result (O(1), no materialisation)."""
        if self._materialized is not None:
            return len(self._materialized)
        return self._atom_count

    def summary(self) -> Dict[str, object]:
        """A plain-data summary of the run (picklable, JSON-friendly).

        This is what the batch runtime ships across process boundaries
        and stores in the result cache.  It deliberately excludes
        wall-clock timings: two runs of the same job — serial, pooled,
        or replayed from cache — produce byte-identical summaries once
        serialised with ``json.dumps(..., sort_keys=True)``.

        The ``telemetry`` and ``resumed``/``base_rounds`` keys appear
        only when set (probe attached / incremental run), so summaries
        of plain runs keep their exact pre-existing shape.  Telemetry
        contains wall times and is stripped by the result cache before
        storing (see :meth:`repro.runtime.executor.BatchExecutor`).
        """
        summary: Dict[str, object] = {
            "outcome": self.outcome.value,
            "terminated": self.terminated,
            "size": self.size,
            "database_size": self.database_size,
            "max_depth": self.max_depth,
            "depth_truncated": self.depth_truncated,
            "expansion_ratio": round(self.expansion_ratio(), 6),
            "rounds": self.statistics.rounds,
            "triggers_considered": self.statistics.triggers_considered,
            "triggers_applied": self.statistics.triggers_applied,
            "atoms_created": self.statistics.atoms_created,
        }
        if self.resumed:
            # A resumed run's rounds/triggers cover only the delta work
            # — flag it so dashboards never read a 5%-delta re-chase as
            # a full run, and carry the base run's round offset.
            summary["resumed"] = True
            summary["base_rounds"] = self.base_rounds
        if self.telemetry is not None:
            summary["telemetry"] = self.telemetry
        if self.profile is not None:
            summary["profile"] = self.profile
        return summary

    def expansion_ratio(self) -> float:
        """``|chase(D, Σ)| / |D|`` (1.0 for an empty database)."""
        if self.database_size == 0:
            return 1.0
        return self.size / self.database_size


class BaseChaseEngine:
    """Round-based, semi-naive chase driver.

    Subclasses fix the two variant-specific choices: the identity of a
    trigger (what makes two trigger applications "the same") and how a
    trigger's result is produced (which binding labels its nulls, and
    when the trigger counts as active).  Each variant states them twice:
    as term-level hooks (:meth:`trigger_key`, :meth:`is_active`,
    :meth:`trigger_result`) for the legacy rescan, and as the id-space
    :meth:`store_evaluate` for the store driver.

    By default the driver runs on the interned fact store
    (``engine="store"``): predicates and terms are dictionary-encoded
    to dense ids, joins walk columnar posting lists of packed int
    tuples, and atoms are only materialised at API boundaries.
    ``engine="legacy"`` selects the original per-round rescan over the
    term-level homomorphism search — kept as the executable
    specification and the "before" engine for benchmarks and
    equivalence tests.

    ``observers`` (:class:`~repro.obs.observer.RunObserver`) receive
    the run's events in registration order; see :mod:`repro.obs.observer`
    for the protocol.  The default ``()`` keeps every loop unobserved.
    """

    #: Trigger identity: ``h|fr(σ)`` when True (semi-oblivious,
    #: restricted), the full ``h`` when False (oblivious).
    uses_frontier_identity: bool = True

    def __init__(self, tgds: TGDSet, budget: Optional[ChaseBudget] = None,
                 record_derivation: bool = True, engine: Optional[str] = None,
                 observers: Sequence[RunObserver] = ()) -> None:
        self.tgds = tgds
        self.budget = budget or ChaseBudget()
        self.record_derivation = record_derivation
        self.observers = tuple(observers)
        #: The observers that asked for ``rule_segment`` events.
        self.segment_observers = tuple(o for o in self.observers if o.rule_segments)
        if engine is None:
            engine = "store"
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")
        self.engine = engine

    # -- variant hooks (legacy engine) ----------------------------------------

    def trigger_key(self, trigger: Trigger):
        raise NotImplementedError

    def is_active(self, trigger: Trigger, instance: Instance) -> bool:
        raise NotImplementedError

    def trigger_result(self, trigger: Trigger) -> List[Atom]:
        raise NotImplementedError

    # -- variant hooks (store engine) -------------------------------------------

    def store_evaluate(
        self, store: FactStore, rule: StoreCompiledRule, canonical, key
    ) -> Optional[List[Fact]]:
        """The trigger's result facts if it is active, else ``None``.

        Runs entirely on interned ids — no atom or null objects.
        ``key`` is the trigger's applied-memo key, already built by the
        driver (variants reuse it instead of re-deriving the frontier).
        The shipped variants override this; the base raises so a
        forgotten override fails loudly instead of silently diverging.
        """
        raise NotImplementedError

    def _store_evaluate_by_containment(
        self, store: FactStore, rule: StoreCompiledRule, canonical, key
    ) -> Optional[List[Fact]]:
        """Shared store evaluate for the variants whose activeness is
        ``result ⊄ I``: the result doubles as the activeness witness,
        and its null labelling follows the variant's trigger identity
        (frontier or full binding)."""
        facts = rule.result_facts(
            store, canonical, full_labels=not self.uses_frontier_identity
        )
        contains = store.contains
        for pid, ids in facts:
            if not contains(pid, ids):
                return facts
        return None

    def _begin_store_run(self) -> None:
        """Reset per-run store-engine state (variant hook)."""

    # -- drivers --------------------------------------------------------------

    def run(
        self,
        database,
        resume_from: Optional[object] = None,
        database_size: Optional[int] = None,
        checkpoint: Optional[EngineCheckpoint] = None,
    ) -> ChaseResult:
        """Chase ``database`` (a :class:`Database` or ground instance).

        Store-engine extensions:

        * ``database`` may be a pre-seeded :class:`FactStore` (e.g.
          restored from a snapshot shipped by the batch executor), in
          which case its facts *are* the database and no parsing or
          interning happens here.  The legacy engine decodes it back to
          an :class:`Instance` first.
        * ``resume_from`` makes the run *incremental*: it is the
          snapshot (bytes, or a live :class:`FactStore`, which is then
          mutated in place) of a previously terminated chase over a
          database ``D₀ ⊆ database``.  Only the facts of ``database``
          not already present seed the trigger frontier, and the rounds
          replay the semi-naive pipeline from there — the store-engine
          analogue of resuming the chase after a database delta.  The
          caller usually passes only the delta as ``database`` and the
          full database's size as ``database_size`` (which otherwise
          defaults to ``len(database)``).
        * ``checkpoint`` restarts an *interrupted* run from its last
          mid-run checkpoint instead of cold: the store, frontier marks
          and statistics are seeded from the checkpoint and the loop
          continues where the dead run stopped.  Mutually exclusive
          with ``resume_from``; ``database`` is ignored (its facts are
          already in the checkpointed store).
        """
        if checkpoint is not None and resume_from is not None:
            raise ValueError("checkpoint and resume_from are mutually exclusive")
        if self.engine == "store":
            return self._run_columnar(
                database,
                resume_from=resume_from,
                database_size=database_size,
                checkpoint=checkpoint,
            )
        if checkpoint is not None:
            raise ValueError(
                "checkpoint resume requires the store engine "
                f"(this run uses engine={self.engine!r})"
            )
        if resume_from is not None:
            raise ValueError(
                "resume_from requires the store engine "
                f"(this run uses engine={self.engine!r})"
            )
        return self._run_legacy(database)

    def _run_legacy(self, database) -> ChaseResult:
        """The legacy rescan: the executable specification.

        Each round materialises its triggers with
        :meth:`_collect_triggers` and applies them through the
        term-level variant hooks.  The store driver must reproduce this
        loop's instances, statistics, budget verdicts and observer
        totals exactly.
        """
        if isinstance(database, FactStore):
            database = database.to_instance()
        start = time.perf_counter()
        instance = Instance(database)
        statistics = ChaseStatistics()
        derivation: List[DerivationStep] = []
        applied: Set = set()
        outcome = ChaseOutcome.TERMINATED
        depth_truncated = False
        budget = self.budget
        truncate = budget.truncate_at_depth and budget.max_depth is not None
        observers = self.observers
        segment_observers = self.segment_observers
        index_of = {t.rule_id: i for i, t in enumerate(self.tgds)}
        # The nulls total counts every null the instance holds, input
        # nulls included — the store's null_count() semantics.
        known_nulls: Set = {
            t for a in instance for t in a.args if isinstance(t, Null)
        }

        def totals() -> Tuple[int, int, int, int]:
            return (statistics.triggers_considered, statistics.triggers_applied,
                    statistics.atoms_created, len(known_nulls))

        driver_start = time.perf_counter()
        for observer in observers:
            observer.run_start([t.rule_id for t in self.tgds], ())
        delta: List[Atom] = list(instance)
        first_round = True
        while True:
            if statistics.rounds >= budget.max_rounds:
                outcome = ChaseOutcome.ROUND_BUDGET_EXCEEDED
                break
            for observer in observers:
                observer.round_start(None, len(delta), totals())
            # Materialise the round's triggers up front: the instance is
            # mutated while they are applied, so lazy enumeration would
            # race against the indexes it reads.  The walk is rule-major,
            # so rule segments open only where the rule changes.
            pending: List[Trigger] = []
            seg_tgd = None
            for trigger in self._collect_triggers(instance, delta, first_round):
                if segment_observers and trigger.tgd is not seg_tgd:
                    seg_tgd = trigger.tgd
                    _send_segment(segment_observers, totals(), index_of[seg_tgd.rule_id])
                pending.append(trigger)
            first_round = False
            for observer in observers:
                observer.enumerated(totals())
            new_atoms_this_round: List[Atom] = []
            over_budget = False
            seg_tgd = None
            for trigger in pending:
                if segment_observers and trigger.tgd is not seg_tgd:
                    seg_tgd = trigger.tgd
                    _send_segment(segment_observers, totals(), index_of[seg_tgd.rule_id])
                statistics.triggers_considered += 1
                key = self.trigger_key(trigger)
                if key in applied:
                    continue
                result_atoms = (
                    self.trigger_result(trigger)
                    if self.is_active(trigger, instance)
                    else None
                )
                if result_atoms is None:
                    applied.add(key)
                    continue
                if truncate:
                    kept = [a for a in result_atoms if a.depth() <= budget.max_depth]
                    if len(kept) < len(result_atoms):
                        depth_truncated = True
                        # Do not memoise the trigger: it produced atoms we
                        # refused to materialise, so it stays pending.
                        result_atoms = kept
                        if not result_atoms:
                            continue
                    else:
                        applied.add(key)
                else:
                    applied.add(key)
                added = instance.add_all(result_atoms)
                statistics.triggers_applied += 1
                statistics.atoms_created += len(added)
                if added:
                    known_nulls.update(
                        t for a in added for t in a.args if isinstance(t, Null)
                    )
                    new_atoms_this_round.extend(added)
                    if self.record_derivation:
                        derivation.append(
                            DerivationStep(
                                trigger=trigger,
                                guard_image=trigger.guard_image(),
                                new_atoms=tuple(added),
                            )
                        )
                if len(instance) > budget.max_atoms:
                    outcome = ChaseOutcome.ATOM_BUDGET_EXCEEDED
                    over_budget = True
                    break
                if budget.max_depth is not None and any(
                    a.depth() > budget.max_depth for a in added
                ):
                    outcome = ChaseOutcome.DEPTH_BUDGET_EXCEEDED
                    over_budget = True
                    break
                if (
                    budget.max_seconds is not None
                    and time.perf_counter() - start > budget.max_seconds
                ):
                    outcome = ChaseOutcome.TIME_BUDGET_EXCEEDED
                    over_budget = True
                    break
            statistics.rounds += 1
            for observer in observers:
                observer.round_end(statistics.rounds, None, None, totals(), not over_budget)
            if over_budget:
                break
            if not new_atoms_this_round:
                # Triggers may have fired without producing new atoms:
                # either way the fixpoint is reached.
                outcome = ChaseOutcome.TERMINATED
                break
            delta = new_atoms_this_round

        statistics.wall_seconds = time.perf_counter() - start
        _send_segment(segment_observers, totals(), -1)
        driver_seconds = time.perf_counter() - driver_start
        for observer in observers:
            observer.run_end(None, driver_seconds, driver_start - start)
        payloads = _payloads(observers)
        return ChaseResult(
            _materialized=instance,
            terminated=outcome is ChaseOutcome.TERMINATED,
            outcome=outcome,
            statistics=statistics,
            max_depth=instance.max_depth(),
            database_size=len(database),
            derivation=tuple(derivation),
            depth_truncated=depth_truncated,
            telemetry=payloads.get("telemetry"),
            profile=payloads.get("profile"),
        )

    @collector_paused()
    def _run_columnar(
        self,
        database,
        resume_from: Optional[object] = None,
        database_size: Optional[int] = None,
        checkpoint: Optional[EngineCheckpoint] = None,
    ) -> ChaseResult:
        """The store driver: the legacy loop over the columnar fact store.

        Semantically identical to :meth:`_run_legacy` — same trigger
        sets per round, same memoisation points, same budget verdicts,
        same statistics — restructured around what the columnar store
        makes free:

        * a round's delta is the row range past the previous round's
          :meth:`~repro.model.store.FactStore.row_marks`, read back by
          ``delta_pending_rows`` — never an accumulated fact list;
        * in summary runs the containment variants (semi-oblivious,
          oblivious) evaluate *add-first*: ``store.add`` already reports
          whether a fact was new, and "some result fact missing" is
          exactly "some add returned True", so the separate containment
          scan disappears — and a rule with one head atom and no
          existentials (the dominant shape in every benchmark family)
          is one getter call plus one add, no result list at all;
        * statistics accumulate in locals and fold back once per run.

        Derivation-recording and depth-truncating runs evaluate first
        (:meth:`store_evaluate`) and then apply the result:

        * truncation drops facts deeper than ``max_depth``; a trigger
          that lost facts is not memoised (it stays pending) and sets
          ``depth_truncated``.  A trigger whose missing facts were all
          truncated away while its kept facts were already present
          still counts as applied, exactly as in the legacy loop — the
          add-first shortcut would miss it;
        * recording decodes only the facts a trigger actually added
          into its :class:`DerivationStep`.

        With ``resume_from`` the first round is a *delta* round over
        only the facts of ``database`` that the restored store did not
        already contain: triggers whose body image lies entirely in the
        old store fired (or were found inactive) in the base run and
        are never re-enumerated, which is what makes a 5% database
        delta cost ~5% of the chase instead of 100%.

        The whole run holds :func:`~repro.model.store.collector_paused`:
        everything it allocates (packed facts, trigger keys, pending
        ``(rule, ids, key)`` tuples, observer totals) is acyclic, so the
        cyclic collector would walk it and free nothing.
        """
        start = time.perf_counter()
        budget = self.budget
        depth_limit = budget.max_depth
        truncate = budget.truncate_at_depth and depth_limit is not None
        record = self.record_derivation
        resumed = resume_from is not None
        # The first round's frontier: None enumerates every fact (a cold
        # run); otherwise the per-predicate row counts it starts past.
        marks: Optional[List[int]] = None
        if checkpoint is not None:
            if record or truncate:
                raise ValueError(
                    "checkpoint resume requires a summary run: the checkpoint "
                    "carries neither a recorded derivation nor the "
                    "depth-truncation flag"
                )
            # Same-run restart: the checkpointed store already holds the
            # database and every derived fact up to the checkpoint round,
            # so nothing is interned here; the saved marks delimit the
            # frontier the loop resumes from.  resumed stays False — the
            # seeded statistics make the final summary read exactly like
            # an uninterrupted run's.
            store = FactStore.restore(checkpoint.store_blob)
            marks = list(checkpoint.marks)
            database_size = checkpoint.database_size
        elif resumed:
            store = (
                resume_from
                if isinstance(resume_from, FactStore)
                else FactStore.restore(resume_from)
            )
            # The delta is every row the database adds past these marks.
            marks = store.row_marks()
            for atom in database:
                store.add_atom(atom)
            if database_size is None:
                database_size = len(database)
        elif isinstance(database, FactStore):
            store = database
            database_size = len(store)
        else:
            # Program first: a fresh store gives sch(Σ) the same ids in
            # every run, so every fresh run shares one compiled pipeline.
            store = FactStore()
            for predicate in self.tgds.predicates_in_order():
                store.intern_predicate(predicate)
            for atom in database:
                store.add_atom(atom)
            database_size = len(database)
        # The driver window starts here: store seeding and interning
        # above are reported to observers as setup seconds.
        driver_start = time.perf_counter()
        pipeline, compile_seconds = compiled_pipeline(
            self.tgds, store, self.uses_frontier_identity
        )
        observers = self.observers
        segment_observers = self.segment_observers
        for observer in observers:
            observer.run_start([r.rule_id for r in pipeline.rules], compile_seconds)
        self._begin_store_run()
        base_rounds = (store.restored_rounds or 0) if resumed else 0

        statistics = ChaseStatistics()
        derivation: List[DerivationStep] = []
        depth_truncated = False
        applied: Set = set()
        outcome = ChaseOutcome.TERMINATED
        uses_frontier = self.uses_frontier_identity
        store_evaluate = self.store_evaluate
        # Add-first needs neither per-trigger result lists (recording)
        # nor the evaluate-then-truncate order (truncation).
        add_first = (
            type(self).store_evaluate is BaseChaseEngine._store_evaluate_by_containment
            and not record
            and not truncate
        )
        full_labels = not uses_frontier
        add_fact = store.add
        fact_depth = store.fact_depth
        null_count = store.null_count
        max_atoms = budget.max_atoms
        max_rounds = budget.max_rounds
        max_seconds = budget.max_seconds
        perf_counter = time.perf_counter
        applied_add = applied.add
        if checkpoint is not None:
            # Same-run restart: the counters continue from the
            # checkpoint so the final statistics equal an uninterrupted
            # run's.  The applied memo is *not* restored — any trigger
            # first enumerable after the checkpoint round has a body
            # fact in that round's delta, so it was never enumerable
            # before; within-round duplicates re-prune against the
            # fresh memo.
            rounds = checkpoint.rounds
            considered = checkpoint.considered
            fired = checkpoint.applied
            created = checkpoint.created
        else:
            rounds = 0
            considered = 0
            fired = 0
            created = 0
        if marks is None:
            round_delta = len(store)
        else:
            # Resume and checkpoint runs start from a row-mark frontier.
            # Marks cover every pipeline predicate: a checkpointing run
            # took them after pipeline compile interned the program's
            # schema (and restore preserves interning), and predicates
            # interned after a resume's marks hold only delta rows.
            marks += [0] * (len(store.row_marks()) - len(marks))
            round_delta = len(store) - sum(marks)
        # Rule segments: pending lists are rule-major, so the loop sends
        # a rule_segment event only where the rule changes — the entire
        # per-trigger cost is one identity comparison, and none at all
        # unobserved.  Observers derive per-rule deltas from the totals.
        on_rule = None
        seg_rule = None
        while True:
            if rounds >= max_rounds:
                outcome = ChaseOutcome.ROUND_BUDGET_EXCEEDED
                break
            for observer in observers:
                observer.round_start(
                    store, round_delta, (considered, fired, created, null_count())
                )
            if segment_observers:
                # Enumeration changes no counter: one totals tuple
                # serves the whole pass.
                on_rule = partial(
                    _send_segment,
                    segment_observers,
                    (considered, fired, created, null_count()),
                )
                seg_rule = None
            if marks is None:
                pending = pipeline.initial_pending(store, uses_frontier, on_rule)
            else:
                pending = pipeline.delta_pending_rows(store, marks, uses_frontier, on_rule)
            for observer in observers:
                observer.enumerated((considered, fired, created, null_count()))
            marks = store.row_marks()
            size_before = len(store)
            over_budget = False
            for rule, ids, key in pending:
                if segment_observers and rule is not seg_rule:
                    seg_rule = rule
                    _send_segment(
                        segment_observers,
                        (considered, fired, created, null_count()),
                        rule.index,
                    )
                considered += 1
                if key in applied:
                    continue
                applied_add(key)
                if add_first:
                    # Add-first containment: the trigger was active iff
                    # any add reports a new fact — same verdict, same
                    # final store, no separate containment scan.
                    head_only = rule.head_only
                    if head_only is not None:
                        pid, getter = head_only
                        fact_ids = getter(ids)
                        if not add_fact(pid, fact_ids):
                            continue
                        fired += 1
                        created += 1
                        if (
                            depth_limit is not None
                            and fact_depth(fact_ids) > depth_limit
                        ):
                            outcome = ChaseOutcome.DEPTH_BUDGET_EXCEEDED
                            over_budget = True
                            break
                    elif rule.head_single_fresh is not None:
                        pid, fact_ids = rule.single_fresh_fact(store, ids, full_labels)
                        if not add_fact(pid, fact_ids):
                            continue
                        fired += 1
                        created += 1
                        if (
                            depth_limit is not None
                            and fact_depth(fact_ids) > depth_limit
                        ):
                            outcome = ChaseOutcome.DEPTH_BUDGET_EXCEEDED
                            over_budget = True
                            break
                    else:
                        added = 0
                        deep = False
                        for pid, fact_ids in rule.result_facts(
                            store, ids, full_labels=full_labels
                        ):
                            if add_fact(pid, fact_ids):
                                added += 1
                                if (
                                    depth_limit is not None
                                    and fact_depth(fact_ids) > depth_limit
                                ):
                                    deep = True
                        if not added:
                            continue
                        fired += 1
                        created += added
                        if deep:
                            outcome = ChaseOutcome.DEPTH_BUDGET_EXCEEDED
                            over_budget = True
                            break
                else:
                    result_facts = store_evaluate(store, rule, ids, key)
                    if result_facts is None:
                        continue
                    if truncate:
                        kept = [
                            f for f in result_facts if fact_depth(f[1]) <= depth_limit
                        ]
                        if len(kept) < len(result_facts):
                            depth_truncated = True
                            # Not memoised: the trigger stays pending.
                            applied.discard(key)
                            if not kept:
                                continue
                            result_facts = kept
                    fired += 1
                    added = [f for f in result_facts if add_fact(f[0], f[1])]
                    if added:
                        created += len(added)
                        if record:
                            trigger = rule.make_trigger(store, ids)
                            derivation.append(
                                DerivationStep(
                                    trigger=trigger,
                                    guard_image=trigger.guard_image(),
                                    new_atoms=tuple(
                                        store.decode_fact(pid, fids)
                                        for pid, fids in added
                                    ),
                                )
                            )
                        if depth_limit is not None and any(
                            fact_depth(fids) > depth_limit for _, fids in added
                        ):
                            outcome = ChaseOutcome.DEPTH_BUDGET_EXCEEDED
                            over_budget = True
                            break
                if len(store) > max_atoms:
                    outcome = ChaseOutcome.ATOM_BUDGET_EXCEEDED
                    over_budget = True
                    break
                if max_seconds is not None and perf_counter() - start > max_seconds:
                    outcome = ChaseOutcome.TIME_BUDGET_EXCEEDED
                    over_budget = True
                    break
            rounds += 1
            # The next round's frontier is exactly the rows this round
            # appended past its size watermark; marks still delimits
            # them — the exact frontier a checkpoint must freeze.
            round_delta = len(store) - size_before
            for observer in observers:
                observer.round_end(
                    rounds,
                    store,
                    marks,
                    (considered, fired, created, null_count()),
                    not over_budget,
                )
            if over_budget:
                break
            if not round_delta:
                outcome = ChaseOutcome.TERMINATED
                break
            # Free this round's pending list before the next one is built.
            pending = None

        statistics.rounds = rounds
        statistics.triggers_considered = considered
        statistics.triggers_applied = fired
        statistics.atoms_created = created
        statistics.wall_seconds = time.perf_counter() - start
        _send_segment(segment_observers, (considered, fired, created, null_count()), -1)
        driver_seconds = perf_counter() - driver_start
        for observer in observers:
            observer.run_end(store, driver_seconds, driver_start - start)
        payloads = _payloads(observers)
        return ChaseResult(
            _store=store,
            _atom_count=len(store),
            terminated=outcome is ChaseOutcome.TERMINATED,
            outcome=outcome,
            statistics=statistics,
            max_depth=store.max_depth(),
            database_size=database_size,
            derivation=tuple(derivation),
            depth_truncated=depth_truncated,
            telemetry=payloads.get("telemetry"),
            profile=payloads.get("profile"),
            resumed=resumed,
            base_rounds=base_rounds,
        )

    # -- trigger enumeration -----------------------------------------------------

    def _collect_triggers(
        self, instance: Instance, delta: Sequence[Atom], first_round: bool
    ) -> Iterator[Trigger]:
        """Enumerate candidate triggers, semi-naively after the first round.

        This is the legacy (``engine="legacy"``) path: it rescans every
        (rule, body-atom) pair against the round's delta with the
        term-level homomorphism search.  In the first round every body
        homomorphism is considered.  In later rounds only triggers whose
        body image uses at least one atom from ``delta`` (the atoms
        derived in the previous round) can be new, so each body atom is
        forced onto each delta atom in turn.
        """
        if first_round:
            for tgd in self.tgds:
                for substitution in find_homomorphisms(tgd.body, instance):
                    yield Trigger.from_substitution(tgd, substitution)
            return
        delta_by_predicate: Dict = {}
        for a in delta:
            delta_by_predicate.setdefault(a.predicate, []).append(a)
        seen: Set = set()
        for tgd in self.tgds:
            for index, body_atom in enumerate(tgd.body):
                for forced in delta_by_predicate.get(body_atom.predicate, ()):
                    for substitution in find_homomorphisms_with_forced_atom(
                        tgd.body, instance, index, forced
                    ):
                        trigger = Trigger.from_substitution(tgd, substitution)
                        key = (tgd.rule_id, trigger.homomorphism)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield trigger


def _send_segment(
    observers: Sequence[RunObserver], totals: Tuple[int, int, int, int], rule_index: int
) -> None:
    for observer in observers:
        observer.rule_segment(rule_index, totals)


def _payloads(observers: Sequence[RunObserver]) -> Dict[str, Dict[str, object]]:
    """Each observer's published payload, keyed by its summary key."""
    published = (observer.payload() for observer in observers)
    return dict(item for item in published if item is not None)
