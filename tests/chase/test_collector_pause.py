"""The store driver's collector pause: its safety precondition and its semantics.

``_run_columnar`` and ``FactStore.to_instance`` run under
:func:`~repro.model.store.collector_paused`.  That is only safe while
neither leaves reference cycles behind: cyclic garbage made during the
pause is promoted with the region's survivors at its exit and waits
for the next full collection, so a cycle per run would grow the heap.
Each case below therefore runs with the collector off and asserts that
a full collection afterwards finds nothing.  The second half pins the
pause's own semantics: one young-and-middle collection at the entry,
promotion at the exit, nesting, restoring the caller's setting and
frozen objects, exceptions, and overlapping runs on two threads.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.chase import store_plan
from repro.chase.engine import ChaseBudget, EngineCheckpoint
from repro.chase.oblivious import oblivious_chase
from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.decision import syntactic_decision
from repro.core.simplification import simplify_program
from repro.core.termination_analysis import analyze_termination
from repro.generators.families import guarded_lower_bound, linear_lower_bound, sl_lower_bound
from repro.generators.random_programs import (
    random_database,
    random_guarded_program,
    random_linear_program,
)
from repro.generators.workloads import restricted_heavy
from repro.model.parser import parse_database, parse_program
from repro.model import store
from repro.model.store import FactStore, collector_paused
from repro.model.tgd import TGDSet
from repro.obs.observer import RunObserver
from repro.obs.probe import ChaseProbe
from repro.obs.profile import RuleProfiler
from repro.runtime.checkpoint import RoundCheckpointer, load_checkpoint
from repro.runtime.faults import FaultError, FaultInjector, FaultPlan, FaultSpec, RoundFaultPoint

VARIANTS = [semi_oblivious_chase, oblivious_chase, restricted_chase]
VARIANT_IDS = ["semi", "oblivious", "restricted"]
BUDGET = ChaseBudget(max_atoms=20_000, max_rounds=200)


def cyclic_garbage(run) -> int:
    """Objects a full collection frees after ``run()`` ran with the collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def inputs():
    return [sl_lower_bound(2, 2, 2), linear_lower_bound(2, 2, 2), guarded_lower_bound(1, 1, 1)]


class TestStoreRunsCreateNoCycles:
    @pytest.mark.parametrize("runner", VARIANTS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("record", [False, True], ids=["summary", "recorded"])
    def test_summary_and_recorded_runs(self, runner, record):
        for database, tgds in inputs():
            assert cyclic_garbage(
                lambda: runner(database, tgds, budget=BUDGET, record_derivation=record)
            ) == 0

    @pytest.mark.parametrize("runner", [semi_oblivious_chase, oblivious_chase])
    def test_truncated_run(self, runner):
        database, tgds = sl_lower_bound(2, 2, 2)
        budget = BUDGET.replace(max_depth=1, truncate_at_depth=True)
        for record in (False, True):
            result = None

            def run():
                nonlocal result
                result = runner(database, tgds, budget=budget, record_derivation=record)

            assert cyclic_garbage(run) == 0
            assert result.depth_truncated

    @pytest.mark.parametrize("runner", VARIANTS, ids=VARIANT_IDS)
    def test_atom_budget_stop(self, runner):
        database, tgds = parse_database("R(a, b)."), parse_program("R(x, y) -> exists z . R(y, z)")
        result = None

        def run():
            nonlocal result
            result = runner(
                database, tgds, budget=ChaseBudget(max_atoms=50), record_derivation=False
            )

        assert cyclic_garbage(run) == 0
        assert result.outcome.value == "atom_budget_exceeded"

    def test_resume_from_snapshot_and_live_store(self):
        database, tgds = sl_lower_bound(2, 2, 2)
        facts = list(database)
        base_db = parse_database("\n".join(f"{a}." for a in facts[: len(facts) // 2]))
        base = semi_oblivious_chase(base_db, tgds, budget=BUDGET, record_derivation=False)
        blob = base.store_snapshot()
        assert cyclic_garbage(
            lambda: semi_oblivious_chase(
                database, tgds, budget=BUDGET, record_derivation=False, resume_from=blob
            )
        ) == 0
        live = FactStore.restore(blob)
        assert cyclic_garbage(
            lambda: semi_oblivious_chase(
                database, tgds, budget=BUDGET, record_derivation=False, resume_from=live
            )
        ) == 0

    def test_observers_and_checkpoint_restart(self, tmp_path):
        database, tgds = sl_lower_bound(2, 2, 2)
        path = tmp_path / "run.ckpt"
        observers = [
            ChaseProbe(),
            RuleProfiler(),
            RoundCheckpointer(str(path), every_rounds=1, database_size=len(database)),
        ]
        full = None

        def observed():
            nonlocal full
            full = semi_oblivious_chase(
                database, tgds, budget=BUDGET, record_derivation=False, observers=observers
            )

        assert cyclic_garbage(observed) == 0
        assert full.telemetry is not None and full.profile is not None
        header, blob = load_checkpoint(str(path))
        checkpoint = EngineCheckpoint(
            store_blob=blob,
            marks=tuple(header["marks"]),
            rounds=header["rounds"],
            considered=header["considered"],
            applied=header["applied"],
            created=header["created"],
            database_size=header["database_size"],
        )
        restarted = None

        def restart():
            nonlocal restarted
            restarted = semi_oblivious_chase(
                database, tgds, budget=BUDGET, record_derivation=False, checkpoint=checkpoint
            )

        assert cyclic_garbage(restart) == 0
        assert restarted.summary() == {
            k: v for k, v in full.summary().items() if k not in ("telemetry", "profile")
        }

    def test_kernel_compiled_inside_the_run(self):
        # A rule shape no other test uses: its join kernels and rule
        # template are generated and exec'd inside the paused run.
        tgds = parse_program(
            "Gz(x1, x2, x3, x4, x5, x6, x7), Hz(x7, x6, x5, x4, x3, x2, x1, x1) "
            "-> exists w . Kz(x1, w, x7, x7, x2, w, x6, x6, x3)"
        )
        database = parse_database("Gz(a, b, c, d, e, f, g).\nHz(g, f, e, d, c, b, a, a).")
        kernels, templates = len(store_plan._KERNELS), len(store_plan._TEMPLATES)
        assert cyclic_garbage(
            lambda: semi_oblivious_chase(database, tgds, record_derivation=False)
        ) == 0
        assert len(store_plan._KERNELS) > kernels
        assert len(store_plan._TEMPLATES) > templates

    def test_decode(self):
        database, tgds = restricted_heavy(20, 5)
        for runner in VARIANTS:
            result = runner(database, tgds, budget=BUDGET, record_derivation=False)
            restored = FactStore.restore(result.store_snapshot())
            assert cyclic_garbage(lambda: result.instance) == 0
            assert cyclic_garbage(restored.to_instance) == 0


class TestClosureCyclesBroken:
    """The recursive searches and the deciders outside the pause leave no
    cycles either."""

    def test_legacy_chase(self):
        database, tgds = sl_lower_bound(2, 2, 1)
        assert cyclic_garbage(
            lambda: semi_oblivious_chase(database, tgds, engine="legacy").instance
        ) == 0

    def test_simplify(self):
        program = random_linear_program(3)
        assert cyclic_garbage(lambda: simplify_program(program)) == 0

    def test_guarded_syntactic_decision(self):
        # simple(lin(Σ)) is rebuilt per call; its memoised graphs must
        # not point back at it.
        program = random_guarded_program(8)
        database = random_database(program, 1008, fact_count=8, constant_count=4)
        assert cyclic_garbage(lambda: syntactic_decision(database, program)) == 0

    def test_analyze_termination(self):
        # A fresh program, so every Σ-side memo is built inside the call.
        database, tgds = guarded_lower_bound(1, 1, 1)
        fresh = TGDSet(list(tgds), name=tgds.name)
        assert cyclic_garbage(lambda: analyze_termination(database, fresh)) == 0


class CollectorState(RunObserver):
    """Records ``gc.isenabled()`` at every round start."""

    def __init__(self) -> None:
        self.seen = []

    def round_start(self, store, delta_size, totals) -> None:
        self.seen.append(gc.isenabled())


class TestPauseSemantics:
    def test_observers_see_the_pause_on_the_store_engine_only(self):
        assert gc.isenabled()
        database, tgds = sl_lower_bound(2, 2, 1)
        for engine, expected in (("store", False), ("legacy", True)):
            state = CollectorState()
            semi_oblivious_chase(database, tgds, engine=engine, observers=[state])
            assert state.seen and set(state.seen) == {expected}
        assert gc.isenabled()

    def test_no_collection_inside_a_chase_and_its_decode(self):
        database, tgds = sl_lower_bound(2, 3, 16)
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        # The callback sees every collection gc.get_stats() counts;
        # reading the stats themselves would allocate, and could be
        # what triggers a collection.
        gc.collect()
        frozen = gc.get_freeze_count()
        gc.callbacks.append(record)
        try:
            result = semi_oblivious_chase(database, tgds, record_derivation=False)
            instance = result.instance
            young = gc.get_count()[0]
        finally:
            gc.callbacks.remove(record)
        # Unpaused, a run this size triggers a young collection every
        # 700 net allocations.  Paused, the only collections are the
        # young-and-middle ones at the two outermost entries (the run,
        # then the decode).
        threshold = gc.get_threshold()[0]
        assert len(instance) > 10 * threshold
        if frozen:
            # An interpreter that starts with frozen objects of its own
            # (CPython 3.12.1 has 375) keeps them frozen: the exits do
            # not promote, so the first allocations after each exit may
            # trigger one young collection.
            assert [g for g in starts if g] == [1, 1] and starts[0] == 1
            assert starts.count(0) <= 2
            assert gc.get_freeze_count() == frozen
            return
        # Each exit promoted what its region left alive to the oldest
        # generation, so no young collection follows to walk the store
        # or the decoded instance.
        assert starts == [1, 1]
        assert young < threshold
        atom = next(iter(instance))
        assert any(obj is atom for obj in gc.get_objects(generation=2))

    def test_young_cycles_are_finalized_at_the_entry(self):
        database, tgds = sl_lower_bound(2, 2, 1)
        finalized = []
        at_run_start = []

        class RunStart(RunObserver):
            def run_start(self, rule_ids, compile_seconds) -> None:
                at_run_start.append(list(finalized))

        class Node:
            pass

        def on_finalize() -> None:
            # A finalizer may enter the pause itself: the entry
            # collection must not run under the pause's lock.
            with collector_paused():
                finalized.append(True)

        def run() -> None:
            semi_oblivious_chase(database, tgds, observers=[RunStart()])

        threshold = gc.get_threshold()
        gc.collect()
        # No automatic collection may free the cycle before the run.
        gc.set_threshold(10**9)
        try:
            node = Node()
            node.self = node
            weakref.finalize(node, on_finalize)
            del node
            # A daemon thread with a timeout: a deadlock fails the test
            # instead of hanging the session.
            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            gc.set_threshold(*threshold)
        assert at_run_start == [[True]]
        assert gc.isenabled()

    def test_objects_the_caller_froze_stay_frozen(self):
        database, tgds = sl_lower_bound(2, 2, 1)
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen
            semi_oblivious_chase(database, tgds).instance
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_no_collector_event_while_the_caller_holds_it_off(self):
        database, tgds = sl_lower_bound(2, 3, 16)
        events = []

        def record(phase, info):
            events.append((phase, info["generation"]))

        gc.disable()
        gc.callbacks.append(record)
        try:
            semi_oblivious_chase(database, tgds, record_derivation=False).instance
        finally:
            gc.callbacks.remove(record)
            gc.enable()
        assert events == []

    def test_nested_pauses(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        database, tgds = sl_lower_bound(2, 2, 1)
        gc.disable()
        try:
            semi_oblivious_chase(database, tgds).instance
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_exception_inside_the_driver_restores_the_collector(self):
        database, tgds = sl_lower_bound(2, 2, 2)
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(point="worker.round", action="error"),))
        )
        assert gc.isenabled()
        with pytest.raises(FaultError):
            semi_oblivious_chase(
                database, tgds, observers=[RoundFaultPoint(injector, job="j")]
            )
        assert gc.isenabled()

    def test_overlapping_runs_on_two_threads(self):
        database, tgds = sl_lower_bound(2, 2, 2)
        both_running = threading.Barrier(2, timeout=30)
        first_done = threading.Event()
        seen_after_first = []
        errors = []

        class Overlap(RunObserver):
            def __init__(self, second: bool) -> None:
                self.second = second
                self.waited = False

            def round_start(self, store, delta_size, totals) -> None:
                if self.waited:
                    return
                self.waited = True
                both_running.wait()
                if self.second:
                    assert first_done.wait(timeout=30)
                    seen_after_first.append(gc.isenabled())

        def run(second: bool) -> None:
            try:
                semi_oblivious_chase(database, tgds, observers=[Overlap(second)]).instance
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            if not second:
                first_done.set()

        assert gc.isenabled()
        threads = [threading.Thread(target=run, args=(second,)) for second in (False, True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        # The first run's exit left the second's pause in force.
        assert seen_after_first == [False]
        assert gc.isenabled()

    def test_depth_counter_under_thread_contention(self):
        # More threads than cores, switching as often as the interpreter
        # allows: a lost update to the depth counter would leave the
        # collector off, or switch it back on inside another pause.
        rounds = 2_000
        errors = []

        def hammer() -> None:
            try:
                for _ in range(rounds):
                    with collector_paused():
                        if gc.isenabled():
                            errors.append("collector on inside a pause")
                        with collector_paused():
                            [()]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert store._pause_depth == 0
        assert gc.isenabled()
