"""The run-observer contract (obs/observer.py).

Both chase drivers send one event stream to their observers.  The
contract pinned here:

(a) the store driver and the legacy rescan report the same running
    totals at every round end and at every round's end of enumeration
    (``enumerated``, once per round), and the same per-rule segment
    totals, for every variant on random SL/L/G programs;
(b) per-rule segment totals sum to the run's ``ChaseStatistics``;
(c) observers receive every event in registration order;
(d) ``complete=False`` marks only the round a budget stopped, and the
    checkpointer writes nothing on it (nor on the fixpoint round).
"""

import pytest

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ENGINES, ChaseBudget, ChaseOutcome
from repro.generators.random_programs import (
    random_database,
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.model.parser import parse_database, parse_program
from repro.obs.observer import RunObserver
from repro.runtime.checkpoint import RoundCheckpointer, load_checkpoint

BUDGET = ChaseBudget(max_rounds=8, max_atoms=5_000)

GENERATORS = {
    "sl": random_simple_linear_program,
    "l": random_linear_program,
    "g": random_guarded_program,
}


class Recorder(RunObserver):
    """Records round-end totals and folds segments into per-rule totals."""

    rule_segments = True

    def __init__(self):
        self.initial = None
        self.rounds = []
        self.enumerated_totals = []
        self.rule_totals = {}
        self._rule_ids = []
        self._open = -1
        self._anchor = None

    def run_start(self, rule_ids, compile_seconds):
        self._rule_ids = list(rule_ids)
        self._open = -1

    def round_start(self, store, delta_size, totals):
        if self.initial is None:
            self.initial = totals

    def rule_segment(self, rule_index, totals):
        if self._open >= 0:
            bucket = self.rule_totals.setdefault(self._rule_ids[self._open], [0, 0, 0, 0])
            for i in range(4):
                bucket[i] += totals[i] - self._anchor[i]
        self._open = rule_index
        self._anchor = totals

    def enumerated(self, totals):
        self.enumerated_totals.append(totals)

    def round_end(self, rounds, store, marks, totals, complete):
        self.rounds.append((rounds, totals, complete))

    def nonzero_rule_totals(self):
        return {rule: tuple(t) for rule, t in self.rule_totals.items() if any(t)}


class Logger(RunObserver):
    """Appends ``(name, event)`` to a shared log for every event."""

    rule_segments = True

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def run_start(self, rule_ids, compile_seconds):
        self.log.append((self.name, "run_start"))

    def round_start(self, store, delta_size, totals):
        self.log.append((self.name, "round_start"))

    def rule_segment(self, rule_index, totals):
        self.log.append((self.name, "rule_segment"))

    def enumerated(self, totals):
        self.log.append((self.name, "enumerated"))

    def round_end(self, rounds, store, marks, totals, complete):
        self.log.append((self.name, "round_end"))

    def run_end(self, store, driver_seconds, setup_seconds):
        self.log.append((self.name, "run_end"))


def _observed(variant, engine, database, tgds, budget=BUDGET):
    recorder = Recorder()
    result = VARIANT_RUNNERS[variant](
        database, tgds, budget=budget, record_derivation=False, engine=engine,
        observers=[recorder],
    )
    return result, recorder


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("variant", sorted(VARIANT_RUNNERS))
def test_store_and_legacy_emit_the_same_totals(variant, kind, seed):
    tgds = GENERATORS[kind](seed, rule_count=4)
    database = random_database(tgds, seed=seed + 900, fact_count=8, constant_count=3)
    store, store_events = _observed(variant, "store", database, tgds)
    legacy, legacy_events = _observed(variant, "legacy", database, tgds)
    assert store.outcome == legacy.outcome
    assert store_events.rounds == legacy_events.rounds
    assert store_events.enumerated_totals == legacy_events.enumerated_totals
    assert len(store_events.enumerated_totals) == len(store_events.rounds)
    assert store_events.nonzero_rule_totals() == legacy_events.nonzero_rule_totals()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", sorted(VARIANT_RUNNERS))
def test_rule_totals_sum_to_statistics(variant, engine):
    tgds = random_guarded_program(3, rule_count=5)
    database = random_database(tgds, seed=77, fact_count=10, constant_count=3)
    result, recorder = _observed(variant, engine, database, tgds)
    stats = result.statistics
    final = recorder.rounds[-1][1]
    assert final[:3] == (
        stats.triggers_considered, stats.triggers_applied, stats.atoms_created
    )
    for i in range(4):
        rule_sum = sum(t[i] for t in recorder.rule_totals.values())
        assert rule_sum == final[i] - recorder.initial[i]
    assert recorder.initial[:3] == (0, 0, 0)


@pytest.mark.parametrize("engine", ENGINES)
def test_observers_see_events_in_registration_order(engine):
    log = []
    program = parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> T(x)")
    VARIANT_RUNNERS["semi-oblivious"](
        parse_database("R(a, b).\nR(b, c)."), program, record_derivation=False,
        engine=engine, observers=[Logger("first", log), Logger("second", log)],
    )
    assert log, "no events were sent"
    assert len(log) % 2 == 0
    for first, second in zip(log[::2], log[1::2]):
        assert first[0] == "first" and second[0] == "second"
        assert first[1] == second[1]
    events = [event for name, event in log[::2]]
    assert events[0] == "run_start" and events[-1] == "run_end"
    assert events.count("round_start") == events.count("round_end")
    assert events.count("enumerated") == events.count("round_end")


@pytest.mark.parametrize("engine", ENGINES)
def test_only_the_budget_stopped_round_is_incomplete(engine, tmp_path):
    path = tmp_path / "job.ckpt"
    checkpointer = RoundCheckpointer(str(path), every_rounds=1)
    recorder = Recorder()
    result = VARIANT_RUNNERS["semi-oblivious"](
        parse_database("R(a, b)."),
        parse_program("R(x, y) -> exists z . R(y, z)"),
        budget=ChaseBudget(max_atoms=5),
        record_derivation=False,
        engine=engine,
        observers=[checkpointer, recorder],
    )
    assert result.outcome is ChaseOutcome.ATOM_BUDGET_EXCEEDED
    flags = [complete for _, _, complete in recorder.rounds]
    assert flags == [True] * (len(flags) - 1) + [False]
    if engine == "store":
        # One write per completed round; the stopped round left the
        # last complete round's state on disk.
        assert checkpointer.writes == len(flags) - 1
        header, _ = load_checkpoint(str(path))
        assert header["rounds"] == len(flags) - 1
    else:
        # The legacy engine has no store to freeze.
        assert checkpointer.writes == 0
        assert not path.exists()


def test_fixpoint_round_is_not_checkpointed(tmp_path):
    """A checkpoint of the round that created nothing would resume into
    one extra empty round; the last checkpoint is the round before."""
    path = tmp_path / "job.ckpt"
    checkpointer = RoundCheckpointer(str(path), every_rounds=1)
    recorder = Recorder()
    result = VARIANT_RUNNERS["semi-oblivious"](
        parse_database("R(a, b)."),
        parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> T(x)"),
        record_derivation=False,
        observers=[checkpointer, recorder],
    )
    assert result.terminated and result.statistics.rounds == 3
    assert checkpointer.writes == 2
    header, _ = load_checkpoint(str(path))
    assert header["rounds"] == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_round_budget_stops_between_complete_rounds(engine):
    recorder = Recorder()
    result = VARIANT_RUNNERS["semi-oblivious"](
        parse_database("R(a, b)."),
        parse_program("R(x, y) -> exists z . R(y, z)"),
        budget=ChaseBudget(max_rounds=4),
        record_derivation=False,
        engine=engine,
        observers=[recorder],
    )
    assert result.outcome is ChaseOutcome.ROUND_BUDGET_EXCEEDED
    assert [complete for _, _, complete in recorder.rounds] == [True] * 4
