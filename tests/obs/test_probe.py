"""Round-level chase instrumentation tests.

The core contract: attaching a :class:`ChaseProbe` changes *nothing*
about the chase result — the summary with the ``telemetry`` key popped
is identical to an unprobed run's summary — while the probe's totals
agree exactly with the engine's own statistics.
"""

import json

import pytest

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ENGINES
from repro.model.parser import parse_database, parse_program
from repro.obs.probe import ChaseProbe

PROGRAM = parse_program(
    "R(x, y) -> exists z . S(y, z)\n"
    "S(x, y) -> T(x)\n"
    "T(x) -> U(x)\n"
    "U(x) -> V(x)\n"
)
DATABASE = parse_database("R(a, b).\nR(b, c).\nR(c, d).")


class TestProbeMechanics:
    def test_totals_and_samples(self):
        probe = ChaseProbe()
        for i in range(5):
            probe.begin_round()
            probe.end_round(
                delta_size=i + 1, triggers_considered=10, triggers_applied=3,
                atoms_created=4, nulls_invented=2, index_builds=1,
            )
        document = probe.as_dict()
        assert document["rounds"] == 5
        assert document["triggers_considered"] == 50
        assert document["triggers_applied"] == 15
        assert document["atoms_created"] == 20
        assert document["nulls_invented"] == 10
        assert document["index_builds"] == 5
        assert [s["round"] for s in document["samples"]] == [0, 1, 2, 3, 4]
        assert document["sample_stride"] == 1
        assert json.dumps(document)  # JSON-serialisable as-is

    def test_decimation_keeps_totals_exact_and_memory_bounded(self):
        probe = ChaseProbe(max_samples=8)
        rounds = 1000
        for _ in range(rounds):
            probe.begin_round()
            probe.end_round(
                delta_size=1, triggers_considered=2, triggers_applied=1,
                atoms_created=1,
            )
        document = probe.as_dict()
        assert document["rounds"] == rounds
        assert document["triggers_considered"] == 2 * rounds  # totals never sampled
        assert len(document["samples"]) <= 8
        stride = document["sample_stride"]
        assert stride > 1 and stride & (stride - 1) == 0  # doubled each decimation
        indices = [s["round"] for s in document["samples"]]
        assert indices == sorted(indices)
        assert all(index % stride == 0 for index in indices)  # evenly spaced

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ChaseProbe(sample_every=0)
        with pytest.raises(ValueError):
            ChaseProbe(max_samples=1)


class TestEngineIntegration:
    @pytest.mark.parametrize("variant", sorted(VARIANT_RUNNERS))
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_probe_is_invisible_and_exact(self, variant, engine):
        runner = VARIANT_RUNNERS[variant]
        plain = runner(DATABASE, PROGRAM, engine=engine, record_derivation=False)
        probe = ChaseProbe()
        probed = runner(
            DATABASE, PROGRAM, engine=engine, record_derivation=False,
            observers=[probe],
        )
        probed_summary = probed.summary()
        telemetry = probed_summary.pop("telemetry")
        assert probed_summary == plain.summary()
        assert telemetry["rounds"] == probed.statistics.rounds
        assert telemetry["triggers_considered"] == probed.statistics.triggers_considered
        assert telemetry["triggers_applied"] == probed.statistics.triggers_applied
        assert len(telemetry["samples"]) == probed.statistics.rounds
        assert sum(s["triggers_applied"] for s in telemetry["samples"]) == (
            probed.statistics.triggers_applied
        )
        # The enumerate phase is a part of every round's wall time.
        for sample in telemetry["samples"]:
            assert 0.0 < sample["enumerate_seconds"] <= sample["wall_seconds"]
        assert telemetry["enumerate_seconds"] == pytest.approx(
            sum(s["enumerate_seconds"] for s in telemetry["samples"])
        )

    def test_store_probe_counts_nulls_and_delta(self):
        probe = ChaseProbe()
        result = VARIANT_RUNNERS["semi-oblivious"](
            DATABASE, PROGRAM, engine="store", record_derivation=False,
            observers=[probe],
        )
        telemetry = result.telemetry
        # One null per R fact (the exists z), none later.
        assert telemetry["nulls_invented"] == 3
        assert telemetry["samples"][0]["delta_size"] == len(DATABASE)
        assert sum(s["atoms_created"] for s in telemetry["samples"]) == (
            result.size - len(DATABASE)
        )

    def test_unprobed_summary_has_no_telemetry_key(self):
        result = VARIANT_RUNNERS["semi-oblivious"](
            DATABASE, PROGRAM, engine="store", record_derivation=False
        )
        assert "telemetry" not in result.summary()
        assert result.telemetry is None


class TestResumeStamping:
    def test_resumed_run_reports_base_rounds(self):
        base = VARIANT_RUNNERS["semi-oblivious"](
            DATABASE, PROGRAM, engine="store", record_derivation=False
        )
        assert base.terminated
        snapshot = base.store_snapshot()
        grown = parse_database("R(a, b).\nR(b, c).\nR(c, d).\nR(d, e).")
        resumed = VARIANT_RUNNERS["semi-oblivious"](
            grown, PROGRAM, engine="store", record_derivation=False,
            resume_from=snapshot,
        )
        summary = resumed.summary()
        assert summary["resumed"] is True
        assert summary["base_rounds"] == base.statistics.rounds
        cold = VARIANT_RUNNERS["semi-oblivious"](
            grown, PROGRAM, engine="store", record_derivation=False
        )
        assert "resumed" not in cold.summary()
        assert "base_rounds" not in cold.summary()

    def test_resumed_snapshot_accumulates_rounds(self):
        from repro.model.store import inspect_snapshot

        base = VARIANT_RUNNERS["semi-oblivious"](
            DATABASE, PROGRAM, engine="store", record_derivation=False
        )
        grown = parse_database("R(a, b).\nR(b, c).\nR(c, d).\nR(d, e).")
        resumed = VARIANT_RUNNERS["semi-oblivious"](
            grown, PROGRAM, engine="store", record_derivation=False,
            resume_from=base.store_snapshot(),
        )
        header = inspect_snapshot(resumed.store_snapshot())
        assert header["rounds"] == base.statistics.rounds + resumed.statistics.rounds
