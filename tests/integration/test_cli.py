"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

RULES_TERMINATING = "Employee(x) -> exists d . WorksIn(x, d)\nWorksIn(x, d) -> Dept(d)\n"
RULES_LOOPING = "R(x, y) -> exists z . R(y, z)\n"
FACTS = "Employee(alice).\nEmployee(bob).\n"
FACTS_R = "R(a, b).\n"


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestClassify:
    def test_classify_simple_linear(self, files, capsys):
        rules = files("onto.rules", RULES_TERMINATING)
        assert main(["classify", rules]) == 0
        output = capsys.readouterr().out
        assert "class: SL" in output
        assert "depth bound" in output

    def test_classify_arbitrary(self, files, capsys):
        rules = files("onto.rules", "R(x, y), R(y, z) -> S(x, z)\n")
        assert main(["classify", rules]) == 0
        assert "class: TGD" in capsys.readouterr().out


class TestDecide:
    def test_decide_terminating(self, files, capsys):
        rules = files("onto.rules", RULES_TERMINATING)
        data = files("db.facts", FACTS)
        assert main(["decide", rules, data]) == 0
        assert "terminates" in capsys.readouterr().out

    def test_decide_nonterminating(self, files, capsys):
        rules = files("onto.rules", RULES_LOOPING)
        data = files("db.facts", FACTS_R)
        assert main(["decide", rules, data]) == 1
        assert "does not terminate" in capsys.readouterr().out

    def test_decide_with_explicit_method(self, files, capsys):
        rules = files("onto.rules", RULES_LOOPING)
        data = files("db.facts", FACTS_R)
        assert main(["decide", rules, data, "--method", "ucq"]) == 1

    def test_decide_terminating_arbitrary_class(self, files, capsys):
        # Decided by the naive method; there is no f_C bound for class
        # TGD, so none is printed (this used to crash).
        rules = files("onto.rules", "R(x, y) -> exists z . S(y, z)\nS(x, y), R(w, x) -> T(w, y)\n")
        data = files("db.facts", FACTS_R)
        assert main(["decide", rules, data]) == 0
        output = capsys.readouterr().out
        assert "terminates" in output
        assert "size bound" not in output


class TestChase:
    def test_chase_to_stdout(self, files, capsys):
        rules = files("onto.rules", RULES_TERMINATING)
        data = files("db.facts", FACTS)
        assert main(["chase", rules, data]) == 0
        output = capsys.readouterr().out
        assert "WorksIn(alice" in output
        assert "Dept(" in output

    def test_chase_to_file(self, files, tmp_path, capsys):
        rules = files("onto.rules", RULES_TERMINATING)
        data = files("db.facts", FACTS)
        out_file = tmp_path / "materialised.facts"
        assert main(["chase", rules, data, "--output", str(out_file)]) == 0
        assert "Dept(" in out_file.read_text()

    def test_chase_budget_exceeded_returns_nonzero(self, files, capsys):
        rules = files("onto.rules", RULES_LOOPING)
        data = files("db.facts", FACTS_R)
        assert main(["chase", rules, data, "--max-atoms", "50"]) == 1

    def test_chase_variants(self, files, capsys):
        rules = files("onto.rules", RULES_TERMINATING)
        data = files("db.facts", FACTS)
        for variant in ["restricted", "oblivious", "semi-oblivious"]:
            assert main(["chase", rules, data, "--variant", variant]) == 0

    def test_chase_max_depth_budget(self, files, capsys):
        rules = files("onto.rules", RULES_LOOPING)
        data = files("db.facts", FACTS_R)
        assert main(["chase", rules, data, "--max-depth", "3"]) == 1
        assert "depth_budget_exceeded" in capsys.readouterr().err

    def test_chase_max_rounds_budget(self, files, capsys):
        rules = files("onto.rules", RULES_LOOPING)
        data = files("db.facts", FACTS_R)
        assert main(["chase", rules, data, "--max-rounds", "2"]) == 1
        assert "round_budget_exceeded" in capsys.readouterr().err

    def test_chase_max_seconds_budget(self, files, capsys):
        rules = files("onto.rules", RULES_LOOPING)
        data = files("db.facts", FACTS_R)
        assert main(["chase", rules, data, "--max-seconds", "0.0"]) == 1
        assert "time_budget_exceeded" in capsys.readouterr().err

    def test_chase_json_format(self, files, capsys):
        rules = files("onto.rules", RULES_TERMINATING)
        data = files("db.facts", FACTS)
        assert main(["chase", rules, data, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["outcome"] == "terminated"
        assert "Dept(" in document["instance"]

    def test_chase_json_format_with_output_file(self, files, tmp_path, capsys):
        rules = files("onto.rules", RULES_TERMINATING)
        data = files("db.facts", FACTS)
        out_file = tmp_path / "chase.facts"
        assert main(["chase", rules, data, "--format", "json", "--output", str(out_file)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["instance"] is None
        assert "Dept(" in out_file.read_text()

    def test_missing_subcommand_is_an_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchEngine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "history"],
            ["bench", "compare"],
            ["bench-engine", "--quick"],
            ["bench-engine", "--history", "runs.jsonl"],
            ["bench-engine", "--no-history"],
            ["bench-engine", "--inject-faults", "{}"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_retired_commands_and_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("equivalent,status", [(True, 0), (False, 1)])
    def test_exit_status_follows_equivalence(
        self, equivalent, status, tmp_path, monkeypatch, capsys
    ):
        from repro.bench import drivers

        def rows(repeats):
            assert repeats == 1
            measured = {
                key: 1.0
                for key in (
                    "speedup_vs_legacy", "telemetry_overhead", "profile_overhead",
                    "telemetry_overhead_floor", "profile_overhead_floor",
                )
            }
            measured["equivalent"] = equivalent
            return [drivers.SweepRow("engine-speed", {"workload": "w"}, measured)]

        monkeypatch.setattr(drivers, "engine_benchmark_rows", rows)
        out = tmp_path / "BENCH.json"
        assert main(["bench-engine", "--output", str(out), "--repeats", "1"]) == status
        assert json.loads(out.read_text())["summary"]["all_equivalent"] is equivalent


class TestBatch:
    @pytest.fixture
    def manifest(self, tmp_path):
        lines = [
            {"id": "ok", "program": RULES_TERMINATING, "database": FACTS},
            {"id": "loop", "program": RULES_LOOPING, "database": FACTS_R},
            {
                "id": "explicit",
                "program": RULES_TERMINATING,
                "database": FACTS,
                "budget": {"max_atoms": 100},
                "variant": "restricted",
            },
        ]
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return path

    def _parse_results(self, text):
        return [json.loads(line) for line in text.strip().splitlines()]

    def test_batch_to_stdout(self, manifest, capsys):
        assert main(["batch", str(manifest)]) == 0
        captured = capsys.readouterr()
        rows = self._parse_results(captured.out)
        assert {row["id"] for row in rows} == {"ok", "loop", "explicit"}
        by_id = {row["id"]: row for row in rows}
        assert by_id["ok"]["outcome"] == "terminated"
        assert by_id["loop"]["outcome"] == "depth_budget_exceeded"
        assert by_id["loop"]["budget"]["source"] == "paper-bound"
        assert by_id["explicit"]["budget"]["source"] == "explicit"
        assert "3 jobs: 3 ok" in captured.err

    def test_batch_with_cache_and_output_file(self, manifest, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        out = tmp_path / "results.jsonl"
        args = ["batch", str(manifest), "--cache", str(cache), "--output", str(out)]
        assert main(args) == 0
        cold = {r["id"]: r for r in self._parse_results(out.read_text())}
        assert not any(r["cache"]["hit"] for r in cold.values())
        capsys.readouterr()
        assert main(args) == 0
        warm = {r["id"]: r for r in self._parse_results(out.read_text())}
        # Deterministic outcomes replay from cache, byte-identically.
        for job_id in ("ok", "loop", "explicit"):
            assert warm[job_id]["cache"]["hit"]
            assert json.dumps(warm[job_id]["summary"], sort_keys=True) == json.dumps(
                cold[job_id]["summary"], sort_keys=True
            )
        assert "from cache" in capsys.readouterr().err

    def test_batch_pool_workers(self, manifest, capsys):
        assert main(["batch", str(manifest), "--workers", "2"]) == 0
        rows = self._parse_results(capsys.readouterr().out)
        assert {row["id"] for row in rows} == {"ok", "loop", "explicit"}

    def test_batch_error_job_sets_exit_code(self, tmp_path, capsys):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps({"id": "bad", "program": "R(x -> ", "database": "R(a)."}) + "\n")
        assert main(["batch", str(path)]) == 1
        row = self._parse_results(capsys.readouterr().out)[0]
        assert row["status"] == "error"


class TestSnapshotCommand:
    def test_dump_inspect_restore_round_trip(self, files, tmp_path, capsys):
        facts = files("db.facts", FACTS)
        snap = tmp_path / "db.snap"
        assert main(["snapshot", "dump", facts, "--output", str(snap)]) == 0
        assert snap.read_bytes().startswith(b"RSNP1")
        assert main(["snapshot", "inspect", str(snap)]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["facts"] == 2
        assert header["predicates"] == {"Employee/1": 2}
        assert main(["snapshot", "restore", str(snap)]) == 0
        restored = capsys.readouterr().out.strip().splitlines()
        assert sorted(restored) == ["Employee(alice)", "Employee(bob)"]

    def test_dump_with_rules_snapshots_the_chase_result(self, files, tmp_path, capsys):
        rules = files("r.rules", RULES_TERMINATING)
        facts = files("db.facts", FACTS)
        snap = tmp_path / "chased.snap"
        assert (
            main(
                ["snapshot", "dump", facts, "--rules", rules, "--output", str(snap)]
            )
            == 0
        )
        assert main(["snapshot", "inspect", str(snap)]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["facts"] == 6  # 2 Employee + 2 WorksIn + 2 Dept
        assert header["nulls"] == 2

    def test_restore_to_file(self, files, tmp_path, capsys):
        facts = files("db.facts", FACTS)
        snap = tmp_path / "db.snap"
        out = tmp_path / "restored.facts"
        main(["snapshot", "dump", facts, "--output", str(snap)])
        assert main(["snapshot", "restore", str(snap), "--output", str(out)]) == 0
        assert "Employee(alice)" in out.read_text()


class TestChaseResume:
    def test_save_snapshot_then_resume(self, files, tmp_path, capsys):
        rules = files("r.rules", RULES_TERMINATING)
        base_facts = files("base.facts", "Employee(alice).\n")
        full_facts = files("full.facts", FACTS)
        snap = tmp_path / "base.snap"
        assert (
            main(["chase", rules, base_facts, "--save-snapshot", str(snap),
                  "--format", "json"])
            == 0
        )
        capsys.readouterr()
        assert (
            main(["chase", rules, full_facts, "--resume-from", str(snap),
                  "--format", "json"])
            == 0
        )
        resumed = json.loads(capsys.readouterr().out)
        capsys.readouterr()
        assert main(["chase", rules, full_facts, "--format", "json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert resumed["summary"]["size"] == cold["summary"]["size"]
        assert resumed["summary"]["database_size"] == cold["summary"]["database_size"]
        assert sorted(resumed["instance"].splitlines()) == sorted(
            cold["instance"].splitlines()
        )

    def test_save_snapshot_requires_store_engine(self, files, tmp_path, capsys):
        rules = files("r.rules", RULES_TERMINATING)
        facts = files("db.facts", FACTS)
        snap = tmp_path / "x.snap"
        assert (
            main(["chase", rules, facts, "--engine", "legacy",
                  "--save-snapshot", str(snap)])
            == 2
        )
        assert not snap.exists()


class TestBatchIncremental:
    def test_incremental_resumes_grown_manifest(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        base_manifest = tmp_path / "base.jsonl"
        base_manifest.write_text(
            json.dumps(
                {"id": "base", "program": RULES_TERMINATING.strip(),
                 "database": "Employee(alice)."}
            )
            + "\n"
        )
        grown_manifest = tmp_path / "grown.jsonl"
        grown_manifest.write_text(
            json.dumps(
                {"id": "grown", "program": RULES_TERMINATING.strip(),
                 "database": FACTS.strip()}
            )
            + "\n"
        )
        out1 = tmp_path / "r1.jsonl"
        out2 = tmp_path / "r2.jsonl"
        assert (
            main(["batch", str(base_manifest), "--cache", str(cache),
                  "--incremental", "--output", str(out1)])
            == 0
        )
        assert (
            main(["batch", str(grown_manifest), "--cache", str(cache),
                  "--incremental", "--output", str(out2)])
            == 0
        )
        base_row = json.loads(out1.read_text().splitlines()[0])
        grown_row = json.loads(out2.read_text().splitlines()[0])
        assert base_row["resumed_from"] is None
        assert grown_row["resumed_from"] == base_row["cache"]["key"]
        assert grown_row["summary"]["outcome"] == "terminated"
        assert grown_row["summary"]["database_size"] == 2

    def test_resume_refuses_incomplete_snapshots(self, files, tmp_path, capsys):
        rules = files("loop.rules", RULES_LOOPING)
        facts = files("db.facts", FACTS_R)
        snap = tmp_path / "prefix.snap"
        # A budget-stopped run refuses to save a resume snapshot at all.
        assert (
            main(["chase", rules, facts, "--max-rounds", "1",
                  "--save-snapshot", str(snap)])
            == 2
        )
        assert not snap.exists()
        # A chased dump of a non-terminating program is marked incomplete
        # and --resume-from refuses it.
        assert (
            main(["snapshot", "dump", facts, "--rules", rules, "--output", str(snap)])
            == 0
        )
        capsys.readouterr()
        assert main(["snapshot", "inspect", str(snap)]) == 0
        assert json.loads(capsys.readouterr().out)["complete"] is False
        assert (
            main(["chase", rules, facts, "--resume-from", str(snap)]) == 2
        )
        # A plain database dump is no chase result either.
        db_snap = tmp_path / "db.snap"
        main(["snapshot", "dump", facts, "--output", str(db_snap)])
        assert main(["chase", rules, facts, "--resume-from", str(db_snap)]) == 2
