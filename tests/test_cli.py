"""Command-line interface."""

import csv
import json

import pytest

from repro.cli import main


class TestChipCommand:
    def test_prints_maps(self, capsys):
        assert main(["chip", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "initial fmax" in out
        assert "leakage multipliers" in out
        assert "frequency spread" in out

    def test_chip_index(self, capsys):
        main(["chip", "--seed", "7", "--index", "1"])
        assert "chip-01" in capsys.readouterr().out


class TestSimulateCommand:
    def test_runs_and_exports(self, capsys, tmp_path):
        json_path = str(tmp_path / "out.json")
        csv_path = str(tmp_path / "out.csv")
        code = main(
            [
                "simulate",
                "--policy", "hayat",
                "--years", "0.5",
                "--json", json_path,
                "--csv", csv_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DTM events" in out
        with open(json_path) as handle:
            payload = json.load(handle)
        assert payload[0]["policy_name"] == "hayat"
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1  # one epoch at 0.5 years

    @pytest.mark.parametrize("policy", ["vaa", "contiguous", "coolest", "random"])
    def test_all_policies_available(self, capsys, policy):
        assert main(["simulate", "--policy", policy, "--years", "0.5"]) == 0


class TestCampaignCommand:
    def test_small_campaign(self, capsys, tmp_path):
        csv_path = str(tmp_path / "campaign.csv")
        code = main(
            ["campaign", "--chips", "1", "--years", "0.5", "--csv", csv_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Normalized comparison" in out
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert {r["policy"] for r in rows} == {"vaa", "hayat"}


class TestCampaignSupervisionFlags:
    def test_checkpoint_written_and_resumed(self, capsys, tmp_path):
        ckpt = str(tmp_path / "campaign.jsonl")
        args = [
            "campaign", "--chips", "1", "--years", "0.5",
            "--checkpoint", ckpt, "--retries", "1",
        ]
        assert main(args) == 0
        with open(ckpt) as handle:
            recorded = [line for line in handle if line.strip()]
        assert len(recorded) == 2  # one chip x {vaa, hayat}
        capsys.readouterr()
        # Resume: replays both jobs from the checkpoint, same report.
        assert main(args + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Normalized comparison" in out
        assert "campaign.resumed_jobs" in out
        with open(ckpt) as handle:
            assert [line for line in handle if line.strip()] == recorded

    def test_allow_partial_flag_accepted(self, capsys):
        code = main(
            [
                "campaign", "--chips", "1", "--years", "0.5",
                "--allow-partial", "--job-timeout", "600",
            ]
        )
        assert code == 0
        assert "Normalized comparison" in capsys.readouterr().out


class TestScenarioCommand:
    def test_runs_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-scenario",
                    "chips": 1,
                    "population_seed": 4,
                    "config": {"lifetime_years": 0.5, "window_s": 5.0},
                    "policies": [{"type": "hayat"}],
                }
            )
        )
        assert main(["run-scenario", str(path)]) == 0
        assert "cli-scenario" in capsys.readouterr().out

    def test_bad_scenario_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"policies": [{"type": "magic"}]}))
        assert main(["run-scenario", str(path)]) == 2
        assert "scenario error" in capsys.readouterr().out

    def test_non_object_document_exits_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert main(["run-scenario", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().out

    def test_bad_fleet_submission_exits_2(self, capsys, tmp_path):
        """``serve --submit`` refuses a malformed document the way
        ``run-scenario`` does, and queues nothing."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"chips": 0}))
        fleet_dir = tmp_path / "fleet"
        assert main(["serve", "--fleet-dir", str(fleet_dir), "--submit", str(path)]) == 2
        assert "scenario error: chips" in capsys.readouterr().out
        assert not (fleet_dir / "spool").exists()


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        code = main(
            ["sweep", "--fractions", "0.5", "--chips", "1", "--years", "0.5"]
        )
        assert code == 0
        assert "Dark-silicon sweep" in capsys.readouterr().out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "magic"])

    @pytest.mark.parametrize(
        "flag", ["--no-fused-window", "--no-delta-candidates", "--no-batch-decision"]
    )
    def test_serve_rejects_engine_flags(self, flag, tmp_path, capsys):
        """Fleet jobs take each request's config, so ``serve`` has no
        engine flags to (silently) ignore."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--fleet-dir", str(tmp_path), flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "campaign", "sweep"])
    def test_batch_decision_flag_gone(self, command, capsys):
        """Switches that only timed bit-identical paths against each
        other are gone from every run command."""
        for flag in (
            "--no-batch-decision", "--no-fused-window", "--no-thermal-cache",
            "--no-batch",
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([command, flag])
            assert excinfo.value.code == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--batch-size", "0"],
            ["sweep", "--batch-size", "-1"],
            ["campaign", "--workers", "0"],
            ["campaign", "--retries", "-1"],
            ["campaign", "--batch-size", "big"],
            ["campaign", "--job-timeout", "0"],
            ["sweep", "--job-timeout", "-2.5"],
            ["campaign", "--job-timeout", "nan"],
            ["campaign", "--job-timeout", "soon"],
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        """A count flag out of range ends in an argparse usage error
        naming the flag, not a traceback from the library."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[1] in capsys.readouterr().err
