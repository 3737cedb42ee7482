"""Tests for the command-line interface: exit codes, overrides, artifacts."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import collapseguard
from collapseguard.cli import main
from collapseguard.experiments import ResultTable, write_results_csv
from collapseguard.filtering import (
    FilterParams,
    fit_pca,
    save_filter_checkpoint,
)


def _write_config(path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _synthetic_results(path, mses) -> str:
    mses = np.asarray(mses, dtype=float)
    rows = mses.shape[0]
    table = ResultTable(
        "workflow", np.arange(rows), np.full(rows, 100), mses, mses, np.zeros((rows, 3)), 10,
        "feedc0ffee12",
    )
    write_results_csv(table, path)
    return str(path)


class TestScenarioCommands:
    def test_no_arguments_is_a_validation_failure(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_dynamics_run_writes_artifacts(self, tmp_path, capsys):
        config = _write_config(tmp_path / "config.json", {"horizon": 30, "trials": 15})
        out = tmp_path / "out"
        rc = main(["simulate-dynamics", "--config", config, "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "results.csv").exists() and (out / "summary.json").exists()
        stdout = capsys.readouterr().out
        assert stdout.count("wrote ") == 2

    def test_seed_flag_is_effective_and_replayable(self, tmp_path):
        config = _write_config(tmp_path / "config.json", {"horizon": 20, "trials": 10})
        for seed, name in ((1, "a"), (1, "b"), (2, "c")):
            rc = main(
                [
                    "simulate-dynamics",
                    "--config",
                    config,
                    "--seed",
                    str(seed),
                    "--out",
                    str(tmp_path / name),
                ]
            )
            assert rc == 0
        same = (tmp_path / "a" / "results.csv").read_bytes()
        assert same == (tmp_path / "b" / "results.csv").read_bytes()
        assert same != (tmp_path / "c" / "results.csv").read_bytes()

    def test_trials_flag_overrides_the_config(self, tmp_path):
        config = _write_config(tmp_path / "config.json", {"horizon": 10, "trials": 5})
        out = tmp_path / "out"
        rc = main(
            ["simulate-dynamics", "--config", config, "--seed", "1", "--trials", "9", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["trials"] == 9

    def test_missing_seed_is_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path / "config.json", {"horizon": 10})
        assert main(["simulate-dynamics", "--config", config]) == 1
        assert "seed" in capsys.readouterr().err

    def test_config_scenario_must_match_the_subcommand(self, tmp_path, capsys):
        config = _write_config(tmp_path / "config.json", {"scenario": "dynamics", "seed": 1})
        assert main(["verify-rates", "--config", config]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_unknown_config_field_is_rejected(self, tmp_path):
        config = _write_config(tmp_path / "config.json", {"seed": 1, "bogus": True})
        assert main(["simulate-dynamics", "--config", config]) == 1

    def test_missing_config_file_is_a_validation_failure(self, tmp_path, capsys):
        assert main(["simulate-dynamics", "--config", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, kind",
        [("noise", "scale", "power-law"), ("contraction", "alpha", "quadratic")],
    )
    def test_non_finite_config_number_is_a_validation_failure(
        self, tmp_path, capsys, section, field, kind
    ):
        # json.dumps writes NaN, which json.load reads back
        config = _write_config(
            tmp_path / "config.json",
            {"seed": 1, "horizon": 5, "trials": 5, section: {"kind": kind, field: float("nan")}},
        )
        rc = main(["simulate-dynamics", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"{section}.{field} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_mapping_filter_section_is_a_validation_failure(self, tmp_path, capsys):
        config = _write_config(tmp_path / "config.json", {"seed": 1, "filter": [1]})
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "config section 'filter' must be a mapping" in capsys.readouterr().err

    def test_trials_flag_applies_to_a_null_concentration_section(self, tmp_path):
        config = _write_config(tmp_path / "config.json", {"seed": 1, "concentration": None})
        out = tmp_path / "out"
        rc = main(["measure-concentration", "--config", config, "--trials", "150", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["trials"] == 150

    def test_workflow_scenario_follows_the_filter_section(self, tmp_path):
        filtered = _write_config(
            tmp_path / "filtered.json",
            {
                "seed": 2,
                "horizon": 15,
                "trials": 5,
                "schedule": {"kind": "constant", "base": 40},
                "filter": {"kind": "oracle-pullback", "gamma": 0.5, "candidates_per_round": 80},
            },
        )
        out = tmp_path / "filtered-out"
        assert main(["simulate-workflow", "--config", filtered, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["scenario"] == "workflow-filtered"

        plain = _write_config(
            tmp_path / "plain.json",
            {"seed": 2, "horizon": 15, "trials": 5, "schedule": {"kind": "constant", "base": 40}},
        )
        out2 = tmp_path / "plain-out"
        assert main(["simulate-workflow", "--config", plain, "--out", str(out2)]) == 0
        assert json.loads((out2 / "summary.json").read_text())["scenario"] == "workflow"

    def test_degenerate_filter_maps_to_the_runtime_exit_code(self, tmp_path, capsys):
        data = np.random.default_rng(0).normal(size=(20, 1))
        pca = fit_pca(data, k=1)
        dead = FilterParams(np.zeros((2, 1)), np.zeros(2), np.zeros(2), -1000.0)
        checkpoint = tmp_path / "checkpoint.json"
        save_filter_checkpoint(checkpoint, dead, pca, {"note": "dead"})
        config = _write_config(
            tmp_path / "config.json",
            {
                "seed": 1,
                "horizon": 5,
                "trials": 2,
                "schedule": {"kind": "constant", "base": 30},
                "filter": {
                    "kind": "mlp",
                    "checkpoint": str(checkpoint),
                    "candidates_per_round": 50,
                },
            },
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read checkpoint"),
            ("{not json", "is not valid JSON"),
            ("[1]", "root must be a JSON object"),
        ],
        ids=["missing", "not-json", "non-object-root"],
    )
    def test_unreadable_checkpoint_is_a_validation_failure(
        self, tmp_path, capsys, content, message
    ):
        checkpoint = tmp_path / "checkpoint.json"
        if content is not None:
            checkpoint.write_text(content)
        config = _write_config(
            tmp_path / "config.json",
            {
                "seed": 1,
                "horizon": 2,
                "trials": 2,
                "filter": {"kind": "mlp", "checkpoint": str(checkpoint)},
            },
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and str(checkpoint) in err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda p: p["params"]["w1"][0].__setitem__(0, 0.25), "content hash does not match"),
            (lambda p: p.update(format_version=1), "format_version 1;"),
        ],
        ids=["edited-weight", "version-1"],
    )
    def test_edited_or_old_checkpoint_is_a_validation_failure(
        self, tmp_path, capsys, mutate, message
    ):
        pca = fit_pca(np.random.default_rng(0).normal(size=(20, 1)), k=1)
        params = FilterParams(np.ones((2, 1)), np.zeros(2), np.ones(2), 0.0)
        checkpoint = tmp_path / "checkpoint.json"
        save_filter_checkpoint(checkpoint, params, pca, {"note": "small"})
        payload = json.loads(checkpoint.read_text())
        mutate(payload)
        checkpoint.write_text(json.dumps(payload))
        config = _write_config(
            tmp_path / "config.json",
            {"seed": 1, "horizon": 2, "trials": 2,
             "filter": {"kind": "mlp", "checkpoint": str(checkpoint)}},
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_spreadless_oracle_candidates_map_to_the_runtime_exit_code(self, tmp_path, capsys):
        # two Bernoulli candidates are often equal, so the cloud has no spread
        config = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow-filtered", "seed": 3,
             "model": {"family": "bernoulli", "dim": 1, "theta_star": [0.0]},
             "horizon": 20, "trials": 5,
             "filter": {"kind": "oracle-pullback", "gamma": 0.5, "candidates_per_round": 2}},
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "candidate cloud has no spread" in capsys.readouterr().err

    def test_invalid_default_theta_star_names_the_field(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json", {"seed": 1, "model": {"family": "exponential"}}
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "model.theta_star [1.0] is invalid" in err
        assert "exponential natural parameters must be negative" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "schedule, generation",
        [
            ({"kind": "power", "base": 10, "exponent": 50}, 3),
            ({"kind": "power", "base": 10, "exponent": 1100}, 2),
            ({"kind": "constant", "base": 10**20}, 0),
        ],
        ids=["power-beyond-int64", "power-beyond-float", "base-beyond-int64"],
    )
    def test_schedule_beyond_int64_names_the_generation(
        self, tmp_path, capsys, schedule, generation
    ):
        config = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow", "seed": 1, "horizon": 100, "trials": 2, "schedule": schedule},
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"schedule size at generation {generation} " in err
        assert "does not fit in a 64-bit integer" in err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_constant_noise_dynamics_fails_the_check_gate(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json",
            {"seed": 1, "horizon": 50, "trials": 40, "noise": {"kind": "constant", "scale": 1.0}},
        )
        rc = main(["simulate-dynamics", "--config", config, "--check", "--out", str(tmp_path / "out")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "FAIL dynamics" in captured.out
        assert "check failed" in captured.err

    def test_rates_check_passes_deterministically(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json", {"seed": 0, "rates": {"steps": 2000}}
        )
        rc = main(["verify-rates", "--config", config, "--check", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "PASS rates-decay-slope" in capsys.readouterr().out

    def test_concentration_check_passes(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json",
            {
                "seed": 5,
                "concentration": {"sizes": [1, 10, 100], "delta": 3.0, "trials": 20000},
            },
        )
        rc = main(
            ["measure-concentration", "--config", config, "--check", "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "PASS concentration-monotone" in stdout
        assert "PASS concentration-gaussian-tail" in stdout

    def test_train_filter_command_writes_checkpoint_and_log(self, tmp_path):
        config = _write_config(
            tmp_path / "config.json",
            {
                "seed": 8,
                "model": {"dim": 2},
                "training": {
                    "rounds": 2,
                    "candidates_per_round": 120,
                    "epochs": 25,
                    "hidden_dim": 8,
                    "learning_rate": 0.01,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["train-filter", "--config", config, "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()
        assert (out / "training_log.csv").exists()


class TestCompareAndPlot:
    def test_compare_writes_ratio_artifacts(self, tmp_path):
        baseline = _synthetic_results(tmp_path / "base.csv", [float(t + 1) for t in range(10)])
        treatment = _synthetic_results(tmp_path / "treat.csv", [0.1] * 10)
        out = tmp_path / "cmp"
        rc = main(["compare", "--baseline", baseline, "--treatment", treatment, "--out", str(out)])
        assert rc == 0
        assert (out / "compare.csv").exists()
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["final_ratio"] == pytest.approx(100.0)

    def test_compare_check_passes_for_a_growing_gap(self, tmp_path, capsys):
        baseline = _synthetic_results(tmp_path / "base.csv", [float(t + 1) for t in range(10)])
        treatment = _synthetic_results(tmp_path / "treat.csv", [0.1] * 10)
        rc = main(
            [
                "compare",
                "--baseline",
                baseline,
                "--treatment",
                treatment,
                "--out",
                str(tmp_path / "cmp"),
                "--check",
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "PASS compare-final-ratio" in stdout
        assert "PASS compare-trend-increasing" in stdout

    def test_compare_check_fails_for_identical_runs(self, tmp_path, capsys):
        results = _synthetic_results(tmp_path / "same.csv", [1.0, 2.0, 3.0])
        rc = main(
            ["compare", "--baseline", results, "--treatment", results, "--out", str(tmp_path / "cmp"), "--check"]
        )
        assert rc == 2
        assert "FAIL compare-final-ratio" in capsys.readouterr().out

    def test_compare_requires_both_inputs(self, tmp_path):
        results = _synthetic_results(tmp_path / "base.csv", [1.0])
        assert main(["compare", "--baseline", results]) == 1

    def test_plot_renders_an_svg_file(self, tmp_path):
        results = _synthetic_results(tmp_path / "results.csv", [1.0, 2.0, 4.0])
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--input", results, "--kind", "semilogy", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<svg")

    def test_plot_rejects_an_unknown_column(self, tmp_path):
        results = _synthetic_results(tmp_path / "results.csv", [1.0, 2.0])
        rc = main(["plot", "--input", results, "--column", "nope", "--out", str(tmp_path / "p.svg")])
        assert rc == 1

    def test_plot_reports_a_missing_input_file(self, tmp_path, capsys):
        rc = main(["plot", "--input", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "p.svg")])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "column, value, message",
        [
            (3, "abc", "column mse must hold a number, got 'abc'"),
            (1, "1.5", "column t must hold an integer, got '1.5'"),
            (8, "ten", "column trials must hold an integer, got 'ten'"),
        ],
        ids=["float-column", "int-column", "trials"],
    )
    @pytest.mark.parametrize("command", ["plot", "compare"])
    def test_malformed_csv_field_is_a_validation_failure(
        self, tmp_path, capsys, command, column, value, message
    ):
        good = _synthetic_results(tmp_path / "good.csv", [1.0, 2.0, 3.0])
        lines = (tmp_path / "good.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        if command == "plot":
            argv = ["plot", "--input", str(bad), "--out", str(tmp_path / "p.svg")]
        else:
            argv = ["compare", "--baseline", good, "--treatment", str(bad),
                    "--out", str(tmp_path / "cmp")]
        assert main(argv) == 1
        assert f"{bad}:3: {message}" in capsys.readouterr().err


class TestModuleExecution:
    @staticmethod
    def _run_module(*args):
        # the child finds the package where this process found it, installed or not
        package_root = os.path.dirname(os.path.dirname(collapseguard.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "collapseguard.cli", *args],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_module_help_lists_the_subcommands(self):
        proc = self._run_module("--help")
        assert proc.returncode == 0
        for command in ("simulate-dynamics", "simulate-workflow", "train-filter", "compare", "plot"):
            assert command in proc.stdout

    def test_module_without_arguments_exits_with_validation_code(self):
        proc = self._run_module()
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
