"""Tests for the command-line interface: exit codes, overrides, artifacts."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import collapseguard
from collapseguard.cli import main
from collapseguard.contraction import RegulatorFn, limsup_bound
from collapseguard.experiments import (
    PLOT_COLUMNS,
    PLOT_KINDS,
    ResultTable,
    compare_runs,
    emit_plot,
    read_results_csv,
    write_compare_csv,
    write_results_csv,
    write_summary,
)
from collapseguard.filtering import (
    FilterParams,
    content_hash,
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


_BEYOND_INT64 = "does not fit in a 64-bit integer"


def _physical_memory(monkeypatch, nbytes: int) -> None:
    """Make ``check_fits`` see ``nbytes`` of physical memory, in pages of 8 bytes."""
    pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": nbytes // 8}
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))


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

    def test_extra_deltas_keep_the_fixed_delta_check(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json", {"horizon": 30, "trials": 15, "deltas": [0.3]}
        )
        out = tmp_path / "out"
        rc = main(
            ["simulate-dynamics", "--config", config, "--seed", "3", "--out", str(out), "--check"]
        )
        assert rc in (0, 2)
        assert "dynamics-final-exceedance-0.2" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary["exceedance_final"]) == ["0.1", "0.2", "0.3", "0.5"]

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

    @pytest.mark.parametrize(
        "section, key, value", [("params", "w2", float("nan")), ("pca", "scale", float("inf"))],
        ids=["nan-in-params", "infinity-in-pca"],
    )
    def test_a_non_finite_stored_value_is_refused_naming_the_file_and_field(
        self, tmp_path, capsys, section, key, value
    ):
        """The value is re-hashed, so only the finiteness check can refuse it."""
        pca = fit_pca(np.random.default_rng(0).normal(size=(20, 1)), k=1)
        params = FilterParams(np.ones((2, 1)), np.zeros(2), np.ones(2), 0.0)
        checkpoint = tmp_path / "checkpoint.json"
        save_filter_checkpoint(checkpoint, params, pca, {"note": "small"})
        payload = json.loads(checkpoint.read_text())
        payload[section][key][0] = value
        payload.pop("content_hash")
        payload["content_hash"] = content_hash(payload)
        checkpoint.write_text(json.dumps(payload))
        config = _write_config(
            tmp_path / "config.json",
            {"seed": 1, "horizon": 2, "trials": 2,
             "filter": {"kind": "mlp", "checkpoint": str(checkpoint)}},
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {checkpoint}: {section}.{key} is not finite\n"
        )
        assert not (tmp_path / "out").exists()

    def test_checkpoint_of_another_dimension_names_the_field_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        pca = fit_pca(np.random.default_rng(0).normal(size=(20, 2)), k=1)
        params = FilterParams(np.ones((2, 1)), np.zeros(2), np.ones(2), 0.0)
        checkpoint = tmp_path / "checkpoint.json"
        save_filter_checkpoint(checkpoint, params, pca, {"note": "dim 2"})
        config = _write_config(
            tmp_path / "config.json",
            {"seed": 1, "horizon": 2, "trials": 2,
             "model": {"family": "gaussian", "dim": 3, "theta_star": [0.0, 0.0, 0.0]},
             "filter": {"kind": "mlp", "checkpoint": str(checkpoint)}},
        )

        def no_draw(*args, **kwargs):
            raise AssertionError("a candidate was drawn")

        monkeypatch.setattr(collapseguard.expfam, "_base_rows", no_draw)
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"filter.checkpoint {checkpoint} scores points of dimension 2" in err
        assert "model.dim is 3" in err

    @pytest.mark.parametrize(
        "seed, theta, candidates, horizon, trials, generation",
        [(3, 0.0, 2, 20, 5, 7), (7, -2.0, 4, 50, 300, 2)],
        ids=["two-candidates", "four-candidates"],
    )
    def test_spreadless_oracle_candidates_map_to_the_runtime_exit_code(
        self, tmp_path, capsys, seed, theta, candidates, horizon, trials, generation
    ):
        # a few Bernoulli candidates are often all equal, so the cloud has no spread
        config = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow-filtered", "seed": seed,
             "model": {"family": "bernoulli", "dim": 1, "theta_star": [theta]},
             "horizon": horizon, "trials": trials,
             "filter": {"kind": "oracle-pullback", "gamma": 0.5,
                        "candidates_per_round": candidates}},
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"runtime error: generation {generation}: candidate cloud has no spread; "
            "cannot tilt weights\n"
        )

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

    @pytest.mark.parametrize("theta", [44.0, 1000.0])
    def test_poisson_rate_beyond_numpy_limit_names_the_field_before_any_draw(
        self, tmp_path, capsys, monkeypatch, theta
    ):
        config = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow", "seed": 1, "horizon": 3, "trials": 2,
             "model": {"family": "poisson", "dim": 1, "theta_star": [theta]}},
        )

        def no_draw(*args, **kwargs):
            raise AssertionError("a candidate was drawn")

        monkeypatch.setattr(collapseguard.expfam, "_base_rows", no_draw)
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"model.theta_star [{theta}] is invalid" in err
        assert "the largest rate numpy can sample" in err
        assert not (tmp_path / "out").exists()

    def test_poisson_rate_beyond_numpy_limit_in_a_later_generation_is_a_runtime_error(
        self, tmp_path, capsys
    ):
        # theta_star is the largest theta whose rate numpy accepts; a refit can exceed it
        config = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow", "seed": 1, "horizon": 3, "trials": 4,
             "schedule": {"kind": "constant", "base": 1},
             "model": {"family": "poisson", "dim": 1, "theta_star": [43.668272371983825]}},
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "generation 1: poisson rate" in err
        assert "the largest rate numpy can sample" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "schedule, expected",
        [
            ({"kind": "power", "base": 10, "exponent": 50},
             ("schedule size at generation 3 ", _BEYOND_INT64)),
            ({"kind": "power", "base": 10, "exponent": 1100},
             ("schedule size at generation 2 ", _BEYOND_INT64)),
            # a base beyond int64 is refused when the config is parsed
            ({"kind": "constant", "base": 10**20}, ("schedule.base", _BEYOND_INT64)),
            # sizes that fit in int64 but not in memory: 10 * 100**8 draws at generation 100
            ({"kind": "power", "base": 10, "exponent": 8},
             ("generation 100's draws", "physical memory")),
        ],
        ids=["power-beyond-int64", "power-beyond-float", "base-beyond-int64",
             "power-beyond-memory"],
    )
    def test_schedule_beyond_int64_names_the_generation(
        self, tmp_path, capsys, schedule, expected
    ):
        config = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow", "seed": 1, "horizon": 100, "trials": 2, "schedule": schedule},
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert all(part in err for part in expected)
        assert "Traceback" not in err and err.count("error:") == 1
        assert not (tmp_path / "out").exists()

    def test_candidates_per_round_beyond_int64_is_a_validation_failure(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow-filtered", "seed": 1, "horizon": 3, "trials": 2,
             "filter": {"kind": "all-ones", "candidates_per_round": 10**23}},
        )
        rc = main(["simulate-workflow", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "candidates_per_round" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("train-filter", {"training": {"candidates_per_round": 10**23}},
             "training.candidates_per_round"),
            ("train-filter", {"training": {"rounds": 10**23}}, "training.rounds"),
            ("train-filter", {"training": {"hidden_dim": 10**23}}, "training.hidden_dim"),
            ("verify-rates", {"rates": {"steps": 10**23}}, "rates.steps"),
            ("measure-concentration", {"concentration": {"sizes": [10**23]}},
             "concentration.sizes[0]"),
            ("simulate-dynamics", {"horizon": 10**23}, "horizon"),
            ("simulate-dynamics", {"model": {"dim": 10**23}}, "model.dim"),
        ],
        ids=["candidates", "rounds", "hidden-dim", "rates-steps", "sizes", "horizon", "dim"],
    )
    def test_config_integer_beyond_int64_is_a_validation_failure(
        self, tmp_path, capsys, command, config, field
    ):
        path = _write_config(tmp_path / "config.json", {"seed": 1, **config})
        rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{field} does not fit in a 64-bit integer" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("simulate-workflow", {"scenario": "workflow", "model": {"dim": 2**62}}, "model.dim"),
            # a vector of 2**20 fits, the (dim, dim) metric of the dynamics does not
            ("simulate-dynamics", {"model": {"dim": 2**20}}, "model.dim's matrices"),
            ("simulate-workflow", {"scenario": "workflow", "schedule": {"base": 2**62}},
             "schedule.base"),
            ("simulate-workflow",
             {"scenario": "workflow-filtered",
              "filter": {"kind": "all-ones", "candidates_per_round": 2**62}},
             "filter.candidates_per_round"),
            ("train-filter", {"training": {"rounds": 2**62}}, "training.rounds"),
            ("train-filter", {"training": {"candidates_per_round": 2**62}},
             "training.candidates_per_round"),
            ("train-filter", {"training": {"hidden_dim": 2**62}}, "training.hidden_dim"),
        ],
        ids=[
            "dim", "dim-matrix", "base", "filter-candidates", "rounds", "training-candidates",
            "hidden-dim",
        ],
    )
    def test_a_size_beyond_memory_is_refused_by_name_before_any_draw(
        self, tmp_path, capsys, monkeypatch, command, config, field
    ):
        """Each of these sizes an array that numpy refuses with a raw ValueError at 2**62."""

        def no_stream(*args, **kwargs):
            raise AssertionError("a random stream was opened")

        monkeypatch.setattr(collapseguard.numerics.RngState, "generator", no_stream)
        path = _write_config(tmp_path / "config.json", {"seed": 1, "horizon": 3, **config})
        rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err and "beyond the" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_plain_workflow_with_a_filter_is_refused_before_running(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow", "seed": 1, "horizon": 20, "trials": 4,
             "filter": {"kind": "oracle-pullback", "gamma": 0.5}},
        )
        rc = main(["simulate-workflow", "--config", config, "--check", "--out",
                   str(tmp_path / "out")])
        assert rc == 1
        assert "use workflow-filtered" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("verify-rates", {"rates": {"noise_beta": 0}},
             "rates: power-law beta must be positive"),
            ("simulate-dynamics", {"noise": {"beta": 0}},
             "noise: power-law beta must be positive"),
            ("simulate-dynamics", {"contraction": {"kind": "quadratic", "c_max": 2}},
             "contraction: c_max must lie in (0, 1)"),
        ],
        ids=["rates-noise-beta", "noise-beta", "contraction-c-max"],
    )
    def test_section_check_failure_names_the_section(
        self, tmp_path, capsys, command, config, message
    ):
        path = _write_config(tmp_path / "config.json", {"seed": 1, **config})
        rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizon", [2**62, 40_000_000_000], ids=["2**62", "4e10"])
    @pytest.mark.parametrize("command", ["simulate-workflow", "simulate-dynamics"])
    def test_horizon_beyond_memory_is_refused_from_its_shape(
        self, tmp_path, capsys, command, horizon
    ):
        """Allocating the per-step statistics first would raise ValueError (2**62)
        or exit 3 with MemoryError (4e10); the shape check exits 1 before that."""
        scenario = command.removeprefix("simulate-")
        path = _write_config(
            tmp_path / "config.json",
            {"scenario": scenario, "seed": 1, "horizon": horizon, "trials": 2},
        )
        rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        # the statistics, one job's exceedance counts, and two trials' paths or one block's sums
        rows = 16 if scenario == "workflow" else 12
        assert err.startswith(f"error: per-step statistics of shape ({rows}, {horizon + 1}) need ")
        assert err.endswith("; use a shorter horizon or fewer trials\n")
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_a_workflow_whose_paths_exceed_memory_is_refused_before_any_stream(
        self, tmp_path, capsys, monkeypatch
    ):
        """The statistics take 280 MB; 256 trials' V paths and their temporaries take 30 GB."""

        def no_stream(*args, **kwargs):
            raise AssertionError("a random stream was opened")

        monkeypatch.setattr(collapseguard.numerics.RngState, "generator", no_stream)
        _physical_memory(monkeypatch, 8 << 30)
        path = _write_config(
            tmp_path / "config.json",
            {"scenario": "workflow", "seed": 1, "model": {"dim": 1}, "horizon": 5_000_000,
             "trials": 256},
        )
        rc = main(["simulate-workflow", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: per-step statistics of shape (778, 5000001) need 31120006224 bytes, beyond "
            f"the {8 << 30} that physical memory and the array index range allow; use a shorter "
            "horizon or fewer trials\n"
        )
        assert not (tmp_path / "out").exists()

    def test_an_initial_error_whose_squared_norm_overflows_is_refused(self, tmp_path, capsys):
        """||e0||^2 = 1e400 is inf, which would fill every results.csv row and the summary."""
        path = _write_config(
            tmp_path / "config.json",
            {"scenario": "dynamics", "seed": 1, "initial_error": [1e200], "horizon": 5,
             "trials": 2},
        )
        rc = main(["simulate-dynamics", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: initial_error's squared norm must be finite\n"
        assert not (tmp_path / "out").exists()

    def test_a_run_that_fails_after_parsing_leaves_no_out_directory(self, tmp_path, capsys):
        path = _write_config(
            tmp_path / "config.json",
            {"scenario": "dynamics", "seed": 1, "horizon": 40000000000, "trials": 2},
        )
        out = tmp_path / "out"
        assert main(["simulate-dynamics", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: per-step statistics of shape ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate-dynamics", "compare"])
    def test_out_naming_an_existing_file_is_a_runtime_failure(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        if command == "compare":
            base = _synthetic_results(tmp_path / "base.csv", [1.0, 2.0, 3.0])
            args = ["compare", "--baseline", base, "--treatment", base]
        else:
            config = _write_config(tmp_path / "config.json", {"horizon": 10, "trials": 5})
            args = ["simulate-dynamics", "--config", config, "--seed", "1"]
        assert main([*args, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("runtime error: ")
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("Unable to allocate 8.00 TiB for an array"),
             "Unable to allocate 8.00 TiB for an array"),
            (MemoryError(), "MemoryError"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_running_out_of_memory_is_a_runtime_failure(
        self, tmp_path, capsys, monkeypatch, error, message
    ):
        def exhausted(config):
            raise error

        monkeypatch.setattr("collapseguard.cli.run_experiment", exhausted)
        rc = main(["simulate-dynamics", "--seed", "1", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == f"runtime error: {message}\n"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lambda_contract", -0.5),
            ("ess_weight", -0.1),
            ("learning_rate", 0),
            ("drift_scale", -1),
        ],
    )
    def test_training_section_is_checked_for_every_scenario(self, tmp_path, capsys, field, value):
        config = _write_config(
            tmp_path / "config.json",
            {"seed": 1, "horizon": 5, "trials": 5, "training": {field: value}},
        )
        rc = main(["simulate-dynamics", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "training" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_constant_noise_rates_report_the_ceiling_and_apply_no_check(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json",
            {"seed": 1, "rates": {"steps": 2000, "noise_kind": "constant", "noise_scale": 0.5}},
        )
        out = tmp_path / "out"
        rc = main(["verify-rates", "--config", config, "--check", "--out", str(out)])
        assert rc == 0
        assert "no acceptance checks apply to this configuration\n" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["expected_slope"] is None
        assert summary["limsup_ceiling"] == limsup_bound(RegulatorFn("power-law", 2.0, 1.0), 0.5)

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

    def test_train_filter_without_a_holdout_runs_the_two_other_checks(self, tmp_path, capsys):
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
                    "holdout_fraction": 0,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["train-filter", "--config", config, "--check", "--out", str(out)]) == 0
        checks = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith(("PASS", "FAIL"))]
        assert checks == ["PASS train-contract-final", "PASS train-contraction-certificate"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_holdout"] == 0 and summary["holdout_accuracy"] is None

    def test_pca_k_above_model_dim_names_both_fields_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        config = _write_config(
            tmp_path / "config.json", {"seed": 1, "model": {"dim": 2}, "training": {"pca_k": 5}}
        )

        def no_draw(*args, **kwargs):
            raise AssertionError("drift data was drawn")

        monkeypatch.setattr("collapseguard.experiments.simulate_drift_training_data", no_draw)
        rc = main(["train-filter", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: training.pca_k (5) must not exceed model.dim (2)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_rates_state_beyond_the_float_range_is_a_runtime_failure(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json", {"seed": 1, "rates": {"x0": 1e160, "steps": 10}}
        )
        rc = main(["verify-rates", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == "runtime error: non-finite state at step 1\n"
        assert not (tmp_path / "out").exists()

    def test_concentration_size_beyond_memory_is_a_validation_failure(self, tmp_path, capsys):
        size = 3074457345618258603
        config = _write_config(
            tmp_path / "config.json",
            {"seed": 1, "model": {"dim": 3}, "concentration": {"sizes": [size]}},
        )
        rc = main(["measure-concentration", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: one trial's draws at size {size} of shape ({size}, 3) need ")
        assert err.endswith("; use smaller sizes\n")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("steps", [2**62, 10**15], ids=["2**62", "1e15"])
    def test_rates_steps_beyond_memory_are_refused_from_their_shape(self, tmp_path, capsys, steps):
        """Allocating the trajectory would raise ValueError (2**62) or exit 3 with
        MemoryError (1e15); the shape check exits 1 before that."""
        config = _write_config(tmp_path / "config.json", {"seed": 1, "rates": {"steps": steps}})
        rc = main(["verify-rates", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: trajectory values of shape ({steps + 1},) need ")
        assert err.endswith("; use fewer steps\n")
        assert not (tmp_path / "out").exists()


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

    def test_an_infinite_final_ratio_is_written_as_strict_json(self, tmp_path, capsys):
        baseline = _synthetic_results(tmp_path / "base.csv", [1.0, 1.0])
        treatment = _synthetic_results(tmp_path / "treat.csv", [1.0, 0.0])
        out = tmp_path / "cmp"
        argv = ["compare", "--baseline", baseline, "--treatment", treatment, "--out", str(out)]
        assert main(argv) == 0

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        text = (out / "compare_summary.json").read_text()
        assert json.loads(text, parse_constant=refuse)["final_ratio"] is None
        capsys.readouterr()
        # one finite ratio gives no trend, so the run fails that check, but not the ratio's
        assert main(argv + ["--check"]) == 2
        stdout = capsys.readouterr().out
        assert "PASS compare-final-ratio: measured=inf" in stdout
        assert "FAIL compare-trend-increasing" in stdout

    @pytest.mark.parametrize(
        "baseline_last, verdict",
        [(1e300, "PASS compare-final-ratio: measured=inf"),
         (-1e300, "FAIL compare-final-ratio: measured=-inf")],
        ids=["positive", "negative-baseline"],
    )
    def test_a_final_ratio_that_overflows_is_checked_as_infinite(
        self, tmp_path, capsys, baseline_last, verdict
    ):
        """1e300 / 1e-300 overflows: the summary writes a null ratio, and the check
        reads it as an infinity signed as the quotient, with no traceback."""
        baseline = _synthetic_results(tmp_path / "base.csv", [1.0, baseline_last])
        treatment = _synthetic_results(tmp_path / "treat.csv", [1.0, 1e-300])
        argv = ["compare", "--baseline", baseline, "--treatment", treatment,
                "--out", str(tmp_path / "cmp"), "--check"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert verdict in captured.out
        assert "FAIL compare-trend-increasing" in captured.out
        assert "compare-trend-increasing" in captured.err
        assert "Traceback" not in captured.err

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

    def test_loglog_plot_of_a_rates_run_skips_the_t0_row(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "config.json", {"scenario": "rates", "seed": 1, "rates": {"steps": 50}}
        )
        out = tmp_path / "o"
        assert main(["verify-rates", "--config", config, "--out", str(out)]) == 0
        svg = tmp_path / "p.svg"
        argv = ["plot", "--input", str(out / "results.csv"), "--kind", "loglog", "--out", str(svg)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert len(svg.read_text().split('points="')[1].split('"')[0].split()) == 50

    def test_loglog_plot_of_a_t0_only_table_is_a_validation_failure(self, tmp_path, capsys):
        results = _synthetic_results(tmp_path / "results.csv", [1.0])
        svg = tmp_path / "p.svg"
        rc = main(["plot", "--input", results, "--kind", "loglog", "--out", str(svg)])
        assert rc == 1
        assert capsys.readouterr().err == "error: loglog needs a row with t > 0\n"
        assert not svg.exists()

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
            (4, "x", "column mean_V must hold a number, got 'x'"),
            (7, "abc", "column exceed_0.5 must hold a number, got 'abc'"),
        ],
        ids=["float-column", "int-column", "trials", "unread-mean_V", "unread-exceed"],
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

    @pytest.mark.parametrize("command", ["plot", "compare"])
    def test_a_results_file_that_is_not_utf8_is_a_validation_failure(
        self, tmp_path, capsys, command
    ):
        good = _synthetic_results(tmp_path / "good.csv", [1.0, 2.0])
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfe" + (tmp_path / "good.csv").read_text().encode("utf-16-le"))
        if command == "plot":
            argv = ["plot", "--input", str(bad), "--out", str(tmp_path / "p.svg")]
        else:
            argv = ["compare", "--baseline", good, "--treatment", str(bad),
                    "--out", str(tmp_path / "cmp")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read results {bad}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "p.svg").exists() and not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["baseline", "treatment"])
    def test_compare_refuses_a_non_finite_mse(self, tmp_path, capsys, side, cell):
        good = _synthetic_results(tmp_path / "good.csv", [1.0, 2.0, 3.0])
        lines = (tmp_path / "good.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[3] = cell
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        paths = {"baseline": good, "treatment": good, side: str(bad)}
        out = tmp_path / "cmp"
        argv = ["compare", "--baseline", paths["baseline"], "--treatment", paths["treatment"],
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {side} mse must be finite, got {cell} at t=2\n"
        assert not out.exists()


def _random_results(path, rng, mse, negative_zeros=False) -> str:
    """A results file with ``mse`` and random other columns, -0.0 cells among them if asked."""
    rows = len(mse)
    mean_v, exceed = rng.random(rows), rng.random((rows, 3))
    if negative_zeros:
        mean_v[::3], exceed[1::4] = -0.0, -0.0
    table = ResultTable("workflow", np.arange(rows), rng.integers(1, 1000, rows), mse, mean_v,
                        exceed, 10, "feedc0ffee12")
    write_results_csv(table, path)
    return str(path)


# (baseline mse, treatment mse) pairs whose compare outputs reach each branch of the trend
_COMPARE_CASES = {
    "non-finite-ratio": ([1.0, 2.0, 3.0, 4.0, 6.0], [1.0, 0.0, 2.0, 0.5, 0.0]),
    "zero-over-zero": ([0.0, 1.0, 3.0, 5.0], [0.0, 2.0, 1.0, 0.5]),
    "flat-ratio": ([0.5, 1.5, 2.5, 7.0], [0.25, 0.75, 1.25, 3.5]),
    "negative-zeros": ([-0.0, 1.0, 2.0, -0.0, 4.0], [-0.0, 0.5, -0.0, 1.0, 0.25]),
    "one-finite-ratio": ([1.0, 1.0, 1.0], [0.0, 0.0, 1.0]),
    "random": (np.random.default_rng(7).random(1000), np.random.default_rng(8).random(1000)),
}


class TestColumnsKeptByCompareAndPlot:
    """compare and plot read only the columns they use; their bytes are those of full tables."""

    @pytest.mark.parametrize("case", list(_COMPARE_CASES))
    def test_compare_writes_the_bytes_of_full_tables(self, tmp_path, case):
        rng = np.random.default_rng(32)
        mses = _COMPARE_CASES[case]
        baseline = _random_results(tmp_path / "b.csv", rng, mses[0], negative_zeros=True)
        treatment = _random_results(tmp_path / "t.csv", rng, mses[1], negative_zeros=True)
        out, ref = tmp_path / "cmp", tmp_path / "ref"
        rc = main(["compare", "--baseline", baseline, "--treatment", treatment, "--out", str(out)])
        assert rc == 0
        table, summary = compare_runs(read_results_csv(baseline), read_results_csv(treatment))
        write_compare_csv(table, ref / "compare.csv")
        write_summary(summary, ref / "compare_summary.json")
        for name in ("compare.csv", "compare_summary.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
        if case == "flat-ratio":
            assert summary["ratio_trend_slope"] == 0.0

    @pytest.mark.parametrize("kind", PLOT_KINDS)
    @pytest.mark.parametrize("column", PLOT_COLUMNS)
    def test_plot_writes_the_bytes_of_a_full_table(self, tmp_path, column, kind):
        rng = np.random.default_rng(33)
        negative_zeros = kind == "linear"  # the log kinds refuse a zero
        results = _random_results(tmp_path / "r.csv", rng, rng.random(500) + 0.5, negative_zeros)
        out, ref = tmp_path / "p.svg", tmp_path / "ref.svg"
        rc = main(["plot", "--input", results, "--kind", kind, "--column", column, "--out", str(out)])
        assert rc == 0
        emit_plot(read_results_csv(results), kind, ref, column=column)
        assert out.read_bytes() == ref.read_bytes()

    def test_the_readers_hold_only_the_columns_they_keep(self, tmp_path, monkeypatch):
        kept = []

        def recording(path, keep=None):
            table = read_results_csv(path, keep)
            kept.append([f.name for f in dataclasses.fields(table)
                         if isinstance(getattr(table, f.name), np.ndarray)])
            return table

        monkeypatch.setattr(collapseguard.cli, "read_results_csv", recording)
        results = _synthetic_results(tmp_path / "r.csv", [1.0, 2.0, 3.0])
        main(["compare", "--baseline", results, "--treatment", results, "--out", str(tmp_path)])
        main(["plot", "--input", results, "--column", "mean_V", "--out", str(tmp_path / "p.svg")])
        main(["plot", "--input", results, "--column", "exceed_0.2", "--out", str(tmp_path / "q.svg")])
        assert kept == [["t", "mse"], ["t", "mse"], ["t", "mean_v"], ["t", "exceed"]]

    @pytest.fixture(scope="class")
    def large_tables(self, tmp_path_factory):
        # two 10.4 MB results files of 10^5 rows, as verify-rates writes at 10^5 steps
        root = tmp_path_factory.mktemp("large")
        rng = np.random.default_rng(34)
        return [_random_results(root / f"{name}.csv", rng, rng.random(100_000) + 0.5)
                for name in ("b", "t")]

    @pytest.mark.parametrize(
        "command, bound",
        # traced 8.9 MB (compare) and 5.3 MB (plot); reading whole tables took 19.5 and 9.5 MB
        [("compare", 12e6), ("plot", 7.5e6)],
    )
    def test_compare_and_plot_of_large_tables_stay_small(self, tmp_path, large_tables, command,
                                                         bound):
        baseline, treatment = large_tables
        if command == "compare":
            argv = ["compare", "--baseline", baseline, "--treatment", treatment,
                    "--out", str(tmp_path)]
        else:
            argv = ["plot", "--input", baseline, "--kind", "semilogy", "--out", str(tmp_path / "p.svg")]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < bound


class TestModuleExecution:
    @staticmethod
    def _run_python(*args):
        # the child finds the package where this process found it, installed or not
        package_root = os.path.dirname(os.path.dirname(collapseguard.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )

    def _run_module(self, *args):
        return self._run_python("-m", "collapseguard.cli", *args)

    def test_importing_the_cli_leaves_the_process_pool_out(self):
        """A serial run does not pay for importing multiprocessing; only a pool imports it."""
        proc = self._run_python(
            "-c",
            "import sys, collapseguard.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_help_lists_the_subcommands(self):
        proc = self._run_module("--help")
        assert proc.returncode == 0
        for command in ("simulate-dynamics", "simulate-workflow", "train-filter", "compare", "plot"):
            assert command in proc.stdout

    def test_module_without_arguments_exits_with_validation_code(self):
        proc = self._run_module()
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
