"""Tests for experiment configs, artifact files, scenario runners, and checks."""

import dataclasses
import json
import math
import os
import stat

import numpy as np
import pytest

from collapseguard.errors import CheckFailureError, InputValidationError
from collapseguard.experiments import (
    ConcentrationSpec,
    COMPARE_HEADER,
    CSV_HEADER,
    TRAINING_LOG_HEADER,
    CheckResult,
    ExperimentConfig,
    ResultTable,
    atomic_write_text,
    compare_checks,
    compare_runs,
    config_hash,
    emit_plot,
    ensure_checks_pass,
    exceedance_trend_rise,
    read_config_json,
    read_results_csv,
    run_checks,
    run_experiment,
    write_compare_csv,
    write_results_csv,
    write_summary,
)
from collapseguard.filtering import load_filter_checkpoint


def _full_config_dict() -> dict:
    """A config dict that pins every serialized field to a non-default value."""
    return {
        "scenario": "workflow-filtered",
        "seed": 12345,
        "model": {"family": "gaussian-mean-known-cov", "dim": 2, "theta_star": [0.5, -0.25]},
        "horizon": 64,
        "trials": 32,
        "deltas": [0.125, 0.25],
        "out_dir": "runs/example",
        "initial_error": [0.5, 0.5],
        "schedule": {"kind": "power", "base": 50, "exponent": 1.0},
        "noise": {"kind": "power-law", "beta": 1.5, "scale": 0.5},
        "contraction": {"kind": "quadratic", "alpha": 0.8, "level": 0.5, "c_max": 0.85},
        "filter": {
            "kind": "oracle-pullback",
            "gamma": 0.75,
            "checkpoint": None,
            "candidates_per_round": 64,
        },
        "rates": {
            "kind": "power-law",
            "p": 3.0,
            "c1": 0.5,
            "c2": 2.0,
            "x0": 2.0,
            "steps": 500,
            "noise_kind": "power-law",
            "noise_beta": 3.0,
            "noise_scale": 0.5,
            "tail_fraction": 0.8,
        },
        "concentration": {"sizes": [1, 4], "delta": 2.0, "trials": 256},
        "training": {
            "rounds": 2,
            "candidates_per_round": 64,
            "contamination": 0.25,
            "drift_scale": 0.5,
            "epochs": 10,
            "hidden_dim": 4,
            "pca_k": 2,
            "lambda_contract": 0.5,
            "ess_weight": 0.05,
            "learning_rate": 0.01,
            "holdout_fraction": 0.2,
        },
    }


def _config(**overrides) -> ExperimentConfig:
    defaults = dict(scenario="dynamics", seed=3, horizon=30, trials=20)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigParsing:
    def test_fully_specified_dict_round_trips(self):
        raw = _full_config_dict()
        config = ExperimentConfig.from_dict(raw)
        assert config.to_dict() == raw
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_top_level_field_is_named_in_the_error(self):
        raw = {"scenario": "dynamics", "seed": 1, "bogus": 2}
        with pytest.raises(InputValidationError, match="bogus"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_section_field_is_named_in_the_error(self):
        raw = {"scenario": "dynamics", "seed": 1, "model": {"familyy": "poisson"}}
        with pytest.raises(InputValidationError, match="familyy"):
            ExperimentConfig.from_dict(raw)

    def test_scenario_and_seed_are_required(self):
        with pytest.raises(InputValidationError, match="scenario"):
            ExperimentConfig.from_dict({"seed": 1})
        with pytest.raises(InputValidationError, match="seed"):
            ExperimentConfig.from_dict({"scenario": "dynamics"})

    def test_unknown_scenario_lists_the_valid_ones(self):
        with pytest.raises(InputValidationError, match="dynamics"):
            ExperimentConfig.from_dict({"scenario": "nope", "seed": 1})

    def test_seed_must_be_an_explicit_unsigned_integer(self):
        with pytest.raises(InputValidationError):
            _config(seed=-1)
        with pytest.raises(InputValidationError):
            _config(seed=2**64)
        with pytest.raises(InputValidationError):
            _config(seed=True)

    def test_filtered_workflow_requires_a_filter(self):
        with pytest.raises(InputValidationError, match="filter"):
            ExperimentConfig.from_dict({"scenario": "workflow-filtered", "seed": 1})

    def test_initial_error_must_match_the_model_dimension(self):
        with pytest.raises(InputValidationError, match="initial_error"):
            _config(initial_error=(1.0, 2.0))

    def test_mlp_filter_requires_a_checkpoint_path(self):
        raw = {"scenario": "workflow-filtered", "seed": 1, "filter": {"kind": "mlp"}}
        with pytest.raises(InputValidationError, match="checkpoint"):
            ExperimentConfig.from_dict(raw)

    def test_read_config_json_reads_json_and_reports_bad_files(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "dynamics", "seed": 9}))
        assert ExperimentConfig.from_dict(read_config_json(path)).seed == 9
        with pytest.raises(InputValidationError, match="cannot read"):
            read_config_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputValidationError, match="JSON"):
            read_config_json(bad)
        listed = tmp_path / "list.json"
        listed.write_text("[1]")
        with pytest.raises(InputValidationError, match="JSON object"):
            read_config_json(listed)

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"model": {"dim": 1.5}}, "model.dim must be an integer"),
            ({"rates": {"c2": "x"}}, "rates.c2 must be a number"),
            ({"concentration": {"sizes": [1.5]}}, "concentration.sizes[0] must be an integer"),
            ({"model": "m"}, "config section 'model' must be a mapping"),
        ],
    )
    def test_wrong_type_names_the_dotted_field(self, override, message):
        raw = {"scenario": "dynamics", "seed": 1, **override}
        with pytest.raises(InputValidationError) as info:
            ExperimentConfig.from_dict(raw)
        assert str(info.value) == message

    def test_echo_follows_dataclass_field_order(self):
        config = ExperimentConfig.from_dict(_full_config_dict())
        echo = config.to_dict()
        assert list(echo) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        training = [f.name for f in dataclasses.fields(type(config.training))]
        assert list(echo["training"]) == training

    def test_null_sections_take_their_defaults(self):
        config = ExperimentConfig.from_dict(
            {"scenario": "dynamics", "seed": 1, "concentration": None}
        )
        assert config.concentration == ConcentrationSpec()


class TestConfigHash:
    def test_hash_values_are_pinned(self):
        # config_hash names the config in every results.csv row and checkpoint
        assert config_hash(ExperimentConfig.from_dict(_full_config_dict())) == "5f1011cf68f1"
        minimal = ExperimentConfig.from_dict({"scenario": "dynamics", "seed": 3})
        assert config_hash(minimal) == "d749d291aa81"

    def test_hash_ignores_the_output_directory(self):
        a = _config(out_dir="runs/a")
        b = _config(out_dir="runs/b")
        assert config_hash(a) == config_hash(b)

    def test_hash_tracks_substantive_fields(self):
        assert config_hash(_config(seed=3)) != config_hash(_config(seed=4))
        assert config_hash(_config(horizon=30)) != config_hash(_config(horizon=31))

    def test_hash_is_twelve_hex_characters(self):
        h = config_hash(_config())
        assert len(h) == 12 and all(ch in "0123456789abcdef" for ch in h)


def _table(scenario, ts, n_t, mse, mean_v, exceed, trials, chash) -> ResultTable:
    """A ResultTable over steps ``ts``; scalar columns are repeated on every row."""
    ts = np.asarray(ts, dtype=np.int64)
    rows = ts.shape[0]
    return ResultTable(
        scenario,
        ts,
        np.broadcast_to(n_t, rows),
        np.broadcast_to(mse, rows),
        np.broadcast_to(mean_v, rows),
        np.broadcast_to(exceed, (rows, 3)),
        trials,
        chash,
    )


def _same_table(a, b) -> bool:
    """Field-by-field equality of two tables, arrays compared by dtype and value."""
    for f in dataclasses.fields(a):
        x, y = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
        if x.dtype != y.dtype or not np.array_equal(x, y):
            return False
    return True


class TestResultsCsv:
    def _rows(self):
        return _table(
            "dynamics", range(3), 100, [0.5 * (t + 1) for t in range(3)], 1.25, (1.0, 0.5, 0.0),
            20, "abc123def456",
        )

    def test_write_then_read_returns_identical_rows(self, tmp_path):
        path = tmp_path / "results.csv"
        rows = self._rows()
        write_results_csv(rows, path)
        assert _same_table(read_results_csv(path), rows)

    def test_header_is_the_pinned_schema(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(self._rows(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,t,n_t,mse,mean_V,exceed_0.1,exceed_0.2,exceed_0.5,trials,config_hash"
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_rewriting_the_same_rows_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(self._rows(), first)
        write_results_csv(self._rows(), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_tables_are_refused(self, tmp_path):
        with pytest.raises(InputValidationError):
            write_results_csv(
                _table("dynamics", [], 100, 1.0, 1.0, 0.0, 20, "abc123def456"),
                tmp_path / "results.csv",
            )

    def test_foreign_header_is_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("t,mse\n0,1.0\n")
        with pytest.raises(InputValidationError, match="schema"):
            read_results_csv(path)

    def test_short_rows_are_rejected_with_a_line_number(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(CSV_HEADER + "\ndynamics,0,1\n")
        with pytest.raises(InputValidationError, match=":2"):
            read_results_csv(path)

    @pytest.mark.parametrize("column, name", [(0, "scenario"), (8, "trials"), (9, "config_hash")])
    def test_a_column_shared_by_every_row_must_not_vary(self, tmp_path, column, name):
        path = tmp_path / "results.csv"
        write_results_csv(self._rows(), path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = "7"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputValidationError, match=f":4: column {name} differs from line 2"):
            read_results_csv(path)

    def test_a_header_only_file_reads_as_an_empty_table(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(CSV_HEADER + "\n")
        table = read_results_csv(path)
        assert len(table) == 0 and table.exceed.shape == (0, 3)

    def test_missing_file_is_reported(self, tmp_path):
        with pytest.raises(InputValidationError, match="cannot read"):
            read_results_csv(tmp_path / "absent.csv")


class TestAtomicWrite:
    def test_creates_parent_directories_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "file.txt"
        atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert sorted(p.name for p in target.parent.iterdir()) == ["file.txt"]

    def test_overwrites_existing_content(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "old\n")
        atomic_write_text(target, "new\n")
        assert target.read_text() == "new\n"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_get_the_mode_the_umask_allows(self, tmp_path, umask, mode):
        target = tmp_path / "file.txt"
        previous = os.umask(umask)
        try:
            atomic_write_text(target, "payload\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == mode

    def test_summary_json_is_sorted_and_parseable(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary({"beta": 2, "alpha": 1}, path)
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"beta"')
        assert json.loads(text) == {"alpha": 1, "beta": 2}


class TestRunExperiment:
    def test_dynamics_writes_one_row_per_step_and_a_summary(self, tmp_path):
        config = _config(out_dir=str(tmp_path))
        result = run_experiment(config)
        table = result.table
        assert len(table) == config.horizon + 1
        parsed = read_results_csv(result.paths["results"])
        assert parsed.scenario == table.scenario
        np.testing.assert_array_equal(parsed.t, table.t)
        np.testing.assert_array_equal(parsed.n_t, table.n_t)
        assert parsed.mse == pytest.approx(table.mse, rel=1e-11)
        np.testing.assert_array_equal(parsed.exceed, table.exceed)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == result.summary
        assert result.summary["scenario"] == "dynamics"
        assert result.summary["config_hash"] == config_hash(config)

    def test_identical_configs_reproduce_identical_artifacts(self, tmp_path):
        first = run_experiment(_config(out_dir=str(tmp_path / "a")))
        second = run_experiment(_config(out_dir=str(tmp_path / "b")))
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()
        assert _same_table(first.table, second.table)

    def test_unfiltered_workflow_reports_its_closed_form_expectations(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "workflow",
                "seed": 5,
                "horizon": 40,
                "trials": 25,
                "schedule": {"kind": "constant", "base": 50},
                "out_dir": str(tmp_path),
            }
        )
        result = run_experiment(config)
        assert result.summary["expected_final_mse"] == pytest.approx(40 / 50)
        assert result.summary["expected_mse_slope"] == pytest.approx(1 / 50)
        assert result.table.t[0] == 0
        assert all(n_t == 50 for n_t in result.table.n_t)

    def test_oracle_filtered_workflow_beats_the_unfiltered_run(self, tmp_path):
        base = {
            "seed": 11,
            "horizon": 60,
            "trials": 20,
            "schedule": {"kind": "constant", "base": 100},
        }
        plain = run_experiment(
            ExperimentConfig.from_dict(
                {"scenario": "workflow", "out_dir": str(tmp_path / "plain"), **base}
            )
        )
        filtered = run_experiment(
            ExperimentConfig.from_dict(
                {
                    "scenario": "workflow-filtered",
                    "out_dir": str(tmp_path / "filtered"),
                    "filter": {"kind": "oracle-pullback", "gamma": 0.5, "candidates_per_round": 200},
                    **base,
                }
            )
        )
        assert filtered.summary["scenario"] == "workflow-filtered"
        assert filtered.summary["final_mse"] < plain.summary["final_mse"] / 3.0
        assert "expected_final_mse" not in filtered.summary

    def test_rates_run_recovers_the_expected_decay_slope(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "rates",
                "seed": 0,
                "rates": {"kind": "power-law", "p": 2.0, "noise_beta": 1.0, "steps": 2000},
                "out_dir": str(tmp_path),
            }
        )
        result = run_experiment(config)
        assert len(result.table) == 2001
        assert result.summary["expected_slope"] == pytest.approx(-0.5)
        assert result.summary["fitted_slope"] == pytest.approx(-0.5, abs=0.15)
        assert result.summary["r_squared"] > 0.9

    def test_rates_run_with_a_flat_trajectory_reports_no_fit(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "rates",
                "seed": 0,
                "rates": {"x0": 0.0, "noise_kind": "zero", "steps": 10},
                "out_dir": str(tmp_path),
            }
        )
        result = run_experiment(config)
        assert result.summary["fitted_slope"] is None
        assert result.summary["expected_slope"] is None
        assert result.summary["final_value"] == 0.0

    def test_concentration_run_reports_one_row_per_sample_size(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "concentration",
                "seed": 2,
                "concentration": {"sizes": [1, 10], "delta": 1.0, "trials": 500},
                "out_dir": str(tmp_path),
            }
        )
        result = run_experiment(config)
        assert result.table.n_t.tolist() == [1, 10]
        assert len(result.summary["exceedance"]) == 2
        assert all(0.0 <= frac <= 1.0 for frac in result.summary["exceedance"])

    def test_train_filter_run_writes_a_loadable_checkpoint_and_log(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "train-filter",
                "seed": 8,
                "model": {"dim": 2},
                "training": {
                    "rounds": 2,
                    "candidates_per_round": 120,
                    "epochs": 30,
                    "hidden_dim": 8,
                    "learning_rate": 0.01,
                },
                "out_dir": str(tmp_path),
            }
        )
        result = run_experiment(config)
        assert result.table is None
        params, pca, meta = load_filter_checkpoint(result.paths["checkpoint"])
        assert params.hidden_dim == 8 and pca.input_dim == 2
        assert meta["scenario"] == "train-filter"
        log_lines = (tmp_path / "training_log.csv").read_text().splitlines()
        assert log_lines[0] == TRAINING_LOG_HEADER
        assert len(log_lines) == 31
        assert [line.split(",")[0] for line in log_lines[1:]] == [str(k) for k in range(1, 31)]
        assert result.summary["n_train"] + result.summary["n_holdout"] == 240
        assert result.summary["holdout_accuracy"] is not None

    def test_mlp_checkpoint_drives_a_filtered_workflow(self, tmp_path):
        train_config = ExperimentConfig.from_dict(
            {
                "scenario": "train-filter",
                "seed": 8,
                "model": {"dim": 2},
                "training": {
                    "rounds": 2,
                    "candidates_per_round": 120,
                    "epochs": 30,
                    "hidden_dim": 8,
                    "learning_rate": 0.01,
                },
                "out_dir": str(tmp_path / "train"),
            }
        )
        trained = run_experiment(train_config)
        config = ExperimentConfig.from_dict(
            {
                "scenario": "workflow-filtered",
                "seed": 4,
                "model": {"dim": 2},
                "horizon": 10,
                "trials": 5,
                "schedule": {"kind": "constant", "base": 50},
                "filter": {
                    "kind": "mlp",
                    "checkpoint": trained.paths["checkpoint"],
                    "candidates_per_round": 100,
                },
                "out_dir": str(tmp_path / "wf"),
            }
        )
        result = run_experiment(config)
        assert result.summary["scenario"] == "workflow-filtered"
        assert len(result.table) == 11


class TestExceedanceTrendRise:
    def test_decaying_curve_has_a_negative_rise(self):
        curve = np.linspace(1.0, 0.0, 200)
        assert exceedance_trend_rise(curve, burn_in=20) < 0.0

    def test_late_jump_is_measured_at_the_block_boundary(self):
        curve = np.concatenate([np.zeros(30), np.zeros(100), np.full(100, 0.5)])
        np.testing.assert_allclose(exceedance_trend_rise(curve, burn_in=30), 0.5, atol=1e-12)

    def test_constant_curve_has_zero_rise(self):
        assert exceedance_trend_rise(np.full(100, 0.25), burn_in=10) == 0.0

    def test_short_tails_default_to_zero(self):
        assert exceedance_trend_rise(np.ones(5), burn_in=10) == 0.0
        assert exceedance_trend_rise(np.ones(11), burn_in=10) == 0.0


class TestCompareRuns:
    def _rows(self, mses, scenario="workflow"):
        return _table(scenario, range(len(mses)), 100, mses, mses, 0.0, 10, "feedc0ffee12")

    def test_identical_runs_have_unit_ratios_and_flat_trend(self):
        rows = self._rows([1.0, 2.0, 3.0])
        compare, summary = compare_runs(rows, rows)
        assert compare.ratio.tolist() == [1.0, 1.0, 1.0]
        assert summary["final_ratio"] == 1.0
        assert summary["ratio_trend_slope"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rows", [3, 11, 41, 61, 201])
    def test_a_run_compared_with_itself_has_an_exactly_flat_trend(self, rows):
        table = self._rows([float(t + 1) for t in range(rows)])
        _, summary = compare_runs(table, table)
        assert summary["ratio_trend_slope"] == 0.0
        assert summary["trend_increasing"] is False
        trend_check = compare_checks(summary)[1]
        assert trend_check.name == "compare-trend-increasing" and not trend_check.passed

    def test_growing_gap_yields_an_increasing_trend(self):
        baseline = self._rows([float(t + 1) for t in range(10)])
        treatment = self._rows([0.5] * 10)
        compare, summary = compare_runs(baseline, treatment)
        assert compare.ratio[-1] == pytest.approx(20.0)
        assert summary["ratio_trend_slope"] == pytest.approx(2.0)
        assert summary["trend_increasing"]

    def test_zero_mse_rows_are_handled_explicitly(self):
        baseline = self._rows([0.0, 1.0])
        treatment = self._rows([0.0, 0.0])
        compare, summary = compare_runs(baseline, treatment)
        assert compare.ratio[0] == 1.0
        assert math.isinf(compare.ratio[1])
        assert math.isinf(summary["final_ratio"])

    def test_mismatched_tables_are_rejected(self):
        rows = self._rows([1.0, 2.0])
        with pytest.raises(InputValidationError):
            compare_runs(rows, self._rows([1.0]))
        with pytest.raises(InputValidationError):
            compare_runs(self._rows([]), self._rows([]))
        shifted = self._rows([1.0, 2.0])
        shifted = dataclasses.replace(
            shifted, t=shifted.t[::-1], mse=shifted.mse[::-1], mean_v=shifted.mean_v[::-1]
        )
        with pytest.raises(InputValidationError, match="grids"):
            compare_runs(rows, shifted)

    def test_compare_csv_has_the_pinned_header(self, tmp_path):
        rows, _ = compare_runs(self._rows([1.0, 4.0]), self._rows([1.0, 2.0]))
        path = tmp_path / "compare.csv"
        write_compare_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == COMPARE_HEADER == "t,baseline_mse,treatment_mse,ratio"
        assert lines[2] == "1,4,2,2"


class TestEmitPlot:
    def _rows(self, n=17):
        return _table(
            "dynamics", range(n), 100, [float(t + 1) for t in range(n)], 1.0, (0.5, 0.25, 0.0),
            10, "feedc0ffee12",
        )

    def test_polyline_has_one_vertex_per_row(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(self._rows(17), "linear", path)
        svg = path.read_text()
        points = svg.split('points="')[1].split('"')[0]
        assert len(points.split()) == 17

    def test_rewriting_the_same_plot_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(self._rows(), "semilogy", first)
        emit_plot(self._rows(), "semilogy", second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("column", ["mse", "mean_V", "exceed_0.1", "exceed_0.2"])
    def test_each_known_column_renders(self, tmp_path, column):
        path = tmp_path / f"{column}.svg"
        emit_plot(self._rows(), "linear", path, column=column)
        assert "<polyline" in path.read_text()

    def test_flat_series_renders_without_degenerate_scaling(self, tmp_path):
        rows = _table("dynamics", range(5), 100, 2.0, 1.0, 0.0, 10, "feedc0ffee12")
        path = tmp_path / "flat.svg"
        emit_plot(rows, "linear", path)
        assert "<polyline" in path.read_text()

    def test_log_domains_are_validated(self, tmp_path):
        with pytest.raises(InputValidationError, match="t=0"):
            emit_plot(self._rows(), "loglog", tmp_path / "p.svg")
        zero_rows = _table("dynamics", range(1, 5), 100, 0.0, 1.0, 0.0, 10, "feedc0ffee12")
        with pytest.raises(InputValidationError, match="positive"):
            emit_plot(zero_rows, "semilogy", tmp_path / "p.svg")

    def test_bad_inputs_are_rejected(self, tmp_path):
        with pytest.raises(InputValidationError):
            emit_plot(
                _table("dynamics", [], 100, 1.0, 1.0, 0.0, 10, "feedc0ffee12"),
                "linear",
                tmp_path / "p.svg",
            )
        with pytest.raises(InputValidationError, match="kind"):
            emit_plot(self._rows(), "scatter", tmp_path / "p.svg")
        with pytest.raises(InputValidationError, match="column"):
            emit_plot(self._rows(), "linear", tmp_path / "p.svg", column="nope")
        bad = _table("dynamics", [0], 1, math.inf, 1.0, 0.0, 1, "feedc0ffee12")
        with pytest.raises(InputValidationError, match="finite"):
            emit_plot(bad, "linear", tmp_path / "p.svg")


class TestRunChecks:
    def test_workflow_checks_compare_against_the_closed_form(self):
        config = _config(scenario="workflow")
        summary = {
            "final_mse": 4.1,
            "expected_final_mse": 4.0,
            "mse_slope": 0.0105,
            "expected_mse_slope": 0.01,
        }
        checks = run_checks(config, summary)
        assert [c.name for c in checks] == ["workflow-final-mse", "workflow-mse-slope"]
        assert all(c.passed for c in checks)
        summary["final_mse"] = 5.0
        assert not run_checks(config, summary)[0].passed

    def test_workflow_without_a_closed_form_has_no_checks(self):
        config = _config(scenario="workflow")
        assert run_checks(config, {"final_mse": 1.0}) == []

    def test_filtered_workflow_checks_the_late_slope_sign(self):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "workflow-filtered",
                "seed": 1,
                "filter": {"kind": "oracle-pullback", "gamma": 0.5},
            }
        )
        passing = run_checks(config, {"mse_slope_last_half": -1e-6})
        failing = run_checks(config, {"mse_slope_last_half": 0.01})
        assert passing[0].passed and not failing[0].passed

    def test_dynamics_checks_terminal_exceedance_and_trend(self):
        config = _config(scenario="dynamics")
        summary = {
            "exceedance_final": {"0.2": 0.01},
            "max_exceedance_rise_after_burn_in": 0.005,
        }
        checks = run_checks(config, summary)
        assert [c.name for c in checks] == [
            "dynamics-final-exceedance-0.2",
            "dynamics-exceedance-monotone",
        ]
        assert all(c.passed for c in checks)
        summary["max_exceedance_rise_after_burn_in"] = 0.05
        assert not run_checks(config, summary)[1].passed

    def test_rates_check_uses_the_theoretical_slope(self):
        config = _config(scenario="rates")
        good = run_checks(config, {"expected_slope": -0.5, "fitted_slope": -0.52})
        bad = run_checks(config, {"expected_slope": -0.5, "fitted_slope": -0.65})
        none = run_checks(config, {"expected_slope": None, "fitted_slope": -0.5})
        assert good[0].passed and not bad[0].passed and none == []

    def test_concentration_checks_monotonicity_and_the_gaussian_tail(self):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "concentration",
                "seed": 1,
                "concentration": {"sizes": [1, 10], "delta": 3.0, "trials": 1000},
            }
        )
        summary = {"monotone_nonincreasing": True, "exceedance": [0.0027, 0.0]}
        checks = run_checks(config, summary)
        assert [c.name for c in checks] == [
            "concentration-monotone",
            "concentration-gaussian-tail",
        ]
        assert all(c.passed for c in checks)
        assert not run_checks(config, {"monotone_nonincreasing": True, "exceedance": [0.006, 0.0]})[1].passed

    def test_gaussian_tail_check_only_applies_to_the_calibrated_setup(self):
        config = ExperimentConfig.from_dict(
            {
                "scenario": "concentration",
                "seed": 1,
                "model": {"dim": 2},
                "concentration": {"sizes": [1, 10], "delta": 3.0, "trials": 1000},
            }
        )
        summary = {"monotone_nonincreasing": True, "exceedance": [0.9, 0.0]}
        assert [c.name for c in run_checks(config, summary)] == ["concentration-monotone"]

    def test_train_filter_checks_cover_loss_accuracy_and_certificate(self):
        config = _config(scenario="train-filter")
        summary = {
            "final_contract_loss": 0.0,
            "holdout_accuracy": 0.95,
            "contraction_certificate": True,
        }
        checks = run_checks(config, summary)
        assert [c.name for c in checks] == [
            "train-contract-final",
            "train-holdout-accuracy",
            "train-contraction-certificate",
        ]
        assert all(c.passed for c in checks)
        summary["holdout_accuracy"] = None
        assert len(run_checks(config, summary)) == 2

    def test_compare_checks_gate_ratio_and_trend(self):
        good = compare_checks({"final_ratio": 6.0, "ratio_trend_slope": 0.4})
        assert all(c.passed for c in good)
        bad = compare_checks({"final_ratio": 4.0, "ratio_trend_slope": None})
        assert not bad[0].passed and not bad[1].passed

    def test_ensure_checks_pass_raises_with_the_failing_names(self):
        passing = CheckResult("ok", True, 1.0, 1.0, "fine")
        failing = CheckResult("broken-gate", False, 2.0, 1.0, "too large")
        ensure_checks_pass([passing])
        with pytest.raises(CheckFailureError, match="broken-gate"):
            ensure_checks_pass([passing, failing])

    def test_check_lines_are_single_verdict_strings(self):
        check = CheckResult("some-gate", True, 0.5, 1.0, "detail text")
        line = check.line()
        assert line.startswith("PASS some-gate:")
        assert "measured=0.5" in line and "threshold=1" in line
        assert CheckResult("some-gate", False, 0.5, 1.0, "d").line().startswith("FAIL")
