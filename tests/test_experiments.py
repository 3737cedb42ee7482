"""Tests for experiment configs, artifact files, scenario runners, and checks."""

import dataclasses
import json
import math
import os
import re
import stat
import tracemalloc
import warnings

import numpy as np
import pytest

from collapseguard import experiments
from collapseguard.contraction import RegulatorFn
from collapseguard.dynamics import DEFAULT_DELTAS, NoiseSchedule
from collapseguard.errors import CheckFailureError, CollapseGuardError, InputValidationError
from collapseguard.experiments import (
    ConcentrationSpec,
    COMPARE_HEADER,
    CSV_HEADER,
    TRAINING_LOG_HEADER,
    CheckResult,
    CompareTable,
    ExperimentConfig,
    FilterSpec,
    RatesSpec,
    RESULT_COLUMNS,
    ResultTable,
    atomic_write_text,
    compare_checks,
    compare_runs,
    config_hash,
    emit_plot,
    ensure_checks_pass,
    exceedance_trend_rise,
    read_results_csv,
    run_checks,
    run_experiment,
    write_compare_csv,
    write_results_csv,
    write_summary,
)
from collapseguard.experiments import _format_rows, _scan_body
from collapseguard.filtering import load_filter_checkpoint, read_json_object


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

    def test_read_json_object_reads_a_config_and_reports_bad_files(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "dynamics", "seed": 9}))
        assert ExperimentConfig.from_dict(read_json_object(path, "config")).seed == 9
        with pytest.raises(InputValidationError, match="cannot read config"):
            read_json_object(tmp_path / "missing.json", "config")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputValidationError, match="JSON"):
            read_json_object(bad, "config")
        listed = tmp_path / "list.json"
        listed.write_text("[1]")
        with pytest.raises(InputValidationError, match="JSON object"):
            read_json_object(listed, "config")

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

    @pytest.mark.parametrize(
        "section, chash",
        [
            # example-sqrt reads none of alpha, level and c_max
            ({"kind": "example-sqrt", "c_max": 5, "level": -3, "alpha": -1}, "60edcff20de5"),
            ({"kind": "quadratic"}, "3201dd1b2c7e"),
            ({"kind": "constant"}, "ab21dfdb5683"),
            ({"kind": "constant", "level": 0}, "6ebe5a6b9997"),
            ({"kind": "constant", "level": 0.3, "c_max": 5}, "7c1f8a21d680"),
        ],
    )
    def test_contraction_section_accepts_and_hashes(self, section, chash):
        raw = {"scenario": "dynamics", "seed": 3, "contraction": section}
        assert config_hash(ExperimentConfig.from_dict(raw)) == chash

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"kind": "quadratic", "c_max": 1}, "c_max must lie in (0, 1)"),
            ({"kind": "quadratic", "alpha": 0}, "alpha must be positive"),
            ({"kind": "constant", "level": 1}, "level must lie in [0, 1)"),
            ({"kind": "constant", "level": -0.1}, "level must lie in [0, 1)"),
            ({"kind": "quadratic-clamped"}, "unknown contraction.kind 'quadratic-clamped'"),
        ],
    )
    def test_contraction_section_rejects(self, section, message):
        raw = {"scenario": "dynamics", "seed": 3, "contraction": section}
        with pytest.raises(InputValidationError) as info:
            ExperimentConfig.from_dict(raw)
        # a message that does not name its section is prefixed with it
        named = message.startswith("unknown contraction.")
        assert str(info.value) == (message if named else f"contraction: {message}")

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"noise_kind": "power-law", "noise_beta": -1}, "power-law beta must be positive"),
            ({"noise_kind": "power-law", "noise_beta": 0}, "power-law beta must be positive"),
            ({"noise_kind": "zero", "noise_scale": -1}, "scale must be finite and nonnegative"),
            ({"noise_kind": "constant", "noise_scale": -1}, "scale must be finite and nonnegative"),
            ({"noise_kind": "power-law", "noise_scale": -1}, "scale must be finite and nonnegative"),
            ({"noise_kind": "white"}, "unknown rates.noise_kind 'white'"),
            ({"kind": "cubic"}, "unknown rates.kind 'cubic'"),
        ],
    )
    def test_rates_noise_is_checked_as_a_schedule_at_parse_time(self, section, message):
        raw = {"scenario": "rates", "seed": 1, "rates": section}
        with pytest.raises(InputValidationError) as info:
            ExperimentConfig.from_dict(raw)
        # the schedule's own messages are prefixed with the section they come from
        named = message.startswith("unknown rates.")
        assert str(info.value) == (message if named else f"rates: {message}")

    def test_rates_section_builds_its_schedule_and_regulator(self):
        rates = ExperimentConfig.from_dict(_full_config_dict()).rates
        assert rates.noise == NoiseSchedule("power-law", beta=3.0, scale=0.5)
        assert rates.regulator == RegulatorFn("power-law", p=3.0, c1=0.5, c2=2.0)

    @pytest.mark.parametrize(
        "override, name",
        [
            ({"horizon": 2**63}, "horizon"),
            ({"model": {"dim": -(2**63) - 1}}, "model.dim"),
            ({"concentration": {"sizes": [1, 10**23]}}, "concentration.sizes[1]"),
        ],
    )
    def test_integers_beyond_int64_are_rejected_by_name(self, override, name):
        raw = {"scenario": "dynamics", "seed": 1, **override}
        with pytest.raises(InputValidationError) as info:
            ExperimentConfig.from_dict(raw)
        assert str(info.value) == f"{name} does not fit in a 64-bit integer"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ConcentrationSpec(delta=math.nan), "concentration.delta must be nonnegative"),
            (lambda: ExperimentConfig(scenario="dynamics", seed=1, deltas=(math.nan,)),
             "deltas must be positive"),
            (lambda: ExperimentConfig(scenario="dynamics", seed=1, deltas=(0.1, math.nan)),
             "deltas must be positive"),
            (lambda: ExperimentConfig(scenario="dynamics", seed=1, horizon=math.nan),
             "horizon must be positive"),
            (lambda: ExperimentConfig(scenario="dynamics", seed=1, trials=math.nan),
             "trials must be positive"),
            (lambda: ConcentrationSpec(sizes=(1, math.nan)),
             "concentration.sizes must be positive integers"),
            (lambda: ConcentrationSpec(trials=math.nan), "concentration.trials must be at least 100"),
            (lambda: FilterSpec(candidates_per_round=math.nan),
             "filter.candidates_per_round must be at least 2"),
            (lambda: RatesSpec(steps=math.nan), "rates.steps must be at least 2"),
        ],
        ids=["concentration-delta", "deltas", "a-later-delta", "horizon", "trials",
             "concentration-sizes", "concentration-trials", "filter-candidates", "rates-steps"],
    )
    def test_a_nan_field_is_rejected(self, build, message):
        with pytest.raises(InputValidationError, match=f"^{re.escape(message)}$"):
            build()

    def test_the_largest_unsigned_seed_is_accepted(self):
        config = ExperimentConfig.from_dict({"scenario": "dynamics", "seed": 2**64 - 1})
        assert config.seed == 2**64 - 1

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
    """A ResultTable over steps ``ts``; scalar columns are repeated on every row.

    ``exceed`` gives the three exceed columns, as a scalar or one value each.
    """
    ts = np.asarray(ts, dtype=np.int64)
    rows = ts.shape[0]
    values = [np.broadcast_to(v, rows) for v in (n_t, mse, mean_v)]
    exceed = np.broadcast_to(exceed, (rows, 3)).T
    return ResultTable(scenario, dict(zip(RESULT_COLUMNS, [ts, *values, *exceed])), trials, chash)


def _same_table(a, b) -> bool:
    """Field-by-field equality of two tables, columns compared by name, dtype and value."""
    for f in dataclasses.fields(a):
        if f.name != "columns" and getattr(a, f.name) != getattr(b, f.name):
            return False
    if list(a.columns) != list(b.columns):
        return False
    return all(x.dtype == y.dtype and np.array_equal(x, y)
               for x, y in zip(a.columns.values(), b.columns.values()))


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

    def test_a_header_only_file_is_refused(self, tmp_path):
        # the writer refuses an empty table, so a file it wrote holds a row
        path = tmp_path / "results.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(InputValidationError, match="holds no results rows"):
            read_results_csv(path)

    @pytest.mark.parametrize("scenario, chash", [
        ("train-filter", "abc123def456"), ("", "abc123def456"), ("Rates", "abc123def456"),
        ("rates ", "abc123def456"), ("r" * 40, "abc123def456"), ("rates", "ABC123DEF456"),
        ("rates", "abc123def45"), ("rates", "abc123def4567"), ("rates", "abc123def45g"),
        ("rates", ""),
    ])
    def test_the_writer_and_the_reader_refuse_the_same_shared_cells(self, tmp_path, scenario,
                                                                    chash):
        table = _table(scenario, range(2), 100, 0.5, 1.25, 0.0, 20, chash)
        path = tmp_path / "results.csv"
        with pytest.raises(InputValidationError, match="^refusing to write a results table: "):
            write_results_csv(table, path)
        path.write_text(_with_lines(*[f"{scenario},{t},100,0.5,1.25,0,0,0,20,{chash}" for t in (0, 1)]))
        with pytest.raises(InputValidationError, match=f"^{re.escape(str(path))}:2: column "):
            read_results_csv(path)

    def test_each_string_field_is_one_character_wider_than_its_longest_valid_cell(self):
        assert set(experiments._TABLE_RUNNERS) == set(_TABLE_SCENARIOS)
        assert experiments._CSV_DTYPE["scenario"] == np.dtype(
            f"U{max(map(len, _TABLE_SCENARIOS)) + 1}"
        )
        assert experiments._CSV_DTYPE["config_hash"] == np.dtype("U13")

    def test_missing_file_is_reported(self, tmp_path):
        with pytest.raises(InputValidationError, match="cannot read"):
            read_results_csv(tmp_path / "absent.csv")

    def test_the_table_columns_are_the_numeric_header_columns(self):
        assert RESULT_COLUMNS == tuple(CSV_HEADER.split(",")[1:8])
        assert RESULT_COLUMNS[4:] == tuple(f"exceed_{d}" for d in DEFAULT_DELTAS)

    @pytest.mark.parametrize(
        "scenario, section",
        [("dynamics", {"horizon": 20, "trials": 8}),
         ("workflow", {"horizon": 10, "trials": 4, "schedule": {"kind": "constant", "base": 20}}),
         ("rates", {"rates": {"steps": 50}}),
         ("concentration", {"concentration": {"sizes": [1, 10], "delta": 1.0, "trials": 200}})],
        ids=["dynamics", "workflow", "rates", "concentration"],
    )
    def test_rewriting_a_scenario_results_file_reproduces_its_bytes(self, tmp_path, scenario,
                                                                    section):
        config = ExperimentConfig.from_dict(
            {"scenario": scenario, "seed": 5, "out_dir": str(tmp_path / "run"), **section}
        )
        written = run_experiment(config).paths["results"]
        table = read_results_csv(written)
        assert tuple(table.columns) == RESULT_COLUMNS
        write_results_csv(table, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == open(written, "rb").read()


_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-5, 1e16,
                123456789012.5, -123456789012.5, 0.1, 1.0 / 3.0, 2.0**63, 1.7976931348623157e308]
_INT64_EDGES = [-(2**63), 2**63 - 1, -1, 0, 1]


def _edge_floats(rng, count) -> np.ndarray:
    """The edge floats, then random float64 bit patterns, ``count`` values in all."""
    size = count - len(_EDGE_FLOATS)
    bits = rng.integers(0, 2**64 - 1, size=size, dtype=np.uint64, endpoint=True)
    return np.concatenate([_EDGE_FLOATS, bits.view(np.float64)])


class TestOnePassWriterAgainstPerCellFormulas:
    """Each writer's text equals the one its cells give formatted one at a time."""

    def test_results_csv(self, tmp_path):
        rng = np.random.default_rng(23)
        rows = 2000
        ints = rng.integers(-(2**63), 2**63 - 1, size=(2, rows), dtype=np.int64, endpoint=True)
        ints[:, : len(_INT64_EDGES)] = _INT64_EDGES
        floats = np.stack([_edge_floats(rng, rows) for _ in range(5)])
        table = ResultTable("rates", dict(zip(RESULT_COLUMNS, [*ints, *floats])), 20,
                            "abc123def456")
        path = tmp_path / "results.csv"
        write_results_csv(table, path)
        lines = [
            ",".join(["rates", str(t), str(n), *(format(x, ".12g") for x in xs), "20",
                      "abc123def456"])
            for t, n, *xs in zip(*ints.tolist(), *floats.tolist())
        ]
        assert path.read_text() == "\n".join([CSV_HEADER, *lines]) + "\n"

    def test_compare_csv(self, tmp_path):
        rng = np.random.default_rng(24)
        rows = 2000
        t = rng.integers(-(2**63), 2**63 - 1, size=rows, dtype=np.int64, endpoint=True)
        t[: len(_INT64_EDGES)] = _INT64_EDGES
        columns = [_edge_floats(rng, rows) for _ in range(3)]
        path = tmp_path / "compare.csv"
        write_compare_csv(CompareTable(t, *columns), path)
        lines = [
            ",".join([str(step), *(format(x, ".12g") for x in xs)])
            for step, *xs in zip(t.tolist(), *(c.tolist() for c in columns))
        ]
        assert path.read_text() == "\n".join([COMPARE_HEADER, *lines]) + "\n"

    def test_polyline_points(self):
        xs = np.array([-0.0004, -0.0, 0.0, 0.0004, 0.0005, 0.0015, 56.0, 583.9995, 1e-300])
        ys = xs[::-1].copy()
        expected = " ".join("%.3f,%.3f" % pair for pair in zip(xs.tolist(), ys.tolist()))
        assert "".join(_format_rows("%.3f,%.3f ", [xs, ys]))[:-1] == expected
        assert expected.startswith("-0.000,0.000 -0.000,")

    @pytest.mark.parametrize("scenario, chash, message", [
        ("dyn%amics%%", "abc123def456", "column scenario must be one of"),
        ("dynamics", "%d%s%.12g%", "column config_hash must hold 12 lowercase hex digits"),
    ], ids=["scenario", "config-hash"])
    def test_a_percent_sign_in_the_shared_cells_is_refused(self, tmp_path, scenario, chash,
                                                           message):
        # no valid shared cell holds a "%", so the writer's row format escapes none
        table = _table(scenario, range(3), 100, [0.5, 1.0, 1.5], 1.25, (1.0, 0.5, 0.0), 20, chash)
        path = tmp_path / "results.csv"
        with pytest.raises(InputValidationError, match=f"^refusing to write a results table: {message}"):
            write_results_csv(table, path)
        assert not path.exists()
        path.write_text(_with_lines(f"{scenario},0,100,0.5,1.25,1,0.5,0,20,{chash}"))
        with pytest.raises(InputValidationError, match=f"^{re.escape(str(path))}:2: {message}"):
            read_results_csv(path)


def _reference_format_rows(row: str, columns) -> str:
    """The writers' formatter as it was: one %-pass over every row of the table."""
    width, rows = len(columns), len(columns[0])
    values = [None] * (width * rows)
    for j, column in enumerate(columns):
        values[j::width] = column.tolist()
    return (row * rows) % tuple(values)


def _reference_polyline(ys) -> str:
    """The points of a linear plot of ``ys`` over t = 0, 1, ..., formatted in one pass."""
    xs = np.arange(len(ys), dtype=float)
    m, w, h = 56.0, 640.0, 480.0
    sx = m + (xs - xs.min()) / (xs.max() - xs.min()) * ((w - m) - m)
    sy = (h - m) + (ys - ys.min()) / (ys.max() - ys.min()) * (m - (h - m))
    return _reference_format_rows("%.3f,%.3f ", [sx, sy])[:-1]


class TestBlockWiseWriter:
    """The writers format a block of rows at a time; their bytes are the one-pass bytes."""

    @staticmethod
    def _large_table(rows):
        rng = np.random.default_rng(31)
        columns = [np.arange(rows), rng.integers(1, 10**6, rows), rng.random(rows),
                   rng.random(rows), *rng.random((rows, 3)).T]
        return ResultTable("rates", dict(zip(RESULT_COLUMNS, columns)), 20, "abc123def456")

    def _assert_one_pass_bytes(self, table, tmp_path):
        results, compare, svg = (tmp_path / name for name in ("r.csv", "c.csv", "p.svg"))
        write_results_csv(table, results)
        row = "rates,%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g,20,abc123def456\n"
        columns = [table[name] for name in RESULT_COLUMNS]
        assert results.read_bytes() == (
            f"{CSV_HEADER}\n" + _reference_format_rows(row, columns)
        ).encode()
        ratios = CompareTable(table["t"], table["mse"], table["mean_V"],
                              table["mse"] / table["mean_V"])
        write_compare_csv(ratios, compare)
        columns = [ratios.t, ratios.baseline_mse, ratios.treatment_mse, ratios.ratio]
        assert compare.read_bytes() == (
            f"{COMPARE_HEADER}\n" + _reference_format_rows("%d,%.12g,%.12g,%.12g\n", columns)
        ).encode()
        emit_plot(table, "linear", svg)
        head, tail = svg.read_text().split(' points="')
        assert tail == _reference_polyline(table["mse"]) + '"/>\n</svg>\n'
        assert head.endswith('stroke-width="1.5"')

    def test_a_large_table_compare_table_and_plot_are_the_one_pass_bytes(self, tmp_path):
        self._assert_one_pass_bytes(self._large_table(100_001), tmp_path)

    @pytest.mark.parametrize("rows", [2, 3, 4, 7])
    def test_block_boundaries_move_no_byte(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 3)
        self._assert_one_pass_bytes(self._large_table(rows), tmp_path)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7])
    def test_polyline_points_at_every_block_boundary(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 3)
        path = tmp_path / "p.svg"
        emit_plot(_table("rates", range(rows), 100, np.arange(1.0, rows + 1.0) ** 2, 1.0,
                         (0.5, 0.25, 0.0), 10, "feedc0ffee12"), "semilogy", path)
        points = path.read_text().split('points="')[1].split('"')[0]
        assert len(points.split(" ")) == rows and points == points.strip()

    def test_writing_a_large_table_stays_small(self, tmp_path):
        # a 10.4 MB file: the one-pass writer peaked at 43.5 MB on it, this one at 1.8 MB
        table = self._large_table(100_000)
        tracemalloc.start()
        try:
            write_results_csv(table, tmp_path / "results.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestWholeNumberBlocks:
    """A "%.12g" field of a block of whole numbers is written "%d", with the "%.12g" text."""

    @staticmethod
    def _assert_12g_text(values):
        column = np.asarray(values, dtype=float)
        expected = "".join("%.12g\n" % v for v in column.tolist())
        assert "".join(_format_rows("%.12g\n", [column])) == expected

    def test_whole_numbers_up_to_twelve_digits(self):
        edges = [0, 1, -1, 7, 10**11, 10**12 - 1, -(10**12 - 1), 123456789012, -98765432101]
        rng = np.random.default_rng(43)
        values = np.concatenate([edges, rng.integers(-(10**12) + 1, 10**12, 4000),
                                 *[rng.integers(-(10**k), 10**k, 100) for k in range(1, 12)]])
        assert experiments._as_ints(values.astype(float)) is not None
        self._assert_12g_text(values)

    @pytest.mark.parametrize(
        "value, text",
        [(1e12, "1e+12"), (-1e12, "-1e+12"), (-0.0, "-0"), (0.5, "0.5"),
         (2.0**53, "9.00719925474e+15"), (math.nan, "nan"), (math.inf, "inf"),
         (-math.inf, "-inf")],
    )
    def test_a_value_percent_d_would_change_keeps_its_block_in_12g(self, value, text):
        assert experiments._as_ints(np.array([1.0, value])) is None
        self._assert_12g_text([value])
        self._assert_12g_text([1.0, 2.0, value, 3.0])
        assert "".join(_format_rows("%.12g\n", [np.array([3.0, value])])) == f"3\n{text}\n"

    def test_a_column_whole_in_one_block_and_not_the_next(self):
        rows = experiments._BLOCK_ROWS
        column = np.concatenate([np.arange(rows) - 7.0, np.arange(rows) + 0.5, [1.0, 2.0]])
        blocks = [column[lo : lo + rows] for lo in range(0, len(column), rows)]
        assert [experiments._as_ints(b) is not None for b in blocks] == [True, False, True]
        self._assert_12g_text(column)
        ints = np.arange(len(column))
        expected = "".join("%d,%.12g,%%d;\n" % (i, v) for i, v in enumerate(column.tolist()))
        assert "".join(_format_rows("%d,%.12g,%%d;\n", [ints, column])) == expected

    def test_results_and_compare_files_keep_their_bytes(self, tmp_path):
        rows = experiments._BLOCK_ROWS + 100
        rng = np.random.default_rng(47)
        mse = np.concatenate([rng.integers(0, 10**9, rows - 50) * 1.0, rng.random(50)])
        exceed = (rng.random((3, rows)) < 0.5).astype(float)
        exceed[2, 5] = -0.0
        columns = [np.arange(rows), np.zeros(rows, int), mse, np.zeros(rows), *exceed]
        table = ResultTable("rates", dict(zip(RESULT_COLUMNS, columns)), 20, "abc123def456")
        results, compare = tmp_path / "results.csv", tmp_path / "compare.csv"
        write_results_csv(table, results)
        row = "rates,%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g,20,abc123def456\n"
        assert results.read_bytes() == (
            f"{CSV_HEADER}\n" + _reference_format_rows(row, columns)
        ).encode()
        assert "-0,20,abc123def456\n" in results.read_text()
        baseline, treatment = mse + 1.0, np.floor(mse / 2.0) + 1.0
        ratios = CompareTable(table["t"], baseline, treatment, baseline / treatment)
        write_compare_csv(ratios, compare)
        columns = [ratios.t, ratios.baseline_mse, ratios.treatment_mse, ratios.ratio]
        assert compare.read_bytes() == (
            f"{COMPARE_HEADER}\n" + _reference_format_rows("%d,%.12g,%.12g,%.12g\n", columns)
        ).encode()


def _per_cell_rows(row: str, columns) -> str:
    """``row`` filled in one cell at a time: "%d" % i, format(x, ".12g") and "%.3f" % x."""
    cells = {"%d": lambda v: "%d" % v, "%.12g": lambda v: format(v, ".12g"),
             "%.3f": lambda v: "%.3f" % v, "%%": lambda v: "%"}
    parts = re.split(r"(%%|%d|%\.12g|%\.3f)", row)
    lines = []
    for values in zip(*(np.asarray(c).tolist() for c in columns)):
        values = iter(values)
        lines += [cells[p](None if p == "%%" else next(values)) if p in cells else p
                  for p in parts]
    return "".join(lines)


class TestBlockText:
    """Per block, an aliased column is formatted once and a bit-constant field is a literal.

    Whatever the formatter leaves out of a block's per-row pass, its text is
    the text of the same cells formatted one at a time.
    """

    RESULTS_ROW = "rates,%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g,20,abc123def456\n"
    COMPARE_ROW = "%d,%.12g,%.12g,%.12g\n"

    @staticmethod
    def _assert_text(row, columns):
        assert "".join(_format_rows(row, columns)) == _per_cell_rows(row, columns)

    @staticmethod
    def _shared_column(rows):
        # a whole-number block, a block of fractions, a mixed block, and a short constant tail
        rng = np.random.default_rng(61)
        block = experiments._BLOCK_ROWS
        return np.concatenate([rng.integers(0, 10**9, block) * 1.0, rng.random(block),
                               _edge_floats(rng, rows - 2 * block - 10), np.full(10, 0.25)])

    def test_a_results_table_with_one_array_twice_writes_the_bytes_of_its_copy(self, tmp_path):
        rows = 3 * experiments._BLOCK_ROWS + 17
        traj = self._shared_column(rows)
        exceed = (traj >= np.array(DEFAULT_DELTAS)[:, None]).astype(float)
        shared = {"t": np.arange(rows), "n_t": np.zeros(rows), "mse": traj, "mean_V": traj,
                  **dict(zip(RESULT_COLUMNS[4:], exceed))}
        copied = dict(shared, mean_V=traj.copy())
        table = ResultTable("rates", shared, 20, "abc123def456")
        assert table["mse"] is table["mean_V"]
        write_results_csv(table, tmp_path / "shared.csv")
        write_results_csv(ResultTable("rates", copied, 20, "abc123def456"), tmp_path / "copy.csv")
        text = (tmp_path / "shared.csv").read_bytes()
        assert text == (tmp_path / "copy.csv").read_bytes()
        columns = [table[name] for name in RESULT_COLUMNS]
        assert text == (f"{CSV_HEADER}\n" + _per_cell_rows(self.RESULTS_ROW, columns)).encode()

    def test_a_compare_table_with_one_array_twice_writes_the_bytes_of_its_copy(self, tmp_path):
        rows = 3 * experiments._BLOCK_ROWS + 17
        mse = np.abs(self._shared_column(rows))
        t = np.arange(rows)
        write_compare_csv(CompareTable(t, mse, mse, np.ones(rows)), tmp_path / "shared.csv")
        write_compare_csv(CompareTable(t, mse, mse.copy(), np.ones(rows)), tmp_path / "copy.csv")
        text = (tmp_path / "shared.csv").read_bytes()
        assert text == (tmp_path / "copy.csv").read_bytes()
        columns = [t, mse, mse, np.ones(rows)]
        assert text == (f"{COMPARE_HEADER}\n" + _per_cell_rows(self.COMPARE_ROW, columns)).encode()

    def test_one_array_under_two_specs_is_formatted_under_each(self):
        column = np.array([0.5, 1.0, 2.0, 1e12, -0.0, 1234.56789])
        self._assert_text("%.12g,%.3f,%.12g\n", [column, column, column])
        ints = np.arange(-3, 3)
        self._assert_text("%d;%.12g;%d\n", [ints, ints, ints])

    @pytest.mark.parametrize("value", [0.0, -0.0, math.nan, math.inf, -math.inf, 1e12, 0.5,
                                       2.0**53, 123456789012.0])
    def test_a_constant_block_writes_the_text_of_its_cells(self, value):
        rows = experiments._BLOCK_ROWS + 5
        column = np.full(rows, value)
        self._assert_text(self.COMPARE_ROW, [np.arange(rows), column, column, np.arange(rows) / 7])
        self._assert_text("%.12g\n", [column])

    def test_a_block_of_zeros_of_both_signs_is_no_literal(self):
        column = np.array([0.0, -0.0, 0.0, 0.0])
        assert "".join(_format_rows("%.12g\n", [column])) == "0\n-0\n0\n0\n"
        self._assert_text("%d,%.12g,%.12g\n", [np.arange(4), column, column[::-1].copy()])

    def test_nans_with_two_payloads_write_nan(self):
        column = np.full(5, math.nan)
        column.view(np.int64)[2] += 1
        assert np.isnan(column).all()
        assert "".join(_format_rows("%.12g;\n", [column])) == "nan;\n" * 5

    def test_a_constant_int64_column(self):
        rows = 2 * experiments._BLOCK_ROWS
        for t in (np.zeros(rows, np.int64), np.full(rows, -(2**63)), np.full(rows, 2**63 - 1)):
            self._assert_text("%d,%.12g\n", [t, np.linspace(0.0, 1.0, rows)])

    @pytest.mark.parametrize("rows", [1, 3, 4, 7, 9, 10])
    def test_constant_in_one_block_and_not_the_next_and_a_short_last_block(
        self, monkeypatch, rows
    ):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 3)
        steps = np.arange(rows)
        exceed = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, -0.0])[:rows]
        mse = np.array([5.0, 5.0, 5.0, 0.25, 0.25, 0.5, 2.0, 2.0, 2.0, 2.0])[:rows]
        columns = [steps, np.zeros(rows, np.int64), mse, mse, exceed, exceed[::-1].copy(), exceed]
        self._assert_text(self.RESULTS_ROW, columns)

    def test_a_block_where_every_field_is_constant(self, monkeypatch):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 4)
        zeros, ones = np.zeros(6), np.ones(6)
        t = np.array([7, 7, 7, 7, 8, 9])
        pieces = list(_format_rows("%d,%.12g,%.12g,%.12g\n", [t, zeros, zeros, ones]))
        assert pieces == ["7,0,0,1\n" * 4, "8,0,0,1\n9,0,0,1\n"]

    def test_a_percent_sign_next_to_a_constant_field(self, monkeypatch):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 4)
        row = "%%%.12g%%,%d%%%%;%.12g\n"
        constant, steps = np.full(10, 0.5), np.arange(10)
        varying = np.array([3.0, 3.0, 3.0, 3.0, 1.5, 2.5, 3.5, 4.5, -0.0, -0.0])
        self._assert_text(row, [constant, steps, varying])
        assert "".join(_format_rows(row, [constant, np.full(10, 4), varying]))[:15] == (
            "%0.5%,4%%;3\n%0."
        )

    def test_the_transposed_rows_of_a_training_log(self, monkeypatch):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(67)
        log = np.column_stack([rng.random(11), rng.random(11), np.zeros(11), np.full(11, -0.0)])
        log[5:, 2] = rng.random(6)
        losses = log.reshape(-1, 4).T
        assert not losses[0].flags.contiguous
        row = "%d" + ",%.12g" * 4 + "\n"
        self._assert_text(row, [np.arange(1, 12), *losses])


# The reader as it was before it parsed the body with np.loadtxt, kept as the
# reference its outcomes are compared with, bit for bit. It takes the grammar of
# the writer's files: no NUL, a row at least, and on line 2 a scenario that
# writes a table and a 12-hex config hash.
_TABLE_SCENARIOS = ("dynamics", "workflow", "workflow-filtered", "rates", "concentration")


def _reference_parse_cells(path, cells, name, kind):
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.fromiter(map(kind, cells), dtype=dtype, count=len(cells))
    except (ValueError, OverflowError):
        for line, cell in enumerate(cells, start=2):
            try:
                dtype(kind(cell))
            except (ValueError, OverflowError):
                what = "an integer" if kind is int else "a number"
                raise InputValidationError(
                    f"{path}:{line}: column {name} must hold {what}, got {cell!r}"
                ) from None
        raise


def _reference_shared_cell(path, cells, name):
    if cells.count(cells[0]) != len(cells):
        line = next(i for i, cell in enumerate(cells, start=2) if cell != cells[0])
        raise InputValidationError(f"{path}:{line}: column {name} differs from line 2")
    return cells[0]


def _reference_read_results_csv(path) -> ResultTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputValidationError(f"cannot read results {path}: {exc}") from exc
    if "\0" in text:
        raise InputValidationError(f"{path} holds a NUL character")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise InputValidationError(f"{path} does not carry the expected results schema")
    body = lines[1:]
    if not body:
        raise InputValidationError(f"{path} holds no results rows")
    for i, line in enumerate(body, start=2):
        if line.count(",") != 9:
            raise InputValidationError(f"{path}:{i}: expected 10 columns")
    cells = ",".join(body).split(",")
    names = CSV_HEADER.split(",")
    column = {name: cells[k::10] for k, name in enumerate(names)}
    number = {name: _reference_parse_cells(path, column[name], name, float) for name in names[3:8]}
    trials = _reference_parse_cells(path, column["trials"], "trials", int)
    if column["scenario"][0] not in _TABLE_SCENARIOS:
        raise InputValidationError(
            f"{path}:2: column scenario must be one of {', '.join(_TABLE_SCENARIOS)}"
        )
    if not re.fullmatch("[0-9a-f]{12}", column["config_hash"][0]):
        raise InputValidationError(f"{path}:2: column config_hash must hold 12 lowercase hex digits")
    return ResultTable(
        scenario=_reference_shared_cell(path, column["scenario"], "scenario"),
        columns={
            "t": _reference_parse_cells(path, column["t"], "t", int),
            "n_t": _reference_parse_cells(path, column["n_t"], "n_t", int),
            **number,
        },
        trials=_reference_shared_cell(path, trials.tolist(), "trials"),
        config_hash=_reference_shared_cell(path, column["config_hash"], "config_hash"),
    )


def _outcome(read, path):
    """What ``read`` makes of ``path``: its error message, or each field's and column's
    type and bits."""
    try:
        table = read(path)
    except InputValidationError as exc:
        return str(exc)
    fields = {}
    for f in dataclasses.fields(table):
        value = getattr(table, f.name)
        if f.name != "columns":
            fields[f.name] = (type(value).__name__, (), value)
    for name, value in table.columns.items():
        bits = value.view(np.int64) if value.dtype == np.float64 else value
        fields[name] = (value.dtype.str, value.shape, bits)
    return fields


def _assert_reads_as_before(path):
    old, new = _outcome(_reference_read_results_csv, path), _outcome(read_results_csv, path)
    assert type(new) is type(old), (old, new)
    if isinstance(old, str):
        assert new == old
        return
    for name, (kind, shape, bits) in old.items():
        assert new[name][:2] == (kind, shape), name
        assert np.array_equal(new[name][2], bits), name


def _results_text(columns) -> str:
    """A results file with ``columns`` (ten lists of cells) as its body."""
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def _random_columns(rng, rows, fmt="%.12g") -> list[list[str]]:
    """Ten columns of cells: random int64 steps and sizes, random float64 bit patterns."""
    ints = rng.integers(-(2**63), 2**63 - 1, size=(2, rows), dtype=np.int64, endpoint=True)
    floats = rng.integers(0, 2**64 - 1, size=(5, rows), dtype=np.uint64, endpoint=True)
    return [
        ["rates"] * rows,
        *[list(map(str, column)) for column in ints.tolist()],
        *[[fmt % v for v in column] for column in floats.view(np.float64).tolist()],
        ["20"] * rows,
        ["abc123def456"] * rows,
    ]


def _edited(columns, line: int, column: int, cell: str) -> list[list[str]]:
    """``columns`` with the cell of file line ``line`` in ``column`` replaced."""
    columns = [list(c) for c in columns]
    columns[column][line - 2] = cell
    return columns


_GOOD = [
    ["rates"] * 4, ["0", "1", "2", "3"], ["100"] * 4, ["0.5", "1", "1.5", "2"],
    ["1.25"] * 4, ["1", "0.5", "0.25", "0"], ["0"] * 4, ["0"] * 4, ["20"] * 4,
    ["abc123def456"] * 4,
]
_GOOD_LINES = _results_text(_GOOD).splitlines()


def _with_lines(*lines: str) -> str:
    return "\n".join([CSV_HEADER, *lines]) + "\n"


# Inputs whose outcome, a table or an error message, is the same for both readers.
_UNMOVED = {
    "blank-body-line": _with_lines(_GOOD_LINES[1], "", _GOOD_LINES[2]),
    "blank-last-line": _results_text(_GOOD) + "\n",
    "whitespace-only-line": _with_lines(_GOOD_LINES[1], "   ", _GOOD_LINES[2]),
    "trailing-comma": _with_lines(_GOOD_LINES[1], _GOOD_LINES[2] + ","),
    "quoted-comma": _results_text(_edited(_GOOD, 3, 0, '"a,c"')),
    "quoted-cells": _results_text([['"rates"'] * 4, *_GOOD[1:]]),
    "hash-in-config-hash": _results_text([*_GOOD[:9], ["abc#def"] * 4]),
    "hash-in-number": _results_text(_edited(_GOOD, 2, 3, "#1")),
    "spaces-around-numbers": _results_text(_edited(_edited(_GOOD, 2, 1, " 0 "), 3, 3, "\t1 ")),
    "tab-around-trials": _results_text([*_GOOD[:8], ["\t20", "20 ", "+20", "020"], _GOOD[9]]),
    "spaces-around-scenario": _results_text(_edited(_GOOD, 4, 0, " rates")),
    "form-feed-in-number": _results_text(_edited(_GOOD, 3, 4, "1.\f25")),
    "form-feed-ending-a-line": _with_lines(_GOOD_LINES[1] + "\f", _GOOD_LINES[2]),
    "carriage-returns": _results_text(_GOOD).replace("\n", "\r\n"),
    "float-in-t": _results_text(_edited(_GOOD, 3, 1, "1.5")),
    "float-in-n_t": _results_text(_edited(_GOOD, 5, 2, "1e2")),
    "twenty-digit-t": _results_text(_edited(_GOOD, 3, 1, "12345678901234567890")),
    "int64-bounds": _results_text(
        _edited(_edited(_GOOD, 2, 1, str(-(2**63))), 3, 2, str(2**63 - 1))
    ),
    "twenty-digit-trials": _results_text([*_GOOD[:8], ["12345678901234567890"] * 4, _GOOD[9]]),
    "empty-number": _results_text(_edited(_GOOD, 4, 5, "")),
    "word-in-number": _results_text(_edited(_GOOD, 5, 7, "abc")),
    "nan-in-t": _results_text(_edited(_GOOD, 2, 1, "nan")),
    "signed-and-padded-ints": _results_text(_edited(_edited(_GOOD, 2, 1, "-0"), 3, 1, "+001")),
    "overflowing-float": _results_text(_edited(_edited(_GOOD, 2, 3, "1e400"), 3, 4, "-1e-400")),
    "nan-and-inf-spellings": _results_text(
        [*_GOOD[:3], ["NaN", "-nan", "Infinity", "-INF"], *_GOOD[4:]]
    ),
    "differing-scenario": _results_text(_edited(_GOOD, 4, 0, "dynamics")),
    "differing-trials": _results_text(_edited(_GOOD, 3, 8, "21")),
    "differing-config-hash": _results_text(_edited(_GOOD, 5, 9, "abc123def457")),
    "nul-in-scenario": _results_text([["ra\0tes"] * 4, *_GOOD[1:]]),
    # the shared string cells, which every read parses as fixed-width U18 and U13 fields
    "longer-scenario-with-line-2-as-prefix": _results_text(_edited(_GOOD, 4, 0, "ratesX")),
    "much-longer-scenario": _results_text(_edited(_GOOD, 3, 0, "rates" * 20)),
    "longer-config-hash-with-line-2-as-prefix": _results_text(
        _edited(_GOOD, 5, 9, "abc123def4567")
    ),
    "shorter-scenario": _results_text(_edited(_GOOD, 3, 0, "rate")),
    "shorter-config-hash": _results_text(_edited(_GOOD, 4, 9, "abc123def45")),
    "empty-scenario-after-line-2": _results_text(_edited(_GOOD, 5, 0, "")),
    "nul-ending-a-later-scenario": _results_text(_edited(_GOOD, 4, 0, "rates\0")),
    "nul-ending-a-later-config-hash": _results_text(_edited(_GOOD, 3, 9, "abc123def456\0")),
    "nul-ending-line-2-scenario": _results_text(_edited(_GOOD, 2, 0, "rates\0")),
    "nul-ending-every-config-hash": _results_text([*_GOOD[:9], ["abc123def456\0"] * 4]),
    "non-ascii-scenario": _results_text([["räte✓s"] * 4, *_GOOD[1:]]),
    "non-ascii-scenario-differs": _results_text(
        _edited([["räte✓s"] * 4, *_GOOD[1:]], 5, 0, "räte✓")
    ),
    "astral-config-hash": _results_text([*_GOOD[:9], ["h\U0001f600sh"] * 4]),
    "spaces-around-every-config-hash": _results_text([*_GOOD[:9], [" abc123def456 "] * 4]),
    "spaces-around-a-later-config-hash": _results_text(_edited(_GOOD, 3, 9, " abc123def456")),
    "spaces-around-line-2-scenario": _results_text(_edited(_GOOD, 2, 0, " rates ")),
    "long-scenario-in-every-row": _results_text([["r" * 40] * 4, *_GOOD[1:]]),
    "long-line-2-config-hash": _results_text(_edited(_GOOD, 2, 9, "h" * 40)),
    "trials-before-scenario": _results_text(_edited(_edited(_GOOD, 3, 0, "x"), 4, 8, "ten")),
    "mse-before-t": _results_text(_edited(_edited(_GOOD, 2, 1, "x"), 5, 3, "y")),
    "columns-before-numbers": _with_lines(
        _GOOD_LINES[1].replace("rates", "x").replace(",0.5,", ",y,"), _GOOD_LINES[2] + ","
    ),
    "train-filter-scenario": _results_text([["train-filter"] * 4, *_GOOD[1:]]),
    "longest-table-scenario": _results_text([["workflow-filtered"] * 4, *_GOOD[1:]]),
    "upper-case-config-hash": _results_text([*_GOOD[:9], ["ABC123DEF456"] * 4]),
    "short-config-hash-in-every-row": _results_text([*_GOOD[:9], ["abc123def45"] * 4]),
    "bad-number-before-an-invalid-scenario": _results_text(
        _edited([["x"] * 4, *_GOOD[1:]], 4, 3, "y")
    ),
    "invalid-config-hash-before-a-differing-scenario": _results_text(
        _edited([*_GOOD[:9], ["x" * 12] * 4], 4, 0, "dynamics")
    ),
    "nul-after-a-bad-number": _results_text(_edited(_edited(_GOOD, 2, 3, "y"), 5, 0, "rates\0")),
    "wrong-header": "t,mse\n0,1\n",
    "empty-file": "",
}


class TestResultsReaderAgainstTheReference:
    """The np.loadtxt reader against the per-cell reader it replaced, on one grammar."""

    @pytest.mark.parametrize("fmt", ["%.12g", "%r"])
    def test_random_bit_patterns_read_the_same_bits(self, tmp_path, fmt):
        path = tmp_path / "results.csv"
        columns = _random_columns(np.random.default_rng(19), 2000, fmt)
        path.write_text(_results_text(columns))
        _assert_reads_as_before(path)
        if fmt == "%r":  # repr round-trips, so the table holds the very bits written
            mse = read_results_csv(path)["mse"]
            assert np.array_equal(mse.view(np.int64), np.array(columns[3], float).view(np.int64))

    def test_zeros_non_finite_values_and_subnormals(self, tmp_path):
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
        rows = len(values)
        for fmt in ("%.12g", "%r"):
            cells = [fmt % v for v in values]
            columns = [["rates"] * rows, list(map(str, range(rows))), ["0"] * rows,
                       *[cells] * 5, ["1"] * rows, ["abc123def456"] * rows]
            path = tmp_path / "special.csv"
            path.write_text(_results_text(columns))
            _assert_reads_as_before(path)
        mse = read_results_csv(path)["mse"]
        assert np.signbit(mse[1]) and mse[1] == 0.0 and np.isnan(mse[2])
        assert mse[5] == 5e-324

    @pytest.mark.parametrize("rows", [1, 100_001])
    def test_one_row_and_many_rows(self, tmp_path, rows):
        path = tmp_path / "results.csv"
        path.write_text(_results_text(_random_columns(np.random.default_rng(rows), rows)))
        _assert_reads_as_before(path)

    def test_the_header_only_table(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(CSV_HEADER + "\n")
        _assert_reads_as_before(path)

    @pytest.mark.parametrize("name", list(_UNMOVED))
    def test_outcome_does_not_move(self, tmp_path, name):
        path = tmp_path / "results.csv"
        path.write_text(_UNMOVED[name])
        _assert_reads_as_before(path)

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (3, "1_5", "column mse must hold a number, got '1_5'"),
            (1, "1_5", "column t must hold an integer, got '1_5'"),
            (1, "٣", "column t must hold an integer, got '٣'"),
            (4, "٣.5", "column mean_V must hold a number, got '٣.5'"),
        ],
        ids=["underscore-float", "underscore-int", "arabic-indic-int", "arabic-indic-float"],
    )
    def test_cells_numpy_does_not_parse_are_now_refused(self, tmp_path, column, cell, message):
        path = tmp_path / "results.csv"
        path.write_text(_results_text(_edited(_GOOD, 3, column, cell)))
        assert not isinstance(_outcome(_reference_read_results_csv, path), str)
        with pytest.raises(InputValidationError) as info:
            read_results_csv(path)
        assert str(info.value) == f"{path}:3: {message}"

    def test_a_bad_number_is_now_reported_before_a_differing_scenario(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(_results_text(_edited(_edited(_GOOD, 3, 0, "x"), 2, 1, "1.5")))
        assert _outcome(_reference_read_results_csv, path) == (
            f"{path}:3: column scenario differs from line 2"
        )
        assert _outcome(read_results_csv, path) == (
            f"{path}:2: column t must hold an integer, got '1.5'"
        )

    def test_a_unit_separator_around_a_number_is_now_read(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(_results_text(_edited(_GOOD, 3, 1, "1\x1f")))
        assert "must hold an integer" in _outcome(_reference_read_results_csv, path)
        assert read_results_csv(path)["t"].tolist() == [0, 1, 2, 3]

    def test_the_scan_refuses_exactly_the_cells_numpy_refuses(self, tmp_path):
        rng = np.random.default_rng(7)
        alphabet = list("0123456789+-.eE_ nainfty") + ["\t", "\xa0", "　", "\x1f", "\0", "٣"]
        cells = ["", " ", "1.5", "1e400", "9223372036854775807", "9223372036854775808",
                 "-9223372036854775809", "1_5", "٣", "5\x1f", "\xa05 ", "0x10", "inf"]
        cells += ["".join(rng.choice(alphabet, size=rng.integers(1, 6))) for _ in range(400)]
        path = tmp_path / "results.csv"
        for column, dtype in ((1, np.int64), (3, np.float64)):
            for cell in cells:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        refused = len(np.loadtxt([cell], dtype=dtype, delimiter=",",
                                                 comments=None, ndmin=1)) != 1
                    except (ValueError, OverflowError, Warning):
                        refused = True
                line = _edited(_GOOD, 2, column, cell)
                path.write_text(_results_text(line))
                outcome = _outcome(read_results_csv, path)
                assert isinstance(outcome, str) == (refused or "\0" in cell), (cell, outcome)
                body = _results_text(line).splitlines()[1:]
                with pytest.raises(InputValidationError) as info:
                    _scan_body(path, body, "no fault")
                assert ("must hold" in str(info.value)) == refused, (cell, str(info.value))

    def test_a_refusal_the_scan_cannot_place_is_still_reported(self, tmp_path, monkeypatch):
        path = tmp_path / "results.csv"
        path.write_text(_results_text(_GOOD))

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(InputValidationError) as info:
            read_results_csv(path)
        assert str(info.value) == f"{path}: cannot parse the results: refused"

    def test_columns_own_their_data(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(_results_text(_random_columns(np.random.default_rng(3), 100)))
        table = read_results_csv(path)
        for name in RESULT_COLUMNS:
            assert table[name].flags.owndata, name
        assert type(table.scenario) is str and type(table.config_hash) is str
        assert type(table.trials) is int

    def test_a_long_line_2_cell_does_not_widen_every_record(self, tmp_path):
        # as a fixed-width field, this cell would take 80 KB in each row's record
        path = tmp_path / "results.csv"
        path.write_text(_results_text(
            _edited(_random_columns(np.random.default_rng(9), 1000), 2, 0, "r" * 20_000)
        ))
        _assert_reads_as_before(path)
        tracemalloc.start()
        try:
            with pytest.raises(InputValidationError, match=":2: column scenario must be one of"):
                read_results_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_reading_a_large_table_stays_small(self, tmp_path):
        # 10.4 MB of text: the per-cell reader peaked at 102 MB on it, the whole-body
        # np.loadtxt reader at 42 MB, and this one, which holds one piece's records and
        # the table's 6.4 MB of columns, at 7.2 MB (8.9 MB with pieces twice as long
        # and Python string cells)
        path = tmp_path / "results.csv"
        rows = 100_000
        rng = np.random.default_rng(5)
        columns = [np.arange(rows), np.full(rows, 100), rng.random(rows), rng.random(rows),
                   *rng.random((rows, 3)).T]
        write_results_csv(
            ResultTable("rates", dict(zip(RESULT_COLUMNS, columns)), 20, "abc123def456"), path
        )
        tracemalloc.start()
        try:
            read_results_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


# 60 rows of about 50 characters: at a piece size of 200 characters, later lines
# sit in later pieces
_GOOD_60 = [
    ["rates"] * 60, [str(t) for t in range(60)], ["100"] * 60, [repr(0.5 * t) for t in range(60)],
    ["1.25"] * 60, ["1"] * 60, ["0.5"] * 60, ["0"] * 60, ["20"] * 60, ["abc123def456"] * 60,
]
_LINES_60 = _results_text(_GOOD_60).splitlines()[1:]


def _broken_line(separator: str) -> str:
    """The 60 good lines with ``separator`` inside line 32."""
    return _with_lines(*_LINES_60[:30], _LINES_60[30][:20] + separator + _LINES_60[30][20:],
                       *_LINES_60[31:])


# Inputs whose faults sit in later pieces at a small piece size; each reads as the
# reference does, the line a message names included.
_ACROSS_PIECES = {
    "clean": _results_text(_GOOD_60),
    "bad-cell-in-a-later-piece": _results_text(_edited(_GOOD_60, 55, 3, "x")),
    "bad-t-in-the-last-line": _results_text(_edited(_GOOD_60, 61, 1, "1.5")),
    "short-line-in-a-later-piece": _with_lines(*_LINES_60[:40], "rates,1,2", *_LINES_60[40:]),
    "earlier-scenario-mismatch-then-a-later-bad-cell": _results_text(
        _edited(_edited(_GOOD_60, 3, 0, "other"), 58, 4, "y")
    ),
    "earlier-config-hash-mismatch-then-a-later-bad-trials": _results_text(
        _edited(_edited(_GOOD_60, 4, 9, "other"), 50, 8, "twenty")
    ),
    "earlier-trials-mismatch-then-a-later-scenario-mismatch": _results_text(
        _edited(_edited(_GOOD_60, 5, 8, "21"), 57, 0, "other")
    ),
    "later-config-hash-mismatch": _results_text(_edited(_GOOD_60, 59, 9, "other")),
    "longer-scenario-in-a-later-piece": _results_text(
        _edited(_GOOD_60, 55, 0, "rates-and-more")
    ),
    "nul-ending-a-scenario-in-a-later-piece": _results_text(_edited(_GOOD_60, 50, 0, "rates\0")),
    "nul-ending-line-2-config-hash-then-later-pieces": _results_text(
        _edited(_GOOD_60, 2, 9, "abc123def456\0")
    ),
    "nul-in-an-early-piece-then-a-later-mismatch": _results_text(
        _edited(_edited(_GOOD_60, 5, 4, "1\0"), 56, 9, "abc123def45")
    ),
    "bad-cell-in-an-early-piece-then-a-nul": _results_text(
        _edited(_edited(_GOOD_60, 3, 3, "x"), 55, 0, "rates\0")
    ),
    "invalid-line-2-scenario-then-a-later-bad-cell": _results_text(
        _edited([["x"] * 60, *_GOOD_60[1:]], 55, 3, "y")
    ),
    "wrong-header-then-a-nul": _results_text(
        _edited(_GOOD_60, 50, 0, "rates\0")
    ).replace("scenario", "t", 1),
    "blank-line-in-a-later-piece": _with_lines(*_LINES_60[:45], "", *_LINES_60[45:]),
    "blank-line-then-a-later-bad-cell": _with_lines(
        *_LINES_60[:10], "", *_results_text(_edited(_GOOD_60, 55, 5, "z")).splitlines()[11:]
    ),
    "form-feed-inside-a-line": _broken_line("\x0c"),
    "next-line-inside-a-line": _broken_line("\x85"),
    "line-separator-inside-a-line": _broken_line("\u2028"),
    "form-feed-inside-the-header": _results_text(_GOOD_60).replace("mse", "m\x0cse", 1),
    "form-feed-after-the-header": _results_text(_GOOD_60).replace("\n", "\x0c", 1),
    "crlf": _results_text(_GOOD_60).replace("\n", "\r\n"),
    "lone-carriage-returns": _results_text(_GOOD_60).replace("\n", "\r"),
    "no-trailing-newline": _results_text(_GOOD_60)[:-1],
    "header-only": CSV_HEADER + "\n",
    "header-without-a-newline": CSV_HEADER,
    "header-then-blank-lines": CSV_HEADER + "\n\n\n",
    "wrong-header": _results_text(_GOOD_60).replace("scenario", "t", 1),
    "empty-file": "",
}


class TestPieceWiseReaderAgainstTheReference:
    """Pieces of a few lines, of one character, or of the default size read as the reference."""

    @pytest.mark.parametrize("chars", [1, 7, 200, None], ids=["1", "7", "200", "default"])
    @pytest.mark.parametrize("name", list(_ACROSS_PIECES))
    def test_outcome_across_pieces(self, tmp_path, monkeypatch, name, chars):
        if chars is not None:
            monkeypatch.setattr(experiments, "_READ_CHARS", chars)
        path = tmp_path / "results.csv"
        path.write_bytes(_ACROSS_PIECES[name].encode())
        _assert_reads_as_before(path)

    def test_small_pieces_cut_the_test_files_where_the_faults_are_in_later_pieces(self):
        text = _ACROSS_PIECES["bad-cell-in-a-later-piece"]
        assert text.index(",x,") > 10 * 200

    @pytest.mark.parametrize(
        "name", ["wrong-header", "bad-cell-in-a-later-piece", "later-config-hash-mismatch",
                 "nul-ending-a-scenario-in-a-later-piece"]
    )
    def test_an_undecodable_byte_further_on_is_reported_first(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(experiments, "_READ_CHARS", 200)
        path = tmp_path / "results.csv"
        path.write_bytes(_ACROSS_PIECES[name].encode() + b"\xff\n")
        with pytest.raises(InputValidationError, match=f"^cannot read results {re.escape(str(path))}: "
                           "'utf-8' codec can't decode byte 0xff"):
            read_results_csv(path)

    def test_a_large_table_reads_piece_by_piece_as_the_reference(self, tmp_path):
        path = tmp_path / "results.csv"
        columns = _edited(_random_columns(np.random.default_rng(41), 30_000), 29_000, 0, "x")
        path.write_text(_results_text(columns))
        assert os.path.getsize(path) > 4 * (1 << 19)
        _assert_reads_as_before(path)
        assert _outcome(read_results_csv, path) == f"{path}:29000: column scenario differs from line 2"


_ALL_INPUTS = {
    **{f"unmoved-{name}": text for name, text in _UNMOVED.items()},
    **{f"pieces-{name}": text for name, text in _ACROSS_PIECES.items()},
}


class TestKeptColumns:
    """A read that keeps some columns parses every cell as a full read and holds its bits."""

    @pytest.mark.parametrize(
        "keep, held",
        [(("t", "mse"), {"t", "mse"}), (("exceed_0.2",), {"t", "exceed_0.2"}),
         (("n_t", "mean_V", "exceed_0.1", "exceed_0.5"),
          {"t", "n_t", "mean_V", "exceed_0.1", "exceed_0.5"})],
        ids=["compare", "one-exceed", "all-but-mse"],
    )
    @pytest.mark.parametrize("name", list(_ALL_INPUTS))
    def test_a_kept_read_fails_as_a_full_read_or_holds_its_bits(
        self, tmp_path, monkeypatch, name, keep, held
    ):
        monkeypatch.setattr(experiments, "_READ_CHARS", 200)  # faults in later pieces
        path = tmp_path / "results.csv"
        path.write_bytes(_ALL_INPUTS[name].encode())
        full = _outcome(read_results_csv, path)
        kept = _outcome(lambda p: read_results_csv(p, keep=keep), path)
        if isinstance(full, str):
            assert kept == full
            return
        for field, (kind, shape, bits) in full.items():
            if field in RESULT_COLUMNS and field not in held:
                assert field not in kept, field
            else:
                assert kept[field][:2] == (kind, shape) and np.array_equal(kept[field][2], bits)

    def test_keep_names_numeric_csv_columns(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(_results_text(_GOOD))
        with pytest.raises(ValueError, match="'mean_v'"):
            read_results_csv(path, keep=("t", "mean_v"))
        with pytest.raises(ValueError, match="'scenario'"):
            read_results_csv(path, keep=("scenario",))

    def test_a_table_read_without_a_column_cannot_be_written(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(_results_text(_GOOD))
        table = read_results_csv(path, keep=("mse",))
        with pytest.raises(InputValidationError, match="without its n_t, mean_V, exceed_0.1, exceed_0.2, exceed_0.5 column"):
            write_results_csv(table, tmp_path / "again.csv")
        assert not (tmp_path / "again.csv").exists()
        write_results_csv(read_results_csv(path), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_text() == _results_text(_GOOD)

    def test_a_table_needs_its_steps(self):
        with pytest.raises(TypeError):
            ResultTable("rates", {"mse": [1.0]}, 1, "abc")
        table = ResultTable("rates", {"t": [0, 1], "mse": [1.0, 2.0]}, 1, "abc")
        assert table["mse"].dtype == np.float64 and "exceed_0.1" not in table.columns
        with pytest.raises(InputValidationError, match="one row count"):
            ResultTable("rates", {"t": [0, 1], "mse": [1.0]}, 1, "abc")

    def test_a_table_holds_only_the_csv_column_names(self):
        with pytest.raises(TypeError, match="'mean_v'"):
            ResultTable("rates", {"t": [0], "mean_v": [1.0]}, 1, "abc")


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

    def test_pieces_are_written_in_order(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, iter(["pay", "", "load\n"]))
        assert target.read_text() == "payload\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["new-file", "over-a-file"])
    def test_a_piece_that_raises_leaves_no_file_and_no_temp_file(self, tmp_path, existing):
        target = tmp_path / "file.txt"
        if existing:
            target.write_text("old\n")

        def pieces():
            yield "partial\n" * 10_000
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="^formatting failed$"):
            atomic_write_text(target, pieces())
        assert [p.name for p in tmp_path.iterdir()] == (["file.txt"] if existing else [])
        if existing:
            assert target.read_text() == "old\n"

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


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_summary_value_is_a_runtime_failure_naming_the_file(self, tmp_path, value):
        path = tmp_path / "summary.json"
        with pytest.raises(CollapseGuardError, match=f"^cannot write {re.escape(str(path))} ") as info:
            write_summary({"final_mse": value}, path)
        assert not isinstance(info.value, InputValidationError)  # exit 3, not 1
        assert list(tmp_path.iterdir()) == []


class TestRunExperiment:
    def test_dynamics_writes_one_row_per_step_and_a_summary(self, tmp_path):
        config = _config(out_dir=str(tmp_path))
        result = run_experiment(config)
        table = result.table
        assert len(table) == config.horizon + 1
        parsed = read_results_csv(result.paths["results"])
        assert parsed.scenario == table.scenario
        np.testing.assert_array_equal(parsed["t"], table["t"])
        np.testing.assert_array_equal(parsed["n_t"], table["n_t"])
        assert parsed["mse"] == pytest.approx(table["mse"], rel=1e-11)
        for name in RESULT_COLUMNS[4:]:
            np.testing.assert_array_equal(parsed[name], table[name])
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
        assert result.table["t"][0] == 0
        assert all(n_t == 50 for n_t in result.table["n_t"])

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

    def test_an_all_ones_filter_reproduces_the_plain_workflow_bit_for_bit(self, tmp_path):
        """Keeping every one of schedule.base candidates is the plain workflow's step."""
        base = {"seed": 5, "model": {"dim": 2}, "horizon": 12, "trials": 9,
                "schedule": {"kind": "constant", "base": 40}}
        plain = run_experiment(ExperimentConfig.from_dict(
            {"scenario": "workflow", "out_dir": str(tmp_path / "plain"), **base}
        ))
        kept = run_experiment(ExperimentConfig.from_dict(
            {"scenario": "workflow-filtered", "out_dir": str(tmp_path / "kept"),
             "filter": {"kind": "all-ones", "candidates_per_round": 40}, **base}
        ))
        for name in RESULT_COLUMNS:
            assert plain.table[name].tobytes() == kept.table[name].tobytes(), name

    @pytest.mark.parametrize("rates, expected", [({"kind": "example-sqrt"}, None),
                                                 ({"p": 1.0, "noise_beta": 0.7}, -0.7)])
    def test_a_rates_run_checks_its_slope_only_where_theory_gives_one(
        self, tmp_path, rates, expected
    ):
        config = ExperimentConfig.from_dict(
            {"scenario": "rates", "seed": 0, "rates": {"steps": 200, **rates},
             "out_dir": str(tmp_path)}
        )
        assert config.rates.expected_slope() == expected
        summary = run_experiment(config).summary
        assert summary["expected_slope"] == expected and summary["fitted_slope"] is not None
        names = [check.name for check in run_checks(config, summary)]
        assert names == ([] if expected is None else ["rates-decay-slope"])

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
        assert result.table["n_t"].tolist() == [1, 10]
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

    def test_zero_epoch_training_writes_a_header_only_log(self, tmp_path, monkeypatch):
        from collapseguard.experiments import loss_gradient

        passes = []

        def recording(params, *args):
            passes.append((params, loss_gradient(params, *args)))
            return passes[-1][1]

        monkeypatch.setattr("collapseguard.experiments.loss_gradient", recording)
        config = ExperimentConfig.from_dict(
            {
                "scenario": "train-filter",
                "seed": 8,
                "model": {"dim": 2},
                "training": {"rounds": 2, "candidates_per_round": 120, "epochs": 0,
                             "hidden_dim": 8},
                "out_dir": str(tmp_path),
            }
        )
        result = run_experiment(config)
        assert (tmp_path / "training_log.csv").read_text() == TRAINING_LOG_HEADER + "\n"
        # with no update, the final losses are those of the one pass at the initial weights
        (params, (initial, _)), = passes
        saved, _, _ = load_filter_checkpoint(result.paths["checkpoint"])
        np.testing.assert_array_equal(saved.w1.view(np.int64), params.w1.view(np.int64))
        assert saved.b2 == params.b2 == 0.0
        for part, key in zip(initial, ("total", "class", "contract", "ess")):
            assert result.summary[f"final_{key}_loss"] == part
        assert result.summary["epochs"] == 0

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
        # strict JSON has no infinity: the summary holds null, which the check reads as a pass
        assert summary["final_ratio"] is None
        assert compare_checks(summary)[0].passed

    def test_mismatched_tables_are_rejected(self):
        rows = self._rows([1.0, 2.0])
        with pytest.raises(InputValidationError):
            compare_runs(rows, self._rows([1.0]))
        with pytest.raises(InputValidationError):
            compare_runs(self._rows([]), self._rows([]))
        shifted = self._rows([1.0, 2.0])
        reversed_ = {name: shifted[name][::-1] for name in ("t", "mse", "mean_V")}
        shifted = dataclasses.replace(shifted, columns={**shifted.columns, **reversed_})
        with pytest.raises(InputValidationError, match="grids"):
            compare_runs(rows, shifted)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["baseline", "treatment"])
    def test_a_non_finite_mse_is_refused_with_its_table_and_step(self, side, value):
        tables = {"baseline": self._rows([1.0, 2.0, 3.0]), "treatment": self._rows([1.0, 2.0, 3.0])}
        tables[side] = self._rows([1.0, value, 3.0])
        with pytest.raises(InputValidationError) as info:
            compare_runs(tables["baseline"], tables["treatment"])
        assert str(info.value) == f"{side} mse must be finite, got {value} at t=1"

    @pytest.mark.parametrize("side", ["baseline", "treatment"])
    def test_a_negative_mse_is_refused_with_its_table_and_step(self, side):
        tables = {"baseline": self._rows([1.0, 2.0, 3.0]), "treatment": self._rows([1.0, 2.0, 3.0])}
        tables[side] = self._rows([-0.0, 2.0, -5e-324])
        with pytest.raises(InputValidationError) as info:
            compare_runs(tables["baseline"], tables["treatment"])
        assert str(info.value) == f"{side} mse must be nonnegative, got -4.94065645841e-324 at t=2"

    def test_compare_csv_has_the_pinned_header(self, tmp_path):
        rows, _ = compare_runs(self._rows([1.0, 4.0]), self._rows([1.0, 2.0]))
        path = tmp_path / "compare.csv"
        write_compare_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == COMPARE_HEADER == "t,baseline_mse,treatment_mse,ratio"
        assert lines[2] == "1,4,2,2"


    @pytest.mark.parametrize("infinite", [False, True])
    def test_the_trend_is_the_float_fit_of_the_finite_ratios(self, infinite):
        rng = np.random.default_rng(35)
        b, tr = rng.random(2000), rng.random(2000)
        if infinite:
            tr[rng.integers(0, 2000, 50)] = 0.0
        t = np.arange(2000)
        table, summary = compare_runs(*(_table("x", t, 1, m, 1.0, 0.0, 1, "h") for m in (b, tr)))
        finite = np.isfinite(table.ratio)
        assert finite.all() != infinite
        # the fit as it was made before: float copies of the finite entries
        expected = np.polyfit(np.asarray(t[finite], dtype=float),
                              np.asarray(table.ratio[finite], dtype=float), 1)[0]
        assert np.float64(summary["ratio_trend_slope"]).tobytes() == expected.tobytes()


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

    def test_loglog_skips_the_t0_row(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot(self._rows(17), "loglog", path)
        svg = path.read_text()
        assert len(svg.split('points="')[1].split('"')[0].split()) == 16
        assert ">t=1</text>" in svg and ">t=0</text>" not in svg

    def test_log_domains_are_validated(self, tmp_path):
        only_t0 = _table("dynamics", [0], 100, 1.0, 1.0, 0.0, 10, "feedc0ffee12")
        with pytest.raises(InputValidationError, match=r"t > 0"):
            emit_plot(only_t0, "loglog", tmp_path / "p.svg")
        # a zero at t=0 is skipped by loglog, but not a zero at a kept step
        mse = [0.0, 1.0, 0.0, 2.0]
        with pytest.raises(InputValidationError, match="positive mse"):
            emit_plot(_table("dynamics", range(4), 100, mse, 1.0, 0.0, 10, "feedc0ffee12"),
                      "loglog", tmp_path / "p.svg")
        emit_plot(_table("dynamics", range(2), 100, mse[:2], 1.0, 0.0, 10, "feedc0ffee12"),
                  "loglog", tmp_path / "p.svg")
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
