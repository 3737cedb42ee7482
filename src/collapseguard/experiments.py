"""Configuration-driven experiment harness.

Turns a JSON config into one of six scenario pipelines (abstract error
dynamics, unfiltered or filtered self-consuming workflows, deterministic
rate verification, estimator concentration curves, filter training),
writes diff-friendly CSV plus a JSON summary, and exposes the named
acceptance checks behind the CLI's --check flag. All artifacts are
deterministic for a fixed (config, seed) pair and written atomically.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import expfam
from .contraction import (
    ContractionFn,
    ContractionMap,
    LyapunovMetric,
    RegulatorFn,
    constant_bounds,
    fit_decay_rate,
    limsup_bound,
    measure_concentration,
    power_law_bounds,
    recurrence_simulate,
)
from .dynamics import (
    NoiseSchedule,
    SampleSchedule,
    run_dynamics_trials,
    run_workflow_trials,
)
from .errors import CheckFailureError, InputValidationError
from .filtering import (
    FilterHandle,
    LabeledDataset,
    TrainConfig,
    anchors_from_dataset,
    atomic_write_text,
    content_hash,
    fit_pca,
    forward_batch,
    load_filter_checkpoint,
    loss_gradient,
    merge_datasets,
    read_json_object,
    save_filter_checkpoint,
    simulate_drift_training_data,
    train_filter,
)
from .numerics import RngState

SCENARIOS = (
    "dynamics",
    "workflow",
    "workflow-filtered",
    "rates",
    "concentration",
    "train-filter",
)

FIXED_DELTAS = (0.1, 0.2, 0.5)

CSV_HEADER = "scenario,t,n_t,mse,mean_V,exceed_0.1,exceed_0.2,exceed_0.5,trials,config_hash"
COMPARE_HEADER = "t,baseline_mse,treatment_mse,ratio"
TRAINING_LOG_HEADER = "epoch,total,class_part,contract_part,ess_part"

GAUSSIAN_TAIL_3 = math.erfc(3.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Config schema: a config dataclass's fields and annotations are the only
# declaration of its config fields; parsing, echo and hashing walk them.
# ---------------------------------------------------------------------------


def read_config_json(path) -> dict:
    """Read a JSON config file into the raw mapping ``ExperimentConfig.from_dict`` takes."""
    return read_json_object(path, "config")


def _parse_fields(cls, raw: dict, path: str):
    """Build the config dataclass ``cls`` from a JSON mapping, in field order.

    ``path`` is the section name, or "" at the top level. Unknown keys are
    rejected by name, fields without a default are required, and missing
    fields take their defaults.
    """
    specs = fields(cls)
    label = path or "config"
    unknown = set(raw) - {f.name for f in specs}
    if unknown:
        raise InputValidationError(f"unknown {label} field(s): {', '.join(sorted(unknown))}")
    for f in specs:
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise InputValidationError(f"{label} is missing required field {f.name!r}")
    hints = get_type_hints(cls)
    prefix = f"{path}." if path else ""
    values = {
        f.name: _parse_value(hints[f.name], raw[f.name], prefix + f.name)
        for f in specs
        if f.name in raw
    }
    return cls(**values)


def _parse_value(hint, raw, name: str):
    """Check one JSON value against its field annotation and convert it."""
    if is_dataclass(hint):
        if raw is None:
            return hint()
        if not isinstance(raw, dict):
            raise InputValidationError(f"config section {name!r} must be a mapping")
        return _parse_fields(hint, raw, name)
    args = get_args(hint)
    if type(None) in args:
        if raw is None:
            return None
        hint = args[0]
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        if not isinstance(raw, (list, tuple)):
            kind = "numbers" if item is float else "integers"
            raise InputValidationError(f"{name} must be a sequence of {kind}")
        return tuple(_parse_value(item, v, f"{name}[{i}]") for i, v in enumerate(raw))
    if hint is str:
        if not isinstance(raw, str):
            raise InputValidationError(f"{name} must be a string")
        return raw
    if hint is int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise InputValidationError(f"{name} must be an integer")
        return int(raw)
    if hint is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise InputValidationError(f"{name} must be a number")
        try:
            value = float(raw)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise InputValidationError(f"{name} must be a finite number")
        return value
    raise TypeError(f"unsupported config annotation {hint!r} on {name}")


def _echo(spec) -> dict:
    """A config dataclass as JSON data: fields in declaration order, tuples as lists.

    The order is part of the train-filter checkpoint's bytes, which dump this
    echo without sorting keys.
    """
    return asdict(
        spec,
        dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items},
    )


# ---------------------------------------------------------------------------
# Config sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    family: str = expfam.GAUSSIAN
    dim: int = 1
    theta_star: tuple[float, ...] | None = None

    def __post_init__(self):
        self.build()

    def build(self) -> tuple[expfam.ExpFamilyModel, expfam.Parameter]:
        model = expfam.ExpFamilyModel(self.family, self.dim)
        if self.theta_star is not None and len(self.theta_star) != self.dim:
            raise InputValidationError("model.theta_star length must equal model.dim")
        # the default (ones) lies outside some natural domains, so check the effective value
        theta = np.ones(self.dim) if self.theta_star is None else np.array(self.theta_star, float)
        try:
            return model, expfam.Parameter(theta, model)
        except InputValidationError as exc:
            raise InputValidationError(
                f"model.theta_star {theta.tolist()} is invalid: {exc}"
            ) from exc


@dataclass(frozen=True)
class ContractionSpec:
    kind: str = "example-sqrt"
    alpha: float = 1.0
    level: float = 0.5
    c_max: float = 0.9

    def __post_init__(self):
        self.build()

    def build(self) -> ContractionFn:
        if self.kind == "example-sqrt":
            return ContractionFn.example_sqrt()
        if self.kind == "quadratic":
            return ContractionFn.quadratic(self.alpha, c_max=self.c_max)
        if self.kind == "constant":
            return ContractionFn.constant(self.level)
        raise InputValidationError(f"unknown contraction.kind {self.kind!r}")


@dataclass(frozen=True)
class FilterSpec:
    kind: str = "none"
    gamma: float = 0.5
    checkpoint: str | None = None
    candidates_per_round: int = 1000

    def __post_init__(self):
        if self.kind not in ("none", "all-ones", "oracle-pullback", "mlp"):
            raise InputValidationError(f"unknown filter.kind {self.kind!r}")
        if self.kind == "oracle-pullback" and not 0.0 < self.gamma <= 1.0:
            raise InputValidationError("filter.gamma must lie in (0, 1]")
        if self.kind == "mlp" and not self.checkpoint:
            raise InputValidationError("filter.kind 'mlp' requires filter.checkpoint")
        if self.candidates_per_round < 2:
            raise InputValidationError("filter.candidates_per_round must be at least 2")

    def build(self, theta_star: expfam.Parameter) -> FilterHandle | None:
        if self.kind == "none":
            return None
        if self.kind == "all-ones":
            return FilterHandle.all_ones()
        if self.kind == "oracle-pullback":
            # anchored at the true parameter: a diagnostic, not a deployable filter
            return FilterHandle.oracle_pullback(theta_star, self.gamma)
        params, pca, _ = load_filter_checkpoint(self.checkpoint)
        return FilterHandle.mlp(params, pca)


@dataclass(frozen=True)
class RatesSpec:
    kind: str = "power-law"
    p: float = 2.0
    c1: float = 1.0
    c2: float | None = None
    x0: float = 1.0
    steps: int = 100000
    noise_kind: str = "power-law"
    noise_beta: float = 1.0
    noise_scale: float = 1.0
    tail_fraction: float = 0.9

    def __post_init__(self):
        if self.kind not in ("power-law", "example-sqrt"):
            raise InputValidationError(f"unknown rates.kind {self.kind!r}")
        if self.noise_kind not in ("power-law", "constant", "zero"):
            raise InputValidationError(f"unknown rates.noise_kind {self.noise_kind!r}")
        if self.steps < 2:
            raise InputValidationError("rates.steps must be at least 2")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise InputValidationError("rates.tail_fraction must lie in (0, 1]")
        self.build_regulator()

    def build_regulator(self) -> RegulatorFn:
        if self.kind == "example-sqrt":
            return RegulatorFn.example_sqrt()
        return RegulatorFn.power_law(self.p, self.c1, self.c2)

    def build_bounds(self) -> np.ndarray:
        if self.noise_kind == "zero":
            return constant_bounds(self.steps, 0.0)
        if self.noise_kind == "constant":
            return constant_bounds(self.steps, self.noise_scale)
        return power_law_bounds(self.steps, self.noise_beta, self.noise_scale)

    def expected_slope(self) -> float | None:
        """Theoretical tail decay exponent, when the theory pins one down."""
        if self.noise_kind != "power-law":
            return None
        if self.kind == "example-sqrt":
            return None
        if self.p == 1.0:
            return -self.noise_beta
        return -min(1.0 / (self.p - 1.0), self.noise_beta / self.p)


@dataclass(frozen=True)
class ConcentrationSpec:
    sizes: tuple[int, ...] = (1, 10, 100)
    delta: float = 3.0
    trials: int = 10000

    def __post_init__(self):
        if len(self.sizes) == 0 or any(n < 1 for n in self.sizes):
            raise InputValidationError("concentration.sizes must be positive integers")
        if self.delta < 0.0:
            raise InputValidationError("concentration.delta must be nonnegative")
        if self.trials < 100:
            raise InputValidationError("concentration.trials must be at least 100")


@dataclass(frozen=True)
class TrainingSpec:
    rounds: int = 3
    candidates_per_round: int = 1000
    contamination: float = 0.3
    drift_scale: float = 1.0
    epochs: int = 1200
    hidden_dim: int = 64
    pca_k: int = 0
    lambda_contract: float = 1.0
    ess_weight: float = 0.0
    learning_rate: float = 3e-3
    holdout_fraction: float = 0.25

    def __post_init__(self):
        if self.rounds < 1:
            raise InputValidationError("training.rounds must be positive")
        if self.candidates_per_round < 2:
            raise InputValidationError("training.candidates_per_round must be at least 2")
        if not 0.0 <= self.contamination < 1.0:
            raise InputValidationError("training.contamination must lie in [0, 1)")
        if self.epochs < 0 or self.hidden_dim < 1 or self.pca_k < 0:
            raise InputValidationError("training epochs/hidden_dim/pca_k out of range")
        if not 0.0 <= self.holdout_fraction <= 0.5:
            raise InputValidationError("training.holdout_fraction must lie in [0, 0.5]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scenario run needs; seeds are always explicit."""

    scenario: str
    seed: int
    model: ModelSpec = field(default_factory=ModelSpec)
    horizon: int = 100
    trials: int = 100
    deltas: tuple[float, ...] = FIXED_DELTAS
    out_dir: str = "."
    initial_error: tuple[float, ...] | None = None
    schedule: SampleSchedule = field(default_factory=SampleSchedule)
    noise: NoiseSchedule = field(default_factory=NoiseSchedule)
    contraction: ContractionSpec = field(default_factory=ContractionSpec)
    filter: FilterSpec = field(default_factory=FilterSpec)
    rates: RatesSpec = field(default_factory=RatesSpec)
    concentration: ConcentrationSpec = field(default_factory=ConcentrationSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InputValidationError(
                f"unknown scenario {self.scenario!r}; expected one of {', '.join(SCENARIOS)}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InputValidationError("seed must be an explicit integer (no clock defaults)")
        if not 0 <= self.seed < 2**64:
            raise InputValidationError("seed must fit in an unsigned 64-bit integer")
        if self.horizon < 1:
            raise InputValidationError("horizon must be positive")
        if self.trials < 1:
            raise InputValidationError("trials must be positive")
        if len(self.deltas) == 0 or any(d <= 0.0 for d in self.deltas):
            raise InputValidationError("deltas must be positive")
        if self.initial_error is not None and len(self.initial_error) != self.model.dim:
            raise InputValidationError("initial_error length must equal model.dim")
        if self.scenario == "workflow-filtered" and self.filter.kind == "none":
            raise InputValidationError("workflow-filtered requires filter.kind != 'none'")

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise InputValidationError("config must be a mapping")
        return _parse_fields(cls, raw, "")

    def to_dict(self) -> dict:
        return _echo(self)


def config_hash(config: ExperimentConfig) -> str:
    """12-hex content hash over everything except the output location."""
    payload = config.to_dict()
    payload.pop("out_dir")
    return content_hash(payload)[:12]


# ---------------------------------------------------------------------------
# Result tables and files
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResultTable:
    """A results table as columns, one entry per row (a step, or a sample size).

    ``exceed`` holds the exceedance columns at ``FIXED_DELTAS``, shape
    (rows, 3). The scenario, trial count and config hash are shared by
    every row.
    """

    scenario: str
    t: np.ndarray
    n_t: np.ndarray
    mse: np.ndarray
    mean_v: np.ndarray
    exceed: np.ndarray
    trials: int
    config_hash: str

    def __post_init__(self):
        for name, dtype in (("t", np.int64), ("n_t", np.int64), ("mse", float),
                            ("mean_v", float), ("exceed", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        rows = self.t.shape
        if not (self.t.ndim == 1 and self.n_t.shape == self.mse.shape == self.mean_v.shape == rows
                and self.exceed.shape == rows + (len(FIXED_DELTAS),)):
            raise InputValidationError(
                "result columns must share one row count, with one exceed column per fixed delta"
            )

    def __len__(self) -> int:
        return self.t.shape[0]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _int_cells(column: np.ndarray) -> list[str]:
    return list(map(str, column.tolist()))


def _float_cells(column: np.ndarray) -> list[str]:
    # "%.12g" % x is the same string as format(x, ".12g")
    return list(map("%.12g".__mod__, column.tolist()))


def _csv_text(header: str, columns: list[list[str]]) -> str:
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def write_results_csv(table: ResultTable, path) -> None:
    rows = len(table)
    if rows == 0:
        raise InputValidationError("refusing to write an empty results table")
    columns = [
        [table.scenario] * rows,
        _int_cells(table.t),
        _int_cells(table.n_t),
        _float_cells(table.mse),
        _float_cells(table.mean_v),
        *map(_float_cells, table.exceed.T),
        [str(table.trials)] * rows,
        [table.config_hash] * rows,
    ]
    atomic_write_text(path, _csv_text(CSV_HEADER, columns))


def _parse_cells(path, cells: list[str], name: str, kind) -> np.ndarray:
    """One column parsed with ``int`` or ``float``; a bad cell is reported by line and column."""
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


def _shared_cell(path, cells, name: str, default):
    """The value every row holds in a column the table keeps once; ``default`` if no rows."""
    if not cells:
        return default
    if cells.count(cells[0]) != len(cells):
        line = next(i for i, cell in enumerate(cells, start=2) if cell != cells[0])
        raise InputValidationError(f"{path}:{line}: column {name} differs from line 2")
    return cells[0]


def read_results_csv(path) -> ResultTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputValidationError(f"cannot read results {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise InputValidationError(f"{path} does not carry the expected results schema")
    body = lines[1:]
    for i, line in enumerate(body, start=2):
        if line.count(",") != 9:
            raise InputValidationError(f"{path}:{i}: expected 10 columns")
    cells = ",".join(body).split(",") if body else []
    names = CSV_HEADER.split(",")
    column = {name: cells[k::10] for k, name in enumerate(names)}
    number = {name: _parse_cells(path, column[name], name, float) for name in names[3:8]}
    trials = _parse_cells(path, column["trials"], "trials", int)
    return ResultTable(
        scenario=_shared_cell(path, column["scenario"], "scenario", ""),
        t=_parse_cells(path, column["t"], "t", int),
        n_t=_parse_cells(path, column["n_t"], "n_t", int),
        mse=number["mse"],
        mean_v=number["mean_V"],
        exceed=np.column_stack([number[name] for name in names[5:8]]),
        trials=_shared_cell(path, trials.tolist(), "trials", 0),
        config_hash=_shared_cell(path, column["config_hash"], "config_hash", ""),
    )


def write_summary(summary: dict, path) -> None:
    atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Scenario pipelines
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExperimentResult:
    table: ResultTable | None  # None for train-filter, which writes no results table
    summary: dict
    paths: dict[str, str]


def _merged_deltas(config: ExperimentConfig) -> tuple[float, ...]:
    return tuple(sorted(set(float(d) for d in config.deltas) | set(FIXED_DELTAS)))


def _slope(ts: np.ndarray, ys: np.ndarray) -> float:
    return float(np.polyfit(np.asarray(ts, dtype=float), np.asarray(ys, dtype=float), 1)[0])


def _stats_table(scenario, stats, trials, chash) -> ResultTable:
    exceed = np.column_stack([stats.exceedance_at(d) for d in FIXED_DELTAS])
    return ResultTable(scenario, stats.ts, stats.ns, stats.mse, stats.mean_v, exceed, trials, chash)


def _run_dynamics(config: ExperimentConfig, chash: str):
    dim = config.model.dim
    metric = LyapunovMetric.identity(dim)
    map_ = ContractionMap.scaled_identity(config.contraction.build(), metric)
    e0 = (
        np.asarray(config.initial_error, dtype=float)
        if config.initial_error is not None
        else np.ones(dim)
    )
    stats = run_dynamics_trials(
        map_, config.noise, e0, config.horizon, config.trials, RngState(config.seed),
        deltas=_merged_deltas(config),
    )
    table = _stats_table("dynamics", stats, config.trials, chash)

    burn_in = max(1, config.horizon // 10)
    summary = {
        "scenario": "dynamics",
        "config_hash": chash,
        "trials": config.trials,
        "horizon": config.horizon,
        "final_mse": float(stats.mse[-1]),
        "final_mean_V": float(stats.mean_v[-1]),
        "exceedance_final": {_fmt(d): float(stats.exceedance_at(d)[-1]) for d in config.deltas},
        "burn_in": burn_in,
        "max_exceedance_rise_after_burn_in": exceedance_trend_rise(
            stats.exceedance_at(0.2), burn_in
        ),
    }
    return table, summary


def exceedance_trend_rise(exceedance: np.ndarray, burn_in: int, blocks: int = 20) -> float:
    """Largest increase between successive block means of the tail curve.

    Per-step differences of a Monte-Carlo exceedance curve are dominated by
    trial-crossing noise, so the nonincreasing-trend verdict is taken on
    block averages of the post-burn-in steps instead.
    """
    tail = np.asarray(exceedance, dtype=float)[burn_in:]
    if tail.shape[0] < 2:
        return 0.0
    count = min(blocks, tail.shape[0])
    means = np.array([chunk.mean() for chunk in np.array_split(tail, count)])
    rises = np.diff(means)
    return float(rises.max()) if rises.size else 0.0


def _run_workflow(config: ExperimentConfig, chash: str):
    model, theta_star = config.model.build()
    handle = config.filter.build(theta_star)
    filtered = handle is not None
    stats = run_workflow_trials(
        model,
        theta_star,
        config.schedule,
        config.horizon,
        config.trials,
        RngState(config.seed),
        deltas=_merged_deltas(config),
        filter_handle=handle,
        candidates_per_round=config.filter.candidates_per_round if filtered else None,
    )
    scenario = "workflow-filtered" if filtered else "workflow"
    table = _stats_table(scenario, stats, config.trials, chash)

    half = config.horizon // 2
    summary = {
        "scenario": scenario,
        "config_hash": chash,
        "trials": config.trials,
        "horizon": config.horizon,
        "final_mse": float(stats.mse[-1]),
        "final_mean_V": float(stats.mean_v[-1]),
        "mse_slope": _slope(stats.ts, stats.mse),
        "mse_slope_last_half": _slope(stats.ts[half:], stats.mse[half:]),
        "exceedance_final": {_fmt(d): float(stats.exceedance_at(d)[-1]) for d in config.deltas},
    }
    if not filtered and config.schedule.kind == "constant":
        summary["expected_final_mse"] = config.model.dim * config.horizon / config.schedule.base
        summary["expected_mse_slope"] = config.model.dim / config.schedule.base
    return table, summary


def _run_rates(config: ExperimentConfig, chash: str):
    spec = config.rates
    f = spec.build_regulator()
    bounds = spec.build_bounds()
    traj = recurrence_simulate(f, spec.x0, bounds, spec.steps)
    try:
        slope, r_squared = fit_decay_rate(traj, spec.tail_fraction)
    except InputValidationError:
        slope, r_squared = None, None

    steps = traj.shape[0]
    exceed = (traj[:, None] >= np.array(FIXED_DELTAS)).astype(float)
    table = ResultTable("rates", np.arange(steps), np.zeros(steps), traj, traj, exceed, 1, chash)
    summary = {
        "scenario": "rates",
        "config_hash": chash,
        "steps": spec.steps,
        "x0": spec.x0,
        "final_value": float(traj[-1]),
        "fitted_slope": slope,
        "r_squared": r_squared,
        "expected_slope": spec.expected_slope(),
    }
    if spec.noise_kind == "constant" and spec.noise_scale > 0.0:
        summary["limsup_ceiling"] = limsup_bound(f, spec.noise_scale)
    return table, summary


def _run_concentration(config: ExperimentConfig, chash: str):
    model, theta = config.model.build()
    spec = config.concentration
    rng = RngState(config.seed)
    # one pass over the draws: the configured delta, then the fixed-delta columns
    curve = measure_concentration(
        model, theta, spec.sizes, (spec.delta,) + FIXED_DELTAS, spec.trials, rng
    )
    rows = len(spec.sizes)
    table = ResultTable(
        "concentration", np.arange(rows), spec.sizes, np.zeros(rows), np.zeros(rows),
        curve[:, 1:], spec.trials, chash,
    )
    exceed = curve[:, 0].tolist()
    summary = {
        "scenario": "concentration",
        "config_hash": chash,
        "trials": spec.trials,
        "delta": spec.delta,
        "sizes": list(spec.sizes),
        "exceedance": exceed,
        "monotone_nonincreasing": all(b <= a for a, b in zip(exceed, exceed[1:])),
    }
    return table, summary


def _run_train_filter(config: ExperimentConfig, chash: str):
    model, theta_star = config.model.build()
    spec = config.training
    rng = RngState(config.seed)

    datasets, trace = simulate_drift_training_data(
        model,
        theta_star,
        spec.rounds,
        spec.candidates_per_round,
        spec.contamination,
        rng.derive(0),
        drift_scale=spec.drift_scale,
    )
    pool = merge_datasets(datasets)
    n_total = len(pool)
    n_hold = int(round(spec.holdout_fraction * n_total))
    perm = rng.derive(1).generator().permutation(n_total)
    hold_idx = np.sort(perm[:n_hold])
    train_idx = np.sort(perm[n_hold:])
    train_points, train_labels = pool.points[train_idx], pool.labels[train_idx]
    hold_points, hold_labels = pool.points[hold_idx], pool.labels[hold_idx]

    k = spec.pca_k if spec.pca_k > 0 else min(model.dim, 8)
    pca = fit_pca(train_points, k)
    train_ds = LabeledDataset(train_points, train_labels).with_features(pca)
    theta_est, theta_good = anchors_from_dataset(model, train_ds)
    train_config = TrainConfig(
        theta_good=theta_good,
        metric=LyapunovMetric.identity(model.dim),
        c_fn=config.contraction.build(),
        e_est=theta_est.theta - theta_good.theta,
        lambda_contract=spec.lambda_contract,
        ess_weight=spec.ess_weight,
        learning_rate=spec.learning_rate,
        epochs=spec.epochs,
        hidden_dim=spec.hidden_dim,
    )
    params, log = train_filter(train_ds, train_config, rng.derive(2))
    final = log[-1] if log else loss_gradient(params, train_ds, train_config)[0]

    weights = forward_batch(params, pca.transform(train_points))
    theta_new = expfam.weighted_estimate(model, train_points, weights)
    v_new = train_config.metric.value(theta_new.theta - theta_good.theta)
    threshold = train_config.contraction_threshold()
    certificate = bool(v_new <= threshold)

    if n_hold > 0:
        hold_pred = forward_batch(params, pca.transform(hold_points)) >= 0.5
        holdout_accuracy = float((hold_pred == (hold_labels == 1)).mean())
    else:
        holdout_accuracy = None

    meta = {
        "scenario": "train-filter",
        "family": model.family,
        "dim": model.dim,
        "seed": config.seed,
        "pca_k": k,
        "theta_good": theta_good.theta.tolist(),
        "e_est": train_config.e_est.tolist(),
        "training": _echo(spec),
        "contraction": _echo(config.contraction),
    }

    log_lines = [TRAINING_LOG_HEADER]
    for epoch, row in enumerate(log, 1):
        log_lines.append(
            f"{epoch},{_fmt(row.total)},{_fmt(row.class_part)},"
            f"{_fmt(row.contract_part)},{_fmt(row.ess_part)}"
        )

    summary = {
        "scenario": "train-filter",
        "config_hash": chash,
        "epochs": spec.epochs,
        "n_train": int(train_idx.shape[0]),
        "n_holdout": int(n_hold),
        "final_total_loss": float(final.total),
        "final_class_loss": float(final.class_part),
        "final_contract_loss": float(final.contract_part),
        "final_ess_loss": float(final.ess_part),
        "holdout_accuracy": holdout_accuracy,
        "contraction_certificate": certificate,
        "certified_v_new": float(v_new),
        "certified_threshold": float(threshold),
        "drift_trace_final": trace[-1].tolist(),
        "explained_variance_ratio": pca.explained_variance_ratio.tolist(),
    }
    artifacts = {
        "training_log": "\n".join(log_lines) + "\n",
        "checkpoint": (params, pca, meta),
    }
    return summary, artifacts


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch a validated config, write its artifacts, return the table + summary."""
    chash = config_hash(config)
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    paths: dict[str, str] = {}

    if config.scenario == "train-filter":
        table = None
        summary, artifacts = _run_train_filter(config, chash)
        log_path = os.path.join(out, "training_log.csv")
        atomic_write_text(log_path, artifacts["training_log"])
        paths["training_log"] = log_path
        ckpt_path = os.path.join(out, "checkpoint.json")
        params, pca, meta = artifacts["checkpoint"]
        save_filter_checkpoint(ckpt_path, params, pca, meta)
        paths["checkpoint"] = ckpt_path
        summary["checkpoint"] = ckpt_path
    else:
        if config.scenario == "dynamics":
            table, summary = _run_dynamics(config, chash)
        elif config.scenario in ("workflow", "workflow-filtered"):
            table, summary = _run_workflow(config, chash)
        elif config.scenario == "rates":
            table, summary = _run_rates(config, chash)
        elif config.scenario == "concentration":
            table, summary = _run_concentration(config, chash)
        else:  # pragma: no cover - scenario set is closed by validation
            raise InputValidationError(f"unhandled scenario {config.scenario!r}")
        csv_path = os.path.join(out, "results.csv")
        write_results_csv(table, csv_path)
        paths["results"] = csv_path

    summary_path = os.path.join(out, "summary.json")
    write_summary(summary, summary_path)
    paths["summary"] = summary_path
    return ExperimentResult(table=table, summary=summary, paths=paths)


# ---------------------------------------------------------------------------
# Run comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompareTable:
    """Per-step baseline and treatment MSE and their ratio, as columns."""

    t: np.ndarray
    baseline_mse: np.ndarray
    treatment_mse: np.ndarray
    ratio: np.ndarray


def compare_runs(baseline: ResultTable, treatment: ResultTable):
    """Per-step baseline/treatment MSE ratios plus a trend verdict.

    The ratio is 1 where both MSEs are 0 and infinite where only the
    treatment's is. The trend is the least-squares slope of the finite
    ratios, exactly 0 when they are all equal.
    """
    if len(baseline) == 0 or len(treatment) == 0:
        raise InputValidationError("both result tables must be nonempty")
    if len(baseline) != len(treatment):
        raise InputValidationError("result tables differ in row count")
    off = np.flatnonzero(baseline.t != treatment.t)
    if off.size:
        i = off[0]
        raise InputValidationError(
            f"step grids differ at t={baseline.t[i]} vs t={treatment.t[i]}"
        )
    b, tr = baseline.mse, treatment.mse
    with np.errstate(all="ignore"):
        ratios = np.divide(b, tr, out=np.where(b == 0.0, 1.0, np.inf), where=tr != 0.0)
    table = CompareTable(baseline.t, b, tr, ratios)

    finite = np.isfinite(ratios)
    kept = ratios[finite]
    if kept.size < 2:
        trend = None
    elif np.all(kept == kept[0]):
        trend = 0.0  # a least-squares fit leaves rounding noise of either sign on a flat series
    else:
        trend = _slope(baseline.t[finite], kept)
    summary = {
        "steps": len(ratios),
        "final_ratio": float(ratios[-1]),
        "ratio_trend_slope": trend,
        "trend_increasing": bool(trend is not None and trend > 0.0),
        "baseline_final_mse": float(b[-1]),
        "treatment_final_mse": float(tr[-1]),
    }
    return table, summary


def write_compare_csv(table: CompareTable, path) -> None:
    columns = [
        _int_cells(table.t),
        _float_cells(table.baseline_mse),
        _float_cells(table.treatment_mse),
        _float_cells(table.ratio),
    ]
    atomic_write_text(path, _csv_text(COMPARE_HEADER, columns))


# ---------------------------------------------------------------------------
# Plotting (deterministic SVG, no display server)
# ---------------------------------------------------------------------------

PLOT_KINDS = ("linear", "semilogy", "loglog")
PLOT_COLUMNS = ("mse", "mean_V", "exceed_0.1", "exceed_0.2", "exceed_0.5")

_SVG_W, _SVG_H, _SVG_M = 640.0, 480.0, 56.0


def _column_values(table: ResultTable, column: str) -> np.ndarray:
    if column == "mse":
        return table.mse
    if column == "mean_V":
        return table.mean_v
    idx = {f"exceed_{_fmt(d)}": i for i, d in enumerate(FIXED_DELTAS)}
    if column in idx:
        return table.exceed[:, idx[column]]
    raise InputValidationError(f"unknown plot column {column!r}; expected one of {PLOT_COLUMNS}")


def emit_plot(table: ResultTable, kind: str, path, column: str = "mse") -> None:
    """Render one polyline (vertex per row) with min/max axis labels as SVG."""
    if kind not in PLOT_KINDS:
        raise InputValidationError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    if len(table) == 0:
        raise InputValidationError("cannot plot an empty result table")
    xs = table.t.astype(float)
    ys = _column_values(table, column)
    if not np.all(np.isfinite(ys)):
        raise InputValidationError("plot values must be finite")
    if kind == "loglog" and np.any(xs <= 0.0):
        raise InputValidationError("loglog requires positive step values; trim t=0 rows first")
    if kind in ("semilogy", "loglog") and np.any(ys <= 0.0):
        raise InputValidationError(f"{kind} requires positive {column} values")

    px = np.log10(xs) if kind == "loglog" else xs
    py = np.log10(ys) if kind in ("semilogy", "loglog") else ys

    def scaled(v: np.ndarray, lo: float, hi: float, a: float, b: float) -> np.ndarray:
        if hi == lo:
            return np.full(v.shape, 0.5 * (a + b))
        return a + (v - lo) / (hi - lo) * (b - a)

    sx = scaled(px, float(px.min()), float(px.max()), _SVG_M, _SVG_W - _SVG_M)
    sy = scaled(py, float(py.min()), float(py.max()), _SVG_H - _SVG_M, _SVG_M)
    points = " ".join(map("%.3f,%.3f".__mod__, zip(sx.tolist(), sy.tolist())))

    frame = (
        f'<rect x="{_SVG_M}" y="{_SVG_M}" width="{_SVG_W - 2 * _SVG_M}" '
        f'height="{_SVG_H - 2 * _SVG_M}" fill="none" stroke="#444" stroke-width="1"/>'
    )
    labels = (
        f'<text x="{_SVG_M}" y="{_SVG_H - _SVG_M + 18}" font-size="11" '
        f'font-family="monospace">t={_fmt(xs.min())}</text>'
        f'<text x="{_SVG_W - _SVG_M}" y="{_SVG_H - _SVG_M + 18}" font-size="11" '
        f'font-family="monospace" text-anchor="end">t={_fmt(xs.max())}</text>'
        f'<text x="{_SVG_M - 6}" y="{_SVG_H - _SVG_M}" font-size="11" '
        f'font-family="monospace" text-anchor="end">{_fmt(ys.min())}</text>'
        f'<text x="{_SVG_M - 6}" y="{_SVG_M + 4}" font-size="11" '
        f'font-family="monospace" text-anchor="end">{_fmt(ys.max())}</text>'
        f'<text x="{_SVG_W / 2}" y="{_SVG_M - 12}" font-size="12" '
        f'font-family="monospace" text-anchor="middle">{column} ({kind})</text>'
    )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W:.0f}" '
        f'height="{_SVG_H:.0f}" viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">\n'
        f'<rect width="{_SVG_W:.0f}" height="{_SVG_H:.0f}" fill="#ffffff"/>\n'
        f"{frame}\n{labels}\n"
        f'<polyline fill="none" stroke="#1f6feb" stroke-width="1.5" points="{points}"/>\n'
        "</svg>\n"
    )
    atomic_write_text(path, svg)


# ---------------------------------------------------------------------------
# Acceptance checks (--check)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.name}: measured={_fmt(self.measured)} "
            f"threshold={_fmt(self.threshold)} ({self.detail})"
        )


def _within(name, measured, expected, rel, detail) -> CheckResult:
    tol = abs(rel * expected)
    return CheckResult(
        name=name,
        passed=abs(measured - expected) <= tol,
        measured=measured,
        threshold=tol,
        detail=f"{detail}; |measured - {_fmt(expected)}| must be <= {_fmt(tol)}",
    )


def _at_most(name, measured, threshold, detail) -> CheckResult:
    return CheckResult(name, measured <= threshold, measured, threshold, detail)


def _holds(name, flag, detail) -> CheckResult:
    return CheckResult(name, bool(flag), 1.0 if flag else 0.0, 1.0, detail)


def run_checks(config: ExperimentConfig, summary: dict) -> list[CheckResult]:
    """Named pass/fail verdicts applicable to this scenario's summary."""
    checks: list[CheckResult] = []
    scenario = config.scenario

    if scenario == "workflow" and "expected_final_mse" in summary:
        checks += [
            _within("workflow-final-mse", summary["final_mse"], summary["expected_final_mse"],
                    0.15, "closed-form dim*T/n baseline"),
            _within("workflow-mse-slope", summary["mse_slope"], summary["expected_mse_slope"],
                    0.15, "closed-form dim/n growth per step"),
        ]
    elif scenario == "workflow-filtered" and config.filter.kind == "oracle-pullback":
        checks.append(_at_most("filtered-mse-slope-last-half", summary["mse_slope_last_half"],
                               0.0, "late-run MSE trend must be flat or falling"))
    elif scenario == "dynamics":
        final = summary["exceedance_final"].get(_fmt(0.2))
        if final is not None:
            checks.append(_at_most("dynamics-final-exceedance-0.2", final, 0.05,
                                   "terminal exceedance fraction at delta=0.2"))
        checks.append(_at_most("dynamics-exceedance-monotone",
                               summary["max_exceedance_rise_after_burn_in"], 0.02,
                               "largest block-mean exceedance increase after burn-in"))
    elif scenario == "rates":
        expected, fitted = summary.get("expected_slope"), summary.get("fitted_slope")
        if expected is not None and fitted is not None:
            checks.append(CheckResult("rates-decay-slope", abs(fitted - expected) <= 0.1, fitted,
                                      0.1, f"log-log tail slope vs theory {_fmt(expected)}"))
    elif scenario == "concentration":
        checks.append(_holds("concentration-monotone", summary["monotone_nonincreasing"],
                             "exceedance must not increase with sample size"))
        tail_applicable = (
            config.model.family == expfam.GAUSSIAN
            and config.model.dim == 1
            and config.concentration.delta == 3.0
            and config.concentration.sizes[:1] == (1,)
        )
        if tail_applicable:
            measured = summary["exceedance"][0]
            checks.append(CheckResult(
                "concentration-gaussian-tail", abs(measured - GAUSSIAN_TAIL_3) <= 0.002, measured,
                0.002, f"two-sided normal tail at 3 sigma, oracle {_fmt(GAUSSIAN_TAIL_3)}",
            ))
    elif scenario == "train-filter":
        checks.append(_at_most("train-contract-final", summary["final_contract_loss"], 1e-6,
                               "contraction hinge at the final epoch"))
        acc = summary.get("holdout_accuracy")
        if acc is not None:
            checks.append(CheckResult("train-holdout-accuracy", acc >= 0.90, acc, 0.90,
                                      "held-out classification accuracy"))
        checks.append(_holds("train-contraction-certificate", summary["contraction_certificate"],
                             "independently recomputed weighted-estimate inequality"))
    return checks


def compare_checks(summary: dict) -> list[CheckResult]:
    """Checks for a baseline-vs-treatment comparison summary."""
    ratio, trend = summary["final_ratio"], summary.get("ratio_trend_slope")
    return [
        CheckResult("compare-final-ratio", ratio > 5.0, ratio, 5.0,
                    "terminal unfiltered/filtered MSE ratio"),
        CheckResult("compare-trend-increasing", bool(trend is not None and trend > 0.0),
                    trend if trend is not None else math.nan, 0.0,
                    "improvement ratio least-squares slope"),
    ]


def ensure_checks_pass(checks: Sequence[CheckResult]) -> None:
    failed = [c for c in checks if not c.passed]
    if failed:
        raise CheckFailureError(
            "; ".join(f"{c.name} measured={_fmt(c.measured)} threshold={_fmt(c.threshold)}" for c in failed)
        )
