"""Configuration-driven experiment harness.

Turns a JSON config into one of six scenario pipelines (abstract error
dynamics, unfiltered or filtered self-consuming workflows, deterministic
rate verification, estimator concentration curves, filter training),
writes diff-friendly CSV plus a JSON summary, and exposes the named
acceptance checks behind the CLI's --check flag. All artifacts are
deterministic for a fixed (config, seed) pair and written atomically.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from itertools import chain
from typing import NoReturn, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import expfam
from .contraction import (
    ContractionFn,
    ContractionMap,
    LyapunovMetric,
    RegulatorFn,
    fit_decay_rate,
    limsup_bound,
    measure_concentration,
    recurrence_simulate,
)
from .dynamics import (
    DEFAULT_DELTAS,
    NoiseSchedule,
    SampleSchedule,
    run_dynamics_trials,
    run_workflow_trials,
)
from .errors import CheckFailureError, InputValidationError, SimulationOverflowError
from .filtering import (
    FilterHandle,
    LabeledDataset,
    TrainConfig,
    TrainingSpec,
    anchors_from_dataset,
    atomic_write_json,
    atomic_write_text,
    content_hash,
    fit_pca,
    forward_batch,
    load_filter_checkpoint,
    loss_gradient,
    save_filter_checkpoint,
    simulate_drift_training_data,
    train_filter,
)
from .numerics import RngState, check_fits

SCENARIOS = (
    "dynamics",
    "workflow",
    "workflow-filtered",
    "rates",
    "concentration",
    "train-filter",
)

CSV_HEADER = "scenario,t,n_t,mse,mean_V,exceed_0.1,exceed_0.2,exceed_0.5,trials,config_hash"
COMPARE_HEADER = "t,baseline_mse,treatment_mse,ratio"
TRAINING_LOG_HEADER = "epoch,total,class_part,contract_part,ess_part"

# The CSV layer formats _BLOCK_ROWS rows at a time and reads about _READ_CHARS
# characters at a time, so its memory does not grow with a table's rows. A
# piece's records (about 0.6 MB for a rates table) stay below one 10^5-row
# column: freeing larger ones raised glibc's mmap threshold above a column's
# size, and the columns then came from the heap, 2-3 MB higher in peak RSS.
_BLOCK_ROWS = 4096
_READ_CHARS = 1 << 18

GAUSSIAN_TAIL_3 = math.erfc(3.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Config schema: a config dataclass's fields and annotations are the only
# declaration of its config fields; parsing, echo and hashing walk them.
# ---------------------------------------------------------------------------


def _parse_fields(cls, raw: dict, path: str):
    """Build the config dataclass ``cls`` from a JSON mapping, in field order.

    ``path`` is the section name, or "" at the top level. Unknown keys are
    rejected by name, fields without a default are required, and missing
    fields take their defaults. A section's own checks that fail are
    reported under the section's name, unless their message already names it.
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
    try:
        return cls(**values)
    except InputValidationError as exc:
        if not path or re.search(rf"\b{re.escape(path)}\b", str(exc)):
            raise
        raise InputValidationError(f"{path}: {exc}") from exc


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
        # seed is unsigned 64-bit and checked by ExperimentConfig
        if name != "seed" and not -(2**63) <= raw < 2**63:
            raise InputValidationError(f"{name} does not fit in a 64-bit integer")
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
        check_fits("model.dim's parameter vector", (self.dim,), "use a smaller model.dim")
        if self.theta_star is not None and len(self.theta_star) != self.dim:
            raise InputValidationError("model.theta_star length must equal model.dim")
        # the default (ones) lies outside some natural domains, so check the effective value
        theta = np.ones(self.dim) if self.theta_star is None else np.array(self.theta_star, float)
        try:
            param = expfam.Parameter(theta, model)
        except InputValidationError as exc:
            raise InputValidationError(
                f"model.theta_star {theta.tolist()} is invalid: {exc}"
            ) from exc
        if model.family == expfam.POISSON:
            with np.errstate(over="ignore"):  # exp(theta) = inf lies above the limit too
                too_large = np.any(np.exp(theta) > expfam.POISSON_RATE_MAX)
            if too_large:
                raise InputValidationError(
                    f"model.theta_star {theta.tolist()} is invalid: "
                    f"its poisson rate exp(theta) {expfam._BEYOND_RATE_MAX}"
                )
        return model, param


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
        if not self.candidates_per_round >= 2:
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
        if pca.input_dim != theta_star.model.dim:
            raise InputValidationError(
                f"filter.checkpoint {self.checkpoint} scores points of dimension "
                f"{pca.input_dim}, but model.dim is {theta_star.model.dim}"
            )
        return FilterHandle.mlp(params, pca)


@dataclass(frozen=True)
class RatesSpec:
    """The ``rates`` section; ``regulator`` and ``noise`` are built from it on parse."""

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
        if not self.steps >= 2:
            raise InputValidationError("rates.steps must be at least 2")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise InputValidationError("rates.tail_fraction must lie in (0, 1]")
        object.__setattr__(self, "regulator", RegulatorFn(self.kind, self.p, self.c1, self.c2))
        object.__setattr__(
            self, "noise", NoiseSchedule(self.noise_kind, self.noise_beta, self.noise_scale)
        )

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
        if len(self.sizes) == 0 or any(not n >= 1 for n in self.sizes):
            raise InputValidationError("concentration.sizes must be positive integers")
        if not self.delta >= 0.0:
            raise InputValidationError("concentration.delta must be nonnegative")
        if not self.trials >= 100:
            raise InputValidationError("concentration.trials must be at least 100")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scenario run needs; seeds are always explicit."""

    scenario: str
    seed: int
    model: ModelSpec = field(default_factory=ModelSpec)
    horizon: int = 100
    trials: int = 100
    deltas: tuple[float, ...] = DEFAULT_DELTAS
    out_dir: str = "."
    initial_error: tuple[float, ...] | None = None
    schedule: SampleSchedule = field(default_factory=SampleSchedule)
    noise: NoiseSchedule = field(default_factory=NoiseSchedule)
    contraction: ContractionFn = field(default_factory=ContractionFn)
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
        if not self.horizon >= 1:
            raise InputValidationError("horizon must be positive")
        if not self.trials >= 1:
            raise InputValidationError("trials must be positive")
        if len(self.deltas) == 0 or any(not d > 0.0 for d in self.deltas):
            raise InputValidationError("deltas must be positive")
        if self.initial_error is not None and len(self.initial_error) != self.model.dim:
            raise InputValidationError("initial_error length must equal model.dim")
        if not math.isfinite(sum(x * x for x in self.initial_error or ())):
            raise InputValidationError("initial_error's squared norm must be finite")
        if self.scenario == "workflow-filtered" and self.filter.kind == "none":
            raise InputValidationError("workflow-filtered requires filter.kind != 'none'")
        if self.scenario == "workflow" and self.filter.kind != "none":
            raise InputValidationError("workflow requires filter.kind 'none'; use workflow-filtered")
        self._check_sizes()

    def _check_sizes(self) -> None:
        """Refuse, before any draw, a size field whose largest array would not fit."""
        dim, scenario = self.model.dim, self.scenario
        oracle = scenario == "workflow-filtered" and self.filter.kind == "oracle-pullback"
        if scenario in ("dynamics", "train-filter") or oracle:
            # the metric P, the PCA covariance or the oracle's spread
            check_fits("model.dim's matrices", (dim, dim), "use a smaller model.dim")
        if scenario in ("workflow", "workflow-filtered"):
            check_fits("one trial's schedule.base draws", (self.schedule.base, dim),
                       "use a smaller schedule.base")
        if scenario == "workflow-filtered":
            check_fits("one trial's filter.candidates_per_round candidates",
                       (self.filter.candidates_per_round, dim),
                       "use a smaller filter.candidates_per_round")
        if scenario == "train-filter":
            spec = self.training
            points = spec.rounds * spec.candidates_per_round
            check_fits("the training.rounds x training.candidates_per_round drift points",
                       (points, dim), "use fewer training.rounds or candidates_per_round")
            check_fits("the training.hidden_dim activations of the drift points",
                       (points, spec.hidden_dim), "use a smaller training.hidden_dim")

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


# One field per CSV_HEADER column; the two strings stay whole as Python objects
# (see _records_dtype for the fixed-width fields most reads parse them as).
_CSV_DTYPE = np.dtype(list(zip(CSV_HEADER.split(","), "O i8 i8 f8 f8 f8 f8 f8 i8 O".split())))
RESULT_COLUMNS = _CSV_DTYPE.names[1:8]  # t, n_t, mse, mean_V and the exceed columns
_SHARED_COLUMNS = ("scenario", "trials", "config_hash")  # in the order their faults are raised


@dataclass(frozen=True, eq=False)
class ResultTable:
    """A results table: one array per numeric results.csv column, named as in its header.

    ``columns`` maps names of ``RESULT_COLUMNS`` to equal-length 1-d arrays,
    one entry per row (a step, or a sample size), and is kept in that order;
    ``table[name]`` reads one. ``t`` is always there. A table read with
    ``keep`` (see ``read_results_csv``) holds only ``t`` and the kept columns,
    so that code reaching for another fails. The scenario, trial count and
    config hash are shared by every row.
    """

    scenario: str
    columns: dict[str, np.ndarray]
    trials: int
    config_hash: str

    def __post_init__(self):
        if "t" not in self.columns or not set(self.columns) <= set(RESULT_COLUMNS):
            raise TypeError(f"result columns must be t and some of {RESULT_COLUMNS}, "
                            f"got {list(self.columns)}")
        columns = {name: np.asarray(self.columns[name], dtype=_CSV_DTYPE[name])
                   for name in RESULT_COLUMNS if name in self.columns}
        object.__setattr__(self, "columns", columns)
        rows = columns["t"].shape
        if len(rows) != 1 or any(column.shape != rows for column in columns.values()):
            raise InputValidationError("result columns must be 1-d and share one row count")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return self.columns["t"].shape[0]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


# a field of a row format, or a literal "%%"
_FIELD = re.compile(r"%%|%[.\d]*[a-z]")


def _as_ints(block: np.ndarray) -> np.ndarray | None:
    """``block`` as int64 when "%d" writes each of its values as "%.12g" does, else None.

    That holds for whole numbers below 1e12 in magnitude other than -0.0:
    "%.12g" writes 1e12 as "1e+12" and -0.0 as "-0". NaN fails the range test.
    """
    if not -1e12 < block.min() <= block.max() < 1e12:
        return None
    ints = block.astype(np.int64)
    if not np.array_equal(ints, block) or np.signbit(block[ints == 0]).any():
        return None
    return ints


def _format_rows(row: str, columns):
    """Yield ``row`` %-formatted once per row of the equal-length ``columns``.

    Each piece is one %-pass over ``_BLOCK_ROWS`` rows, so the text of a
    table is never held whole. ``row`` holds one field per column; "%d" % i
    is str(i) and "%.12g" % x is format(x, ".12g"). A literal ``%`` in
    ``row`` must be written ``%%``. Only what differs within a block is
    formatted per row: a field whose block is bit-constant goes into the
    block's template as its text, and a field whose column ``is`` an earlier
    field's, with the same spec, takes that field's text, formatted once. A
    "%.12g" field is written "%d" for a block that ``_as_ints`` takes, which
    gives the same text in about half the time.
    """
    fields = [m for m in _FIELD.finditer(row) if m.group() != "%%"]
    gaps = [row[at : m.start()] for at, m in zip([0] + [m.end() for m in fields], fields)]
    tail = row[fields[-1].end() :] if fields else row
    # each field's first field of the same column and spec, whose text it takes
    first = [next(i for i, f in enumerate(fields) if columns[i] is columns[j]
                  and f.group() == m.group()) for j, m in enumerate(fields)]
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        parts = []  # per field: its template text, and its per-row values or None
        for j, m in enumerate(fields):
            if first[j] < j:
                parts.append(parts[first[j]])
                continue
            column, spec = columns[j][lo : lo + _BLOCK_ROWS], m.group()
            bits = column.view(f"i{column.itemsize}")
            if (bits == bits[0]).all():
                parts.append((spec % column[0].item(), None))
                continue
            ints = _as_ints(column) if spec == "%.12g" else None
            if ints is not None:
                spec, column = "%d", ints
            if j in first[j + 1 :]:
                text = (spec + "\n") * len(column) % tuple(column.tolist())
                spec, column = "%s", text.splitlines()
            parts.append((spec, column))
        rows = min(_BLOCK_ROWS, len(columns[0]) - lo)
        varying = [values for _, values in parts if values is not None]
        values = [None] * (len(varying) * rows)
        for k, column in enumerate(varying):
            values[k :: len(varying)] = column if isinstance(column, list) else column.tolist()
        template = "".join(gap + text for gap, (text, _) in zip(gaps, parts)) + tail
        yield (template * rows) % tuple(values)


def write_results_csv(table: ResultTable, path) -> None:
    if len(table) == 0:
        raise InputValidationError("refusing to write an empty results table")
    missing = [name for name in RESULT_COLUMNS if name not in table.columns]
    if missing:
        raise InputValidationError(
            f"refusing to write a results table read without its {', '.join(missing)} column(s)"
        )
    shared = (str(s).replace("%", "%%") for s in (table.scenario, table.trials, table.config_hash))
    scenario, trials, chash = shared
    row = f"{scenario},%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g,{trials},{chash}\n"
    columns = [table[name] for name in RESULT_COLUMNS]
    atomic_write_text(path, chain([f"{CSV_HEADER}\n"], _format_rows(row, columns)))


def _line_pieces(fh):
    """Yield the lines of ``fh`` in pieces, each cut from about ``_READ_CHARS`` characters.

    Each piece of text ends just after a newline. ``fh`` reads with universal
    newlines, so no ``\\r`` is left, and the pieces' ``splitlines()`` give
    exactly the lines of the whole text.
    """
    parts = []
    while chunk := fh.read(_READ_CHARS):
        cut = chunk.rfind("\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        parts.append(chunk[:cut])
        lines = "".join(parts).splitlines()
        parts = [chunk[cut:]]
        del chunk  # not held while the caller parses the piece
        yield lines
        del lines  # nor the lines while the next piece is read
    if parts:
        yield "".join(parts).splitlines()


def _scan_body(path, body: list[str], refusal) -> NoReturn:
    """Raise the first fault of a body ``np.loadtxt`` refused.

    That is the first line without 10 columns, else the first bad cell of mse,
    mean_V, the exceed columns, trials, t and n_t. A cell passes as in numpy's
    reader: stripped, it holds only ASCII and no underscore, ``int``/``float``
    takes it and its dtype holds the value.
    """
    for line, text in enumerate(body, start=2):
        if text.count(",") != 9:
            raise InputValidationError(f"{path}:{line}: expected 10 columns")
    cells = ",".join(body).split(",")
    for name in (*_CSV_DTYPE.names[3:9], "t", "n_t"):
        dtype = _CSV_DTYPE[name]
        for line, cell in enumerate(cells[_CSV_DTYPE.names.index(name)::10], start=2):
            try:
                value = cell.strip()
                if "_" in value or not value.isascii():
                    raise ValueError
                dtype.type(int(value) if dtype.kind == "i" else float(value))
            except (ValueError, OverflowError):
                what = "an integer" if dtype.kind == "i" else "a number"
                raise InputValidationError(
                    f"{path}:{line}: column {name} must hold {what}, got {cell!r}"
                ) from None
    raise InputValidationError(f"{path}: cannot parse the results: {refusal}")


def _records_dtype(line2: str) -> np.dtype:
    """The records' dtype for a body whose line 2 is ``line2``.

    Its scenario and config_hash are fixed-width "U" fields one character
    wider than line 2's cells, so that np.loadtxt builds no Python string
    per row and the shared-column check runs in C. A longer cell in a later
    row is cut to a value that still differs from line 2. A "U" field drops
    trailing NULs, so a line 2 that holds one, or not 10 cells, keeps
    ``_CSV_DTYPE``; so does one with a cell longer than 32 characters,
    which would make every row's record that wide.
    """
    cells = line2.split(",")
    if len(cells) != 10 or "\0" in line2 or max(len(cells[0]), len(cells[9])) > 32:
        return _CSV_DTYPE
    widths = {"scenario": len(cells[0]) + 1, "config_hash": len(cells[9]) + 1}
    return np.dtype([(name, f"U{widths[name]}" if name in widths else _CSV_DTYPE[name])
                     for name in _CSV_DTYPE.names])


def _parse_piece(path, body: list[str], dtype: np.dtype) -> np.ndarray:
    """The records of ``body``, some lines of the file, parsed as ``dtype``.

    A piece that holds a NUL is parsed as ``_CSV_DTYPE``, whose strings keep
    it. A refusal or a blank line reads the whole body again for
    ``_scan_body``, so that its fault is placed as if the file had been
    parsed at once.
    """
    if dtype is not _CSV_DTYPE and "\0" in "".join(body):
        dtype = _CSV_DTYPE
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # older numpy reads "1.5" as 1
            warnings.simplefilter("ignore", UserWarning)  # "no data": blank lines, refused below
            rec = np.loadtxt(body, delimiter=",", comments=None, dtype=dtype, ndmin=1)
        if len(rec) == len(body):  # loadtxt skips blank lines
            return rec
        refusal = "a blank line"
    except (ValueError, OverflowError, DeprecationWarning) as exc:
        refusal = exc
    with open(path, "r", encoding="utf-8") as fh:
        _scan_body(path, fh.read().splitlines()[1:], refusal)


def read_results_csv(path, keep: Sequence[str] | None = None) -> ResultTable:
    """Read a results table in pieces, holding its kept columns and one piece's records.

    ``keep`` names the numeric CSV columns to hold; None holds them all. The
    table holds ``t`` and exactly the kept columns, but every cell of every
    column is parsed and checked all the same, so a file reads or fails the
    same whatever is kept. Every piece parses before a shared column that
    differs from line 2 is refused, so a bad cell anywhere is reported first.
    """
    if keep is not None:
        unknown = set(keep) - set(RESULT_COLUMNS)
        if unknown:
            raise ValueError(f"not numeric results columns: {sorted(unknown)}")
    held = [name for name in RESULT_COLUMNS if keep is None or name == "t" or name in keep]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_pieces(path, _line_pieces(fh), held)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputValidationError(f"cannot read results {path}: {exc}") from exc


def _read_pieces(path, pieces, held: list[str]) -> ResultTable:
    body = next(pieces, [])
    if not body or body[0] != CSV_HEADER:
        for _ in pieces:  # an undecodable byte further on is reported first
            pass
        raise InputValidationError(f"{path} does not carry the expected results schema")
    del body[0]
    # an empty first chunk gives a header-only file its empty, typed columns
    parts = {name: [np.empty(0, _CSV_DTYPE[name])] for name in held}
    shared, differs, line, dtype = None, {}, 2, None
    while body is not None:
        if body:
            if dtype is None:
                dtype = _records_dtype(body[0])
            rec = _parse_piece(path, body, dtype)
            if shared is None:
                shared = {name: rec[name][0] for name in _SHARED_COLUMNS}
            for name in _SHARED_COLUMNS:
                # against a 0-d array of the field's dtype: numpy compares an O field
                # with a str as a "U" string, which drops the str's trailing NULs
                off = np.flatnonzero(rec[name] != np.array(shared[name], rec.dtype[name]))
                if off.size:
                    differs.setdefault(name, line + int(off[0]))
            # copies, so that no column keeps the records and their strings alive
            for name, chunks in parts.items():
                chunks.append(rec[name].copy())
            line += len(body)
            del rec  # before the next piece is parsed
        body = next(pieces, None)
    for name in _SHARED_COLUMNS:
        if name in differs:
            raise InputValidationError(f"{path}:{differs[name]}: column {name} differs from line 2")
    if shared is None:
        shared = {"scenario": "", "trials": 0, "config_hash": ""}
    # one column at a time, so that no column is held both in pieces and whole
    columns = {name: np.concatenate(parts.pop(name)) for name in held}
    return ResultTable(str(shared["scenario"]), columns, int(shared["trials"]),
                       str(shared["config_hash"]))


def write_summary(summary: dict, path) -> None:
    atomic_write_json(path, summary, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Scenario pipelines
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExperimentResult:
    table: ResultTable | None  # None for train-filter, which writes no results table
    summary: dict
    paths: dict[str, str]


def _merged_deltas(config: ExperimentConfig) -> tuple[float, ...]:
    return tuple(sorted(set(float(d) for d in config.deltas) | set(DEFAULT_DELTAS)))


def _slope(ts: np.ndarray, ys: np.ndarray) -> float:
    # polyfit converts both to float64 itself (x + 0.0), exactly for integer steps below 2**53
    return float(np.polyfit(ts, ys, 1)[0])


def _trial_result(config: ExperimentConfig, chash: str, stats):
    """The results table of a dynamics or workflow run and the summary keys both share."""
    columns = {"t": stats.ts, "n_t": stats.ns, "mse": stats.mse, "mean_V": stats.mean_v,
               **dict(zip(RESULT_COLUMNS[4:], map(stats.exceedance_at, DEFAULT_DELTAS)))}
    table = ResultTable(config.scenario, columns, config.trials, chash)
    summary = {
        "scenario": config.scenario,
        "config_hash": chash,
        "trials": config.trials,
        "horizon": config.horizon,
        "final_mse": float(stats.mse[-1]),
        "final_mean_V": float(stats.mean_v[-1]),
        "exceedance_final": {_fmt(d): float(stats.exceedance_at(d)[-1])
                             for d in _merged_deltas(config)},
    }
    return table, summary


def _run_dynamics(config: ExperimentConfig, chash: str):
    dim = config.model.dim
    map_ = ContractionMap(LyapunovMetric.identity(dim), config.contraction)
    e0 = np.ones(dim) if config.initial_error is None else np.asarray(config.initial_error, float)
    stats = run_dynamics_trials(
        map_, config.noise, e0, config.horizon, config.trials, RngState(config.seed),
        deltas=_merged_deltas(config),
    )
    table, summary = _trial_result(config, chash, stats)
    burn_in = summary["burn_in"] = max(1, config.horizon // 10)
    summary["max_exceedance_rise_after_burn_in"] = exceedance_trend_rise(
        stats.exceedance_at(0.2), burn_in
    )
    return table, summary


def exceedance_trend_rise(exceedance: np.ndarray, burn_in: int) -> float:
    """Largest increase between successive block means of the tail curve.

    Per-step differences of a Monte-Carlo exceedance curve are dominated by
    trial-crossing noise, so the nonincreasing-trend verdict is taken on
    the averages of up to 20 blocks of the post-burn-in steps instead.
    """
    tail = np.asarray(exceedance, dtype=float)[burn_in:]
    if tail.shape[0] < 2:
        return 0.0
    count = min(20, tail.shape[0])
    means = np.array([chunk.mean() for chunk in np.array_split(tail, count)])
    rises = np.diff(means)
    return float(rises.max()) if rises.size else 0.0


def _run_workflow(config: ExperimentConfig, chash: str):
    model, theta_star = config.model.build()
    stats = run_workflow_trials(
        model,
        theta_star,
        config.schedule,
        config.horizon,
        config.trials,
        RngState(config.seed),
        deltas=_merged_deltas(config),
        # None for a plain workflow, whose filter.kind is "none"
        filter_handle=config.filter.build(theta_star),
        candidates_per_round=config.filter.candidates_per_round,
    )
    table, summary = _trial_result(config, chash, stats)
    half = config.horizon // 2
    summary["mse_slope"] = _slope(stats.ts, stats.mse)
    summary["mse_slope_last_half"] = _slope(stats.ts[half:], stats.mse[half:])
    if config.scenario == "workflow" and config.schedule.kind == "constant":
        summary["expected_final_mse"] = config.model.dim * config.horizon / config.schedule.base
        summary["expected_mse_slope"] = config.model.dim / config.schedule.base
    return table, summary


def _run_rates(config: ExperimentConfig, chash: str):
    spec = config.rates
    traj = recurrence_simulate(spec.regulator, spec.x0, spec.noise, spec.steps)
    try:
        slope, r_squared = fit_decay_rate(traj, spec.tail_fraction)
    except InputValidationError:
        slope, r_squared = None, None

    steps = traj.shape[0]
    # one (3, steps) array: three separate ones raised the peak resident memory
    exceed = (traj >= np.array(DEFAULT_DELTAS)[:, None]).astype(float)
    columns = {"t": np.arange(steps), "n_t": np.zeros(steps), "mse": traj, "mean_V": traj,
               **dict(zip(RESULT_COLUMNS[4:], exceed))}
    table = ResultTable("rates", columns, 1, chash)
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
        summary["limsup_ceiling"] = limsup_bound(spec.regulator, spec.noise_scale)
    return table, summary


def _run_concentration(config: ExperimentConfig, chash: str):
    model, theta = config.model.build()
    spec = config.concentration
    rng = RngState(config.seed)
    # one pass over the draws: the configured delta, then the fixed-delta columns
    curve = measure_concentration(
        model, theta, spec.sizes, (spec.delta,) + DEFAULT_DELTAS, spec.trials, rng
    )
    rows = len(spec.sizes)
    columns = {"t": np.arange(rows), "n_t": spec.sizes, "mse": np.zeros(rows),
               "mean_V": np.zeros(rows), **dict(zip(RESULT_COLUMNS[4:], curve[:, 1:].T))}
    table = ResultTable("concentration", columns, spec.trials, chash)
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


def _run_train_filter(config: ExperimentConfig, chash: str, paths: dict[str, str]) -> dict:
    """Train a filter, write its training log and checkpoint into ``paths``, return the summary."""
    model, theta_star = config.model.build()
    spec = config.training
    if spec.pca_k > model.dim:
        raise InputValidationError(
            f"training.pca_k ({spec.pca_k}) must not exceed model.dim ({model.dim})"
        )
    rng = RngState(config.seed)

    pool, trace = simulate_drift_training_data(model, theta_star, spec, rng.derive(0))
    n_total = len(pool)
    n_hold = int(round(spec.holdout_fraction * n_total))
    perm = rng.derive(1).generator().permutation(n_total)
    hold_idx = np.sort(perm[:n_hold])
    train_idx = np.sort(perm[n_hold:])
    train_points, train_labels = pool.points[train_idx], pool.labels[train_idx]
    hold_points, hold_labels = pool.points[hold_idx], pool.labels[hold_idx]

    k = spec.pca_k if spec.pca_k > 0 else min(model.dim, 8)
    pca = fit_pca(train_points, k)
    train_ds = LabeledDataset(train_points, train_labels, pca.transform(train_points))
    theta_est, theta_good = anchors_from_dataset(model, train_ds)
    train_config = TrainConfig(
        theta_good=theta_good,
        metric=LyapunovMetric.identity(model.dim),
        e_est=theta_est.theta - theta_good.theta,
        c_fn=config.contraction,
        training=spec,
    )
    params, log = train_filter(train_ds, train_config, rng.derive(2))
    final = log[-1] if log else loss_gradient(params, train_ds, train_config)[0]

    weights = forward_batch(params, train_ds.features)
    theta_new = expfam.weighted_estimate(model, train_points, weights)
    v_new = train_config.metric.value(theta_new.theta - theta_good.theta)
    threshold = train_config.threshold
    certificate = bool(v_new <= threshold)

    if n_hold > 0:
        hold_pred = forward_batch(params, pca.transform(hold_points)) >= 0.5
        holdout_accuracy = float((hold_pred == (hold_labels == 1)).mean())
    else:
        holdout_accuracy = None

    # every number bound for the log, checkpoint or summary, checked before any is written
    written = (final, v_new, threshold, trace[-1], theta_good.theta, train_config.e_est, pca.mean,
               pca.scale, pca.projection, pca.explained_variance_ratio, params.w1, params.b1,
               params.w2, params.b2)
    if not all(np.isfinite(value).all() for value in written):
        raise SimulationOverflowError(
            spec.epochs, "training left a value beyond the float range; nothing was written"
        )
    paths["training_log"] = os.path.join(config.out_dir, "training_log.csv")
    paths["checkpoint"] = os.path.join(config.out_dir, "checkpoint.json")
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
        "checkpoint": paths["checkpoint"],
    }
    losses = np.array(log, dtype=float).reshape(-1, len(final)).T
    row = "%d" + ",%.12g" * len(losses) + "\n"
    text = _format_rows(row, [np.arange(1, len(log) + 1), *losses])
    atomic_write_text(paths["training_log"], chain([f"{TRAINING_LOG_HEADER}\n"], text))
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
    save_filter_checkpoint(paths["checkpoint"], params, pca, meta)
    return summary


# a table scenario's runner returns its results table and its summary
_TABLE_RUNNERS = {
    "dynamics": _run_dynamics,
    "workflow": _run_workflow,
    "workflow-filtered": _run_workflow,
    "rates": _run_rates,
    "concentration": _run_concentration,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run a validated config's scenario, write its artifacts, return the table + summary."""
    chash = config_hash(config)
    paths: dict[str, str] = {}
    if config.scenario == "train-filter":
        table, summary = None, _run_train_filter(config, chash, paths)
    else:
        table, summary = _TABLE_RUNNERS[config.scenario](config, chash)
        paths["results"] = os.path.join(config.out_dir, "results.csv")
        write_results_csv(table, paths["results"])
    paths["summary"] = os.path.join(config.out_dir, "summary.json")
    write_summary(summary, paths["summary"])
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

    Every MSE must be finite and nonnegative (-0.0 passes). The ratio is 1
    where both are 0 and +inf where only the treatment's is or the quotient
    overflows (None as the summary's final ratio). The trend is the
    least-squares slope of the finite ratios, exactly 0 when they are all
    equal.
    """
    if len(baseline) == 0 or len(treatment) == 0:
        raise InputValidationError("both result tables must be nonempty")
    if len(baseline) != len(treatment):
        raise InputValidationError("result tables differ in row count")
    t, b, tr = baseline["t"], baseline["mse"], treatment["mse"]
    off = np.flatnonzero(t != treatment["t"])
    if off.size:
        i = off[0]
        raise InputValidationError(f"step grids differ at t={t[i]} vs t={treatment['t'][i]}")
    for label, mse in (("baseline", b), ("treatment", tr)):
        bad = np.flatnonzero(~np.isfinite(mse) | (mse < 0.0))
        if bad.size:
            i = bad[0]
            rule = "nonnegative" if np.isfinite(mse[i]) else "finite"
            raise InputValidationError(f"{label} mse must be {rule}, got {_fmt(mse[i])} at t={t[i]}")
    with np.errstate(all="ignore"):
        ratios = np.divide(b, tr, out=np.where(b == 0.0, 1.0, np.inf), where=tr != 0.0)
    table = CompareTable(t, b, tr, ratios)

    finite = np.isfinite(ratios)
    ts, kept = (t, ratios) if finite.all() else (t[finite], ratios[finite])
    if kept.size < 2:
        trend = None
    elif np.all(kept == kept[0]):
        trend = 0.0  # a least-squares fit leaves rounding noise of either sign on a flat series
    else:
        trend = _slope(ts, kept)
    summary = {
        "steps": len(ratios),
        "final_ratio": float(ratios[-1]) if np.isfinite(ratios[-1]) else None,
        "ratio_trend_slope": trend,
        "trend_increasing": bool(trend is not None and trend > 0.0),
        "baseline_final_mse": float(b[-1]),
        "treatment_final_mse": float(tr[-1]),
    }
    return table, summary


def write_compare_csv(table: CompareTable, path) -> None:
    columns = [table.t, table.baseline_mse, table.treatment_mse, table.ratio]
    text = _format_rows("%d,%.12g,%.12g,%.12g\n", columns)
    atomic_write_text(path, chain([f"{COMPARE_HEADER}\n"], text))


# ---------------------------------------------------------------------------
# Plotting (deterministic SVG, no display server)
# ---------------------------------------------------------------------------

PLOT_KINDS = ("linear", "semilogy", "loglog")
PLOT_COLUMNS = RESULT_COLUMNS[2:]  # mse, mean_V and the exceed columns

_SVG_W, _SVG_H, _SVG_M = 640.0, 480.0, 56.0


def emit_plot(table: ResultTable, kind: str, path, column: str = "mse") -> None:
    """Render one polyline (a vertex per row; loglog skips t=0) with min/max axis labels as SVG."""
    if kind not in PLOT_KINDS:
        raise InputValidationError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    if len(table) == 0:
        raise InputValidationError("cannot plot an empty result table")
    if column not in PLOT_COLUMNS:
        raise InputValidationError(f"unknown plot column {column!r}; expected one of {PLOT_COLUMNS}")
    xs, ys = table["t"].astype(float), table[column]
    if kind == "loglog":  # log10(t) has no point at t=0
        xs, ys = xs[xs > 0.0], ys[xs > 0.0]
        if xs.size == 0:
            raise InputValidationError("loglog needs a row with t > 0")
    if not np.all(np.isfinite(ys)):
        raise InputValidationError("plot values must be finite")
    if kind in ("semilogy", "loglog") and np.any(ys <= 0.0):
        raise InputValidationError(f"{kind} requires positive {column} values")

    px = np.log10(xs) if kind == "loglog" else xs
    py = np.log10(ys) if kind in ("semilogy", "loglog") else ys

    def scaled(v: np.ndarray, name: str, a: float, b: float) -> np.ndarray:
        lo, hi = float(v.min()), float(v.max())
        if hi == lo:
            return np.full(v.shape, 0.5 * (a + b))
        if not math.isfinite(hi - lo):
            raise InputValidationError(
                f"cannot plot {name}: its range from {_fmt(lo)} to {_fmt(hi)} overflows"
            )
        return a + (v - lo) / (hi - lo) * (b - a)

    sx = scaled(px, "t", _SVG_M, _SVG_W - _SVG_M)
    sy = scaled(py, column, _SVG_H - _SVG_M, _SVG_M)

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
    first = "%.3f,%.3f" % (sx[0], sy[0])
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W:.0f}" '
        f'height="{_SVG_H:.0f}" viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">\n'
        f'<rect width="{_SVG_W:.0f}" height="{_SVG_H:.0f}" fill="#ffffff"/>\n'
        f"{frame}\n{labels}\n"
        f'<polyline fill="none" stroke="#1f6feb" stroke-width="1.5" points="{first}'
    )
    points = _format_rows(" %.3f,%.3f", [sx[1:], sy[1:]])  # a space before each later vertex
    atomic_write_text(path, chain([head], points, ['"/>\n</svg>\n']))


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
        checks += [
            _at_most("dynamics-final-exceedance-0.2", summary["exceedance_final"][_fmt(0.2)],
                     0.05, "terminal exceedance fraction at delta=0.2"),
            _at_most("dynamics-exceedance-monotone", summary["max_exceedance_rise_after_burn_in"],
                     0.02, "largest block-mean exceedance increase after burn-in"),
        ]
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
    if ratio is None:  # compare_runs writes +inf, its only non-finite ratio, as null
        ratio = math.inf
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
