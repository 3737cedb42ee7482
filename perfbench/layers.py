"""Where the traced run wraps collapseguard, and the per-layer metrics it reads.

Each wrap names the module object a call site looks the function up in: a
name imported with ``from .x import y`` is wrapped in the importing module,
methods on their class. Per-row helpers (``_fmt``, ``ResultRow``) are left
alone, because a wrapper around them would mostly measure itself.
"""

from __future__ import annotations

import contextlib
import importlib
import sys


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_draws(counters, args, kwargs, result):
    counters["expfam.draws"] += int(_arg(args, kwargs, 2, "n"))


def _count_updates(counters, args, kwargs, result):
    horizon, trials = _arg(args, kwargs, 3, "horizon"), _arg(args, kwargs, 4, "trials")
    counters["dynamics.trial_updates"] += int(trials) * (int(horizon) + 1)


def _count_steps(counters, args, kwargs, result):
    counters["contraction.recurrence.steps"] += int(_arg(args, kwargs, 3, "steps"))


def _count_reached(counters, args, kwargs, result):
    counters["filtering.pullback.reached"] += bool(result.target_reached)


_WEIGHT_KINDS = {"oracle-pullback": "oracle", "mlp": "mlp", "all-ones": "all-ones"}


def _weights_span(args) -> str:
    return "filtering.weights." + _WEIGHT_KINDS.get(args[0].kind, "other")


# (module, dotted attribute, span name, note)
WRAPS = (
    ("cli", "main", "cli", None),
    ("numerics", "RngState.derive", "numerics.derive", None),
    ("numerics", "sym_eig", "numerics.sym_eig", None),
    ("contraction", "sym_eig", "numerics.sym_eig", None),
    ("filtering", "sym_eig", "numerics.sym_eig", None),
    ("expfam", "sample", "expfam.sample", _count_draws),
    ("expfam", "estimate", "expfam.estimate", None),
    ("expfam", "weighted_estimate", "expfam.weighted_estimate", None),
    ("experiments", "run_workflow_trials", "dynamics.workflow", _count_updates),
    ("experiments", "run_dynamics_trials", "dynamics.kernel", _count_updates),
    ("dynamics", "aggregate_exceedance", "dynamics.aggregate", None),
    ("contraction", "ContractionMap.apply_batch", "contraction.apply_batch", None),
    ("contraction", "LyapunovMetric.values", "contraction.metric_values", None),
    ("experiments", "recurrence_simulate", "contraction.recurrence", _count_steps),
    ("experiments", "measure_concentration", "contraction.concentration", None),
    ("filtering", "FilterHandle.weights", _weights_span, None),
    ("filtering", "oracle_pullback_weights", "filtering.pullback", _count_reached),
    ("filtering", "forward_batch", "filtering.forward", None),
    ("experiments", "forward_batch", "filtering.forward", None),
    ("filtering", "PCATransform.transform", "filtering.pca_transform", None),
    ("experiments", "train_filter", "filtering.train", None),
    ("filtering", "loss_gradient", "filtering.loss_gradient", None),
    ("experiments", "save_filter_checkpoint", "filtering.checkpoint_io", None),
    ("experiments", "load_filter_checkpoint", "filtering.checkpoint_io", None),
    ("experiments", "ExperimentConfig.from_dict", "experiments.parse", None),
    ("cli", "run_checks", "experiments.checks", None),
    ("cli", "compare_checks", "experiments.checks", None),
    ("cli", "ensure_checks_pass", "experiments.checks", None),
    ("cli", "run_experiment", "experiments.run", None),
    ("experiments", "write_results_csv", "experiments.csv_write", None),
    ("cli", "write_compare_csv", "experiments.csv_write", None),
    ("cli", "read_results_csv", "experiments.csv_read", None),
    ("cli", "compare_runs", "experiments.compare", None),
    ("cli", "emit_plot", "experiments.plot", None),
)


@contextlib.contextmanager
def installed(recorder):
    """Wrap every target in ``WRAPS`` with ``recorder`` for the block's duration.

    A target missing from the program is reported on stderr and skipped, so
    its metrics read 0 rather than the run failing.
    """
    saved = []
    try:
        for module_name, dotted, span, note in WRAPS:
            owner = importlib.import_module(f"collapseguard.{module_name}")
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr) if path else getattr(owner, attr, None)
            if raw is None:
                print(f"perfbench: {module_name}.{dotted} not found; not traced", file=sys.stderr)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(raw.__func__, span, note))
            else:
                wrapped = recorder.wrap(raw, span, note)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
METRICS = {
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "numerics.rng_streams": ("count", "lower"),
    "numerics.sym_eig.calls": ("count", "lower"),
    "numerics.sym_eig.s": ("s", "lower"),
    "expfam.sample.calls": ("count", "lower"),
    "expfam.sample.s": ("s", "lower"),
    "expfam.draws": ("count", "lower"),
    "expfam.estimate.calls": ("count", "lower"),
    "expfam.estimate.s": ("s", "lower"),
    "expfam.weighted_estimate.calls": ("count", "lower"),
    "expfam.weighted_estimate.s": ("s", "lower"),
    "dynamics.workflow.s": ("s", "lower"),
    "dynamics.workflow.self_s": ("s", "lower"),
    "dynamics.kernel.s": ("s", "lower"),
    "dynamics.kernel.self_s": ("s", "lower"),
    "dynamics.aggregate.s": ("s", "lower"),
    "dynamics.trial_updates": ("count", "lower"),
    "dynamics.self_us_per_update": ("us", "lower"),
    "contraction.apply_batch.calls": ("count", "lower"),
    "contraction.apply_batch.s": ("s", "lower"),
    "contraction.metric_values.calls": ("count", "lower"),
    "contraction.metric_values.s": ("s", "lower"),
    "contraction.recurrence.steps": ("count", "lower"),
    "contraction.recurrence.s": ("s", "lower"),
    "contraction.concentration.calls": ("count", "lower"),
    "contraction.concentration.s": ("s", "lower"),
    "filtering.weights.calls": ("count", "lower"),
    "filtering.weights.oracle.s": ("s", "lower"),
    "filtering.weights.mlp.s": ("s", "lower"),
    "filtering.pullback.calls": ("count", "lower"),
    "filtering.pullback.target_reached_frac": ("fraction", "higher"),
    "filtering.forward.calls": ("count", "lower"),
    "filtering.forward.s": ("s", "lower"),
    "filtering.pca_transform.s": ("s", "lower"),
    "filtering.train.s": ("s", "lower"),
    "filtering.loss_gradient.calls": ("count", "lower"),
    "filtering.loss_gradient.s": ("s", "lower"),
    "filtering.checkpoint_io.s": ("s", "lower"),
    "experiments.parse.s": ("s", "lower"),
    "experiments.checks.s": ("s", "lower"),
    "experiments.run.self_s": ("s", "lower"),
    "experiments.csv_write.s": ("s", "lower"),
    "experiments.csv_read.s": ("s", "lower"),
    "experiments.compare.s": ("s", "lower"),
    "experiments.plot.s": ("s", "lower"),
    "experiments.rows_written": ("rows", "lower"),
    "experiments.bytes_written": ("bytes", "lower"),
    "experiments.bytes_read": ("bytes", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_values(summary: dict, counters, files: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass, except the ``trace.*`` ones.

    ``summary`` comes from ``spans.summarize``; ``files`` holds the
    ``rows_written``, ``bytes_written`` and ``bytes_read`` of the pass.
    """

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    values = {}
    for metric in METRICS:
        if metric.startswith("trace."):
            continue
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = get(layer, "calls")
        elif kind == "s":
            values[metric] = get(layer, "busy")
        elif kind == "self_s":
            values[metric] = get(layer, "self")
    weights = [n for n in summary if n.startswith("filtering.weights.")]
    updates = counters["dynamics.trial_updates"]
    loop_self = get("dynamics.workflow", "self") + get("dynamics.kernel", "self")
    pullbacks = get("filtering.pullback", "calls")
    values.update(
        {
            "numerics.rng_streams": get("numerics.derive", "calls"),
            "expfam.draws": counters["expfam.draws"],
            "dynamics.trial_updates": updates,
            "dynamics.self_us_per_update": 1e6 * loop_self / updates if updates else 0.0,
            "contraction.recurrence.steps": counters["contraction.recurrence.steps"],
            "filtering.weights.calls": sum(get(n, "calls") for n in weights),
            "filtering.pullback.target_reached_frac": (
                counters["filtering.pullback.reached"] / pullbacks if pullbacks else 0.0
            ),
            "experiments.rows_written": files["rows_written"],
            "experiments.bytes_written": files["bytes_written"],
            "experiments.bytes_read": files["bytes_read"],
        }
    )
    return values
