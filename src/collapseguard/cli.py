"""Command-line entry point.

Each simulation subcommand reads an optional JSON config, applies flag
overrides, runs the matching scenario pipeline, and writes CSV/JSON
artifacts. ``compare`` and ``plot`` work on previously written results.
Exit codes: 0 success, 1 validation error, 2 acceptance-check failure,
3 runtime error. Seeds are always explicit; there is no clock fallback.
Worker count for Monte-Carlo trials comes from COLLAPSEGUARD_WORKERS.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dynamics import WORKERS_ENV_VAR
from .errors import CheckFailureError, CollapseGuardError, InputValidationError
from .experiments import (
    PLOT_COLUMNS,
    PLOT_KINDS,
    ExperimentConfig,
    compare_checks,
    compare_runs,
    emit_plot,
    ensure_checks_pass,
    read_results_csv,
    run_checks,
    run_experiment,
    write_compare_csv,
    write_summary,
)
from .filtering import read_json_object

_COMMAND_SCENARIOS = {
    "simulate-dynamics": ("dynamics",),
    "simulate-workflow": ("workflow", "workflow-filtered"),
    "train-filter": ("train-filter",),
    "verify-rates": ("rates",),
    "measure-concentration": ("concentration",),
}


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as validation errors (exit code 1)."""

    def error(self, message):
        raise InputValidationError(message)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON experiment config")
    sub.add_argument("--seed", type=int, metavar="U64", help="explicit base seed")
    sub.add_argument("--trials", type=int, metavar="N", help="override trial count")
    sub.add_argument("--out", metavar="DIR", help="override output directory")
    sub.add_argument(
        "--check", action="store_true", help="run the scenario's acceptance checks"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="collapseguard",
        description=(
            "Simulation and verification toolkit for contraction-regulated "
            "recursive training loops."
        ),
        epilog=f"Set {WORKERS_ENV_VAR} to parallelize Monte-Carlo trials.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for command in _COMMAND_SCENARIOS:
        sub = subs.add_parser(command, help=f"run the {_COMMAND_SCENARIOS[command][0]} scenario")
        _add_run_flags(sub)

    comp = subs.add_parser("compare", help="ratio table of two results.csv files")
    comp.add_argument("--baseline", required=True, metavar="PATH")
    comp.add_argument("--treatment", required=True, metavar="PATH")
    comp.add_argument("--out", default=".", metavar="DIR")
    comp.add_argument("--check", action="store_true")

    plot = subs.add_parser("plot", help="render a results.csv column as SVG")
    plot.add_argument("--input", required=True, metavar="PATH")
    plot.add_argument("--kind", default="linear", choices=PLOT_KINDS)
    plot.add_argument("--column", default="mse", choices=PLOT_COLUMNS)
    plot.add_argument("--out", required=True, metavar="FILE")

    return parser


def _resolve_scenario(command: str, raw: dict) -> str:
    allowed = _COMMAND_SCENARIOS[command]
    declared = raw.get("scenario")
    if declared is None:
        if command == "simulate-workflow":
            section = raw.get("filter")
            # a non-mapping section is left for the config parser to reject by name
            filter_kind = section.get("kind", "none") if isinstance(section, dict) else "none"
            return "workflow" if filter_kind == "none" else "workflow-filtered"
        return allowed[0]
    if declared not in allowed:
        raise InputValidationError(
            f"config scenario {declared!r} does not match subcommand {command}"
            f" (expected one of {', '.join(allowed)})"
        )
    return declared


def _run_scenario_command(args) -> int:
    raw = read_json_object(args.config, "config") if args.config is not None else {}
    raw["scenario"] = _resolve_scenario(args.command, raw)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
        if args.command == "measure-concentration":
            section = raw.get("concentration")
            if section is None or isinstance(section, dict):
                raw["concentration"] = {**(section or {}), "trials": args.trials}
    if args.out is not None:
        raw["out_dir"] = args.out

    config = ExperimentConfig.from_dict(raw)
    result = run_experiment(config)
    for label in sorted(result.paths):
        print(f"wrote {result.paths[label]}")

    if args.check:
        checks = run_checks(config, result.summary)
        if not checks:
            print("no acceptance checks apply to this configuration")
        for check in checks:
            print(check.line())
        ensure_checks_pass(checks)
    return 0


def _run_compare(args) -> int:
    # compare reads only the steps and the MSE of each table
    baseline = read_results_csv(args.baseline, keep=("t", "mse"))
    treatment = read_results_csv(args.treatment, keep=("t", "mse"))
    table, summary = compare_runs(baseline, treatment)
    csv_path = os.path.join(args.out, "compare.csv")
    write_compare_csv(table, csv_path)
    summary_path = os.path.join(args.out, "compare_summary.json")
    write_summary(summary, summary_path)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    if args.check:
        checks = compare_checks(summary)
        for check in checks:
            print(check.line())
        ensure_checks_pass(checks)
    return 0


def _run_plot(args) -> int:
    table = read_results_csv(args.input, keep=("t", args.column))
    emit_plot(table, args.kind, args.out, column=args.column)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "compare":
            return _run_compare(args)
        if args.command == "plot":
            return _run_plot(args)
        return _run_scenario_command(args)
    except InputValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailureError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (CollapseGuardError, OSError, MemoryError) as exc:
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
