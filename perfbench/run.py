"""collapseguard benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` of the checkout
holding this file. Every run starts fresh processes with
``COLLAPSEGUARD_WORKERS=1`` and ``OPENBLAS_NUM_THREADS=1``: a few that only
set up (for ``setup_s``), then one workload process that runs timed passes
(see ``worker.py``), all on one core. ``run_s`` and ``setup_s`` are wall
times rescaled to nominal CPU speed by probes of the core's speed made while
they run (see ``reference.py``); the raw wall times are printed beside them.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass. Reports and spans are kept under ``.perfbench/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6  # setup-only processes per run, besides the workload process
DEADLINE_S = 170.0  # every process of one run must have ended by then
SELF_SUM_TOLERANCE = 0.01
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["COLLAPSEGUARD_WORKERS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _spawn(argv: list[str], result: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker process; return (its rescaled set-up time, its JSON report)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv, "--result", str(result)],
            env=_child_env(),
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish before the deadline: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    report = json.loads(result.read_text())
    setup_s = reference.rescaled(
        report["ready_monotonic"] - started, report["setup_probe_s"], report["setup_samples"]
    )
    return setup_s, report


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    out_dir = root / ".perfbench"
    tag = f"{name}-seed{seed}-trace{trace}"
    workdir = out_dir / "work" / f"{tag}-{os.getpid()}"
    common = ["--root", str(root), "--workload", name, "--seed", str(seed),
              "--seconds", repr(float(seconds)), "--trace", str(trace), "--workdir", str(workdir)]
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setups = []
        for k in range(SETUP_PROBES):
            probe = out_dir / "work" / f"{tag}-{os.getpid()}-setup{k}.json"
            setup_s, _ = _spawn(common + ["--setup-only"], probe, deadline)
            setups.append(setup_s)
            probe.unlink()
        setup_s, report = _spawn(common, out_dir / f"{tag}.json", deadline)
        setups.append(setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = report["failures"]
    attempted = sum(len(row) for row in failures)
    failed = sum(1 for row in failures for why in row if why)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(report["run_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    correct = failed == 0
    if trace:
        traced, total = report["layers"]["trace.run_s"], report["layers"]["trace.self_sum_s"]
        correct = correct and abs(total - traced) <= SELF_SUM_TOLERANCE * traced
    return {
        "name": name,
        "report": report,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": metrics,
    }


def _print_details(res: dict) -> None:
    report, name = res["report"], res["name"]
    spec = report["workload"]
    print(f"perfbench env {json.dumps(report['environment'], sort_keys=True)}")
    print(f"perfbench why {name}: {spec['why']}")
    first = report["outcomes"][0]
    for op, outcome in zip(spec["ops"], first):
        print(f"perfbench sha256 {name}/{op['name']} {op['artifact']} {outcome['digest']}")
    for k, row in enumerate(report["failures"]):
        for op, why in zip(spec["ops"], row):
            if why:
                print(f"perfbench fail {name}/{op['name']} pass {k}: {'; '.join(why)}")
    print(f"perfbench passes {name} run_s={report['run_s']} wall_s={report['wall_s']} "
          f"setups={res['setups']}")
    for metric, value in res["metrics"].items():
        print(f"perfbench metric {name} {metric} {value} {END_TO_END_UNITS[metric]}")
    rate = res["failed"] / res["attempted"]
    print(f"perfbench metric {name} error_rate {rate} ({res['failed']} of {res['attempted']} calls failed)")
    if "layers" in report:
        for metric, (unit, _) in layers.METRICS.items():
            print(f"perfbench layer {name} {metric} {report['layers'][metric]} {unit}")
        print(f"perfbench spans {report['spans']}")


def _result_line(res: dict, trace: int) -> str:
    if trace:
        values = res["report"]["layers"]
        metrics = {m: {"value": values[m], "unit": layers.METRICS[m][0]} for m in layers.METRICS}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in res["metrics"].items()}
    return json.dumps(
        {"correct": res["correct"], "attempted": res["attempted"],
         "failed": res["failed"], "metrics": metrics}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "collapseguard" / "cli.py").is_file():
        print(f"perfbench: no collapseguard sources under {root / 'src'}", file=sys.stderr)
        return 2
    # one core for this process and the workers it starts, so that set-up and
    # passes run where their probes measured the speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(root, name, args.seed, args.seconds, args.trace, deadline))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for res in results:
        _print_details(res)
    if len(results) == 1:
        print(_result_line(results[0], args.trace))
        return 0
    print(f"{'workload':<14} {'setup_s (s)':>12} {'run_s (s)':>10} {'peak_rss_mb (MB)':>17}  error_rate")
    for res in results:
        m = res["metrics"]
        rate = res["failed"] / res["attempted"]
        print(f"{res['name']:<14} {m['setup_s']:>12.4f} {m['run_s']:>10.4f} "
              f"{m['peak_rss_mb']:>17.1f}  {rate:g} ({res['failed']}/{res['attempted']} calls)")
    return 0 if all(res["correct"] for res in results) else 1


if __name__ == "__main__":
    sys.exit(main())
