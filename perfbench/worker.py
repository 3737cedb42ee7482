"""One workload process: set up, run timed passes of CLI calls, report as JSON.

Started by ``run.py`` with ``COLLAPSEGUARD_WORKERS=1`` and
``OPENBLAS_NUM_THREADS=1``. Each pass makes the workload's CLI calls one
after another through ``collapseguard.cli.main(argv)`` in this process
(a closed loop with one caller). The core's speed is sampled during set-up
and during each untraced pass, to rescale their times to nominal speed (see
``reference.py``). With ``--trace 1`` the first half of the time budget runs
untraced passes and the second half traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import layers
import reference
import spans
import workloads

MIN_PASSES = 2


@dataclass
class OpOutcome:
    """What one CLI call did; ``exit_code`` is None when ``main`` raised."""

    op: str
    exit_code: int | None
    fail_lines: list[str]
    digest: str | None


def failure_reasons(passes: list[list[OpOutcome]]) -> list[list[str]]:
    """Why each call failed, per pass and op; an empty list means it passed.

    A call fails on a nonzero or missing exit code, on any ``FAIL`` check
    line, on a missing artifact, or when its artifact differs byte for byte
    from the same call in the first pass that produced one.
    """
    reference: dict[str, str] = {}
    for outcomes in passes:
        for o in outcomes:
            if o.digest is not None:
                reference.setdefault(o.op, o.digest)
    reasons = []
    for k, outcomes in enumerate(passes):
        row = []
        for o in outcomes:
            why = []
            if o.exit_code != 0:
                why.append(f"exit code {o.exit_code}")
            why.extend(o.fail_lines)
            if o.digest is None:
                why.append("artifact missing")
            elif o.digest != reference[o.op]:
                why.append(f"artifact differs from the first pass (pass {k})")
            row.append(why)
        reasons.append(row)
    return reasons


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _file_stats(workdir: Path, workload: workloads.Workload) -> dict:
    """Rows and bytes the pass wrote under out/, and bytes its calls read."""
    rows = written = 0
    for path in sorted((workdir / "out").rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            written += len(data)
            if path.suffix == ".csv":
                rows += max(data.count(b"\n") - 1, 0)
    read = sum((workdir / f).stat().st_size for op in workload.ops for f in op.reads)
    return {"rows_written": rows, "bytes_written": written, "bytes_read": read}


def run_pass(cli, workload, workdir: Path, recorder=None):
    """Run every call of the workload once; return (wall_s, rescaled_s, outcomes, file stats).

    Untraced, the core's speed is sampled during the pass: ``wall_s`` is the
    pass's wall time less the probes' and ``rescaled_s`` that time at nominal
    speed. Traced, the pass is one root span, ``wall_s`` its length and
    ``rescaled_s`` None: probes inside the spans would add to their times.
    """
    shutil.rmtree(workdir / "out", ignore_errors=True)
    results = []

    def calls():
        for op in workload.ops:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op.argv))
            except Exception:  # a crash is one failed call, the pass goes on
                code = None
                err.write(traceback.format_exc())
            results.append((op, code, out.getvalue(), err.getvalue()))

    if recorder is None:
        with reference.SpeedSampler() as sampler:
            start = time.perf_counter()
            calls()
            wall_s = time.perf_counter() - start
        rescaled_s = sampler.rescaled(wall_s)
        wall_s -= sampler.probe_s
    else:
        recorder.call("bench.pass", calls)
        root = recorder.spans[-1]
        wall_s, rescaled_s = root[4] - root[3], None

    outcomes = []
    for op, code, out, err in results:
        if code != 0 and err:
            sys.stderr.write(f"perfbench: {workload.name}/{op.name} exit {code}\n{err}")
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        outcomes.append(OpOutcome(op.name, code, fails, _digest(workdir / op.artifact)))
    return wall_s, rescaled_s, outcomes, _file_stats(workdir, workload)


def _passes(budget_s: float, minimum: int):
    """Yield pass indexes: at least ``minimum``, then while one more fits in ``budget_s``.

    Whether a pass fits is judged from the mean length of the passes so far.
    """
    start = time.perf_counter()
    k = 0
    while k < minimum or (time.perf_counter() - start) * (k + 1) / k <= budget_s:
        yield k
        k += 1


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "COLLAPSEGUARD_WORKERS": os.environ.get("COLLAPSEGUARD_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def setup(root: Path, workload: workloads.Workload, workdir: Path):
    """Import the checkout's collapseguard.cli and write the workload's configs."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import collapseguard.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's src/")
    for rel, data in workloads.config_files(workload).items():
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return cli


def traced_metrics(cli, workload, workdir: Path, budget_s: float, spans_path: Path):
    """Traced passes: per-layer metrics of the median pass, whose spans are written out.

    Returns the wall time and the outcomes of every traced pass, and the
    per-layer values.
    """
    passes = []
    for _ in _passes(budget_s, 1):
        recorder = spans.SpanRecorder()
        with layers.installed(recorder):
            wall_s, _, outcomes, files = run_pass(cli, workload, workdir, recorder)
        passes.append((wall_s, outcomes, files, recorder))
    ordered = sorted(passes, key=lambda p: p[0])
    wall_s, _, files, recorder = ordered[(len(ordered) - 1) // 2]
    summary = spans.summarize(recorder.spans)
    values = layers.layer_values(summary, recorder.counters, files)
    values["trace.run_s"] = wall_s
    values["trace.self_sum_s"] = sum(entry["self"] for entry in summary.values())
    spans.write_spans(recorder.spans, spans_path, origin=recorder.spans[-1][3])
    return [p[0] for p in passes], [p[1] for p in passes], values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with reference.SpeedSampler() as sampler:
        workload = workloads.build(args.workload, args.seed)
        cli = setup(args.root, workload, args.workdir)
        ready = time.monotonic()
    # run.py rescales the set-up time with the probes made during it
    report = {"ready_monotonic": ready, "setup_probe_s": sampler.probe_s,
              "setup_samples": sampler.samples}
    if not args.setup_only:
        os.chdir(args.workdir)
        workdir = Path(".")
        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        walls, times, outcomes = [], [], []
        for _ in _passes(untraced_budget, 1 if args.trace else MIN_PASSES):
            wall_s, rescaled_s, pass_outcomes, _ = run_pass(cli, workload, workdir)
            walls.append(wall_s)
            times.append(rescaled_s)
            outcomes.append(pass_outcomes)
        report.update(
            environment=environment(args.root, args.seed),
            workload=asdict(workload),
            wall_s=walls,
            run_s=times,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if args.trace:
            spans_path = args.result.with_suffix(".spans.csv.gz")
            traced_times, traced_outcomes, values = traced_metrics(
                cli, workload, workdir, args.seconds / 2, spans_path
            )
            values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(walls)
            outcomes += traced_outcomes
            report.update(traced_run_s=traced_times, layers=values, spans=str(spans_path))
        report["outcomes"] = [[asdict(o) for o in row] for row in outcomes]
        report["failures"] = failure_reasons(outcomes)
    args.result.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
