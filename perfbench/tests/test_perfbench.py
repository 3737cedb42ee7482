"""Tests of the benchmark's own arithmetic, correctness gate and generators.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import gzip
import json
from collections import Counter
from pathlib import Path

import pytest

import layers
import reference
import spans
import workloads
from worker import OpOutcome, failure_reasons

ROOT = Path(__file__).resolve().parents[2]


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 2, "leaf", 1.5, 2.5),
        (4, 2, "leaf", 3.0, 3.5),
        (5, 1, "b", 6.0, 9.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({1: 4.0, 2: 1.5, 3: 1.0, 4: 0.5, 5: 3.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        (1, 0, "p", 0.0, 10.0),
        (2, 1, "c", 2.0, 6.0),
        (3, 1, "c", 4.0, 8.0),  # overlaps the previous child
        (4, 1, "c", 9.0, 12.0),  # runs past its parent
    ]
    assert spans.self_times(tree)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_takes_busy_time_as_the_union_of_same_name_spans():
    tree = [
        (1, 0, "f", 0.0, 5.0),
        (2, 1, "f", 1.0, 2.0),  # recursion must not count [1, 2] twice
        (3, 0, "g", 6.0, 7.0),
    ]
    summary = spans.summarize(tree)
    assert summary["f"] == pytest.approx({"calls": 2, "busy": 5.0, "self": 5.0})
    assert summary["g"] == pytest.approx({"calls": 1, "busy": 1.0, "self": 1.0})


def test_recorder_nests_spans_and_records_a_call_that_raises():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    def boom():
        raise ValueError("x")

    inner = rec.wrap(lambda: None, "inner")
    failing = rec.wrap(boom, "failing")

    def outer():
        inner()
        with pytest.raises(ValueError):
            failing()

    rec.call("outer", outer)
    by_name = {s[2]: s for s in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["failing"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == 0
    selfs = spans.self_times(rec.spans)
    total = by_name["outer"][4] - by_name["outer"][3]
    assert sum(selfs.values()) == pytest.approx(total)


def test_write_spans_round_trips(tmp_path):
    path = tmp_path / "s.csv.gz"
    spans.write_spans([(1, 0, "root", 10.0, 10.5)], path, origin=10.0)
    lines = gzip.open(path, "rt").read().splitlines()
    assert lines == ["call_id,parent_id,name,start_s,end_s", "1,0,root,0.0,0.5"]


# -- speed rescaling ---------------------------------------------------------


def test_rescaled_takes_out_probe_time_and_divides_by_the_median_slowdown():
    slow = 2 * reference.NOMINAL_S
    samples = [slow, slow, 50 * slow]  # one probe delayed by a long call
    assert reference.rescaled(1.0, 0.1, samples) == pytest.approx(0.45)
    with pytest.raises(ValueError):
        reference.rescaled(1.0, 0.0, [])


def test_sampler_probes_while_work_runs_and_restores_the_signal():
    import signal
    import time

    with reference.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.probe_s >= sum(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- correctness gate --------------------------------------------------------


def _ok(op, digest="d0"):
    return OpOutcome(op, 0, [], digest)


def _failed_count(passes):
    return sum(1 for row in failure_reasons(passes) for why in row if why)


def test_gate_counts_nothing_when_every_call_repeats_cleanly():
    passes = [[_ok("a"), _ok("b", "d1")], [_ok("a"), _ok("b", "d1")]]
    assert _failed_count(passes) == 0


def test_gate_counts_a_nonzero_exit():
    passes = [[_ok("a")], [OpOutcome("a", 3, [], "d0")]]
    assert failure_reasons(passes) == [[[]], [["exit code 3"]]]


def test_gate_counts_a_crash_and_a_missing_artifact():
    reasons = failure_reasons([[_ok("a")], [OpOutcome("a", None, [], None)]])
    assert reasons[1][0] == ["exit code None", "artifact missing"]


def test_gate_counts_a_fail_line_even_with_exit_code_zero():
    line = "FAIL workflow-final-mse: measured=2 threshold=0.15"
    passes = [[OpOutcome("a", 0, [line], "d0")]]
    assert failure_reasons(passes) == [[[line]]]


def test_gate_counts_a_digest_mismatch_against_the_first_pass():
    passes = [[_ok("a"), _ok("b")], [_ok("a"), _ok("b", "other")], [_ok("a"), _ok("b")]]
    assert _failed_count(passes) == 1
    assert failure_reasons(passes)[1][1] == ["artifact differs from the first pass (pass 1)"]


# -- workload generator ------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_configs_are_a_pure_function_of_the_seed(name):
    first = workloads.config_files(workloads.build(name, 5))
    again = workloads.config_files(workloads.build(name, 5))
    other = workloads.config_files(workloads.build(name, 6))
    assert first == again
    assert first.keys() == other.keys()
    for rel in first:
        a, b = json.loads(first[rel]), json.loads(other[rel])
        assert a["seed"] != b["seed"]
        a.pop("seed"), b.pop("seed")
        assert a == b, "the seed may change only the program's seeds"


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_call_reads_generated_configs_or_earlier_artifacts(name):
    workload = workloads.build(name, 1)
    available = set(workloads.config_files(workload))
    for op in workload.ops:
        assert set(op.reads) <= available, op.name
        available.add(op.artifact)
        config = op.argv[op.argv.index("--config") + 1] if "--config" in op.argv else None
        assert config is None or config in op.reads


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    for entry in bench["workloads"]:
        assert entry["why"] == workloads.build(entry["name"], 1).why
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.METRICS
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}


# -- per-layer wrapping ------------------------------------------------------


def test_layer_values_cover_every_non_trace_metric():
    files = {"rows_written": 1, "bytes_written": 2, "bytes_read": 3}
    values = layers.layer_values({}, Counter(), files)
    assert set(values) == {m for m in layers.METRICS if not m.startswith("trace.")}


def test_installed_wraps_every_target_and_restores_it(tmp_path, monkeypatch, capsys):
    import collapseguard.cli as cli
    import collapseguard.expfam as expfam

    original = expfam.sample
    config = tmp_path / "rates.json"
    config.write_text(json.dumps({"scenario": "rates", "seed": 1, "rates": {"steps": 50}}))
    monkeypatch.chdir(tmp_path)
    rec = spans.SpanRecorder()
    with layers.installed(rec):
        assert expfam.sample is not original
        code = cli.main(["verify-rates", "--config", str(config), "--out", "out", "--check"])
    assert code == 0
    assert expfam.sample is original
    assert "not traced" not in capsys.readouterr().err
    summary = spans.summarize(rec.spans)
    for name in ("cli", "experiments.parse", "experiments.run", "contraction.recurrence",
                 "experiments.csv_write", "experiments.checks"):
        assert summary[name]["calls"] >= 1, name
    assert rec.counters["contraction.recurrence.steps"] == 50
