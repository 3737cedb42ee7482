"""The benchmark's workloads: generated configs and the CLI calls of one pass.

Every config is a pure function of ``(workload, seed)``; the program sees
only the config files and argv. All paths are relative to the workload's
working directory, so the config hashes and artifact bytes do not depend on
where the checkout lives. Sizes are fixed per workload; the seed changes
only the program's random streams.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 1  # fixed before any run was made, not chosen from check outcomes


@dataclass(frozen=True)
class Op:
    """One CLI call of a pass."""

    name: str
    argv: tuple[str, ...]
    artifact: str  # file whose bytes must repeat across runs of one seed
    reads: tuple[str, ...]  # files the call reads, for bytes_read


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict[str, dict]  # file name under configs/ -> config object
    ops: tuple[Op, ...]


def program_seed(workload: str, label: str, seed: int) -> int:
    """A 63-bit program seed drawn from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{label}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _scenario(command: str, label: str, check: bool, reads: tuple[str, ...] = ()) -> Op:
    config = f"configs/{label}.json"
    argv = (command, "--config", config, "--out", f"out/{label}")
    return Op(
        label, argv + (("--check",) if check else ()), f"out/{label}/results.csv", (config,) + reads
    )


def _compare(label: str, baseline: str, treatment: str, check: bool) -> Op:
    inputs = (f"out/{baseline}/results.csv", f"out/{treatment}/results.csv")
    argv = ("compare", "--baseline", inputs[0], "--treatment", inputs[1], "--out", f"out/{label}")
    return Op(label, argv + (("--check",) if check else ()), f"out/{label}/compare.csv", inputs)


def _collapse(seed: int) -> Workload:
    # criterion 01 at 2000 trials x 60 generations: both 15 % checks then sit
    # more than 4 standard deviations from failing at any seed
    config = {
        "scenario": "workflow",
        "seed": program_seed("collapse", "collapse", seed),
        "model": {"family": "gaussian-mean-known-cov", "dim": 1},
        "schedule": {"kind": "constant", "base": 100},
        "horizon": 60,
        "trials": 2000,
    }
    return Workload(
        "collapse",
        "isolates the per-(trial, generation) Python loop in dynamics: many small "
        "expfam.sample and expfam.estimate calls, no filtering, few CSV rows",
        {"collapse.json": config},
        (_scenario("simulate-workflow", "collapse", check=True),),
    )


def _prevention(seed: int) -> Workload:
    # criterion 07 pipeline with 16 trials per workflow; training keeps its defaults
    base = {
        "seed": program_seed("prevention", "workflows", seed),
        "model": {"family": "gaussian-mean-known-cov", "dim": 2},
        "schedule": {"kind": "constant", "base": 100},
        "horizon": 200,
        "trials": 16,
    }
    configs = {
        "train.json": {
            "scenario": "train-filter",
            "seed": program_seed("prevention", "train", seed),
            "model": {"family": "gaussian-mean-known-cov", "dim": 2},
        },
        "plain.json": {"scenario": "workflow", **base},
        "oracle.json": {
            "scenario": "workflow-filtered",
            "filter": {"kind": "oracle-pullback", "gamma": 0.5},
            **base,
        },
        "mlp.json": {
            "scenario": "workflow-filtered",
            "filter": {"kind": "mlp", "checkpoint": "out/train/checkpoint.json"},
            **base,
        },
    }
    train = Op(
        "train",
        ("train-filter", "--config", "configs/train.json", "--out", "out/train"),
        "out/train/checkpoint.json",
        ("configs/train.json",),
    )
    return Workload(
        "prevention",
        "filtering does most of the work: FilterHandle.weights per generation, "
        "Adam training and the oracle pullback solve",
        configs,
        (
            train,
            _scenario("simulate-workflow", "plain", check=False),
            _scenario("simulate-workflow", "oracle", check=False),
            _scenario("simulate-workflow", "mlp", check=False, reads=("out/train/checkpoint.json",)),
            _compare("compare", "plain", "oracle", check=True),
        ),
    )


def _regulated(seed: int) -> Workload:
    # criterion 02 at full size
    config = {
        "scenario": "dynamics",
        "seed": program_seed("regulated", "regulated", seed),
        "model": {"family": "gaussian-mean-known-cov", "dim": 1},
        "contraction": {"kind": "example-sqrt"},
        "noise": {"kind": "power-law", "beta": 1.0, "scale": 1.0},
        "horizon": 10000,
        "trials": 1000,
    }
    return Workload(
        "regulated",
        "exercises the trial-batched dynamics kernel through ContractionMap.apply_batch "
        "and LyapunovMetric.values, with no expfam and no filtering",
        {"regulated.json": config},
        (_scenario("simulate-dynamics", "regulated", check=True),),
    )


def _theory_tables(seed: int) -> Workload:
    # criterion 03 tables at 1e5 steps and criterion 09 at 20000 trials, which
    # puts the 0.002 Gaussian-tail tolerance over 5 standard deviations out
    def rates(p: float, beta: float) -> dict:
        return {
            "scenario": "rates",
            "seed": program_seed("theory-tables", f"rates-p{p:g}-b{beta:g}", seed),
            "rates": {"kind": "power-law", "p": p, "noise_kind": "power-law",
                      "noise_beta": beta, "steps": 100000},
        }

    configs = {
        "rates-p2-b1.json": rates(2.0, 1.0),
        "rates-p3-b3.json": rates(3.0, 3.0),
        "concentration.json": {
            "scenario": "concentration",
            "seed": program_seed("theory-tables", "concentration", seed),
            "model": {"family": "gaussian-mean-known-cov", "dim": 1},
            "concentration": {"sizes": [1, 10, 100, 1000], "delta": 3.0, "trials": 20000},
        },
    }
    plot = Op(
        "plot",
        ("plot", "--input", "out/rates-p2-b1/results.csv", "--kind", "semilogy",
         "--out", "out/plot/rates-p2-b1.svg"),
        "out/plot/rates-p2-b1.svg",
        ("out/rates-p2-b1/results.csv",),
    )
    return Workload(
        "theory-tables",
        "the only workload writing and reading 1e5-row tables, so CSV write, CSV read, "
        "compare, plot and measure_concentration are measured",
        configs,
        (
            _scenario("verify-rates", "rates-p2-b1", check=True),
            _scenario("verify-rates", "rates-p3-b3", check=True),
            _compare("compare", "rates-p2-b1", "rates-p3-b3", check=False),
            plot,
            _scenario("measure-concentration", "concentration", check=True),
        ),
    )


BUILDERS = {
    "collapse": _collapse,
    "prevention": _prevention,
    "regulated": _regulated,
    "theory-tables": _theory_tables,
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def config_files(workload: Workload) -> dict[str, bytes]:
    """Config file bytes keyed by path relative to the working directory."""
    return {
        f"configs/{name}": (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()
        for name, cfg in sorted(workload.configs.items())
    }
