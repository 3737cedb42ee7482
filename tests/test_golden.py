"""Byte-level pins of a small CLI pipeline's artifacts.

Two rates tables, their comparison, two plots of one table, one
concentration curve per exponential family, and the filter path: a small
trained filter's checkpoint and log, and a workflow filtered by it. Every
artifact's SHA-256 is pinned, so any change to how results are computed,
formatted or written shows up here as a changed digest.

The pipeline runs inside its directory with relative paths, because the
workflow's config hash covers ``filter.checkpoint`` and the train summary
records where the checkpoint went.
"""

import hashlib
import json

import pytest

from collapseguard.cli import main


def _rates(p: float, beta: float, seed: int) -> dict:
    return {
        "scenario": "rates",
        "seed": seed,
        "rates": {"kind": "power-law", "p": p, "noise_kind": "power-law",
                  "noise_beta": beta, "steps": 2000},
    }


def _concentration(family: str, dim: int, theta: list, seed: int) -> dict:
    # the small sizes hit the boundary of the discrete families' mean domains
    return {
        "scenario": "concentration",
        "seed": seed,
        "model": {"family": family, "dim": dim, "theta_star": theta},
        "concentration": {"sizes": [1, 3, 10, 100], "delta": 0.5, "trials": 500},
    }


def _train(seed: int) -> dict:
    return {
        "scenario": "train-filter",
        "seed": seed,
        "model": {"dim": 2},
        "training": {"rounds": 2, "candidates_per_round": 200, "epochs": 30, "hidden_dim": 8},
    }


def _mlp_workflow(checkpoint: str, seed: int) -> dict:
    return {
        "scenario": "workflow-filtered",
        "seed": seed,
        "model": {"dim": 2},
        "horizon": 20,
        "trials": 8,
        "schedule": {"kind": "constant", "base": 50},
        "filter": {"kind": "mlp", "checkpoint": checkpoint, "candidates_per_round": 100},
    }


CONFIGS = {
    "rates-a": ("verify-rates", _rates(2.0, 1.0, 11)),
    "rates-b": ("verify-rates", _rates(3.0, 3.0, 12)),
    "gaussian": ("measure-concentration", _concentration("gaussian-mean-known-cov", 2, [1.0, -0.5], 21)),
    "poisson": ("measure-concentration", _concentration("poisson", 1, [0.2], 22)),
    "bernoulli": ("measure-concentration", _concentration("bernoulli", 2, [2.0, -0.5], 23)),
    "exponential": ("measure-concentration", _concentration("exponential", 1, [-1.5], 24)),
    "train": ("train-filter", _train(31)),
    "mlp": ("simulate-workflow", _mlp_workflow("train/checkpoint.json", 32)),
}

GOLDEN = {
    "rates-a/results.csv": "24e6fbaa7142d5a651ec56904b17011ba0c1105a41c7fbdcc8a82db3556b852e",
    "rates-a/summary.json": "c4d96a4bc1798f897bb6cef8b55286d4b959585de4c0ae11c242d1b52d9d30cd",
    "rates-b/results.csv": "aea390e27b7d3834fbf86f0dfed2532193f731f805459039eacc010d42ef6b97",
    "rates-b/summary.json": "1b83eae0268ca550a17aaea1a850599329df8c19b6f8fb1cf07149251babe381",
    "compare/compare.csv": "7ae2fe46d4546d8bc5cac8450da3e20a5b34a97c474eaa44c2e46f2958d31e26",
    "compare/compare_summary.json": "86dfb6b009dbcfc1a0d81073011f89411c5fa94e02859d9b5d6dd17a0c35c903",
    "plot/mse-semilogy.svg": "910a4ae23cb5400679fd4a1f91e263001a9c609a650cc4c88d3207d752958040",
    "plot/exceed_0.5-linear.svg": "2ed7efbe624f96c6b1205e70f49e5da993d8fb7e539ea167b12ccca9ce7e7076",
    "gaussian/results.csv": "d8f0448c1279d4570a18c173e047368d78d666cc7f28d6d2eb82c8f63c532082",
    "gaussian/summary.json": "0356794a846e8da212eccb177d67667df6c4ab3f74386613c37f6d7e3f7073fd",
    "poisson/results.csv": "c8f1642aed147fb5e5952f48c2c13a70cc2059f44cfa0cce1a6c091554765ffb",
    "poisson/summary.json": "75321954cf5a032251a8a7595db14d246e871eab9425d8862460decd8a0dda87",
    "bernoulli/results.csv": "fd9c5f1f270fdadf4b3f9e5f021ee6a0ab9a509d773e1a90583cfb37e78df3fb",
    "bernoulli/summary.json": "be17d6f0c77e8de890a4ea40d3ea94ea28129ce270dd8580debfc04b46bb09f0",
    "exponential/results.csv": "1d45fe6871568d6f85293380cf7aa322d7cdf17bce36f0c334ebb3c2442e65f8",
    "exponential/summary.json": "393666b5c4fc019964a1dc53082cf10eb775259c784726ab943568561269b884",
    "train/checkpoint.json": "f0ea26b399dc30d0931366b87dd64c984991c2a9995d6fc9a8066eb000709a7e",
    "train/training_log.csv": "47d8d20250d6e0f80e04854d5e3acb8480a7dd1735550612ea65b4bccd69fab0",
    "train/summary.json": "06ec872a9aca335ee5b347c74ff5b94e58b7a10ffe65cc3ce2d0046f52583efa",
    "mlp/results.csv": "b0407eea29423b8981146219f55ebad56e8c1f9907ce1600bc1a2b401865fb0e",
    "mlp/summary.json": "71af8a9c2418de49a0c92c71652897bc12a3d5f1be35d07d8ea1ad41234463ac",
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for label, (command, config) in CONFIGS.items():
            (root / f"{label}.json").write_text(json.dumps(config))
            assert main([command, "--config", f"{label}.json", "--out", label]) == 0
        assert main(["compare", "--baseline", "rates-a/results.csv",
                     "--treatment", "rates-b/results.csv", "--out", "compare"]) == 0
        for column, kind in (("mse", "semilogy"), ("exceed_0.5", "linear")):
            assert main(["plot", "--input", "rates-a/results.csv", "--kind", kind,
                         "--column", column, "--out", f"plot/{column}-{kind}.svg"]) == 0
    return root


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_artifact_bytes_are_pinned(pipeline, artifact):
    digest = hashlib.sha256((pipeline / artifact).read_bytes()).hexdigest()
    assert digest == GOLDEN[artifact]
