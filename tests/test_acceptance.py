"""End-to-end acceptance criteria with one recorded verdict line each.

Every test computes its measured quantities, records a PASS/FAIL line
through the shared ``acceptance`` fixture (replayed in the terminal
summary), and then asserts. Statistical criteria run at their full pinned
scale with fixed seeds.
"""

import math

import numpy as np
import pytest

from collapseguard.contraction import (
    LyapunovMetric,
    RegulatorFn,
    check_matrix_contraction,
    fit_decay_rate,
    limsup_bound,
    measure_concentration,
    recurrence_simulate,
)
from collapseguard.dynamics import NoiseSchedule
from collapseguard.expfam import GAUSSIAN, ExpFamilyModel, Parameter
from collapseguard.experiments import (
    ExperimentConfig,
    compare_runs,
    run_experiment,
)
from collapseguard.filtering import (
    FilterParams,
    LabeledDataset,
    TrainConfig,
    TrainingSpec,
    init_filter_params,
    loss_gradient,
)
from collapseguard.numerics import RngState

GAUSSIAN_TAIL_3 = math.erfc(3.0 / math.sqrt(2.0))


def _run(raw: dict, out_dir) -> "ExperimentResult":
    return run_experiment(ExperimentConfig.from_dict({**raw, "out_dir": str(out_dir)}))


@pytest.fixture(scope="session")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def collapse_baseline_run(acceptance_dir):
    """Unfiltered 1-d workflow at fixed sampling, full pinned scale."""
    return _run(
        {
            "scenario": "workflow",
            "seed": 42,
            "model": {"dim": 1},
            "horizon": 400,
            "trials": 500,
            "schedule": {"kind": "constant", "base": 100},
        },
        acceptance_dir / "baseline",
    )


@pytest.fixture(scope="session")
def regulated_dynamics_run(acceptance_dir):
    """Contraction-regulated error dynamics with vanishing noise."""
    return _run(
        {
            "scenario": "dynamics",
            "seed": 2,
            "horizon": 10000,
            "trials": 1000,
            "noise": {"kind": "power-law", "beta": 1.0, "scale": 1.0},
        },
        acceptance_dir / "dynamics",
    )


@pytest.fixture(scope="session")
def trained_filter_run(acceptance_dir):
    """Default-config filter training on 2-d drifting candidate data."""
    return _run(
        {"scenario": "train-filter", "seed": 11, "model": {"dim": 2}},
        acceptance_dir / "train",
    )


@pytest.fixture(scope="session")
def prevention_runs(acceptance_dir, trained_filter_run):
    """Unfiltered, oracle-filtered, and trained-filtered 2-d workflows.

    They run on two workers, which split the 200 trials into two jobs.
    Results do not depend on the worker count (tests/test_dynamics.py holds
    that), so this only shortens the suite.
    """
    base = {
        "seed": 7,
        "model": {"dim": 2},
        "horizon": 200,
        "trials": 200,
        "schedule": {"kind": "constant", "base": 100},
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLLAPSEGUARD_WORKERS", "2")
        plain = _run({"scenario": "workflow", **base}, acceptance_dir / "plain")
        oracle = _run(
            {
                "scenario": "workflow-filtered",
                "filter": {"kind": "oracle-pullback", "gamma": 0.5},
                **base,
            },
            acceptance_dir / "oracle",
        )
        mlp = _run(
            {
                "scenario": "workflow-filtered",
                "filter": {"kind": "mlp", "checkpoint": trained_filter_run.paths["checkpoint"]},
                **base,
            },
            acceptance_dir / "mlp",
        )
    return plain, oracle, mlp


class TestAcceptanceCriteria:
    def test_criterion_01_unfiltered_baseline_accumulates_error(
        self, acceptance, collapse_baseline_run
    ):
        summary = collapse_baseline_run.summary
        final, slope = summary["final_mse"], summary["mse_slope"]
        mse_ok = abs(final - 4.0) <= 0.15 * 4.0
        slope_ok = abs(slope - 0.01) <= 0.15 * 0.01
        passed = mse_ok and slope_ok
        line = acceptance(
            1,
            "unfiltered-collapse-baseline",
            passed,
            f"final_mse={final:.4f} (4.0 +/- 0.6), slope={slope:.6f} (0.01 +/- 0.0015)",
        )
        assert passed, line

    def test_criterion_02_regulated_dynamics_keep_exceedance_low(
        self, acceptance, regulated_dynamics_run
    ):
        summary = regulated_dynamics_run.summary
        final = summary["exceedance_final"]["0.2"]
        rise = summary["max_exceedance_rise_after_burn_in"]
        passed = final <= 0.05 and rise <= 0.02
        line = acceptance(
            2,
            "regulated-dynamics-exceedance",
            passed,
            f"final_exceed(0.2)={final:.4f} (<= 0.05), max block rise={rise:.5f} (<= 0.02)",
        )
        assert passed, line

    def test_criterion_03_decay_rate_table_matches_theory(self, acceptance):
        measured = []
        ok = True
        for p, beta, want in ((2.0, 1.0, -0.5), (2.0, 2.0, -1.0), (3.0, 3.0, -0.5)):
            f = RegulatorFn("power-law", p, 1.0)
            traj = recurrence_simulate(f, 1.0, NoiseSchedule(beta=beta), 10**6)
            slope, _ = fit_decay_rate(traj, 0.9)
            measured.append(f"(p={p:g},b={beta:g})={slope:.3f}")
            ok = ok and abs(slope - want) <= 0.1

        # linear pull: exponential phase at rate log(1 - c1), then the
        # noise floor takes over and decays at the bound's own exponent
        f1 = RegulatorFn("power-law", 1.0, 0.5)
        traj = recurrence_simulate(f1, 1.0, NoiseSchedule(beta=2.0, scale=1e-6), 10000)
        early = float(np.polyfit(np.arange(1, 16), np.log(traj[1:16]), 1)[0])
        tail, _ = fit_decay_rate(traj, 0.5)
        early_ok = abs(early - math.log(0.5)) <= 0.05
        tail_ok = abs(tail - (-2.0)) <= 0.1
        passed = ok and early_ok and tail_ok
        line = acceptance(
            3,
            "decay-rate-table",
            passed,
            f"{', '.join(measured)}; p=1 early={early:.4f} (log 0.5), tail={tail:.3f} (-2)",
        )
        assert passed, line

    def test_criterion_04_noise_ceiling_ignores_the_start(self, acceptance):
        f = RegulatorFn("power-law", 2.0, 1.0)
        ceiling = limsup_bound(f, 0.01)
        tails = []
        ok = abs(ceiling - 0.1) <= 1e-9
        for x0 in (0.5, 1.0, 10.0):
            traj = recurrence_simulate(f, x0, NoiseSchedule("constant", scale=0.01), 100000)
            tail_max = float(traj[-10000:].max())
            tails.append(f"x0={x0:g}:{tail_max:.8f}")
            ok = ok and tail_max <= 0.1 + 1e-6
        line = acceptance(
            4,
            "noise-floor-start-independence",
            ok,
            f"ceiling={ceiling:.10f}, tail maxima {', '.join(tails)} (<= 0.1 + 1e-6)",
        )
        assert ok, line

    def test_criterion_05_analytic_gradients_match_finite_differences(self, acceptance):
        def flatten(params: FilterParams) -> np.ndarray:
            return np.concatenate(
                [params.w1.ravel(), params.b1, params.w2, np.array([params.b2])]
            )

        def unflatten(flat: np.ndarray, like: FilterParams) -> FilterParams:
            h, f = like.w1.shape
            return FilterParams(
                flat[: h * f].reshape(h, f),
                flat[h * f : h * f + h],
                flat[h * f + h : h * f + 2 * h],
                float(flat[-1]),
            )

        max_rel = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(1, 4))
            hidden = int(rng.integers(2, 5))
            n = int(rng.integers(10, 31))
            model = ExpFamilyModel(GAUSSIAN, dim)
            pts = rng.normal(loc=rng.uniform(-1.0, 1.0, size=dim), scale=0.8, size=(n, dim))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            dataset = LabeledDataset(pts, labels, features=pts)
            rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            p = rot @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ rot.T
            metric = LyapunovMetric(0.5 * (p + p.T))
            config = TrainConfig(
                theta_good=Parameter(np.zeros(dim), model),
                metric=metric,
                e_est=np.full(dim, 0.02 if seed % 2 == 0 else 50.0),
                training=TrainingSpec(
                    lambda_contract=float(rng.choice([0.0, 0.7, 1.7])),
                    ess_weight=float(rng.choice([0.0, 0.3])),
                ),
            )
            params = init_filter_params(dim, hidden, rng)
            analytic = flatten(loss_gradient(params, dataset, config)[1])
            flat = flatten(params)
            numeric = np.empty_like(flat)
            for i in range(flat.size):
                h = 1e-6 * max(1.0, abs(flat[i]))
                up, down = flat.copy(), flat.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (
                    loss_gradient(unflatten(up, params), dataset, config)[0].total
                    - loss_gradient(unflatten(down, params), dataset, config)[0].total
                ) / (2.0 * h)
            scale = max(float(np.linalg.norm(numeric)), 1e-12)
            max_rel = max(max_rel, float(np.linalg.norm(analytic - numeric)) / scale)

        passed = max_rel <= 1e-4
        line = acceptance(
            5,
            "gradient-finite-difference-agreement",
            passed,
            f"max relative error over 50 configurations = {max_rel:.3e} (<= 1e-4)",
        )
        assert passed, line

    def test_criterion_06_filter_training_certifies_contraction(
        self, acceptance, trained_filter_run
    ):
        summary = trained_filter_run.summary
        contract = summary["final_contract_loss"]
        accuracy = summary["holdout_accuracy"]
        certificate = summary["contraction_certificate"]
        passed = contract <= 1e-6 and accuracy >= 0.90 and certificate
        line = acceptance(
            6,
            "filter-training-certificate",
            passed,
            f"final_contract={contract:.3e} (<= 1e-6), holdout_acc={accuracy:.4f} "
            f"(>= 0.90), recomputed certificate={certificate}",
        )
        assert passed, line

    def test_criterion_07_filtering_prevents_collapse_end_to_end(
        self, acceptance, prevention_runs
    ):
        plain, oracle, mlp = prevention_runs
        up_slope = plain.summary["mse_slope"]
        late_slope = oracle.summary["mse_slope_last_half"]
        _, cmp_summary = compare_runs(plain.table, oracle.table)
        ratio = cmp_summary["final_ratio"]
        trend = cmp_summary["ratio_trend_slope"]
        mlp_gain = plain.summary["final_mse"] / mlp.summary["final_mse"]
        passed = (
            up_slope > 0.0
            and late_slope <= 0.0
            and ratio > 5.0
            and trend > 0.0
            and mlp_gain >= 2.0
        )
        line = acceptance(
            7,
            "end-to-end-collapse-prevention",
            passed,
            f"unfiltered slope={up_slope:.4f} (> 0), filtered late slope={late_slope:.2e} "
            f"(<= 0), ratio={ratio:.1f} (> 5), trend={trend:.2f} (> 0), "
            f"trained-filter gain={mlp_gain:.1f}x (>= 2)",
        )
        assert passed, line

    def test_criterion_08_matrix_checker_matches_direction_sweep(self, acceptance):
        rng = RngState(seed=606, stream=2).generator()
        directions = {}
        for d in (2, 3, 4):
            raw = rng.normal(size=(10000, d))
            directions[d] = raw / np.linalg.norm(raw, axis=1, keepdims=True)

        disagreements = 0
        contractive = 0
        for trial in range(1000):
            d = int(rng.integers(2, 5))
            rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
            p = rot @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ rot.T
            p = 0.5 * (p + p.T)
            c = float(rng.uniform(0.05, 0.9))
            a0 = rng.normal(size=(d, d))
            q = (1.0 - c) * p
            # rescale so the top pencil eigenvalue lands clear of 1 on a
            # known side; near-degenerate cones would need more directions
            # than any fixed sample to witness
            whiten = np.linalg.inv(np.linalg.cholesky(q))
            pencil_top = np.linalg.eigvalsh(whiten @ (a0.T @ p @ a0) @ whiten.T)[-1]
            margin = rng.uniform(0.3, 0.9) if trial % 2 == 0 else rng.uniform(1.2, 3.0)
            a = np.sqrt(margin / pencil_top) * a0
            verdict = check_matrix_contraction(a, LyapunovMetric(p), c_at_e=c)
            m = a.T @ p @ a - q
            sampled = float(
                np.einsum("ij,jk,ik->i", directions[d], m, directions[d]).max()
            )
            brute = sampled <= 1e-9 * float(np.abs(p).max())
            contractive += int(verdict)
            disagreements += int(verdict != brute)

        passed = disagreements == 0
        line = acceptance(
            8,
            "contraction-checker-equivalence",
            passed,
            f"disagreements={disagreements}/1000 (10^4 directions each, "
            f"{contractive} contractive)",
        )
        assert passed, line

    def test_criterion_09_single_sample_tail_matches_the_normal_oracle(self, acceptance):
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta = Parameter(np.ones(1), model)
        curve = measure_concentration(
            model, theta, (1, 10, 100), (3.0,), 100000, RngState(seed=5150)
        )
        fractions = curve[:, 0].tolist()
        tail_ok = abs(fractions[0] - GAUSSIAN_TAIL_3) <= 0.002
        monotone = all(b <= a for a, b in zip(fractions, fractions[1:]))
        passed = tail_ok and monotone
        line = acceptance(
            9,
            "estimation-concentration-curve",
            passed,
            f"exceed(n=1)={fractions[0]:.5f} (oracle {GAUSSIAN_TAIL_3:.5f} +/- 0.002), "
            f"curve={fractions} nonincreasing={monotone}",
        )
        assert passed, line

    def test_criterion_10_reruns_are_byte_identical(self, acceptance, tmp_path):
        scenarios = {
            "dynamics": {"scenario": "dynamics", "seed": 3, "horizon": 50, "trials": 30},
            "workflow": {
                "scenario": "workflow",
                "seed": 5,
                "horizon": 30,
                "trials": 20,
                "schedule": {"kind": "constant", "base": 50},
            },
            "rates": {"scenario": "rates", "seed": 0, "rates": {"steps": 500}},
            "concentration": {
                "scenario": "concentration",
                "seed": 1,
                "concentration": {"sizes": [1, 10], "delta": 1.0, "trials": 200},
            },
            "train-filter": {
                "scenario": "train-filter",
                "seed": 4,
                "model": {"dim": 2},
                "training": {
                    "rounds": 2,
                    "candidates_per_round": 100,
                    "epochs": 10,
                    "hidden_dim": 4,
                },
            },
        }
        identical = []
        ok = True
        for name, raw in scenarios.items():
            first = _run(raw, tmp_path / name / "a")
            second = _run(raw, tmp_path / name / "b")
            label = "training_log" if name == "train-filter" else "results"
            same = (
                open(first.paths[label], "rb").read()
                == open(second.paths[label], "rb").read()
            )
            identical.append(f"{name}={'ok' if same else 'DIFF'}")
            ok = ok and same
        line = acceptance(
            10,
            "byte-identical-reruns",
            ok,
            f"csv comparison per scenario: {', '.join(identical)}",
        )
        assert ok, line
