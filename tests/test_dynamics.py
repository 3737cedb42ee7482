"""Tests for the error-dynamics and recursive-training workflow simulators."""

import re

import numpy as np
import pytest

from collapseguard import expfam
from collapseguard.contraction import (
    ContractionFn,
    ContractionMap,
    LyapunovMetric,
)
from collapseguard.dynamics import (
    NoiseSchedule,
    SampleSchedule,
    aggregate_exceedance,
    run_dynamics_trials,
    run_workflow_trials,
)
from collapseguard.errors import (
    BoundaryError,
    CollapseGuardError,
    DegenerateSelectionError,
    InputValidationError,
    SimulationOverflowError,
)
from collapseguard.expfam import (
    BERNOULLI,
    EXPONENTIAL,
    GAUSSIAN,
    POISSON,
    ExpFamilyModel,
    Parameter,
)
from collapseguard.filtering import FilterHandle, FilterParams, fit_pca
from collapseguard.numerics import RngState

ZERO_NOISE = NoiseSchedule("zero")


def _gaussian(dim: int = 1):
    model = ExpFamilyModel(GAUSSIAN, dim)
    return model, Parameter(np.ones(dim), model)


def _one_trial(map_, noise, e0, horizon, seed, **kwargs):
    """One dynamics trial as (stats, errors, diverged_at); its V path is ``stats.mean_v``."""
    stats, errors, diverged_at = run_dynamics_trials(
        map_, noise, e0, horizon=horizon, trials=1, rng=RngState(seed=seed),
        record_trajectories=True, **kwargs,
    )
    return stats, errors[0], diverged_at[0]


def _noise_increments(noise, dim, horizon, trials, seed, metric=None) -> np.ndarray:
    """(trials, horizon, dim) draws xi_t, read as e_{t+1} - e_t of A = I runs from 0."""
    identity = ContractionMap.scaled_identity(
        ContractionFn.constant(0.0), metric or LyapunovMetric.identity(dim)
    )
    _, errors, _ = run_dynamics_trials(
        identity, noise, np.zeros(dim), horizon=horizon, trials=trials,
        rng=RngState(seed=seed), record_trajectories=True,
    )
    return np.diff(errors, axis=1)


def _one_workflow(model, theta_star, schedule, horizon, seed, **kwargs):
    """One workflow trial as (errors, diverged_at); V is the squared error norm."""
    _, errors, diverged_at = run_workflow_trials(
        model, theta_star, schedule, horizon=horizon, trials=1, rng=RngState(seed=seed),
        record_trajectories=True, **kwargs,
    )
    return errors[0], diverged_at[0]


class TestNoiseSchedule:
    def test_zero_schedule_returns_zero_vector(self):
        out = _noise_increments(ZERO_NOISE, dim=3, horizon=8, trials=1, seed=1)[0, 7]
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_power_law_energy_decays(self):
        schedule = NoiseSchedule(beta=1.0, scale=1.0)
        assert schedule.sigma_sq_array(0, 10)[0] == pytest.approx(1.0)
        assert schedule.sigma_sq_array(0, 10)[9] == pytest.approx(0.1)
        schedule2 = NoiseSchedule(beta=2.0, scale=3.0)
        assert schedule2.sigma_sq_array(2, 3)[0] == pytest.approx(3.0 / 9.0)

    def test_energy_honest_under_identity_metric(self):
        """Mean of |xi|^2 over 1e5 draws matches the configured level 1.0."""
        schedule = NoiseSchedule("constant", scale=1.0)
        draws = _noise_increments(schedule, dim=2, horizon=50, trials=2000, seed=5)
        assert draws.shape == (2000, 50, 2)
        energies = (draws**2).sum(axis=2)
        assert abs(energies.mean() - 1.0) <= 0.02

    def test_energy_honest_under_general_metric(self):
        """Energy in the map's metric P tracks sigma_t^2 within five standard errors."""
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        metric = LyapunovMetric(p)
        schedule = NoiseSchedule(beta=1.0, scale=2.0)
        n = 4000
        increments = _noise_increments(
            schedule, dim=2, horizon=21, trials=n, seed=6, metric=metric
        )
        for t in (0, 3, 20):
            draws = increments[:, t]
            energy = np.einsum("ij,jk,ik->i", draws, p, draws)
            sigma_sq = schedule.sigma_sq_array(t, t + 1)[0]
            stderr = sigma_sq * np.sqrt(2.0 / 2.0) / np.sqrt(n)
            assert abs(energy.mean() - sigma_sq) <= 5.0 * stderr

    def test_replay_determinism(self):
        schedule = NoiseSchedule(beta=1.0)
        a = _noise_increments(schedule, dim=4, horizon=4, trials=1, seed=9)[0, 3]
        b = _noise_increments(schedule, dim=4, horizon=4, trials=1, seed=9)[0, 3]
        np.testing.assert_array_equal(a, b)


class TestSampleSchedule:
    def test_constant_size(self):
        schedule = SampleSchedule(base=100)
        assert [schedule.size(t) for t in (0, 1, 50)] == [100, 100, 100]

    def test_power_growth_with_ceiling(self):
        schedule = SampleSchedule("power", base=10, exponent=2.0)
        assert schedule.size(0) == 10
        assert schedule.size(1) == 10
        assert schedule.size(3) == 90
        half = SampleSchedule("power", base=10, exponent=0.5)
        assert half.size(2) == int(np.ceil(10 * np.sqrt(2.0)))

    def test_invalid_base_rejected(self):
        with pytest.raises(InputValidationError):
            SampleSchedule(base=0)


class TestDynamicsTrajectory:
    def test_constant_quarter_contraction_is_exact(self):
        """A = 0.5 I keeps exactly a quarter of the energy each step."""
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.constant(0.75), metric)
        stats, _, _ = _one_trial(map_, ZERO_NOISE, np.array([1.0, 0.0]), horizon=8, seed=1)
        np.testing.assert_allclose(stats.mean_v, 0.25 ** np.arange(9), rtol=1e-12)

    def test_sqrt_contraction_first_step_halves_energy_three(self):
        """From V = 3 the state-dependent rate is 0.5, so one step lands on 1.5."""
        metric = LyapunovMetric.identity(3)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        stats, _, _ = _one_trial(map_, ZERO_NOISE, np.ones(3), horizon=1, seed=1)
        assert stats.mean_v[0] == pytest.approx(3.0)
        assert stats.mean_v[1] == pytest.approx(1.5, rel=1e-12)

    def test_identity_map_random_walk_energy_grows_linearly(self):
        """With no pull and unit noise the mean energy at t is t itself."""
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.constant(0.0), metric)
        stats = run_dynamics_trials(
            map_, NoiseSchedule("constant", scale=1.0), np.zeros(2), horizon=100,
            trials=1000, rng=RngState(seed=17),
        )
        assert abs(stats.mean_v[100] - 100.0) <= 10.0

    def test_energy_column_matches_error_column(self):
        metric = LyapunovMetric(np.array([[2.0, 0.5], [0.5, 1.0]]))
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        stats, errors, _ = _one_trial(
            map_, NoiseSchedule(beta=1.0), np.array([2.0, -1.0]), horizon=40, seed=23,
        )
        assert errors.shape == (41, 2)
        for t in (0, 7, 40):
            assert stats.mean_v[t] == pytest.approx(metric.value(errors[t]), rel=1e-12)

    def test_divergence_freezes_and_records_step(self):
        metric = LyapunovMetric.identity(1)
        map_ = ContractionMap.explicit(lambda e: 4.0 * np.eye(1), metric)
        stats, errors, diverged_at = _one_trial(
            map_, ZERO_NOISE, np.array([1.0]), horizon=40, seed=2, divergence_cap=1e6,
        )
        assert np.isfinite(diverged_at)
        k = int(diverged_at)
        assert np.all(stats.mean_v[k:] == stats.mean_v[k])
        assert np.all(errors[k:] == errors[k])
        assert np.all(np.isfinite(stats.mean_v))

    def test_replay_determinism(self):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        _, a, _ = _one_trial(map_, NoiseSchedule(beta=1.0), np.ones(2), horizon=30, seed=77)
        _, b, _ = _one_trial(map_, NoiseSchedule(beta=1.0), np.ones(2), horizon=30, seed=77)
        np.testing.assert_array_equal(a, b)


def _flat_paths(norms, horizon: int):
    """(sq_norms, vs, diverged_at, ns) for trials whose 1-d error stays at each of ``norms``."""
    sq = np.repeat(np.square(np.asarray(norms, dtype=float))[:, None], horizon + 1, axis=1)
    return sq, sq, np.full(len(norms), np.inf), np.zeros(sq.shape, dtype=int)


class TestAggregateExceedance:
    def test_unit_norm_against_small_threshold(self):
        stats = aggregate_exceedance(*_flat_paths([1.0], 5), deltas=(0.5,))
        np.testing.assert_array_equal(stats.exceedance_at(0.5), np.ones(6))

    def test_unit_norm_against_large_threshold(self):
        stats = aggregate_exceedance(*_flat_paths([1.0], 5), deltas=(2.0,))
        np.testing.assert_array_equal(stats.exceedance_at(2.0), np.zeros(6))

    def test_a_repeated_delta_is_counted_once(self):
        stats = aggregate_exceedance(*_flat_paths([1.0], 5), deltas=(0.5, 0.5))
        np.testing.assert_array_equal(stats.exceedance_at(0.5), np.ones(6))

    def test_mixed_horizons_rejected(self):
        sq, vs, diverged_at, ns = _flat_paths([1.0], 5)
        longer = _flat_paths([1.0], 6)
        for args in ((sq, longer[1], diverged_at, ns), (sq, vs, diverged_at, longer[3])):
            with pytest.raises(InputValidationError):
                aggregate_exceedance(*args)

    def test_diverged_trials_count_as_exceeding(self):
        metric = LyapunovMetric.identity(1)
        blow_up = ContractionMap.explicit(lambda e: 4.0 * np.eye(1), metric)
        stats, errors, diverged_at = _one_trial(
            blow_up, ZERO_NOISE, np.array([1.0]), horizon=30, seed=3, divergence_cap=1e6,
        )
        sq = np.einsum("ij,ij->i", errors, errors)[None]
        aggregated = aggregate_exceedance(
            sq, stats.mean_v[None], [diverged_at], np.zeros(sq.shape, dtype=int), deltas=(0.1,)
        )
        after = aggregated.exceedance_at(0.1)[int(diverged_at):]
        np.testing.assert_array_equal(after, np.ones_like(after))

    def test_fractions_average_over_trials(self):
        stats = aggregate_exceedance(*_flat_paths([1.0, 3.0], 4), deltas=(2.0,))
        np.testing.assert_array_equal(stats.exceedance_at(2.0), np.full(5, 0.5))
        assert stats.trials == 2


class TestRunDynamicsTrials:
    def test_first_step_is_the_scaled_draw_of_the_trial_stream(self):
        """From e0 = 0 under A = I, trial i's first state is its own stream's first draw."""
        dim = 2
        noise = NoiseSchedule(beta=1.0)
        root = RngState(seed=99)
        increments = _noise_increments(noise, dim=dim, horizon=25, trials=3, seed=99)
        scale = np.sqrt(noise.sigma_sq_array(0, 1)[0] / dim)
        for index in range(3):
            z = root.derive(index).generator().standard_normal((1, dim))[0]
            np.testing.assert_array_equal(increments[index, 0], scale * z)

    def test_leading_trials_do_not_depend_on_the_trial_count(self):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        noise = NoiseSchedule(beta=1.0)
        many, few = (
            run_dynamics_trials(
                map_, noise, np.ones(2), horizon=25, trials=trials, rng=RngState(seed=99),
                record_trajectories=True,
            )[1]
            for trials in (300, 5)
        )
        assert many.shape == (300, 26, 2) and few.shape == (5, 26, 2)
        np.testing.assert_array_equal(many[:5], few)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        noise = NoiseSchedule(beta=1.0)
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
            runs.append(run_dynamics_trials(
                map_, noise, np.ones(2), horizon=20, trials=300, rng=RngState(seed=4),
            ))
        one, two = runs
        np.testing.assert_array_equal(one.mse, two.mse)
        np.testing.assert_array_equal(one.exceedance_at(0.2), two.exceedance_at(0.2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": -1},
            {"horizon": 2.5},
            {"map_": ContractionMap.explicit(lambda e: np.eye(3), LyapunovMetric.identity(2))},
        ],
        ids=["negative-horizon", "fractional-horizon", "wrong-matrix-shape"],
    )
    def test_invalid_run_is_rejected(self, kwargs):
        args = {
            "map_": ContractionMap.scaled_identity(
                ContractionFn.example_sqrt(), LyapunovMetric.identity(2)
            ),
            "noise": ZERO_NOISE,
            "e0": np.ones(2),
            "horizon": 3,
            "trials": 2,
            "rng": RngState(seed=1),
            **kwargs,
        }
        with pytest.raises(InputValidationError):
            run_dynamics_trials(**args)


class TestRunWorkflow:
    def test_zero_horizon_contains_only_initial_fit_error(self):
        model, theta_star = _gaussian(1)
        errors, _ = _one_workflow(model, theta_star, SampleSchedule(base=100), horizon=0, seed=12)
        assert errors.shape == (1, 1)
        assert abs(errors[0, 0]) < 1.0

    def test_error_is_estimate_minus_truth(self):
        model, theta_star = _gaussian(2)
        stats, errors, _ = run_workflow_trials(
            model, theta_star, SampleSchedule(base=50), horizon=3, trials=1,
            rng=RngState(seed=13), record_trajectories=True,
        )
        assert errors.shape == (1, 4, 2)
        np.testing.assert_allclose(stats.mean_v, (errors[0] ** 2).sum(axis=1), rtol=1e-12)

    def test_mean_squared_error_accumulates_at_inverse_sample_rate(self):
        """Constant n = 100: after T generations the expected energy is T/100."""
        model, theta_star = _gaussian(1)
        stats = run_workflow_trials(
            model, theta_star, SampleSchedule(base=100), horizon=50,
            trials=500, rng=RngState(seed=42),
        )
        expected = 50 / 100.0
        assert abs(stats.mse[50] - expected) <= 0.15 * expected

    def test_quadratic_sample_growth_plateaus(self):
        """n_t = 20 t^2 makes the added variance summable, so the MSE levels off.

        A constant schedule with the same base would add 1/20 per generation
        (a rise of 1.0 over the second half); the quadratic schedule's true
        rise over that window is about 0.001.
        """
        model, theta_star = _gaussian(1)
        stats = run_workflow_trials(
            model, theta_star, SampleSchedule("power", base=20, exponent=2.0),
            horizon=40, trials=150, rng=RngState(seed=43),
        )
        assert abs(stats.mse[40] - stats.mse[20]) <= 0.05
        assert stats.mse[40] <= 0.25

    def test_replay_determinism(self):
        model, theta_star = _gaussian(1)
        a = run_workflow_trials(
            model, theta_star, SampleSchedule(base=40), horizon=10,
            trials=20, rng=RngState(seed=3),
        )
        b = run_workflow_trials(
            model, theta_star, SampleSchedule(base=40), horizon=10,
            trials=20, rng=RngState(seed=3),
        )
        np.testing.assert_array_equal(a.mse, b.mse)

    @pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "oracle-pullback"])
    def test_worker_count_does_not_change_results(self, filtered, monkeypatch):
        model, theta_star = _gaussian(2)
        extra = {}
        if filtered:
            extra = {
                "filter_handle": FilterHandle.oracle_pullback(theta_star, gamma=0.5),
                "candidates_per_round": 40,
            }
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
            runs.append(run_workflow_trials(
                model, theta_star, SampleSchedule(base=20), horizon=3,
                trials=300, rng=RngState(seed=8), **extra,
            ))
        one, two = runs
        np.testing.assert_array_equal(one.mse, two.mse)
        np.testing.assert_array_equal(one.mean_v, two.mean_v)
        assert one.exceedance.keys() == two.exceedance.keys()
        for delta in one.exceedance:
            np.testing.assert_array_equal(one.exceedance[delta], two.exceedance[delta])


class TestRunWorkflowFiltered:
    def test_all_ones_filter_matches_unfiltered_bitwise(self):
        model, theta_star = _gaussian(2)
        schedule = SampleSchedule(base=80)
        plain, _ = _one_workflow(model, theta_star, schedule, horizon=12, seed=21)
        filtered, _ = _one_workflow(
            model, theta_star, schedule, horizon=12, seed=21,
            filter_handle=FilterHandle.all_ones(), candidates_per_round=80,
        )
        np.testing.assert_array_equal(plain, filtered)

    def test_all_zero_weights_raise_degenerate_selection(self):
        model, theta_star = _gaussian(1)
        pca = fit_pca(np.linspace(-1.0, 1.0, 32)[:, None], k=1)
        dead = FilterParams(
            w1=np.zeros((4, 1)), b1=np.zeros(4), w2=np.zeros(4), b2=-1000.0
        )
        handle = FilterHandle.mlp(dead, pca)
        with pytest.raises(DegenerateSelectionError):
            _one_workflow(
                model, theta_star, SampleSchedule(base=50), horizon=2, seed=1,
                filter_handle=handle, candidates_per_round=50,
            )

    def test_oracle_filter_keeps_error_bounded(self):
        """Pullback filtering pins the chain near the anchor while n stays fixed."""
        model, theta_star = _gaussian(2)
        handle = FilterHandle.oracle_pullback(theta_star, gamma=0.5)
        stats = run_workflow_trials(
            model, theta_star, SampleSchedule(base=100), horizon=60,
            trials=30, rng=RngState(seed=31), filter_handle=handle,
            candidates_per_round=400,
        )
        assert stats.mse[60] <= 0.05
        assert stats.mse[60] <= stats.mse[5] * 5.0

    def test_candidate_count_must_be_positive(self):
        model, theta_star = _gaussian(1)
        with pytest.raises(InputValidationError):
            _one_workflow(
                model, theta_star, SampleSchedule(base=10), horizon=2, seed=1,
                filter_handle=FilterHandle.all_ones(), candidates_per_round=0,
            )


def _run_lambda_map():
    map_ = ContractionMap.explicit(lambda e: 0.5 * np.eye(2), LyapunovMetric.identity(2))
    run_dynamics_trials(
        map_, ZERO_NOISE, np.ones(2), horizon=2, trials=300, rng=RngState(seed=1),
    )


def _run_local_filter():
    class LocalFilter:
        def weights(self, points):
            return np.ones(len(points))

    model, theta_star = _gaussian(1)
    run_workflow_trials(
        model, theta_star, SampleSchedule(base=10), horizon=2, trials=300,
        rng=RngState(seed=1), filter_handle=LocalFilter(),
    )


@pytest.mark.parametrize(
    "run", [_run_lambda_map, _run_local_filter], ids=["lambda-matrix-fn", "local-filter-class"]
)
def test_work_that_cannot_be_pickled_raises_a_named_error(run, monkeypatch):
    monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "2")
    with pytest.raises(InputValidationError, match="COLLAPSEGUARD_WORKERS=1"):
        run()


# ---------------------------------------------------------------------------
# The workflow kernel against a trial-by-trial loop on the public expfam API
# ---------------------------------------------------------------------------


def _reference_trial(model, theta_star, schedule, horizon, gen, handle, candidates, cap):
    """One workflow trial, generation by generation, as (errors, vs, ns, diverged_at).

    ``diverged_at`` is inf for a trial that never diverges.
    """
    n = horizon + 1
    errors = np.empty((n, model.dim))
    ns = np.zeros(n, dtype=np.int64)
    current, diverged_at = theta_star, np.inf
    for t in range(n):
        filtered = handle is not None and t > 0
        size = candidates if filtered and candidates is not None else schedule.size(t)
        points = expfam.sample(model, current, size, gen)
        if filtered:
            w = np.asarray(handle.weights(points), dtype=float)
            if w.shape != (size,):
                raise InputValidationError(
                    f"generation {t}: filter returned weights of shape {w.shape}, "
                    f"expected ({size},)"
                )
        try:
            if filtered:
                fitted = expfam.weighted_estimate(model, points, w)
            else:
                fitted = expfam.estimate(model, points)
        except CollapseGuardError as exc:
            raise type(exc)(f"generation {t}: {exc}") from exc
        errors[t] = fitted.theta - theta_star.theta
        ns[t] = size
        if not np.all(np.isfinite(errors[t])):
            raise SimulationOverflowError(t)
        if float(errors[t] @ errors[t]) > cap:
            diverged_at = t
            errors[t + 1 :] = errors[t]
            ns[t + 1 :] = 0
            break
        current = fitted
    return errors, np.einsum("ij,ij->i", errors, errors), ns, diverged_at


def _reference_outcomes(
    model, theta_star, schedule, horizon, trials, seed,
    filter_handle=None, candidates_per_round=None, divergence_cap=1e12,
):
    """Each trial's reference result, or the exception it stops on, in trial order."""
    rng = RngState(seed=seed)
    outcomes = []
    for i in range(trials):
        try:
            outcomes.append(_reference_trial(
                model, theta_star, schedule, horizon, rng.derive(i).generator(),
                filter_handle, candidates_per_round, divergence_cap,
            ))
        except CollapseGuardError as exc:
            outcomes.append(exc)
    return outcomes


def _reference_paths(outcomes):
    """The reference trials stacked as (errors, vs, ns, diverged_at) arrays, trial-major."""
    for i, outcome in enumerate(outcomes):
        assert isinstance(outcome, tuple), f"reference trial {i} failed: {outcome}"
    return tuple(np.array(column) for column in zip(*outcomes))


def _assert_matches_reference(stats, errors, diverged_at, outcomes, deltas):
    """Paths equal the reference's bit for bit, and stats equal the fold of its arrays."""
    ref_errors, ref_vs, ref_ns, ref_diverged_at = _reference_paths(outcomes)
    np.testing.assert_array_equal(errors, ref_errors)
    np.testing.assert_array_equal(diverged_at, ref_diverged_at)
    _assert_stats_equal(
        stats, aggregate_exceedance(ref_vs, ref_vs, ref_diverged_at, ref_ns, deltas)
    )


def _assert_stats_equal(a, b):
    for name in ("ts", "mse", "mean_v", "ns"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.trials == b.trials
    assert a.exceedance.keys() == b.exceedance.keys()
    for delta in a.exceedance:
        np.testing.assert_array_equal(a.exceedance[delta], b.exceedance[delta])


_FAMILIES = {
    "gaussian-2d": (GAUSSIAN, 2, [1.0, -0.5]),
    "poisson": (POISSON, 1, [np.log(3.0)]),
    "bernoulli": (BERNOULLI, 1, [0.0]),
    "exponential": (EXPONENTIAL, 1, [-1.0]),
}

_SCHEDULES = {
    "constant": SampleSchedule(base=100),
    "power": SampleSchedule("power", base=40, exponent=1.0),
}


class TestWorkflowMatchesTrialLoop:
    @pytest.mark.parametrize("filter_kind", ["none", "all-ones", "oracle-pullback"])
    @pytest.mark.parametrize("schedule_kind", sorted(_SCHEDULES))
    @pytest.mark.parametrize("family_kind", sorted(_FAMILIES))
    def test_trajectories_and_stats_are_bit_identical(
        self, family_kind, schedule_kind, filter_kind
    ):
        family, dim, theta = _FAMILIES[family_kind]
        model = ExpFamilyModel(family, dim)
        theta_star = Parameter(np.array(theta), model)
        extra = {}
        if filter_kind == "all-ones":
            extra = {"filter_handle": FilterHandle.all_ones()}
        elif filter_kind == "oracle-pullback":
            extra = {
                "filter_handle": FilterHandle.oracle_pullback(theta_star, gamma=0.5),
                "candidates_per_round": 40,
            }
        trials, horizon, seed = 300, 4, 17
        schedule = _SCHEDULES[schedule_kind]
        stats, errors, diverged_at = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=(0.05, 0.2, 1.0), record_trajectories=True,
            **extra,
        )
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, **extra
        )
        _assert_matches_reference(stats, errors, diverged_at, outcomes, (0.05, 0.2, 1.0))
        unrecorded = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=(0.05, 0.2, 1.0), **extra,
        )
        _assert_stats_equal(unrecorded, stats)

    def test_first_failure_in_trial_order_is_raised(self):
        """Bernoulli fits on 4 draws hit the boundary in most trials, at different generations."""
        model = ExpFamilyModel(BERNOULLI, 1)
        theta_star = Parameter(np.zeros(1), model)
        schedule = SampleSchedule(base=4)
        horizon, trials, seed = 6, 300, 5
        outcomes = _reference_outcomes(model, theta_star, schedule, horizon, trials, seed)
        failures = [(i, exc) for i, exc in enumerate(outcomes) if isinstance(exc, Exception)]
        assert len(failures) >= 2
        first_trial, first_exc = failures[0]

        def generation(exc):
            return int(re.match(r"generation (\d+):", str(exc)).group(1))

        assert any(
            i > first_trial and generation(exc) < generation(first_exc)
            for i, exc in failures
        ), "no later trial fails at an earlier generation; the ordering is not exercised"
        with pytest.raises(CollapseGuardError) as info:
            run_workflow_trials(
                model, theta_star, schedule, horizon=horizon, trials=trials,
                rng=RngState(seed=seed),
            )
        assert type(info.value) is type(first_exc) is BoundaryError
        assert str(info.value) == str(first_exc)

    def test_divergence_freezes_trials_and_counts_as_exceeding(self):
        model, theta_star = _gaussian(1)
        schedule = SampleSchedule(base=10)
        horizon, trials, seed, cap = 8, 300, 9, 0.05
        deltas = (0.1, 1e6)
        stats, errors, diverged_at = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=deltas, divergence_cap=cap,
            record_trajectories=True,
        )
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, divergence_cap=cap
        )
        _assert_matches_reference(stats, errors, diverged_at, outcomes, deltas)
        _, vs, ns, _ = _reference_paths(outcomes)
        diverged = np.flatnonzero(np.isfinite(diverged_at))
        assert 0 < diverged.size < trials
        assert np.any(diverged_at[diverged] > 0)
        for i in diverged:
            k = int(diverged_at[i])
            assert vs[i, k] > cap
            assert np.all(vs[i, :k] <= cap)
            np.testing.assert_array_equal(
                errors[i, k:], np.repeat(errors[i, k : k + 1], horizon + 1 - k, axis=0)
            )
            assert np.all(ns[i, : k + 1] == 10)
            assert np.all(ns[i, k + 1 :] == 0)
        # No error norm reaches 1e6, so exceedance there counts diverged trials only.
        frozen_by = (diverged_at[None, :] <= np.arange(horizon + 1)[:, None]).sum(axis=1)
        np.testing.assert_array_equal(stats.exceedance_at(1e6), frozen_by / trials)
        assert np.all(stats.exceedance_at(0.1) >= frozen_by / trials)

    def test_sample_sizes_follow_the_live_trials(self):
        """n_t is the schedule size while any trial samples, not trial 0's count."""
        model, theta_star = _gaussian(1)
        schedule = SampleSchedule(base=10)
        horizon, trials, seed, cap = 8, 50, 9, 0.05
        stats, errors, diverged_at = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), divergence_cap=cap, record_trajectories=True,
        )
        sampling = np.arange(horizon + 1)[None, :] <= diverged_at[:, None]
        live = sampling.any(axis=0)
        first = diverged_at[0]
        # precondition: another trial still samples after trial 0 has frozen
        assert np.isfinite(first) and first < horizon and live[int(first) + 1]
        np.testing.assert_array_equal(stats.ns, np.where(live, 10, 0))
        sq = np.einsum("tij,tij->ti", errors, errors)
        aggregated = aggregate_exceedance(sq, sq, diverged_at, np.where(sampling, 10, 0))
        np.testing.assert_array_equal(aggregated.ns, stats.ns)
        unrecorded = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), divergence_cap=cap,
        )
        np.testing.assert_array_equal(unrecorded.ns, stats.ns)

    def test_filter_weights_of_the_wrong_shape_are_rejected(self):
        model, theta_star = _gaussian(1)
        with pytest.raises(
            InputValidationError,
            match=re.escape(
                "generation 1: filter returned weights of shape (11,), expected (10,)"
            ),
        ):
            run_workflow_trials(
                model, theta_star, SampleSchedule(base=10), horizon=3,
                trials=3, rng=RngState(seed=1), filter_handle=_OneWeightTooMany(),
            )


class _OneWeightTooMany:
    def weights(self, points):
        return np.ones(len(points) + 1)
