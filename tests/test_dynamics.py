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
    ErrorTrajectory,
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


def _gaussian(dim: int = 1):
    model = ExpFamilyModel(GAUSSIAN, dim)
    return model, Parameter(np.ones(dim), model)


def _one_trial(map_, noise, e0, horizon, seed, **kwargs) -> ErrorTrajectory:
    _, trajectories = run_dynamics_trials(
        map_, noise, e0, horizon=horizon, trials=1, rng=RngState(seed=seed),
        record_trajectories=True, **kwargs,
    )
    return trajectories[0]


def _noise_increments(noise, dim, horizon, trials, seed) -> np.ndarray:
    """(trials, horizon, dim) draws xi_t, read as e_{t+1} - e_t of A = I runs from 0."""
    identity = ContractionMap.scaled_identity(
        ContractionFn.constant(0.0), LyapunovMetric.identity(dim)
    )
    _, trajectories = run_dynamics_trials(
        identity, noise, np.zeros(dim), horizon=horizon, trials=trials,
        rng=RngState(seed=seed), record_trajectories=True,
    )
    return np.diff(np.stack([traj.errors for traj in trajectories]), axis=1)


def _one_workflow(model, theta_star, schedule, horizon, seed, **kwargs) -> ErrorTrajectory:
    _, trajectories = run_workflow_trials(
        model, theta_star, schedule, horizon=horizon, trials=1, rng=RngState(seed=seed),
        record_trajectories=True, **kwargs,
    )
    return trajectories[0]


class TestNoiseSchedule:
    def test_zero_schedule_returns_zero_vector(self):
        schedule = NoiseSchedule.zero()
        out = _noise_increments(schedule, dim=3, horizon=8, trials=1, seed=1)[0, 7]
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_power_law_energy_decays(self):
        schedule = NoiseSchedule.power(beta=1.0, scale=1.0)
        assert schedule.sigma_sq_array(0, 10)[0] == pytest.approx(1.0)
        assert schedule.sigma_sq_array(0, 10)[9] == pytest.approx(0.1)
        schedule2 = NoiseSchedule.power(beta=2.0, scale=3.0)
        assert schedule2.sigma_sq_array(2, 3)[0] == pytest.approx(3.0 / 9.0)

    def test_energy_honest_under_identity_metric(self):
        """Mean of |xi|^2 over 1e5 draws matches the configured level 1.0."""
        schedule = NoiseSchedule.constant(1.0)
        draws = _noise_increments(schedule, dim=2, horizon=50, trials=2000, seed=5)
        assert draws.shape == (2000, 50, 2)
        energies = (draws**2).sum(axis=2)
        assert abs(energies.mean() - 1.0) <= 0.02

    def test_energy_honest_under_general_metric(self):
        """Quadratic-form energy tracks sigma_t^2 within five standard errors."""
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        metric = LyapunovMetric(p)
        schedule = NoiseSchedule.power(beta=1.0, scale=2.0, metric=metric)
        n = 4000
        increments = _noise_increments(schedule, dim=2, horizon=21, trials=n, seed=6)
        for t in (0, 3, 20):
            draws = increments[:, t]
            energy = np.einsum("ij,jk,ik->i", draws, p, draws)
            sigma_sq = schedule.sigma_sq_array(t, t + 1)[0]
            stderr = sigma_sq * np.sqrt(2.0 / 2.0) / np.sqrt(n)
            assert abs(energy.mean() - sigma_sq) <= 5.0 * stderr

    def test_replay_determinism(self):
        schedule = NoiseSchedule.power(beta=1.0)
        a = _noise_increments(schedule, dim=4, horizon=4, trials=1, seed=9)[0, 3]
        b = _noise_increments(schedule, dim=4, horizon=4, trials=1, seed=9)[0, 3]
        np.testing.assert_array_equal(a, b)


class TestSampleSchedule:
    def test_constant_size(self):
        schedule = SampleSchedule.constant_size(100)
        assert [schedule.size(t) for t in (0, 1, 50)] == [100, 100, 100]

    def test_power_growth_with_ceiling(self):
        schedule = SampleSchedule.power(base=10, exponent=2.0)
        assert schedule.size(0) == 10
        assert schedule.size(1) == 10
        assert schedule.size(3) == 90
        half = SampleSchedule.power(base=10, exponent=0.5)
        assert half.size(2) == int(np.ceil(10 * np.sqrt(2.0)))

    def test_invalid_base_rejected(self):
        with pytest.raises(InputValidationError):
            SampleSchedule.constant_size(0)


class TestDynamicsTrajectory:
    def test_constant_quarter_contraction_is_exact(self):
        """A = 0.5 I keeps exactly a quarter of the energy each step."""
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.constant(0.75), metric)
        traj = _one_trial(
            map_, NoiseSchedule.zero(), np.array([1.0, 0.0]), horizon=8, seed=1
        )
        np.testing.assert_allclose(traj.vs, 0.25 ** np.arange(9), rtol=1e-12)

    def test_sqrt_contraction_first_step_halves_energy_three(self):
        """From V = 3 the state-dependent rate is 0.5, so one step lands on 1.5."""
        metric = LyapunovMetric.identity(3)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        traj = _one_trial(map_, NoiseSchedule.zero(), np.ones(3), horizon=1, seed=1)
        assert traj.vs[0] == pytest.approx(3.0)
        assert traj.vs[1] == pytest.approx(1.5, rel=1e-12)

    def test_identity_map_random_walk_energy_grows_linearly(self):
        """With no pull and unit noise the mean energy at t is t itself."""
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.constant(0.0), metric)
        stats = run_dynamics_trials(
            map_, NoiseSchedule.constant(1.0), np.zeros(2), horizon=100,
            trials=1000, rng=RngState(seed=17),
        )
        assert abs(stats.mean_v[100] - 100.0) <= 10.0

    def test_energy_column_matches_error_column(self):
        metric = LyapunovMetric(np.array([[2.0, 0.5], [0.5, 1.0]]))
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        traj = _one_trial(
            map_, NoiseSchedule.power(beta=1.0), np.array([2.0, -1.0]), horizon=40,
            seed=23,
        )
        assert traj.errors.shape == (41, 2)
        for t in (0, 7, 40):
            assert traj.vs[t] == pytest.approx(
                metric.value(traj.errors[t]), rel=1e-12
            )

    def test_divergence_freezes_and_records_step(self):
        metric = LyapunovMetric.identity(1)
        map_ = ContractionMap.explicit(lambda e: 4.0 * np.eye(1), metric)
        traj = _one_trial(
            map_, NoiseSchedule.zero(), np.array([1.0]), horizon=40, seed=2,
            divergence_cap=1e6,
        )
        assert traj.diverged_at is not None
        frozen = traj.vs[traj.diverged_at]
        assert np.all(traj.vs[traj.diverged_at:] == frozen)
        assert np.all(np.isfinite(traj.vs))

    def test_replay_determinism(self):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        a = _one_trial(map_, NoiseSchedule.power(beta=1.0), np.ones(2), horizon=30, seed=77)
        b = _one_trial(map_, NoiseSchedule.power(beta=1.0), np.ones(2), horizon=30, seed=77)
        np.testing.assert_array_equal(a.errors, b.errors)


def _flat_trajectory(norm: float, horizon: int, trial_id: int = 0) -> ErrorTrajectory:
    errors = np.full((horizon + 1, 1), norm)
    return ErrorTrajectory(
        ts=np.arange(horizon + 1),
        errors=errors,
        vs=(errors**2).sum(axis=1),
        ns=np.zeros(horizon + 1, dtype=int),
        horizon=horizon,
        trial_id=trial_id,
    )


class TestAggregateExceedance:
    def test_unit_norm_against_small_threshold(self):
        stats = aggregate_exceedance([_flat_trajectory(1.0, 5)], deltas=(0.5,))
        np.testing.assert_array_equal(stats.exceedance_at(0.5), np.ones(6))

    def test_unit_norm_against_large_threshold(self):
        stats = aggregate_exceedance([_flat_trajectory(1.0, 5)], deltas=(2.0,))
        np.testing.assert_array_equal(stats.exceedance_at(2.0), np.zeros(6))

    def test_a_repeated_delta_is_counted_once(self):
        stats = aggregate_exceedance([_flat_trajectory(1.0, 5)], deltas=(0.5, 0.5))
        np.testing.assert_array_equal(stats.exceedance_at(0.5), np.ones(6))

    def test_mixed_horizons_rejected(self):
        with pytest.raises(InputValidationError):
            aggregate_exceedance(
                [_flat_trajectory(1.0, 5), _flat_trajectory(1.0, 6, trial_id=1)]
            )

    def test_diverged_trials_count_as_exceeding(self):
        metric = LyapunovMetric.identity(1)
        blow_up = ContractionMap.explicit(lambda e: 4.0 * np.eye(1), metric)
        diverged = _one_trial(
            blow_up, NoiseSchedule.zero(), np.array([1.0]), horizon=30, seed=3,
            divergence_cap=1e6,
        )
        stats = aggregate_exceedance([diverged], deltas=(0.1,))
        after = stats.exceedance_at(0.1)[diverged.diverged_at:]
        np.testing.assert_array_equal(after, np.ones_like(after))

    def test_fractions_average_over_trials(self):
        stats = aggregate_exceedance(
            [_flat_trajectory(1.0, 4), _flat_trajectory(3.0, 4, trial_id=1)],
            deltas=(2.0,),
        )
        np.testing.assert_array_equal(stats.exceedance_at(2.0), np.full(5, 0.5))
        assert stats.trials == 2


class TestRunDynamicsTrials:
    def test_first_step_is_the_scaled_draw_of_the_trial_stream(self):
        """From e0 = 0 under A = I, trial i's first state is its own stream's first draw."""
        dim = 2
        noise = NoiseSchedule.power(beta=1.0)
        root = RngState(seed=99)
        increments = _noise_increments(noise, dim=dim, horizon=25, trials=3, seed=99)
        scale = np.sqrt(noise.sigma_sq_array(0, 1)[0] / dim)
        for index in range(3):
            z = root.derive(index).generator().standard_normal((1, dim))[0]
            np.testing.assert_array_equal(increments[index, 0], scale * z)

    def test_leading_trials_do_not_depend_on_the_trial_count(self):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        noise = NoiseSchedule.power(beta=1.0)
        runs = [
            run_dynamics_trials(
                map_, noise, np.ones(2), horizon=25, trials=trials, rng=RngState(seed=99),
                record_trajectories=True,
            )[1]
            for trials in (300, 5)
        ]
        for many, few in zip(runs[0][:5], runs[1]):
            assert many.trial_id == few.trial_id
            np.testing.assert_array_equal(many.errors, few.errors)

    def test_worker_count_does_not_change_results(self):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        noise = NoiseSchedule.power(beta=1.0)
        one = run_dynamics_trials(
            map_, noise, np.ones(2), horizon=20, trials=300, rng=RngState(seed=4),
            workers=1,
        )
        two = run_dynamics_trials(
            map_, noise, np.ones(2), horizon=20, trials=300, rng=RngState(seed=4),
            workers=2,
        )
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
            "noise": NoiseSchedule.zero(),
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
        traj = _one_workflow(
            model, theta_star, SampleSchedule.constant_size(100), horizon=0, seed=12
        )
        assert traj.errors.shape == (1, 1)
        assert abs(traj.errors[0, 0]) < 1.0

    def test_error_is_estimate_minus_truth(self):
        model, theta_star = _gaussian(2)
        traj = _one_workflow(
            model, theta_star, SampleSchedule.constant_size(50), horizon=3, seed=13
        )
        assert traj.errors.shape == (4, 2)
        np.testing.assert_allclose(
            traj.vs, (traj.errors**2).sum(axis=1), rtol=1e-12
        )

    def test_mean_squared_error_accumulates_at_inverse_sample_rate(self):
        """Constant n = 100: after T generations the expected energy is T/100."""
        model, theta_star = _gaussian(1)
        stats = run_workflow_trials(
            model, theta_star, SampleSchedule.constant_size(100), horizon=50,
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
            model, theta_star, SampleSchedule.power(base=20, exponent=2.0),
            horizon=40, trials=150, rng=RngState(seed=43),
        )
        assert abs(stats.mse[40] - stats.mse[20]) <= 0.05
        assert stats.mse[40] <= 0.25

    def test_replay_determinism(self):
        model, theta_star = _gaussian(1)
        a = run_workflow_trials(
            model, theta_star, SampleSchedule.constant_size(40), horizon=10,
            trials=20, rng=RngState(seed=3),
        )
        b = run_workflow_trials(
            model, theta_star, SampleSchedule.constant_size(40), horizon=10,
            trials=20, rng=RngState(seed=3),
        )
        np.testing.assert_array_equal(a.mse, b.mse)

    @pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "oracle-pullback"])
    def test_worker_count_does_not_change_results(self, filtered):
        model, theta_star = _gaussian(2)
        extra = {}
        if filtered:
            extra = {
                "filter_handle": FilterHandle.oracle_pullback(theta_star, gamma=0.5),
                "candidates_per_round": 40,
            }
        one, two = (
            run_workflow_trials(
                model, theta_star, SampleSchedule.constant_size(20), horizon=3,
                trials=300, rng=RngState(seed=8), workers=workers, **extra,
            )
            for workers in (1, 2)
        )
        np.testing.assert_array_equal(one.mse, two.mse)
        np.testing.assert_array_equal(one.mean_v, two.mean_v)
        assert one.exceedance.keys() == two.exceedance.keys()
        for delta in one.exceedance:
            np.testing.assert_array_equal(one.exceedance[delta], two.exceedance[delta])


class TestRunWorkflowFiltered:
    def test_all_ones_filter_matches_unfiltered_bitwise(self):
        model, theta_star = _gaussian(2)
        schedule = SampleSchedule.constant_size(80)
        plain = _one_workflow(model, theta_star, schedule, horizon=12, seed=21)
        filtered = _one_workflow(
            model, theta_star, schedule, horizon=12, seed=21,
            filter_handle=FilterHandle.all_ones(), candidates_per_round=80,
        )
        np.testing.assert_array_equal(plain.errors, filtered.errors)

    def test_all_zero_weights_raise_degenerate_selection(self):
        model, theta_star = _gaussian(1)
        pca = fit_pca(np.linspace(-1.0, 1.0, 32)[:, None], k=1)
        dead = FilterParams(
            w1=np.zeros((4, 1)), b1=np.zeros(4), w2=np.zeros(4), b2=-1000.0
        )
        handle = FilterHandle.mlp(dead, pca)
        with pytest.raises(DegenerateSelectionError):
            _one_workflow(
                model, theta_star, SampleSchedule.constant_size(50), horizon=2, seed=1,
                filter_handle=handle, candidates_per_round=50,
            )

    def test_oracle_filter_keeps_error_bounded(self):
        """Pullback filtering pins the chain near the anchor while n stays fixed."""
        model, theta_star = _gaussian(2)
        handle = FilterHandle.oracle_pullback(theta_star, gamma=0.5)
        stats = run_workflow_trials(
            model, theta_star, SampleSchedule.constant_size(100), horizon=60,
            trials=30, rng=RngState(seed=31), filter_handle=handle,
            candidates_per_round=400,
        )
        assert stats.mse[60] <= 0.05
        assert stats.mse[60] <= stats.mse[5] * 5.0

    def test_candidate_count_must_be_positive(self):
        model, theta_star = _gaussian(1)
        with pytest.raises(InputValidationError):
            _one_workflow(
                model, theta_star, SampleSchedule.constant_size(10), horizon=2, seed=1,
                filter_handle=FilterHandle.all_ones(), candidates_per_round=0,
            )


def _run_lambda_map_on_two_workers():
    map_ = ContractionMap.explicit(lambda e: 0.5 * np.eye(2), LyapunovMetric.identity(2))
    run_dynamics_trials(
        map_, NoiseSchedule.zero(), np.ones(2), horizon=2, trials=300,
        rng=RngState(seed=1), workers=2,
    )


def _run_local_filter_on_two_workers():
    class LocalFilter:
        def weights(self, points):
            return np.ones(len(points))

    model, theta_star = _gaussian(1)
    run_workflow_trials(
        model, theta_star, SampleSchedule.constant_size(10), horizon=2, trials=300,
        rng=RngState(seed=1), filter_handle=LocalFilter(), workers=2,
    )


@pytest.mark.parametrize(
    "run",
    [_run_lambda_map_on_two_workers, _run_local_filter_on_two_workers],
    ids=["lambda-matrix-fn", "local-filter-class"],
)
def test_work_that_cannot_be_pickled_raises_a_named_error(run):
    with pytest.raises(InputValidationError, match="COLLAPSEGUARD_WORKERS=1"):
        run()


# ---------------------------------------------------------------------------
# The workflow kernel against a trial-by-trial loop on the public expfam API
# ---------------------------------------------------------------------------


def _reference_trial(model, theta_star, schedule, horizon, gen, handle, candidates, cap):
    """One workflow trial, generation by generation, as (errors, vs, ns, diverged_at)."""
    n = horizon + 1
    errors = np.empty((n, model.dim))
    ns = np.zeros(n, dtype=np.int64)
    current, diverged_at = theta_star, None
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


def _assert_trajectories_match(trajectories, outcomes):
    assert len(trajectories) == len(outcomes)
    for i, (traj, outcome) in enumerate(zip(trajectories, outcomes)):
        assert isinstance(outcome, tuple), f"reference trial {i} failed: {outcome}"
        errors, vs, ns, diverged_at = outcome
        assert traj.trial_id == i
        np.testing.assert_array_equal(traj.errors, errors)
        np.testing.assert_array_equal(traj.vs, vs)
        np.testing.assert_array_equal(traj.ns, ns)
        assert traj.diverged_at == diverged_at


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
    "constant": SampleSchedule.constant_size(100),
    "power": SampleSchedule.power(base=40, exponent=1.0),
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
        stats, trajectories = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=(0.05, 0.2, 1.0), record_trajectories=True,
            **extra,
        )
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, **extra
        )
        _assert_trajectories_match(trajectories, outcomes)
        _assert_stats_equal(stats, aggregate_exceedance(trajectories, (0.05, 0.2, 1.0)))
        unrecorded = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=(0.05, 0.2, 1.0), **extra,
        )
        _assert_stats_equal(unrecorded, stats)

    def test_first_failure_in_trial_order_is_raised(self):
        """Bernoulli fits on 4 draws hit the boundary in most trials, at different generations."""
        model = ExpFamilyModel(BERNOULLI, 1)
        theta_star = Parameter(np.zeros(1), model)
        schedule = SampleSchedule.constant_size(4)
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
        schedule = SampleSchedule.constant_size(10)
        horizon, trials, seed, cap = 8, 300, 9, 0.05
        deltas = (0.1, 1e6)
        stats, trajectories = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=deltas, divergence_cap=cap,
            record_trajectories=True,
        )
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, divergence_cap=cap
        )
        _assert_trajectories_match(trajectories, outcomes)
        diverged = [traj for traj in trajectories if traj.diverged_at is not None]
        assert 0 < len(diverged) < trials
        assert any(traj.diverged_at > 0 for traj in diverged)
        for traj in diverged:
            k = traj.diverged_at
            assert traj.vs[k] > cap
            assert np.all(traj.vs[:k] <= cap)
            np.testing.assert_array_equal(
                traj.errors[k:], np.repeat(traj.errors[k : k + 1], horizon + 1 - k, axis=0)
            )
            assert np.all(traj.ns[: k + 1] == 10)
            assert np.all(traj.ns[k + 1 :] == 0)
        # No error norm reaches 1e6, so exceedance there counts diverged trials only.
        frozen_by = np.array([
            sum(traj.diverged_at <= t for traj in diverged) for t in range(horizon + 1)
        ])
        np.testing.assert_array_equal(stats.exceedance_at(1e6), frozen_by / trials)
        assert np.all(stats.exceedance_at(0.1) >= frozen_by / trials)
        _assert_stats_equal(stats, aggregate_exceedance(trajectories, deltas))

    def test_sample_sizes_follow_the_live_trials(self):
        """n_t is the schedule size while any trial samples, not trial 0's count."""
        model, theta_star = _gaussian(1)
        schedule = SampleSchedule.constant_size(10)
        horizon, trials, seed, cap = 8, 50, 9, 0.05
        stats, trajectories = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), divergence_cap=cap, record_trajectories=True,
        )
        first = trajectories[0].diverged_at
        live = np.array([
            [traj.diverged_at is None or t <= traj.diverged_at for traj in trajectories]
            for t in range(horizon + 1)
        ]).any(axis=1)
        # precondition: another trial still samples after trial 0 has frozen
        assert first is not None and first < horizon and live[first + 1]
        np.testing.assert_array_equal(stats.ns, np.where(live, 10, 0))
        np.testing.assert_array_equal(aggregate_exceedance(trajectories).ns, stats.ns)
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
                model, theta_star, SampleSchedule.constant_size(10), horizon=3,
                trials=3, rng=RngState(seed=1), filter_handle=_OneWeightTooMany(),
            )


class _OneWeightTooMany:
    def weights(self, points):
        return np.ones(len(points) + 1)
