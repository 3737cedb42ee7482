"""Tests for the error-dynamics and recursive-training workflow simulators."""

import numpy as np
import pytest

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
    run_workflow,
    run_workflow_filtered,
    run_workflow_trials,
    sample_noise,
    simulate_error_dynamics,
)
from collapseguard.errors import (
    DegenerateSelectionError,
    InputValidationError,
)
from collapseguard.expfam import GAUSSIAN, ExpFamilyModel, Parameter
from collapseguard.filtering import FilterHandle, FilterParams, fit_pca
from collapseguard.numerics import RngState


def _gaussian(dim: int = 1):
    model = ExpFamilyModel(GAUSSIAN, dim)
    return model, Parameter(np.ones(dim), model)


class TestNoiseSchedule:
    def test_zero_schedule_returns_zero_vector(self):
        schedule = NoiseSchedule.zero()
        out = sample_noise(schedule, t=7, dim=3, rng=RngState(seed=1))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_power_law_energy_decays(self):
        schedule = NoiseSchedule.power(beta=1.0, scale=1.0)
        assert schedule.sigma_sq(0) == pytest.approx(1.0)
        assert schedule.sigma_sq(9) == pytest.approx(0.1)
        schedule2 = NoiseSchedule.power(beta=2.0, scale=3.0)
        assert schedule2.sigma_sq(2) == pytest.approx(3.0 / 9.0)

    def test_vanishing_flag(self):
        assert NoiseSchedule.zero().vanishes
        assert NoiseSchedule.power(beta=0.5).vanishes
        assert not NoiseSchedule.constant(1.0).vanishes

    def test_energy_honest_under_identity_metric(self):
        """Mean of |xi|^2 over 1e5 draws matches the configured level 1.0."""
        schedule = NoiseSchedule.constant(1.0)
        gen = RngState(seed=5).generator()
        draws = np.stack(
            [sample_noise(schedule, t=0, dim=2, rng=gen) for _ in range(2000)]
        )
        # Supplement with the vectorized path for bulk statistics.
        energies = (draws**2).sum(axis=1)
        extra = gen.standard_normal(size=(98_000, 2)) * np.sqrt(1.0 / 2.0)
        energies = np.concatenate([energies, (extra**2).sum(axis=1)])
        assert abs(energies.mean() - 1.0) <= 0.02

    def test_energy_honest_under_general_metric(self):
        """Quadratic-form energy tracks sigma_t^2 within five standard errors."""
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        metric = LyapunovMetric(p)
        schedule = NoiseSchedule.power(beta=1.0, scale=2.0, metric=metric)
        gen = RngState(seed=6).generator()
        for t in (0, 3, 20):
            n = 4000
            draws = np.stack(
                [sample_noise(schedule, t=t, dim=2, rng=gen) for _ in range(n)]
            )
            energy = np.einsum("ij,jk,ik->i", draws, p, draws)
            sigma_sq = schedule.sigma_sq(t)
            stderr = sigma_sq * np.sqrt(2.0 / 2.0) / np.sqrt(n)
            assert abs(energy.mean() - sigma_sq) <= 5.0 * stderr

    def test_replay_determinism(self):
        schedule = NoiseSchedule.power(beta=1.0)
        a = sample_noise(schedule, t=3, dim=4, rng=RngState(seed=9))
        b = sample_noise(schedule, t=3, dim=4, rng=RngState(seed=9))
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


class TestSimulateErrorDynamics:
    def test_constant_quarter_contraction_is_exact(self):
        """A = 0.5 I keeps exactly a quarter of the energy each step."""
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.constant(0.75), metric)
        traj = simulate_error_dynamics(
            map_, NoiseSchedule.zero(), np.array([1.0, 0.0]), horizon=8,
            rng=RngState(seed=1),
        )
        np.testing.assert_allclose(traj.vs, 0.25 ** np.arange(9), rtol=1e-12)

    def test_sqrt_contraction_first_step_halves_energy_three(self):
        """From V = 3 the state-dependent rate is 0.5, so one step lands on 1.5."""
        metric = LyapunovMetric.identity(3)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        traj = simulate_error_dynamics(
            map_, NoiseSchedule.zero(), np.ones(3), horizon=1, rng=RngState(seed=1)
        )
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
        traj = simulate_error_dynamics(
            map_, NoiseSchedule.power(beta=1.0), np.array([2.0, -1.0]), horizon=40,
            rng=RngState(seed=23),
        )
        assert traj.errors.shape == (41, 2)
        for t in (0, 7, 40):
            assert traj.vs[t] == pytest.approx(
                metric.value(traj.errors[t]), rel=1e-12
            )

    def test_divergence_freezes_and_records_step(self):
        metric = LyapunovMetric.identity(1)
        map_ = ContractionMap.explicit(lambda e: 4.0 * np.eye(1), metric)
        traj = simulate_error_dynamics(
            map_, NoiseSchedule.zero(), np.array([1.0]), horizon=40,
            rng=RngState(seed=2), divergence_cap=1e6,
        )
        assert traj.diverged_at is not None
        frozen = traj.vs[traj.diverged_at]
        assert np.all(traj.vs[traj.diverged_at:] == frozen)
        assert np.all(np.isfinite(traj.vs))

    def test_replay_determinism(self):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        a = simulate_error_dynamics(
            map_, NoiseSchedule.power(beta=1.0), np.ones(2), horizon=30,
            rng=RngState(seed=77),
        )
        b = simulate_error_dynamics(
            map_, NoiseSchedule.power(beta=1.0), np.ones(2), horizon=30,
            rng=RngState(seed=77),
        )
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

    def test_mixed_horizons_rejected(self):
        with pytest.raises(InputValidationError):
            aggregate_exceedance(
                [_flat_trajectory(1.0, 5), _flat_trajectory(1.0, 6, trial_id=1)]
            )

    def test_diverged_trials_count_as_exceeding(self):
        metric = LyapunovMetric.identity(1)
        blow_up = ContractionMap.explicit(lambda e: 4.0 * np.eye(1), metric)
        diverged = simulate_error_dynamics(
            blow_up, NoiseSchedule.zero(), np.array([1.0]), horizon=30,
            rng=RngState(seed=3), divergence_cap=1e6,
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
    def test_batch_matches_single_simulation_bitwise(self):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap.scaled_identity(ContractionFn.example_sqrt(), metric)
        noise = NoiseSchedule.power(beta=1.0)
        root = RngState(seed=99)
        _, trajectories = run_dynamics_trials(
            map_, noise, np.ones(2), horizon=25, trials=3, rng=root,
            record_trajectories=True,
        )
        for index, traj in enumerate(trajectories):
            solo = simulate_error_dynamics(
                map_, noise, np.ones(2), horizon=25, rng=root.derive(index),
                trial_id=index,
            )
            np.testing.assert_array_equal(traj.errors, solo.errors)

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


class TestRunWorkflow:
    def test_zero_horizon_contains_only_initial_fit_error(self):
        model, theta_star = _gaussian(1)
        traj = run_workflow(
            model, theta_star, SampleSchedule.constant_size(100), horizon=0,
            rng=RngState(seed=12),
        )
        assert traj.errors.shape == (1, 1)
        assert abs(traj.errors[0, 0]) < 1.0

    def test_error_is_estimate_minus_truth(self):
        model, theta_star = _gaussian(2)
        traj = run_workflow(
            model, theta_star, SampleSchedule.constant_size(50), horizon=3,
            rng=RngState(seed=13),
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


class TestRunWorkflowFiltered:
    def test_all_ones_filter_matches_unfiltered_bitwise(self):
        model, theta_star = _gaussian(2)
        schedule = SampleSchedule.constant_size(80)
        plain = run_workflow(
            model, theta_star, schedule, horizon=12, rng=RngState(seed=21)
        )
        filtered = run_workflow_filtered(
            model, theta_star, schedule, horizon=12,
            filter_handle=FilterHandle.all_ones(), candidates_per_round=80,
            rng=RngState(seed=21),
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
            run_workflow_filtered(
                model, theta_star, SampleSchedule.constant_size(50), horizon=2,
                filter_handle=handle, candidates_per_round=50, rng=RngState(seed=1),
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
            run_workflow_filtered(
                model, theta_star, SampleSchedule.constant_size(10), horizon=2,
                filter_handle=FilterHandle.all_ones(), candidates_per_round=0,
                rng=RngState(seed=1),
            )
