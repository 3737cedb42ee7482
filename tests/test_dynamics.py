"""Tests for the error-dynamics and recursive-training workflow simulators."""

import concurrent.futures
import math
import os
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from collapseguard import dynamics, expfam
from collapseguard.contraction import (
    ContractionFn,
    ContractionMap,
    LyapunovMetric,
)
from collapseguard.dynamics import (
    DEFAULT_DELTAS,
    DIVERGENCE_CAP,
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
from collapseguard.experiments import FilterSpec
from collapseguard.expfam import (
    BERNOULLI,
    EXPONENTIAL,
    GAUSSIAN,
    POISSON,
    ExpFamilyModel,
    Parameter,
)
from collapseguard.filtering import FilterHandle, FilterParams, fit_pca
from collapseguard.numerics import STACK_LIMIT, RngState

ZERO_NOISE = NoiseSchedule("zero")


def _gaussian(dim: int = 1):
    model = ExpFamilyModel(GAUSSIAN, dim)
    return model, Parameter(np.ones(dim), model)


def _reference_dynamics(map_, noise, e0, horizon, trials, rng, cap=math.inf, group=1):
    """Dynamics trials replayed one at a time, step by step: (errors, sq, vs, diverged_at).

    Trial i draws its noise path from ``rng.derive(i)``, shapes it by the
    metric's inverse factor and scales step t by sqrt(sigma_t^2 / dim); a step
    adds it only where that scale is positive. A trial freezes, holding its
    state, from the step whose V first exceeds ``cap``. ``errors`` holds the
    (trials, horizon+1, dim) paths, ``sq`` and ``vs`` their ||e||^2 and V,
    ``diverged_at`` each freezing step, inf if none. Each trial runs alone on
    a (1, dim) state unless ``group`` > 1 runs that many as one state: the
    same bits, since V and the map give a row the bits of its one-row call
    (test_contraction.py pins this), only faster.
    """
    metric, dim = map_.metric, map_.metric.dim
    n = horizon + 1
    errors, sq, vs = np.empty((trials, n, dim)), np.empty((trials, n)), np.empty((trials, n))
    diverged_at = np.full(trials, np.inf)
    scales = np.sqrt(noise.sigma_sq_array(0, horizon) / dim)
    for lo in range(0, trials, group):
        hi = min(lo + group, trials)
        xi = np.zeros((hi - lo, horizon, dim))
        if noise.kind != "zero":
            for i in range(lo, hi):
                rng.derive(i).generator().standard_normal(out=xi[i - lo])
            if not metric.is_identity:
                xi = np.einsum("rsk,jk->rsj", xi, metric.inverse_factor)
            xi *= scales[:, None]
        e = np.tile(np.asarray(e0, dtype=float), (hi - lo, 1))
        live = np.ones(hi - lo, dtype=bool)
        for t in range(n):
            errors[lo:hi, t] = e
            sq[lo:hi, t] = np.einsum("ij,ij->i", e, e)
            vs[lo:hi, t] = metric.values(e)
            over = live & (vs[lo:hi, t] > cap)
            diverged_at[lo:hi][over] = t
            live &= ~over
            if t < horizon:
                moved = map_.apply_batch(e, vs[lo:hi, t])
                if scales[t] > 0.0:
                    moved += xi[:, t]
                e = np.where(live[:, None], moved, e)
    return errors, sq, vs, diverged_at


def _block_sums(x) -> np.ndarray:
    """Per-step sums over the trials of (trials, steps) ``x``, added as a dynamics run adds them.

    Each step's 256-trial blocks are summed as contiguous 1-d slices, and the
    block sums are added in block order, starting from zeros.
    """
    columns = np.ascontiguousarray(x.T)
    total = np.zeros(x.shape[1])
    for lo in range(0, x.shape[0], 256):
        total += np.array([column[lo : lo + 256].sum() for column in columns])
    return total


def _dynamics_stats(sq, vs, diverged_at, deltas):
    """The TrialStats a dynamics run folds from these paths: exceedance as
    ``aggregate_exceedance`` counts it, MSE and mean V from ``_block_sums``."""
    stats = aggregate_exceedance(sq, vs, diverged_at, np.zeros(sq.shape, dtype=int), deltas)
    stats.mse, stats.mean_v = (_block_sums(x) / sq.shape[0] for x in (sq, vs))
    return stats


def _checked_reference(
    map_, noise, e0, horizon, trials, seed, deltas=DEFAULT_DELTAS,
    divergence_cap=DIVERGENCE_CAP, group=1,
):
    """(stats, errors, vs, diverged_at): a run's statistics, and the reference paths they fold
    from bit for bit."""
    rng = RngState(seed=seed)
    stats = run_dynamics_trials(
        map_, noise, e0, horizon, trials, rng, deltas=deltas, divergence_cap=divergence_cap
    )
    errors, sq, vs, diverged_at = _reference_dynamics(
        map_, noise, e0, horizon, trials, rng, divergence_cap, group
    )
    _assert_stats_equal(stats, _dynamics_stats(sq, vs, diverged_at, deltas))
    return stats, errors, vs, diverged_at


def _one_trial(map_, noise, e0, horizon, seed, divergence_cap=DIVERGENCE_CAP):
    """One dynamics trial as (stats, errors, diverged_at); its V path is ``stats.mean_v``."""
    stats, errors, _, diverged_at = _checked_reference(
        map_, noise, e0, horizon, 1, seed, divergence_cap=divergence_cap
    )
    return stats, errors[0], diverged_at[0]


def _noise_increments(noise, dim, horizon, trials, seed, metric=None) -> np.ndarray:
    """(trials, horizon, dim) draws xi_t, read as e_{t+1} - e_t of A = I runs from 0."""
    identity = ContractionMap(
        metric or LyapunovMetric.identity(dim), ContractionFn("constant", level=0.0)
    )
    errors = _checked_reference(
        identity, noise, np.zeros(dim), horizon, trials, seed, group=trials
    )[1]
    return np.diff(errors, axis=1)


class _Quadrupling(ContractionMap):
    """A(e) = 4 I, which expands: a map outside Assumption 1. Its ``c_fn`` is unused."""

    def apply_batch(self, errors, v):
        return 4.0 * errors


class _BlowUpPast2_5(ContractionMap):
    """A(e) that sends the state to infinity once its first coordinate passes 2.5, else to 0."""

    def apply_batch(self, errors, v):
        return np.where(errors[:, :1] > 2.5, np.inf, 0.0) * np.ones_like(errors)


def _bounds(args, lo, hi):
    """A kernel pass whose job is its trial bounds."""
    return lo, hi


class _JobList:
    """A fold that keeps the jobs it is given, in order, as its result."""

    def __init__(self):
        self.jobs = []

    def add(self, job):
        self.jobs.append(job)

    def result(self):
        return self.jobs


class _InProcessPool:
    """A ``ProcessPoolExecutor`` stand-in that maps in this process, so no process starts."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def _one_workflow(model, theta_star, schedule, horizon, seed, **kwargs):
    """One workflow trial's statistics; its ``mse`` is that trial's V path."""
    return run_workflow_trials(
        model, theta_star, schedule, horizon=horizon, trials=1, rng=RngState(seed=seed), **kwargs,
    )


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": math.inf},
            {"scale": math.nan},
            {"kind": "constant", "scale": -1.0},
            {"beta": 0.0},
            {"beta": math.nan},
        ],
    )
    def test_non_finite_or_negative_levels_are_rejected(self, kwargs):
        with pytest.raises(InputValidationError):
            NoiseSchedule(**kwargs)

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

    @pytest.mark.parametrize("kind", ["constant", "power"])
    def test_a_nan_exponent_is_rejected(self, kind):
        with pytest.raises(InputValidationError, match="^exponent must be nonnegative$"):
            SampleSchedule(kind, exponent=math.nan)


class TestDynamicsTrajectory:
    def test_constant_quarter_contraction_is_exact(self):
        """A = 0.5 I keeps exactly a quarter of the energy each step."""
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap(metric, ContractionFn("constant", level=0.75))
        stats, _, _ = _one_trial(map_, ZERO_NOISE, np.array([1.0, 0.0]), horizon=8, seed=1)
        np.testing.assert_allclose(stats.mean_v, 0.25 ** np.arange(9), rtol=1e-12)

    def test_sqrt_contraction_first_step_halves_energy_three(self):
        """From V = 3 the state-dependent rate is 0.5, so one step lands on 1.5."""
        metric = LyapunovMetric.identity(3)
        map_ = ContractionMap(metric, ContractionFn())
        stats, _, _ = _one_trial(map_, ZERO_NOISE, np.ones(3), horizon=1, seed=1)
        assert stats.mean_v[0] == pytest.approx(3.0)
        assert stats.mean_v[1] == pytest.approx(1.5, rel=1e-12)

    def test_identity_map_random_walk_energy_grows_linearly(self):
        """With no pull and unit noise the mean energy at t is t itself."""
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap(metric, ContractionFn("constant", level=0.0))
        stats = run_dynamics_trials(
            map_, NoiseSchedule("constant", scale=1.0), np.zeros(2), horizon=100,
            trials=1000, rng=RngState(seed=17),
        )
        assert abs(stats.mean_v[100] - 100.0) <= 10.0

    def test_energy_column_matches_error_column(self):
        metric = LyapunovMetric(np.array([[2.0, 0.5], [0.5, 1.0]]))
        map_ = ContractionMap(metric, ContractionFn())
        stats, errors, _ = _one_trial(
            map_, NoiseSchedule(beta=1.0), np.array([2.0, -1.0]), horizon=40, seed=23,
        )
        assert errors.shape == (41, 2)
        for t in (0, 7, 40):
            assert stats.mean_v[t] == pytest.approx(metric.value(errors[t]), rel=1e-12)

    def test_divergence_freezes_and_records_step(self):
        map_ = _Quadrupling(LyapunovMetric.identity(1), ContractionFn())
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
        map_ = ContractionMap(metric, ContractionFn())
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
        blow_up = _Quadrupling(LyapunovMetric.identity(1), ContractionFn())
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


class TestDynamicsFoldMatchesTheReferenceFold:
    """A dynamics run's statistics are the block fold of the per-trial reference paths."""

    @pytest.mark.parametrize(
        "p_matrix",
        [np.eye(2), np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])],
        ids=["identity", "general-dim3"],
    )
    def test_a_run_folds_as_the_reference_paths_do(self, p_matrix, monkeypatch):
        metric = LyapunovMetric(p_matrix)
        map_ = ContractionMap(metric, ContractionFn("constant", level=0.1))
        noise, e0, rng = NoiseSchedule("constant", scale=1.0), np.ones(metric.dim), RngState(5)
        deltas, trials = (0.5, 1.0, 2.0, 4.0), 300
        errors, sq, vs, diverged_at = _reference_dynamics(map_, noise, e0, 40, trials, rng, 25.0)
        # precondition: two blocks, and some trials of each freeze under the cap while others run on
        assert 0 < np.isfinite(diverged_at[:256]).sum() < 256
        assert 0 < np.isfinite(diverged_at[256:]).sum() < trials - 256
        # at every worker count each statistic, MSE and mean V included, is the
        # reference fold bit for bit
        expected = _dynamics_stats(sq, vs, diverged_at, deltas)
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
            stats = run_dynamics_trials(
                map_, noise, e0, 40, trials, rng, deltas=deltas, divergence_cap=25.0
            )
            _assert_stats_equal(stats, expected)
        # all trials run as one reference state get the bits each gets alone
        grouped = _reference_dynamics(map_, noise, e0, 40, trials, rng, 25.0, trials)
        assert grouped[0].tobytes() == errors.tobytes()
        assert grouped[2].tobytes() == vs.tobytes()
        assert grouped[3].tobytes() == diverged_at.tobytes()

    def test_after_a_freeze_the_map_reads_the_v_each_live_row_recorded(self, monkeypatch):
        """Under a general P the ``example-sqrt`` map reads V, not ||e||^2; once some
        trials freeze, the kernel hands it the recorded V of the live rows only."""
        metric = LyapunovMetric(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]))
        map_ = ContractionMap(metric, ContractionFn())
        noise, e0, rng = NoiseSchedule("constant", scale=4.0), np.ones(3), RngState(5)
        trials, cap = 300, 20.0
        _, sq, vs, diverged_at = _reference_dynamics(map_, noise, e0, 40, trials, rng, cap, trials)
        # precondition: both blocks hold trials that freeze and trials that run on
        assert 0 < np.isfinite(diverged_at[:256]).sum() < 256
        assert 0 < np.isfinite(diverged_at[256:]).sum() < trials - 256
        expected = _dynamics_stats(sq, vs, diverged_at, DEFAULT_DELTAS)
        for workers in ("1", "2"):
            monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
            stats = run_dynamics_trials(map_, noise, e0, 40, trials, rng, divergence_cap=cap)
            _assert_stats_equal(stats, expected)


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

    @pytest.mark.parametrize("dim, general", [(2, False), (4, True)], ids=["identity", "general-p"])
    def test_leading_trials_do_not_depend_on_the_trial_count(self, dim, general):
        metric = LyapunovMetric.identity(dim)
        if general:
            a = np.random.default_rng(3).standard_normal((dim, dim))
            metric = LyapunovMetric(a @ a.T + 0.5 * np.eye(dim))
        map_ = ContractionMap(metric, ContractionFn())
        noise = NoiseSchedule(beta=1.0)
        many, few = (
            _checked_reference(map_, noise, np.ones(dim), 25, trials, 99)[1] for trials in (300, 5)
        )
        assert many.shape == (300, 26, dim) and few.shape == (5, 26, dim)
        np.testing.assert_array_equal(many[:5], few)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap(metric, ContractionFn())
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

    def test_the_pool_is_no_larger_than_its_job_list(self, monkeypatch):
        """64 workers for 300 trials (2 jobs) open a pool of 2."""
        sizes = []

        class Recording(_InProcessPool):
            def __init__(self, max_workers):
                sizes.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "64")
        map_ = ContractionMap(LyapunovMetric.identity(2), ContractionFn())
        run_dynamics_trials(
            map_, ZERO_NOISE, np.ones(2), horizon=2, trials=300, rng=RngState(seed=1),
        )
        assert sizes == [2]

    @pytest.mark.parametrize(
        "trials, workers, jobs",
        [
            (300, 1, [(0, 256), (256, 300)]),
            (300, 2, [(0, 150), (150, 300)]),
            (5, 4, [(0, 2), (2, 4), (4, 5)]),
            (600, 2, [(0, 256), (256, 512), (512, 600)]),
        ],
    )
    def test_a_workflow_job_is_at_most_one_block_cut_to_use_every_worker(
        self, trials, workers, jobs, monkeypatch
    ):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", str(workers))
        kernel = (_bounds, *dynamics._WORKFLOW[1:])
        assert dynamics._run_trials(kernel, (), trials, _JobList()) == jobs

    @pytest.mark.parametrize("freezing", ["few", "most"])
    @pytest.mark.parametrize("trials", [1, 255, 257, 513, 1000])
    def test_lockstep_grouping_does_not_change_results(self, trials, freezing, monkeypatch):
        """Every worker count, and so every grouping of blocks into jobs, gives the same bits.

        The run uses a general P at dim 4, where a BLAS product would give a
        lone row other last bits than the same row in a batch. The cap freezes either the few
        trials whose V peaks highest, in some blocks only, or all but the
        lowest-peaking 2 %, so that blocks run down to one live trial. At 1000
        trials one worker draws 524-step chunks and then a one-step chunk at
        step 524 of the 525, where the other groupings draw a longer one. Every
        grouping folds the reference paths, run as one state, bit for bit.
        """
        dim = 4
        a = np.random.default_rng(3).standard_normal((dim, dim))
        metric = LyapunovMetric(a @ a.T + 0.5 * np.eye(dim))
        map_ = ContractionMap(metric, ContractionFn())
        noise = NoiseSchedule("constant", scale=2.0)

        def reference(cap):
            return _reference_dynamics(
                map_, noise, np.zeros(dim), 525, trials, RngState(seed=8), cap, group=trials
            )

        peaks = np.sort(reference(np.inf)[2].max(axis=1))
        cap = peaks[-min(3, trials)] if freezing == "few" else peaks[trials // 50]
        _, sq, vs, diverged_at = reference(cap)
        hit = np.unique(np.flatnonzero(np.isfinite(diverged_at)) // 256)
        if trials == 1000:
            assert 0 < hit.size < 4 if freezing == "few" else hit.size == 4
        expected = _dynamics_stats(sq, vs, diverged_at, (0.5, 2.0))
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
            stats = run_dynamics_trials(
                map_, noise, np.zeros(dim), horizon=525, trials=trials, rng=RngState(seed=8),
                deltas=(0.5, 2.0), divergence_cap=cap,
            )
            _assert_stats_equal(stats, expected)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_overflow_names_the_first_block_to_fail(self, workers, monkeypatch):
        """At this seed the second block loses its state at step 4, the first at step 11.

        Run one block at a time, the first block's failure is met first; in
        lockstep it still is. With two workers the error crosses from a
        worker process and keeps its step.
        """
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
        map_ = _BlowUpPast2_5(LyapunovMetric.identity(2), ContractionFn())
        errors = []
        for trials in (256, 512):
            with pytest.raises(SimulationOverflowError) as info:
                run_dynamics_trials(
                    map_, NoiseSchedule("constant", scale=1.0), np.zeros(2), horizon=60,
                    trials=trials, rng=RngState(seed=1), divergence_cap=math.inf,
                )
            errors.append((info.value.step, str(info.value)))
        assert errors == [(11, "non-finite state at step 11")] * 2

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_a_later_block_lost_first_does_not_mask_the_second_blocks_step(
        self, workers, monkeypatch
    ):
        """At this seed, of seven blocks, the first never loses its state, the second
        loses it at step 33, the third at step 10 and the fourth at step 2.

        Each worker count runs the first three blocks in one job (of 7, 4 or 3
        blocks), whose pass meets a later block's failure first. The job then
        replays its blocks one at a time and raises the second block's step.
        """
        map_ = _BlowUpPast2_5(LyapunovMetric.identity(2), ContractionFn())
        noise, horizon, trials, seed = NoiseSchedule("constant", scale=0.9), 40, 7 * 256, 147
        errors = _reference_dynamics(
            map_, noise, np.zeros(2), horizon, trials, RngState(seed=seed), group=trials
        )[0]
        lost = ~np.isfinite(errors).all(axis=2)
        first = [np.flatnonzero(lost[lo : lo + 256].any(axis=0))[:1] for lo in range(0, 1024, 256)]
        # precondition: the first block never fails, and each later one fails earlier
        assert first[0].size == 0 and first[1][0] > first[2][0] > first[3][0]
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
        with pytest.raises(SimulationOverflowError) as info:
            run_dynamics_trials(
                map_, noise, np.zeros(2), horizon, trials, RngState(seed=seed),
                divergence_cap=math.inf,
            )
        assert info.value.step == first[1][0]

    @pytest.mark.parametrize(
        "kwargs",
        [{"horizon": -1}, {"horizon": 2.5}, {"divergence_cap": math.nan}],
        ids=["negative-horizon", "fractional-horizon", "nan-cap"],
    )
    def test_invalid_run_is_rejected(self, kwargs):
        args = {
            "map_": ContractionMap(LyapunovMetric.identity(2), ContractionFn()),
            "noise": ZERO_NOISE,
            "e0": np.ones(2),
            "horizon": 3,
            "trials": 2,
            "rng": RngState(seed=1),
            **kwargs,
        }
        with pytest.raises(InputValidationError):
            run_dynamics_trials(**args)


_GENERAL_P3 = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
_WINDOW = dynamics._WINDOW


class TestStatisticsWindows:
    """A dynamics run folds its statistics once per ``_WINDOW`` steps; no window edge moves a
    bit, at any worker count."""

    @pytest.mark.parametrize(
        "horizon",
        [_WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW - 1, 2 * _WINDOW, 2 * _WINDOW + 1],
    )
    @pytest.mark.parametrize(
        "p_matrix, noise",
        [
            (np.eye(2), NoiseSchedule("constant", scale=1.0)),
            (_GENERAL_P3, NoiseSchedule("constant", scale=1.0)),
            (_GENERAL_P3, ZERO_NOISE),
        ],
        ids=["identity", "general-dim3", "general-dim3-zero-noise"],
    )
    def test_a_horizon_at_a_window_edge_folds_as_the_reference(
        self, horizon, p_matrix, noise, monkeypatch
    ):
        """Under noise the cap freezes the half of the trials whose V peaks highest, at steps
        spread over the run."""
        metric = LyapunovMetric(p_matrix)
        map_ = ContractionMap(metric, ContractionFn("constant", level=0.1))
        e0, trials, deltas = np.linspace(1.0, 2.0, metric.dim), 300, (0.5, 2.0, 4.0)

        def reference(cap):
            return _reference_dynamics(
                map_, noise, e0, horizon, trials, RngState(seed=9), cap, group=trials
            )

        cap = np.median(reference(math.inf)[2].max(axis=1))
        _, sq, vs, diverged_at = reference(cap)
        expected = _dynamics_stats(sq, vs, diverged_at, deltas)
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
            stats = run_dynamics_trials(
                map_, noise, e0, horizon, trials, RngState(seed=9), deltas=deltas,
                divergence_cap=cap,
            )
            _assert_stats_equal(stats, expected)

    @pytest.mark.parametrize(
        "step", [_WINDOW - 1, _WINDOW], ids=["last-of-a-window", "first-of-the-next"]
    )
    def test_a_trial_freezing_at_a_window_edge_folds_as_the_reference(self, step, monkeypatch):
        """A random walk under a general P at dim 3, with the cap set so that a trial whose V
        sets a new high at ``step`` freezes there: the highest such trial's earlier peak."""
        metric = LyapunovMetric(_GENERAL_P3)
        map_ = ContractionMap(metric, ContractionFn("constant", level=0.0))
        noise, horizon, trials = NoiseSchedule("constant", scale=1.0), 2 * _WINDOW, 300

        def reference(cap):
            return _reference_dynamics(
                map_, noise, np.zeros(3), horizon, trials, RngState(seed=6), cap, group=trials
            )

        vs = reference(math.inf)[2]
        before = vs[:, :step].max(axis=1)
        cap = before[vs[:, step] > before].max()
        _, sq, vs, diverged_at = reference(cap)
        # precondition: a trial freezes at ``step``, some before it and some never
        assert step in diverged_at and (diverged_at < step).any() and np.isinf(diverged_at).any()
        expected = _dynamics_stats(sq, vs, diverged_at, (1.0, 3.0))
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
            stats = run_dynamics_trials(
                map_, noise, np.zeros(3), horizon, trials, RngState(seed=6), deltas=(1.0, 3.0),
                divergence_cap=cap,
            )
            _assert_stats_equal(stats, expected)

    @pytest.mark.parametrize("seed, scale, step", [(196, 0.76, 63), (180, 0.96, 64)])
    def test_a_state_lost_at_a_window_edge_in_a_later_block_raises_in_block_order(
        self, seed, scale, step, monkeypatch
    ):
        """Under an infinite cap only the finiteness of the state stops a run.

        At seed 196 the second block loses its state at step 63, the last
        step of the first window, and the first block never does: the run
        raises at step 63. At seed 180 the second block loses it at step 64,
        the first step of the second window, and the first block at step 69:
        the run raises at step 69, the error running the blocks one after
        another meets first.
        """
        map_ = _BlowUpPast2_5(LyapunovMetric.identity(2), ContractionFn())
        noise, horizon, trials = NoiseSchedule("constant", scale=scale), 2 * _WINDOW, 512
        errors = _reference_dynamics(
            map_, noise, np.zeros(2), horizon, trials, RngState(seed=seed), group=trials
        )[0]
        lost = ~np.isfinite(errors).all(axis=2)
        first = [np.flatnonzero(lost[lo : lo + 256].any(axis=0)) for lo in (0, 256)]
        # precondition: the second block first loses its state at a window edge
        assert step in (_WINDOW - 1, _WINDOW) and first[1][0] == step
        expected = first[0][0] if first[0].size else step
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
            with pytest.raises(SimulationOverflowError) as info:
                run_dynamics_trials(
                    map_, noise, np.zeros(2), horizon, trials, RngState(seed=seed),
                    divergence_cap=math.inf,
                )
            assert info.value.step == expected


class TestRunWorkflow:
    def test_zero_horizon_contains_only_initial_fit_error(self):
        model, theta_star = _gaussian(1)
        stats = _one_workflow(model, theta_star, SampleSchedule(base=100), horizon=0, seed=12)
        assert stats.mse.shape == (1,)
        assert stats.mse[0] < 1.0

    def test_error_is_estimate_minus_truth(self):
        model, theta_star = _gaussian(2)
        schedule = SampleSchedule(base=50)
        stats = _one_workflow(model, theta_star, schedule, horizon=3, seed=13)
        outcomes = _reference_outcomes(model, theta_star, schedule, 3, 1, 13)
        _assert_matches_reference(stats, outcomes, DEFAULT_DELTAS)
        errors = outcomes[0][0]
        assert errors.shape == (4, 2)
        np.testing.assert_allclose(stats.mean_v, (errors**2).sum(axis=1), rtol=1e-12)

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

    def test_a_nan_divergence_cap_is_refused(self):
        """No V exceeds a NaN cap, so it would freeze no trial and say nothing."""
        model, theta_star = _gaussian(1)
        with pytest.raises(InputValidationError, match="divergence_cap"):
            _one_workflow(
                model, theta_star, SampleSchedule(base=10), horizon=2, seed=1,
                divergence_cap=math.nan,
            )


class TestRunWorkflowFiltered:
    def test_all_ones_filter_matches_unfiltered_bitwise(self):
        model, theta_star = _gaussian(2)
        schedule = SampleSchedule(base=80)
        plain = _one_workflow(model, theta_star, schedule, horizon=12, seed=21)
        filtered = _one_workflow(
            model, theta_star, schedule, horizon=12, seed=21,
            filter_handle=FilterHandle.all_ones(), candidates_per_round=80,
        )
        assert plain.mse.tobytes() == filtered.mse.tobytes()

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

    def test_the_filter_is_called_once_per_generation_and_chunk(self, monkeypatch):
        model, theta_star = _gaussian(2)
        shapes, weights = [], FilterHandle.weights

        def recording(handle, points):
            shapes.append(np.shape(points)[:-1])
            return weights(handle, points)

        monkeypatch.setattr(FilterHandle, "weights", recording)
        horizon, trials, size = 3, 300, 1000
        stats = run_workflow_trials(
            model, theta_star, SampleSchedule(base=size), horizon=horizon, trials=trials,
            rng=RngState(seed=4), filter_handle=FilterHandle.all_ones(),
            candidates_per_round=size,
        )
        rows = STACK_LIMIT // (size * 2)
        chunks = sum(-(-block // rows) for block in (256, trials - 256))
        assert shapes.count((size, 2)) == 0
        assert len(shapes) == horizon * chunks
        assert sum(shape[0] for shape in shapes) == horizon * trials
        plain = run_workflow_trials(
            model, theta_star, SampleSchedule(base=size), horizon=horizon, trials=trials,
            rng=RngState(seed=4),
        )
        np.testing.assert_array_equal(stats.mse, plain.mse)

    @pytest.mark.parametrize(
        "handle",
        [
            lambda: _DuckTypedAllOnes(),
            lambda: FilterSpec(kind="all-ones"),
            lambda: FilterHandle.all_ones().weights,
        ],
        ids=["duck-typed-weights", "unbuilt-filter-spec", "bound-weights-method"],
    )
    def test_a_handle_that_is_not_a_filter_handle_is_refused_before_any_draw(
        self, handle, monkeypatch
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("a candidate was drawn")

        monkeypatch.setattr(expfam, "_base_rows", no_draw)
        model, theta_star = _gaussian(1)
        with pytest.raises(InputValidationError, match="^filter_handle must be a FilterHandle$"):
            run_workflow_trials(
                model, theta_star, SampleSchedule(base=10), horizon=2, trials=3,
                rng=RngState(seed=1), filter_handle=handle(),
            )

    def test_an_error_that_is_not_a_refusal_propagates_from_the_chunk_call(self, monkeypatch):
        """Only a ``CollapseGuardError`` sends the rows of a chunk to be called alone;
        any other error of the filter is a fault and leaves the run as it is raised."""
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "1")
        calls = []

        def broken(handle, points):
            calls.append(np.shape(points))
            raise RuntimeError("broken scorer")

        monkeypatch.setattr(FilterHandle, "weights", broken)
        model, theta_star = _gaussian(1)
        with pytest.raises(RuntimeError, match="^broken scorer$"):
            run_workflow_trials(
                model, theta_star, SampleSchedule(base=10), horizon=2, trials=7,
                rng=RngState(seed=1), filter_handle=FilterHandle.all_ones(),
            )
        assert calls == [(7, 10, 1)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_the_lowest_failing_trial_of_an_oracle_is_raised(self, workers, monkeypatch):
        """A refused oracle chunk is charged to its lowest trial whose own call refuses.

        Bernoulli clouds of 20 candidates near p = 0.12 often hold no 1, so the
        oracle refuses them at different generations in different trials. A
        refusal charged to another row of the chunk would stop the trials from
        that row on, and the run would raise an earlier generation's refusal.
        """
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
        model = ExpFamilyModel(BERNOULLI, 1)
        theta_star = Parameter(np.array([-2.0]), model)
        extra = {
            "filter_handle": FilterHandle.oracle_pullback(theta_star, gamma=0.5),
            "candidates_per_round": 20,
        }
        schedule, horizon, trials, seed = SampleSchedule(base=100), 4, 300, 7
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, **extra
        )
        failures = [(i, exc) for i, exc in enumerate(outcomes) if isinstance(exc, Exception)]
        first_trial, first_exc = failures[0]

        # preconditions: the lowest failing trial is not the first row of its chunk,
        # and a later trial of its chunk is refused at an earlier generation
        assert first_trial % 256 % (STACK_LIMIT // 20) != 0
        assert any(
            i < 256 and _generation(exc) < _generation(first_exc) for i, exc in failures
        )
        with pytest.raises(DegenerateSelectionError) as info:
            run_workflow_trials(
                model, theta_star, schedule, horizon=horizon, trials=trials,
                rng=RngState(seed=seed), **extra,
            )
        assert type(first_exc) is DegenerateSelectionError
        assert str(info.value) == str(first_exc)

    def test_a_refused_block_replays_its_trials_only_up_to_the_lowest_failing_one(
        self, monkeypatch
    ):
        """After the refused chunk every call is a one-row chunk: trials 0..first-1 each
        weigh all their generations alone, then the first failing trial raises."""
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "1")
        model = ExpFamilyModel(BERNOULLI, 1)
        theta_star = Parameter(np.array([-2.0]), model)
        extra = {
            "filter_handle": FilterHandle.oracle_pullback(theta_star, gamma=0.5),
            "candidates_per_round": 20,
        }
        schedule, horizon, trials, seed = SampleSchedule(base=100), 4, 300, 7
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, **extra
        )
        first_trial, first_exc = next(
            (i, exc) for i, exc in enumerate(outcomes) if isinstance(exc, Exception)
        )
        calls, refused, weights = [], [], FilterHandle.weights

        def recording(handle, points):
            calls.append(np.shape(points)[0])
            try:
                return weights(handle, points)
            except DegenerateSelectionError:
                refused.append(len(calls) - 1)
                raise

        monkeypatch.setattr(FilterHandle, "weights", recording)
        with pytest.raises(DegenerateSelectionError) as info:
            run_workflow_trials(
                model, theta_star, schedule, horizon=horizon, trials=trials,
                rng=RngState(seed=seed), **extra,
            )
        assert str(info.value) == str(first_exc)
        chunk, last = refused
        assert calls[chunk] > 1 and last == len(calls) - 1
        replay = calls[chunk + 1 :]
        assert replay == [1] * len(replay)
        # generations 1..horizon of each earlier trial, then 1..g of the failing one
        assert len(replay) == first_trial * horizon + _generation(first_exc)

    def test_a_later_job_refused_first_does_not_mask_the_lowest_failing_trial(
        self, tmp_path, monkeypatch
    ):
        """Two workers split 301 trials into jobs of 151 and 150 trials.

        The first job's batched chunks are slowed by 1 s, so the second job's
        chunk is refused first in wall time. The run still raises the error of the
        lowest failing trial, trial 7 of the first job, as ``pool.map``
        yields the jobs in order and each job replays its own refused chunk.
        """
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "2")
        model = ExpFamilyModel(BERNOULLI, 1)
        theta_star = Parameter(np.array([-2.0]), model)
        extra = {
            "filter_handle": FilterHandle.oracle_pullback(theta_star, gamma=0.5),
            "candidates_per_round": 20,
        }
        schedule, horizon, trials, seed = SampleSchedule(base=100), 4, 301, 7
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, **extra
        )
        failures = [i for i, exc in enumerate(outcomes) if isinstance(exc, Exception)]
        assert failures[0] == 7 and 151 in failures
        log, weights = tmp_path / "refusals.txt", FilterHandle.weights

        def slowed(handle, points):
            if len(points) == 151:  # a batched chunk of the first job
                time.sleep(1.0)
            try:
                return weights(handle, points)
            except DegenerateSelectionError:
                with open(log, "a") as fh:
                    fh.write(f"{time.monotonic()!r} {len(points)}\n")
                raise

        monkeypatch.setattr(FilterHandle, "weights", slowed)  # worker processes fork with it
        with pytest.raises(DegenerateSelectionError) as info:
            run_workflow_trials(
                model, theta_star, schedule, horizon=horizon, trials=trials,
                rng=RngState(seed=seed), **extra,
            )
        assert str(info.value) == str(outcomes[7])
        refusals = sorted(tuple(map(float, line.split())) for line in log.read_text().splitlines())
        assert refusals[0][1] == 150  # the second job's chunk was refused first
        assert 151 in {rows for _, rows in refusals}

    def test_a_draw_fault_that_is_not_a_refusal_propagates_without_a_replay(
        self, monkeypatch
    ):
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "1")
        calls, base_rows = [], expfam._base_rows

        def broken(family, theta_rows, gens, out):
            calls.append(out.shape)
            base_rows(family, theta_rows, [_BrokenStream()] * len(gens), out)

        monkeypatch.setattr(expfam, "_base_rows", broken)
        model, theta_star = _gaussian(1)
        with pytest.raises(RuntimeError, match="^broken stream$"):
            run_workflow_trials(
                model, theta_star, SampleSchedule(base=10), horizon=2, trials=7,
                rng=RngState(seed=1),
            )
        # one window holds the draws of all three generations
        assert calls == [(7, 30, 1)]

    def test_candidate_count_must_be_positive(self):
        model, theta_star = _gaussian(1)
        with pytest.raises(InputValidationError):
            _one_workflow(
                model, theta_star, SampleSchedule(base=10), horizon=2, seed=1,
                filter_handle=FilterHandle.all_ones(), candidates_per_round=0,
            )


class _BrokenStream:
    """A stand-in stream whose Gaussian draw fails with an error that is not a refusal."""

    def standard_normal(self, out):
        raise RuntimeError("broken stream")


class _DuckTypedAllOnes:
    """All-ones weights through a ``weights`` method, without being a ``FilterHandle``."""

    def weights(self, points):
        return np.ones(np.shape(points)[:-1])


def _dynamics_of(trials):
    map_ = ContractionMap(LyapunovMetric.identity(2), ContractionFn())
    return run_dynamics_trials(
        map_, ZERO_NOISE, np.ones(2), horizon=2, trials=trials, rng=RngState(seed=1),
    )


def _workflow_of(trials):
    model, theta_star = _gaussian(1)
    return run_workflow_trials(
        model, theta_star, SampleSchedule(base=10), 2, trials, RngState(seed=1),
    )


@pytest.mark.parametrize(
    "trials", [2.5, np.float64(3.0), True], ids=["float", "numpy-float", "bool"]
)
@pytest.mark.parametrize("runner", [_dynamics_of, _workflow_of], ids=["dynamics", "workflow"])
def test_a_trial_count_that_is_not_an_integer_is_refused(runner, trials):
    with pytest.raises(InputValidationError, match="^trials must be a positive integer$"):
        runner(trials)


def test_work_that_cannot_be_pickled_raises_a_named_error(monkeypatch):
    class LocalMap(ContractionMap):
        def apply_batch(self, errors, v):
            return 0.5 * errors

    monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "2")
    map_ = LocalMap(LyapunovMetric.identity(2), ContractionFn())
    with pytest.raises(InputValidationError, match="COLLAPSEGUARD_WORKERS=1"):
        run_dynamics_trials(
            map_, ZERO_NOISE, np.ones(2), horizon=2, trials=300, rng=RngState(seed=1),
        )


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
        try:
            if filtered:
                w = handle.weights(points[None])[0]
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


def _generation(exc):
    """The generation a workflow refusal names in its ``generation t: `` prefix."""
    return int(re.match(r"generation (\d+):", str(exc)).group(1))


def _reference_paths(outcomes):
    """The reference trials stacked as (errors, vs, ns, diverged_at) arrays, trial-major."""
    for i, outcome in enumerate(outcomes):
        assert isinstance(outcome, tuple), f"reference trial {i} failed: {outcome}"
    return tuple(np.array(column) for column in zip(*outcomes))


def _assert_matches_reference(stats, outcomes, deltas):
    """Stats equal the fold of the reference trials' arrays bit for bit; the workflow adds
    one trial at a time, as ``aggregate_exceedance`` does."""
    _, ref_vs, ref_ns, ref_diverged_at = _reference_paths(outcomes)
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
        stats = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=(0.05, 0.2, 1.0), **extra,
        )
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, **extra
        )
        _assert_matches_reference(stats, outcomes, (0.05, 0.2, 1.0))

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
        assert any(
            i > first_trial and _generation(exc) < _generation(first_exc)
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
        stats = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=deltas, divergence_cap=cap,
        )
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, divergence_cap=cap
        )
        _assert_matches_reference(stats, outcomes, deltas)
        errors, vs, ns, diverged_at = _reference_paths(outcomes)
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
        stats = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), divergence_cap=cap,
        )
        outcomes = _reference_outcomes(
            model, theta_star, schedule, horizon, trials, seed, divergence_cap=cap
        )
        _assert_matches_reference(stats, outcomes, DEFAULT_DELTAS)
        _, _, ns, diverged_at = _reference_paths(outcomes)
        sampling = np.arange(horizon + 1)[None, :] <= diverged_at[:, None]
        live = sampling.any(axis=0)
        first = diverged_at[0]
        # precondition: another trial still samples after trial 0 has frozen
        assert np.isfinite(first) and first < horizon and live[int(first) + 1]
        np.testing.assert_array_equal(ns, np.where(sampling, 10, 0))
        np.testing.assert_array_equal(stats.ns, np.where(live, 10, 0))


# ---------------------------------------------------------------------------
# Windowed draws against one sample call per generation
# ---------------------------------------------------------------------------

_GROWING = SampleSchedule("power", base=30, exponent=1.5)  # 30, 30, 85, 156, 240, 336, 441

_WINDOW_CASES = {
    # label: (family, dim, theta, schedule, horizon, oracle candidates or None, cap)
    "gaussian-2d-growing": (GAUSSIAN, 2, [1.0, -0.5], _GROWING, 6, None, 1e12),
    "poisson-growing": (POISSON, 1, [np.log(3.0)], _GROWING, 6, None, 1e12),
    "bernoulli-growing": (BERNOULLI, 1, [0.0], _GROWING, 6, None, 1e12),
    "exponential-growing": (EXPONENTIAL, 1, [-1.0], _GROWING, 6, None, 1e12),
    "frozen-mid-window": (GAUSSIAN, 1, [0.0], SampleSchedule(base=10), 8, None, 0.05),
    "oracle-filtered": (GAUSSIAN, 2, [1.0, -0.5], SampleSchedule(base=100), 4, 40, 1e12),
}


class TestWindowedDraws:
    """The kernel draws a trial's window of generations in one call of its stream.

    Every case is compared bit for bit with ``_reference_outcomes``, whose
    trials call ``expfam.sample`` once per generation: sizes that change
    inside a window, the Poisson's one-generation windows, trials frozen
    inside a window and oracle weights on chunks copied from a window, with
    one worker and with two.
    """

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
    def test_windows_give_the_bits_of_one_sample_call_per_generation(
        self, case, workers, monkeypatch
    ):
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", workers)
        family, dim, theta, schedule, horizon, candidates, cap = _WINDOW_CASES[case]
        model = ExpFamilyModel(family, dim)
        theta_star = Parameter(np.array(theta), model)
        extra = {"divergence_cap": cap}
        if candidates is not None:
            extra["filter_handle"] = FilterHandle.oracle_pullback(theta_star, gamma=0.5)
            extra["candidates_per_round"] = candidates
        trials, seed, deltas = 300, 9, (0.05, 0.2, 1.0)
        outcomes = _reference_outcomes(model, theta_star, schedule, horizon, trials, seed, **extra)
        widths, base_rows = [], expfam._base_rows

        def recording(family, theta_rows, gens, out):
            widths.append(out.shape[1])
            base_rows(family, theta_rows, gens, out)

        monkeypatch.setattr(expfam, "_base_rows", recording)
        stats = run_workflow_trials(
            model, theta_star, schedule, horizon=horizon, trials=trials,
            rng=RngState(seed=seed), deltas=deltas, **extra,
        )
        _assert_matches_reference(stats, outcomes, deltas)
        if workers == "2":
            return  # the draws ran in the worker processes
        sizes = [schedule.size(t) for t in range(horizon + 1)]
        if case == "frozen-mid-window":
            # one window per block holds every generation, and trials freeze inside it
            assert widths == [10 * (horizon + 1)] * 2
            diverged_at = _reference_paths(outcomes)[3]
            assert np.any((diverged_at > 0) & (diverged_at < horizon))
        elif case == "oracle-filtered":
            assert 3 * candidates in widths  # generations 1 to 3 of the first block
        elif family == POISSON:
            assert set(widths) <= set(sizes)  # one generation per window
        else:
            # wider than any generation, so a window holds sizes that differ
            assert max(widths) > max(sizes)

    def test_a_collapse_sized_block_peaks_under_1_1_mb(self, monkeypatch):
        """256 trials of 100 draws over 61 generations: the window of draws, the
        V paths and the streams. A wider window would raise the run's peak."""
        monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "1")
        model, theta_star = _gaussian(1)
        run = lambda: run_workflow_trials(  # noqa: E731
            model, theta_star, SampleSchedule(base=100), horizon=60, trials=256,
            rng=RngState(seed=1),
        )
        run()  # lazy set-up outside the traced run
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1e6


# (runner, trials, whether refused) at horizon 999 and room for 20 rows of 1000
# floats: the statistics take 7 rows, and each job that runs at once its 3 rows of
# exceedance counts, plus 2 per block of 256 trials for a dynamics job (at most 8
# blocks) or 3 per trial for a workflow job (at most 256)
@pytest.mark.parametrize(
    "runner, trials, refused",
    [("dynamics", 1280, False), ("dynamics", 1281, True), ("dynamics", 10**6, True),
     ("workflow", 3, False), ("workflow", 4, True)],
)
def test_a_run_is_refused_by_the_rows_its_kernel_holds(runner, trials, refused, monkeypatch):
    monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "1")
    _assert_refused_by_rows(runner, trials, refused, monkeypatch)


# as above, with two jobs at once: 768 trials are two jobs of 2 and 1 blocks, 3
# trials two jobs of 2 and 1 trials; one worker runs each of these runs as one job
@pytest.mark.parametrize(
    "runner, trials, refused",
    [("dynamics", 512, False), ("dynamics", 768, True), ("dynamics", 1280, True),
     ("workflow", 2, False), ("workflow", 3, True)],
)
def test_a_run_is_refused_by_the_rows_its_jobs_hold_at_once(
    runner, trials, refused, monkeypatch
):
    monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "2")
    _assert_refused_by_rows(runner, trials, refused, monkeypatch)


def _assert_refused_by_rows(runner, trials, refused, monkeypatch):
    pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 20 * 1000}
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))
    ran = []
    monkeypatch.setattr(dynamics, "_run_trials", lambda *args: ran.append(args))
    model, theta_star = _gaussian(1)
    map_ = ContractionMap(LyapunovMetric.identity(1), ContractionFn())
    run = {
        "dynamics": lambda: run_dynamics_trials(map_, ZERO_NOISE, np.ones(1), 999, trials,
                                                RngState(seed=1)),
        "workflow": lambda: run_workflow_trials(model, theta_star, SampleSchedule(base=10), 999,
                                                trials, RngState(seed=1)),
    }[runner]
    if refused:
        with pytest.raises(InputValidationError, match=r"^per-step statistics of shape "
                           r"\(\d+, 1000\) need .*; use a shorter horizon or fewer trials$"):
            run()
        assert not ran
    else:
        run()
        assert len(ran) == 1


@pytest.mark.parametrize(
    "kernel, trials, jobs",
    [("_DYNAMICS", 2049, [(0, 2048), (2048, 2049)]), ("_WORKFLOW", 300, [(0, 256), (256, 300)])],
)
def test_a_clean_run_makes_one_pass_per_job(kernel, trials, jobs, monkeypatch):
    monkeypatch.setenv("COLLAPSEGUARD_WORKERS", "1")
    calls = []
    run_pass, *rest = getattr(dynamics, kernel)

    def counting(args, lo, hi):
        calls.append((lo, hi))
        return run_pass(args, lo, hi)

    monkeypatch.setattr(dynamics, kernel, (counting, *rest))
    model, theta_star = _gaussian(1)
    if kernel == "_DYNAMICS":
        map_ = ContractionMap(LyapunovMetric.identity(2), ContractionFn())
        run_dynamics_trials(map_, NoiseSchedule(), np.ones(2), 3, trials, RngState(seed=1))
    else:
        run_workflow_trials(model, theta_star, SampleSchedule(base=10), 3, trials,
                            RngState(seed=1))
    assert calls == jobs


def test_a_failed_pass_holds_none_of_its_arrays_while_its_units_replay():
    """A job of five units whose pass fails in its third: the pass's array is
    gone before the first unit replays, and the third unit's error is raised."""
    passes = []  # (lo, hi, a weak reference to the pass's array)
    alive = []  # at each replayed unit, whether the failed pass's array is alive

    def failing(args, lo, hi):
        if passes:
            alive.append(passes[0][2]() is not None)
        held = np.zeros(1000)
        passes.append((lo, hi, weakref.ref(held)))
        if lo <= 2 < hi:
            raise SimulationOverflowError(hi - lo)

    with pytest.raises(SimulationOverflowError) as info:
        dynamics._run_job(((failing, 1, 5, 3), (), 0, 5))
    assert info.value.step == 1
    assert [(lo, hi) for lo, hi, _ in passes] == [(0, 5), (0, 1), (1, 2), (2, 3)]
    assert alive == [False] * 3


@pytest.mark.parametrize(
    "value", [0, 2.5, np.float64(3.0), True], ids=["zero", "float", "numpy-float", "bool"]
)
def test_a_candidate_count_that_is_not_a_positive_integer_is_refused_before_any_draw(
    value, monkeypatch
):
    def no_draw(*args, **kwargs):
        raise AssertionError("a candidate was drawn")

    monkeypatch.setattr(expfam, "_base_rows", no_draw)
    model, theta_star = _gaussian(1)
    with pytest.raises(
        InputValidationError, match="^candidates_per_round must be a positive integer$"
    ):
        run_workflow_trials(
            model, theta_star, SampleSchedule(base=10), 2, 3, RngState(seed=1),
            filter_handle=FilterHandle.all_ones(), candidates_per_round=value,
        )


@pytest.mark.parametrize(
    "horizon", [True, 2.5, np.float64(3.0)], ids=["bool", "float", "numpy-float"]
)
@pytest.mark.parametrize("runner", ["dynamics", "workflow"])
def test_a_horizon_that_is_not_an_integer_is_refused(runner, horizon, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a candidate was drawn")

    monkeypatch.setattr(expfam, "_base_rows", no_draw)
    with pytest.raises(InputValidationError, match="^horizon must be a nonnegative integer$"):
        if runner == "dynamics":
            map_ = ContractionMap(LyapunovMetric.identity(2), ContractionFn())
            run_dynamics_trials(map_, ZERO_NOISE, np.ones(2), horizon, 2, RngState(seed=1))
        else:
            model, theta_star = _gaussian(1)
            run_workflow_trials(
                model, theta_star, SampleSchedule(base=10), horizon, 2, RngState(seed=1)
            )
