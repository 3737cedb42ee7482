"""Tests for Lyapunov metrics, contraction checking, and recurrence machinery."""

import math
import re
import signal
import warnings

import numpy as np
import pytest

from collapseguard.contraction import (
    ContractionFn,
    ContractionMap,
    LyapunovMetric,
    RegulatorFn,
    check_matrix_contraction,
    check_regulation,
    fit_decay_rate,
    limsup_bound,
    measure_concentration,
    recurrence_simulate,
)
from collapseguard import expfam
from collapseguard.dynamics import NoiseSchedule, run_dynamics_trials
from collapseguard.errors import BoundaryError, InputValidationError, SimulationOverflowError
from collapseguard.expfam import (
    BERNOULLI,
    EXPONENTIAL,
    GAUSSIAN,
    POISSON,
    ExpFamilyModel,
    Parameter,
)
from collapseguard.numerics import STACK_LIMIT, RngState, as_generator


def make_probe_points(
    metric: LyapunovMetric,
    rng,
    count: int = 256,
    v_min: float = 1e-6,
    v_max: float = 1e3,
) -> np.ndarray:
    """Probe grid for regulation checks: log-spaced V along random directions.

    Returns ``count`` points with V values log-spaced over [v_min, v_max]
    plus the origin, each on an independently drawn direction.
    """
    if count < 1:
        raise InputValidationError("count must be positive")
    gen = as_generator(rng)
    targets = np.logspace(np.log10(v_min), np.log10(v_max), count)
    dirs = gen.standard_normal((count, metric.dim))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    dirs /= norms[:, None]
    dir_v = metric.values(dirs)
    points = dirs * np.sqrt(targets / dir_v)[:, None]
    return np.vstack([np.zeros((1, metric.dim)), points])


class TestLyapunovMetric:
    def test_identity_constructor(self):
        metric = LyapunovMetric.identity(3)
        np.testing.assert_array_equal(metric.p_matrix, np.eye(3))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(InputValidationError):
            LyapunovMetric(np.diag([1.0, -1.0]))
        with pytest.raises(InputValidationError):
            LyapunovMetric(np.diag([1e-14, 1.0]))

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(InputValidationError):
            LyapunovMetric(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_inverse_factor_reconstructs_inverse(self):
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        metric = LyapunovMetric(p)
        c = metric.inverse_factor
        np.testing.assert_allclose(c @ c.T, np.linalg.inv(p), atol=1e-10)


class TestLyapunovValue:
    def test_identity_metric_sums_squares(self):
        assert LyapunovMetric.identity(2).value(np.array([1.0, 1.0])) == 2.0

    def test_diagonal_metric(self):
        metric = LyapunovMetric(np.diag([2.0, 3.0]))
        assert metric.value(np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert metric.value(np.array([1.0, 1.0])) == pytest.approx(5.0)

    def test_zero_error_gives_zero(self):
        metric = LyapunovMetric(np.diag([4.0, 9.0]))
        assert metric.value(np.zeros(2)) == 0.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputValidationError):
            LyapunovMetric.identity(2).value(np.ones(3))

    def test_nonnegative_under_a_positive_definite_metric(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(4, 4))
        metric = LyapunovMetric(g @ g.T + 0.1 * np.eye(4))
        for _ in range(10_000):
            assert metric.value(rng.normal(size=4)) >= 0.0

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_a_row_gets_the_bits_it_gets_alone(self, dim):
        """V, c(e) and the map give each row of a batch the bits of a one-row call."""
        rng = np.random.default_rng(dim)
        g = rng.normal(size=(dim, dim))
        metric = LyapunovMetric(g @ g.T + 0.5 * np.eye(dim))
        c = ContractionFn("example-sqrt")
        map_ = ContractionMap(metric, c)
        batch = rng.normal(scale=3.0, size=(600, dim))
        for fn in (
            metric.values,
            lambda e: c.values(e, metric.values(e)),
            lambda e: map_.apply_batch(e, metric.values(e)),
        ):
            alone = np.concatenate([fn(batch[i : i + 1]) for i in range(600)])
            np.testing.assert_array_equal(fn(batch).view(np.uint64), alone.view(np.uint64))
        singles = np.array([metric.value(e) for e in batch])
        np.testing.assert_array_equal(metric.values(batch).view(np.uint64), singles.view(np.uint64))


class TestContractionValue:
    """The bounded pull-strength functions c(e)."""

    def test_sqrt_form_vanishes_at_origin(self):
        c = ContractionFn()
        assert c.value(LyapunovMetric.identity(2), np.zeros(2)) == 0.0

    def test_sqrt_form_at_energy_three(self):
        """1 - (3 + 1)^(-1/2) = 0.5."""
        c = ContractionFn()
        e = np.array([1.0, 1.0, 1.0])
        out = c.value(LyapunovMetric.identity(3), e)
        assert out == pytest.approx(0.5, abs=1e-12)

    def test_quadratic_clamp_engages(self):
        c = ContractionFn("quadratic", alpha=0.1, c_max=0.9)
        e = np.array([10.0, 0.0])
        out = c.value(LyapunovMetric.identity(2), e)
        assert out == pytest.approx(0.9, abs=0)

    def test_range_stays_in_zero_to_each_kinds_cap(self):
        rng = np.random.default_rng(2)
        metric = LyapunovMetric.identity(3)
        for c, cap in (
            (ContractionFn(), 1.0 - 1e-12),
            (ContractionFn("quadratic", alpha=0.5, c_max=0.8), 0.8),
            (ContractionFn("constant", level=0.3), 0.3),
        ):
            for _ in range(200):
                e = rng.normal(scale=rng.uniform(0.01, 30.0), size=3)
                value = c.value(metric, e)
                assert 0.0 <= value <= cap or value == pytest.approx(c.level)


class TestRegulatorValue:
    def test_sqrt_form_vanishes_at_origin(self):
        assert RegulatorFn("example-sqrt").value(0.0) == 0.0

    def test_sqrt_form_at_three(self):
        """3 * (1 - (3 + 1)^(-1/2)) = 1.5."""
        assert RegulatorFn("example-sqrt").value(3.0) == pytest.approx(1.5)

    def test_power_law_square(self):
        f = RegulatorFn("power-law", p=2, c1=1.0)
        assert f.value(0.1) == pytest.approx(0.01)

    def test_negative_argument_rejected(self):
        with pytest.raises(InputValidationError):
            RegulatorFn("example-sqrt").value(-0.5)

    def test_a_power_law_beyond_the_float_range_is_infinite(self):
        assert RegulatorFn("power-law", p=2).value(1e200) == math.inf

    def test_a_power_law_whose_power_overflows_is_evaluated_by_logs(self):
        """r^2 = 1e310 overflows, but c1 r^2 = 1e300 lies in the float range."""
        value = RegulatorFn("power-law", p=2, c1=1e-10).value(1e155)
        assert value == pytest.approx(1e300, rel=1e-12)

    def test_midpoint_convexity_on_grid(self):
        grid = np.linspace(0.0, 50.0, 200)
        for f in (
            RegulatorFn("example-sqrt"),
            RegulatorFn("power-law", p=2, c1=0.7),
            RegulatorFn("power-law", p=3, c1=1.3),
        ):
            values = np.array([f.value(r) for r in grid])
            mid = np.array([f.value(r) for r in (grid[:-2] + grid[2:]) / 2])
            assert np.all(mid <= (values[:-2] + values[2:]) / 2 + 1e-12)


def _concentration_at(deltas):
    model = ExpFamilyModel(GAUSSIAN, 1)
    return measure_concentration(
        model, Parameter(np.zeros(1), model), sizes=[1], deltas=deltas, trials=100,
        rng=RngState(seed=1),
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ContractionFn("quadratic", alpha=math.nan), "alpha must be positive"),
        (lambda: RegulatorFn("power-law", p=math.nan),
         "power-law exponent p must be >= 1 for convexity"),
        (lambda: RegulatorFn("power-law", c1=math.nan), "c1 must be positive"),
        (lambda: RegulatorFn("power-law", c2=math.nan), "c2 must be >= c1"),
        (lambda: RegulatorFn("power-law").value(math.nan),
         "regulator argument must be nonnegative"),
        (lambda: _concentration_at([math.nan, 0.5]), "deltas must be nonnegative"),
    ],
    ids=["contraction-alpha", "regulator-p", "regulator-c1", "regulator-c2",
         "regulator-argument", "concentration-delta"],
)
def test_a_nan_input_is_refused(call, message):
    """A NaN fails each check rather than passing it, so it cannot evaluate to NaN later."""
    with pytest.raises(InputValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestCheckMatrixContraction:
    """Eigenvalue verdict for the energy-decrease matrix inequality."""

    def test_halving_map_contracts(self):
        assert check_matrix_contraction(
            0.5 * np.eye(2), LyapunovMetric.identity(2), c_at_e=0.5
        )

    def test_identity_map_fails(self):
        assert not check_matrix_contraction(
            np.eye(2), LyapunovMetric.identity(2), c_at_e=0.5
        )

    def test_equality_case_accepted(self):
        for c in (0.0, 0.25, 0.5, 0.9, 0.999):
            a = math.sqrt(1.0 - c) * np.eye(3)
            assert check_matrix_contraction(a, LyapunovMetric.identity(3), c_at_e=c)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputValidationError):
            check_matrix_contraction(np.eye(3), LyapunovMetric.identity(2), 0.5)

    def test_contraction_rate_outside_unit_interval_rejected(self):
        with pytest.raises(InputValidationError):
            check_matrix_contraction(np.eye(2), LyapunovMetric.identity(2), 1.0)

    def test_agrees_with_direction_sampling_on_clear_margins(self):
        """Eigenvalue verdicts match a quadratic-form sweep over random directions."""
        rng = RngState(seed=606, stream=1).generator()
        for trial in range(100):
            d = int(rng.integers(2, 5))
            rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
            p = rot @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ rot.T
            p = 0.5 * (p + p.T)
            c = float(rng.uniform(0.05, 0.9))
            a0 = rng.normal(size=(d, d))
            q = (1.0 - c) * p
            whiten = np.linalg.inv(np.linalg.cholesky(q))
            pencil_top = np.linalg.eigvalsh(whiten @ (a0.T @ p @ a0) @ whiten.T)[-1]
            margin = rng.uniform(0.3, 0.9) if trial % 2 == 0 else rng.uniform(1.2, 3.0)
            a = np.sqrt(margin / pencil_top) * a0
            verdict = check_matrix_contraction(a, LyapunovMetric(p), c_at_e=c)
            directions = rng.normal(size=(2000, d))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            m = a.T @ p @ a - q
            sampled = np.einsum("ij,jk,ik->i", directions, m, directions).max()
            assert verdict == bool(sampled <= 1e-9 * np.abs(p).max())


class TestCheckRegulation:
    def test_matched_pair_holds_everywhere(self):
        metric = LyapunovMetric.identity(2)
        probes = make_probe_points(metric, RngState(seed=4))
        assert check_regulation(
            ContractionFn(), RegulatorFn("example-sqrt"), metric, probes
        )

    def test_zero_pull_fails_against_positive_floor(self):
        metric = LyapunovMetric.identity(2)
        probes = np.array([[1.0, 0.0]])
        assert not check_regulation(
            ContractionFn("constant", level=0.0), RegulatorFn("power-law", p=2, c1=1.0),
            metric, probes,
        )

    def test_quadratic_pull_dominates_half_square_below_clamp(self):
        """c(e) V = V^2 >= 0.5 V^2 pointwise while the clamp stays inactive."""
        metric = LyapunovMetric.identity(2)
        probes = make_probe_points(metric, RngState(seed=6), v_max=0.9)
        assert check_regulation(
            ContractionFn("quadratic", alpha=1.0, c_max=0.99),
            RegulatorFn("power-law", p=2, c1=0.5),
            metric, probes,
        )

    def test_a_regulator_beyond_the_float_range_fails_the_check(self):
        """At V = 1e200, f(V) = V^2 lies beyond the float range, far above c V = V / 2."""
        metric = LyapunovMetric.identity(1)
        assert not check_regulation(
            ContractionFn("constant", level=0.5), RegulatorFn("power-law", p=2, c1=1.0),
            metric, np.array([[1e-3], [1e100]]),
        )

    def test_a_regulator_whose_power_overflows_is_compared_by_logs(self):
        """At V = 1e200, f(V) = 1e-300 V^2 = 1e100 stays below c V = 5e199 although V^2 overflows."""
        metric = LyapunovMetric.identity(1)
        assert check_regulation(
            ContractionFn("constant", level=0.5), RegulatorFn("power-law", p=2, c1=1e-300),
            metric, np.array([[1e-3], [1e100]]),
        )

    def test_empty_probes_rejected(self):
        metric = LyapunovMetric.identity(2)
        with pytest.raises(InputValidationError):
            check_regulation(
                ContractionFn(), RegulatorFn("example-sqrt"), metric,
                np.empty((0, 2)),
            )
        # a 1-d array is refused, not read as one probe point
        with pytest.raises(InputValidationError, match=r"shape \(n, 2\)"):
            check_regulation(ContractionFn(), RegulatorFn("example-sqrt"), metric, np.ones(2))


class TestContractionMap:
    def test_scaled_identity_equality_case(self):
        """V(A(e) e) = (1 - c(e)) V(e) exactly for the isotropic construction."""
        metric = LyapunovMetric.identity(3)
        map_ = ContractionMap(metric, ContractionFn())
        rng = np.random.default_rng(10)
        for _ in range(100):
            e = rng.normal(scale=rng.uniform(0.1, 10.0), size=3)
            v = metric.value(e)
            c = ContractionFn().value(metric, e)
            v_next = metric.value(map_.apply_batch(e[None, :], np.array([v]))[0])
            np.testing.assert_allclose(v_next, (1.0 - c) * v, rtol=1e-12)

    def test_apply_batch_matches_one_row_batches(self):
        metric = LyapunovMetric.identity(2)
        map_ = ContractionMap(metric, ContractionFn())
        batch = np.random.default_rng(5).normal(size=(32, 2))
        stacked = np.stack([map_.apply_batch(e[None], metric.values(e[None]))[0] for e in batch])
        np.testing.assert_allclose(
            map_.apply_batch(batch, metric.values(batch)), stacked, rtol=1e-14
        )

    @pytest.mark.parametrize(
        "metric, c_fn",
        [
            (LyapunovMetric.identity(2), None),
            (LyapunovMetric.identity(2), lambda metric, e: 0.5),
            (LyapunovMetric.identity(2), RegulatorFn("example-sqrt")),
            (np.eye(2), ContractionFn()),
            (None, ContractionFn()),
        ],
        ids=["no-c-fn", "callable-c-fn", "regulator-as-c-fn", "matrix-as-metric", "no-metric"],
    )
    def test_a_map_is_built_only_from_a_metric_and_a_contraction_fn(self, metric, c_fn):
        with pytest.raises(InputValidationError) as info:
            ContractionMap(metric, c_fn)
        assert str(info.value) == "a ContractionMap needs a LyapunovMetric and a ContractionFn"


def _random_bit_patterns(count: int, seed: int) -> np.ndarray:
    """``count`` float64 values from uniformly random 64-bit patterns: every sign,
    exponent, subnormal, infinity and NaN payload can come up."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64)
    return bits.view(np.float64)


def _einsum_v(metric: LyapunovMetric, errors: np.ndarray) -> np.ndarray:
    """V as ``LyapunovMetric.values`` computed it before its dim-1 product."""
    if metric.is_identity:
        return np.einsum("ij,ij->i", errors, errors)
    return np.einsum("ij,ij->i", np.einsum("ij,jk->ik", errors, metric.p_matrix), errors)


def _clipped_sqrt_coefficient(v: np.ndarray) -> np.ndarray:
    """The ``example-sqrt`` coefficient as a ``clip``, as it was computed before."""
    return (1.0 - 1.0 / np.sqrt(v + 1.0)).clip(0.0, 1.0 - 1e-12)


class TestOneVPerStep:
    """The map takes the V the dynamics step recorded, and the cheaper forms of V and
    c(e) have the bits of the forms they replace."""

    SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e154, -1e154, 1e155, -1e155,
                math.inf, -math.inf, math.nan]

    def test_dim1_v_is_the_einsum_bit_for_bit(self):
        e = np.concatenate([self.SPECIALS, _random_bit_patterns(200_000, 1)])[:, None]
        with np.errstate(all="ignore"):
            expected = np.einsum("ij,ij->i", e, e)
        with warnings.catch_warnings():  # signaling NaNs and overflows, silent as in einsum
            warnings.simplefilter("error", RuntimeWarning)
            got = LyapunovMetric.identity(1).values(e)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.isinf(got[6]) and np.isnan(got[10])

    def test_sqrt_coefficient_is_the_clip_bit_for_bit(self):
        v = np.concatenate([self.SPECIALS, [1.0, 1e308, 0.5, -0.5, -1.0, -2.0],
                            _random_bit_patterns(200_000, 2)])
        with np.errstate(all="ignore"):
            expected = _clipped_sqrt_coefficient(v)
            got = ContractionFn().values(np.zeros((v.shape[0], 1)), v)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("dim, general", [(1, False), (1, True), (2, False), (3, True)])
    def test_the_map_given_v_is_the_map_that_computed_v_bit_for_bit(self, dim, general):
        rng = np.random.default_rng(dim)
        metric = LyapunovMetric.identity(dim)
        if general:
            g = rng.normal(size=(dim, dim))
            metric = LyapunovMetric(g @ g.T + 0.5 * np.eye(dim))
        map_ = ContractionMap(metric, ContractionFn())
        errors = rng.normal(scale=rng.uniform(1e-3, 1e3, size=(5000, 1)), size=(5000, dim))
        errors[:len(self.SPECIALS) - 3, 0] = self.SPECIALS[:-3]  # the finite ones
        with np.errstate(all="ignore"):
            scale = np.sqrt(1.0 - _clipped_sqrt_coefficient(_einsum_v(metric, errors)))
            expected = scale[:, None] * errors
            got = map_.apply_batch(errors, metric.values(errors))
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_a_v_that_overflows_raises_no_runtime_warning(self):
        """The bare square overflows at 1e155, where the einsum it replaces is silent."""
        metric = LyapunovMetric.identity(1)
        map_ = ContractionMap(metric, ContractionFn())
        e = np.array([[1e155], [-1e155], [2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = metric.values(e)
            moved = map_.apply_batch(e, v)
            assert metric.value(np.array([1e155])) == math.inf
            assert ContractionFn().value(metric, np.array([1e155])) == 1.0 - 1e-12
            # a run from there: the first V is inf, and no cap freezes the trials
            stats = run_dynamics_trials(
                map_, NoiseSchedule("zero"), np.array([1e155]), 3, 2, RngState(1),
                divergence_cap=math.inf,
            )
        np.testing.assert_array_equal(v, [math.inf, math.inf, 4.0])
        kept = np.array([[1.0 - (1.0 - 1e-12)]] * 2 + [[1.0 - (1.0 - 1.0 / math.sqrt(5.0))]])
        np.testing.assert_array_equal(moved, np.sqrt(kept) * e)  # 1 - c(e) at V = inf, inf, 4
        assert stats.mean_v[0] == math.inf and np.all(np.isfinite(stats.mean_v[1:]))


class TestRecurrenceSimulate:
    def test_geometric_decay_exact(self):
        """f(x) = 0.5 x with no forcing halves the state each step."""
        f = RegulatorFn("power-law", p=1, c1=0.5)
        traj = recurrence_simulate(f, x0=1.0, noise=NoiseSchedule("zero"), steps=10)
        np.testing.assert_allclose(traj, 0.5 ** np.arange(11), rtol=1e-15)
        assert traj[10] == pytest.approx(9.765625e-4, rel=1e-12)

    def test_forcing_is_the_schedules_noise_energy(self):
        """x_{t+1} = x_t / 2 + 3 (t+1)^(-2) under f(x) = x / 2."""
        f = RegulatorFn("power-law", p=1, c1=0.5)
        traj = recurrence_simulate(f, 1.0, NoiseSchedule(beta=2.0, scale=3.0), 4)
        want = [1.0]
        for t in range(4):
            want.append(want[-1] / 2 + 3.0 / (t + 1) ** 2)
        np.testing.assert_allclose(traj, want, rtol=1e-15)

    def test_zero_forcing_is_monotone_nonincreasing(self):
        for f in (
            RegulatorFn("example-sqrt"),
            RegulatorFn("power-law", p=2, c1=1.0),
            RegulatorFn("power-law", p=3, c1=0.2),
        ):
            traj = recurrence_simulate(f, x0=5.0, noise=NoiseSchedule("zero"), steps=500)
            assert np.all(np.diff(traj) <= 0.0)
            assert np.all(traj >= 0.0)

    def test_trajectory_length_and_start(self):
        f = RegulatorFn("power-law", p=2, c1=1.0)
        traj = recurrence_simulate(f, x0=2.0, noise=NoiseSchedule(beta=1.0), steps=50)
        assert traj.shape == (51,)
        assert traj[0] == 2.0

    def test_a_regulator_value_beyond_the_float_range_names_the_step(self):
        """x0^2 overflows at the first update: a SimulationOverflowError, not OverflowError."""
        f = RegulatorFn("power-law", p=2, c1=1.0)
        with pytest.raises(SimulationOverflowError, match="non-finite state at step 1") as info:
            recurrence_simulate(f, x0=1e160, noise=NoiseSchedule("zero"), steps=10)
        assert info.value.step == 1

    def test_a_state_that_becomes_non_finite_is_not_returned(self):
        """x_1 = 0.99 * 1.7e308 + 1e308 is inf, and x_2 = inf - inf is nan."""
        f = RegulatorFn("power-law", p=1, c1=0.01)
        noise = NoiseSchedule("constant", scale=1e308)
        with pytest.raises(SimulationOverflowError) as info:
            recurrence_simulate(f, x0=1.7e308, noise=noise, steps=5)
        assert info.value.step == 1


class TestFitDecayRate:
    def test_exact_inverse_law(self):
        t = np.arange(5001, dtype=float)
        x = np.empty_like(t)
        x[0] = 1.0
        x[1:] = t[1:] ** -1.0
        slope, r_squared = fit_decay_rate(x)
        assert slope == pytest.approx(-1.0, abs=1e-6)
        assert r_squared == pytest.approx(1.0, abs=1e-9)

    def test_exact_square_root_law(self):
        t = np.arange(5001, dtype=float)
        x = np.empty_like(t)
        x[0] = 1.0
        x[1:] = t[1:] ** -0.5
        slope, _ = fit_decay_rate(x)
        assert slope == pytest.approx(-0.5, abs=1e-6)

    def test_nonpositive_tail_rejected(self):
        x = np.linspace(1.0, 0.0, 100)
        with pytest.raises(InputValidationError):
            fit_decay_rate(x)


def _limsup_within(seconds: int, f, b):
    """``limsup_bound(f, b)``, or a TimeoutError if it has not returned after ``seconds``."""

    def hung(signum, frame):
        raise TimeoutError(f"limsup_bound(b={b}) did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        return limsup_bound(f, b)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestLimsupBound:
    def test_square_regulator(self):
        f = RegulatorFn("power-law", p=2, c1=1.0)
        assert limsup_bound(f, 0.01) == pytest.approx(0.1, abs=1e-9)

    def test_linear_regulator(self):
        f = RegulatorFn("power-law", p=1, c1=0.5)
        assert limsup_bound(f, 0.05) == pytest.approx(0.1, abs=1e-9)

    def test_sqrt_regulator_inverts_known_point(self):
        assert limsup_bound(RegulatorFn("example-sqrt"), 1.5) == pytest.approx(
            3.0, abs=1e-9
        )

    def test_nonpositive_forcing_rejected(self):
        with pytest.raises(InputValidationError):
            limsup_bound(RegulatorFn("example-sqrt"), 0.0)

    @pytest.mark.parametrize("b", [1e8, 1e30, 1e300])
    def test_a_ceiling_wider_apart_than_the_tolerance_returns(self, b):
        """Above 8192 adjacent floats lie more than 1e-12 apart, so the bisection
        must stop on its bounds meeting."""
        ceiling = _limsup_within(5, RegulatorFn("power-law", p=2, c1=1.0), b)
        assert ceiling == pytest.approx(math.sqrt(b), rel=1e-15)

    def test_a_regulator_that_overflows_before_the_root_compares_by_logs(self):
        """x^2 passes the float range near x = 1.3e154, below the root 1e155 of 1e-10 x^2 = 1e300."""
        ceiling = limsup_bound(RegulatorFn("power-law", p=2, c1=1e-10), 1e300)
        assert ceiling == pytest.approx(1e155, rel=1e-12)

    def test_a_bracket_whose_value_passes_the_float_range_exceeds_b(self):
        """For b the largest float, x^2 at 2^512 still falls short of b by logs, so the
        root is bracketed at 2^513, where f is inf; inf exceeds every finite b."""
        f, b = RegulatorFn("power-law", p=2, c1=1.0), float(np.finfo(float).max)
        assert f.value(2.0**512) < b and f.value(2.0**513) == math.inf
        ceiling = _limsup_within(5, f, b)
        assert ceiling == pytest.approx(math.sqrt(b), rel=1e-12)

    @pytest.mark.parametrize("p, c1, b", [(1.0, 1.0, 1.7e308), (1.0001, 1e-300, 1e300)])
    def test_a_root_beyond_the_float_range_is_refused(self, p, c1, b):
        with pytest.raises(InputValidationError, match="does not exceed b in the float range"):
            _limsup_within(5, RegulatorFn("power-law", p=p, c1=c1), b)

    def test_tail_ceiling_is_start_independent(self):
        """Trajectories from very different starts share the same tail ceiling."""
        f = RegulatorFn("power-law", p=2, c1=1.0)
        steps = 100_000
        ceiling = limsup_bound(f, 0.01)
        for x0 in (0.5, 1.0, 10.0):
            traj = recurrence_simulate(
                f, x0=x0, noise=NoiseSchedule("constant", scale=0.01), steps=steps
            )
            tail = traj[-steps // 10:]
            assert tail.max() <= ceiling + 1e-6


class TestRecurrenceRates:
    def test_square_regulator_with_inverse_forcing(self):
        """Forcing (t+1)^(-1) against f(x) = x^2 settles on the -1/2 power."""
        f = RegulatorFn("power-law", p=2, c1=1.0)
        traj = recurrence_simulate(
            f, x0=1.0, noise=NoiseSchedule(beta=1.0),
            steps=1_000_000,
        )
        slope, r_squared = fit_decay_rate(traj)
        assert abs(slope - (-0.5)) <= 0.1
        assert r_squared >= 0.99


class TestMeasureConcentration:
    def test_zero_threshold_always_exceeded(self):
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta = Parameter(np.zeros(1), model)
        curve = measure_concentration(
            model, theta, sizes=[1, 10], deltas=[0.0], trials=200, rng=RngState(seed=2)
        )
        assert curve[:, 0].tolist() == [1.0, 1.0]

    def test_gaussian_three_sigma_tail(self):
        """Single-draw exceedance at 3 sigma sits near the two-sided normal tail."""
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta = Parameter(np.zeros(1), model)
        curve = measure_concentration(
            model, theta, sizes=[1], deltas=[3.0], trials=10_000, rng=RngState(seed=60)
        )
        oracle = math.erfc(3.0 / math.sqrt(2.0))
        assert abs(curve[0, 0] - oracle) <= 0.004

    def test_tight_threshold_at_large_n_never_trips(self):
        """delta = 5 standard errors of the mean: expected tail 5.7e-7, observed 0."""
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta = Parameter(np.zeros(1), model)
        curve = measure_concentration(
            model, theta, sizes=[100], deltas=[0.5], trials=10_000, rng=RngState(seed=61)
        )
        assert curve[0, 0] == 0.0

    def test_monotone_in_sample_size(self):
        model = ExpFamilyModel(GAUSSIAN, 2)
        theta = Parameter(np.ones(2), model)
        curve = measure_concentration(
            model, theta, sizes=[1, 10, 100], deltas=[1.0], trials=4000,
            rng=RngState(seed=62),
        )
        fracs = curve[:, 0].tolist()
        assert fracs == sorted(fracs, reverse=True)

    def test_too_few_trials_rejected(self):
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta = Parameter(np.zeros(1), model)
        with pytest.raises(InputValidationError):
            measure_concentration(
                model, theta, sizes=[1], deltas=[1.0], trials=50, rng=RngState(seed=1)
            )

    @pytest.mark.parametrize(
        "trials", [150.5, np.float64(200.0), True], ids=["float", "numpy-float", "bool"]
    )
    def test_a_trial_count_that_is_not_an_integer_is_refused(self, trials):
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta = Parameter(np.zeros(1), model)
        with pytest.raises(InputValidationError, match="^trials must be a positive integer$"):
            measure_concentration(
                model, theta, sizes=[1], deltas=[1.0], trials=trials, rng=RngState(seed=1)
            )

    def test_replay_determinism(self):
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta = Parameter(np.zeros(1), model)
        a = measure_concentration(
            model, theta, sizes=[1, 10], deltas=[1.0], trials=500, rng=RngState(seed=77)
        )
        b = measure_concentration(
            model, theta, sizes=[1, 10], deltas=[1.0], trials=500, rng=RngState(seed=77)
        )
        assert np.array_equal(a, b)

    def test_a_size_beyond_memory_is_refused_before_any_draw(self, monkeypatch):
        model = ExpFamilyModel(GAUSSIAN, 3)
        theta = Parameter(np.zeros(3), model)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew before refusing the size")

        monkeypatch.setattr(expfam, "sample", no_draw)
        size = 3074457345618258603
        with pytest.raises(
            InputValidationError, match=rf"size {size} of shape \({size}, 3\) need "
        ):
            measure_concentration(
                model, theta, sizes=[10, size], deltas=[1.0], trials=100, rng=RngState(seed=1)
            )

    @pytest.mark.parametrize("deltas", [[], [[0.5]], [0.5, -0.1]])
    def test_bad_deltas_rejected(self, deltas):
        model = ExpFamilyModel(GAUSSIAN, 1)
        theta = Parameter(np.zeros(1), model)
        with pytest.raises(InputValidationError, match="deltas"):
            measure_concentration(
                model, theta, sizes=[1], deltas=deltas, trials=100, rng=RngState(seed=1)
            )


def _per_delta_reference(model, theta, sizes, delta, trials, rng):
    """One delta's curve the way a whole-stream implementation computes it.

    Draws each size's ``n * trials`` values in one ``sample`` call, fits all
    trials at once, and falls back to a per-trial fit when any mean
    statistic leaves the mean domain: a fit that does not exist exceeds.
    """
    out = []
    for i, n in enumerate(sizes):
        draws = expfam.sample(model, theta, n * trials, rng.derive(i).generator())
        tbar = draws.reshape(trials, n, model.dim).sum(axis=1) / float(n)
        theta_hat = np.full_like(tbar, np.nan)
        for row in range(trials):
            try:
                theta_hat[row] = expfam.inverse_mean_map(model, tbar[row]).theta
            except BoundaryError:
                pass
        dist = np.linalg.norm(theta_hat - theta.theta[None, :], axis=1)
        out.append(float((np.isnan(dist) | (dist >= delta)).mean()))
    return out


class TestMeasureConcentrationMatchesPerDeltaCalls:
    """One chunked pass over all deltas equals one whole-stream pass per delta, bit for bit."""

    SIZES = (1, 2, 7, 300, 4096)
    TRIALS = 150
    DELTAS = (3.0, 0.1, 0.2, 0.5)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize(
        "family, theta0",
        [(GAUSSIAN, 0.3), (POISSON, 0.1), (BERNOULLI, 2.5), (EXPONENTIAL, -1.2)],
    )
    def test_matches_the_per_delta_reference(self, family, theta0, dim):
        # the largest size needs several chunks, and its last chunk is partly filled
        rows = STACK_LIMIT // (self.SIZES[-1] * dim)
        assert rows < self.TRIALS and self.TRIALS % rows != 0
        model = ExpFamilyModel(family, dim)
        theta = Parameter(np.full(dim, theta0), model)
        rng = RngState(seed=90 + dim)
        curve = measure_concentration(model, theta, self.SIZES, self.DELTAS, self.TRIALS, rng)
        expected = np.array(
            [_per_delta_reference(model, theta, self.SIZES, d, self.TRIALS, rng) for d in self.DELTAS]
        ).T
        assert curve.shape == (len(self.SIZES), len(self.DELTAS))
        np.testing.assert_array_equal(curve, expected)
        if family == BERNOULLI:
            assert curve[0].tolist() == [1.0] * len(self.DELTAS)  # n = 1 always hits the boundary
