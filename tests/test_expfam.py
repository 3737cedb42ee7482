"""Tests for exponential-family models, samplers, and the mean-map estimators."""

import numpy as np
import pytest

from collapseguard.errors import (
    BoundaryError,
    DegenerateSelectionError,
    InputValidationError,
)
from collapseguard.expfam import (
    BERNOULLI,
    EXPONENTIAL,
    FAMILIES,
    GAUSSIAN,
    POISSON,
    POISSON_RATE_MAX,
    ExpFamilyModel,
    Parameter,
    _base_rows,
    _fit_error,
    _fit_rows,
    _mean_from_natural,
    _mean_slope,
    estimate,
    inverse_mean_map,
    mean_map,
    sample,
    weighted_estimate,
)
from collapseguard.numerics import RngState, as_vector


def _model(family: str, dim: int = 1) -> ExpFamilyModel:
    return ExpFamilyModel(family, dim)


def _param(family: str, values) -> Parameter:
    theta = np.atleast_1d(np.asarray(values, dtype=float))
    return Parameter(theta, _model(family, theta.size))


def numeric_inverse_mean_map(
    model: ExpFamilyModel, tbar, tol: float = 1e-12, max_iter: int = 100
) -> Parameter:
    """Invert the mean map by safeguarded Newton iteration.

    Monotone coordinate-wise solve with a geometrically expanded bisection
    bracket, the route a family without a closed form would take. Kept
    here as an independent cross-check of :func:`inverse_mean_map`.
    """
    t = as_vector(tbar, dim=model.dim, name="tbar")
    inverse_mean_map(model, t)  # refuses a boundary mean; its value is not used below
    family = model.family
    out = np.empty_like(t)
    for j, target in enumerate(t):
        lo, hi = _initial_bracket(family, target)
        theta = 0.5 * (lo + hi)
        for _ in range(max_iter):
            arr = np.array([theta])
            resid = float(_mean_from_natural(family, arr)[0]) - target
            if abs(resid) <= tol * max(1.0, abs(target)):
                break
            if resid > 0.0:
                hi = theta
            else:
                lo = theta
            slope = float(_mean_slope(family, arr)[0])
            step = theta - resid / slope if slope > 0.0 else None
            if step is None or not (lo < step < hi):
                step = 0.5 * (lo + hi)
            theta = step
        out[j] = theta
    return Parameter(out, model)


def _initial_bracket(family: str, target: float) -> tuple[float, float]:
    """A (lo, hi) natural-parameter bracket with mean(lo) < target < mean(hi)."""
    if family == GAUSSIAN:
        return target - 1.0, target + 1.0
    if family == EXPONENTIAL:
        lo, hi = -2.0 / target, -0.5 / target
        while float(_mean_from_natural(family, np.array([lo]))[0]) >= target:
            lo *= 2.0
        while float(_mean_from_natural(family, np.array([hi]))[0]) <= target:
            hi *= 0.5
        return lo, hi
    lo, hi = -1.0, 1.0
    while float(_mean_from_natural(family, np.array([lo]))[0]) >= target:
        lo *= 2.0
    while float(_mean_from_natural(family, np.array([hi]))[0]) <= target:
        hi *= 2.0
    return lo, hi


class TestMeanMap:
    def test_gaussian_identity(self):
        np.testing.assert_array_equal(
            mean_map(_model(GAUSSIAN, 2), _param(GAUSSIAN, [1.0, 1.0])), [1.0, 1.0]
        )

    def test_poisson_exponentiates(self):
        np.testing.assert_allclose(
            mean_map(_model(POISSON), _param(POISSON, [0.0])), [1.0], rtol=1e-15
        )

    def test_bernoulli_logistic(self):
        np.testing.assert_allclose(
            mean_map(_model(BERNOULLI), _param(BERNOULLI, [0.0])), [0.5], rtol=1e-15
        )

    def test_exponential_negative_reciprocal(self):
        np.testing.assert_allclose(
            mean_map(_model(EXPONENTIAL), _param(EXPONENTIAL, [-2.0])), [0.5],
            rtol=1e-15,
        )


class TestInverseMeanMap:
    def test_gaussian_identity(self):
        np.testing.assert_array_equal(
            inverse_mean_map(_model(GAUSSIAN, 2), np.array([2.0, 5.0])).theta,
            [2.0, 5.0],
        )

    def test_poisson_log(self):
        np.testing.assert_allclose(
            inverse_mean_map(_model(POISSON), np.array([2.0])).theta,
            [np.log(2.0)], rtol=1e-12,
        )

    def test_bernoulli_logit(self):
        np.testing.assert_allclose(
            inverse_mean_map(_model(BERNOULLI), np.array([0.5])).theta, [0.0],
            atol=1e-12,
        )

    def test_exponential_reciprocal(self):
        np.testing.assert_allclose(
            inverse_mean_map(_model(EXPONENTIAL), np.array([0.5])).theta, [-2.0],
            rtol=1e-12,
        )

    def test_boundary_means_rejected(self):
        with pytest.raises(BoundaryError):
            inverse_mean_map(_model(POISSON), np.array([0.0]))
        with pytest.raises(BoundaryError):
            inverse_mean_map(_model(BERNOULLI), np.array([1.0]))
        with pytest.raises(BoundaryError):
            inverse_mean_map(_model(BERNOULLI), np.array([0.0]))
        with pytest.raises(BoundaryError):
            inverse_mean_map(_model(EXPONENTIAL), np.array([0.0]))

    def test_round_trip_all_families(self):
        """inverse_mean_map(mean_map(theta)) recovers theta to 1e-9 everywhere."""
        rng = np.random.default_rng(13)
        domains = {
            GAUSSIAN: lambda: rng.uniform(-5.0, 5.0, size=3),
            POISSON: lambda: rng.uniform(-3.0, 3.0, size=2),
            BERNOULLI: lambda: rng.uniform(-5.0, 5.0, size=2),
            EXPONENTIAL: lambda: rng.uniform(-10.0, -0.1, size=2),
        }
        for family in FAMILIES:
            for _ in range(25):
                theta = domains[family]()
                model = _model(family, theta.size)
                param = Parameter(theta.copy(), model)
                recovered = inverse_mean_map(model, mean_map(model, param))
                np.testing.assert_allclose(recovered.theta, theta, atol=1e-9)

    def test_numeric_inverse_matches_closed_form(self):
        """The safeguarded-Newton path agrees with the closed-form inverses."""
        rng = np.random.default_rng(29)
        cases = [
            (POISSON, rng.uniform(0.05, 20.0, size=8)),
            (BERNOULLI, rng.uniform(0.01, 0.99, size=8)),
            (EXPONENTIAL, rng.uniform(0.05, 20.0, size=8)),
        ]
        for family, means in cases:
            model = _model(family)
            for value in means:
                tbar = np.array([value])
                closed = inverse_mean_map(model, tbar).theta
                numeric = numeric_inverse_mean_map(model, tbar).theta
                np.testing.assert_allclose(numeric, closed, atol=1e-9)


class TestEstimate:
    def test_gaussian_sample_mean_1d(self):
        model = _model(GAUSSIAN)
        out = estimate(model, np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out.theta, [2.0], rtol=0)

    def test_gaussian_sample_mean_2d(self):
        model = _model(GAUSSIAN, 2)
        out = estimate(model, np.array([[0.0, 0.0], [2.0, 4.0]]))
        np.testing.assert_allclose(out.theta, [1.0, 2.0], rtol=0)

    def test_poisson_log_of_mean(self):
        out = estimate(_model(POISSON), np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out.theta, [np.log(2.0)], rtol=1e-12)

    def test_empty_data_rejected(self):
        with pytest.raises(InputValidationError):
            estimate(_model(GAUSSIAN), np.empty((0, 1)))
        # a 1-d array is refused, not read as one point
        with pytest.raises(InputValidationError, match=r"got \(1,\)"):
            estimate(_model(GAUSSIAN), np.zeros(1))
        with pytest.raises(InputValidationError, match=r"got \(1,\)"):
            weighted_estimate(_model(GAUSSIAN), np.zeros(1), np.ones(1))

    def test_out_of_support_points_rejected(self):
        with pytest.raises(InputValidationError):
            estimate(_model(POISSON), np.array([[-1.0]]))
        with pytest.raises(InputValidationError):
            estimate(_model(POISSON), np.array([[2.5]]))
        with pytest.raises(InputValidationError):
            estimate(_model(BERNOULLI), np.array([[0.3]]))
        with pytest.raises(InputValidationError):
            estimate(_model(EXPONENTIAL), np.array([[-0.1]]))

    def test_degenerate_sample_hits_boundary(self):
        with pytest.raises(BoundaryError):
            estimate(_model(BERNOULLI), np.zeros((5, 1)))

    def test_unbiased_for_gaussian_mean(self):
        """Average of 1e4 estimates from size-50 datasets lands on the truth."""
        model = _model(GAUSSIAN, 2)
        theta_star = np.array([1.0, 1.0])
        pooled = sample(model, Parameter(theta_star, model), 50 * 10_000,
                        RngState(seed=77))
        datasets = pooled.reshape(10_000, 50, 2)
        estimates = np.stack(
            [estimate(model, datasets[i]).theta for i in range(datasets.shape[0])]
        )
        bound = 3.0 / np.sqrt(50 * 10_000)
        assert np.abs(estimates.mean(axis=0) - theta_star).max() <= bound

    def test_squared_error_scales_inversely_with_sample_size(self):
        """E[(theta_hat - theta*)^2] for the 1-d Gaussian equals 1/n within 10%."""
        model = _model(GAUSSIAN)
        theta_star = Parameter(np.zeros(1), model)
        trials = 4000
        for size in (10, 100, 1000):
            pooled = sample(model, theta_star, size * trials,
                            RngState(seed=100 + size))
            means = pooled.reshape(trials, size).mean(axis=1)
            mse = float(np.mean(means**2))
            assert abs(mse - 1.0 / size) <= 0.10 / size


class TestWeightedEstimate:
    def test_single_selected_point(self):
        out = weighted_estimate(
            _model(GAUSSIAN), np.array([[5.0], [9.0]]), np.array([1.0, 0.0])
        )
        np.testing.assert_allclose(out.theta, [5.0], rtol=0)

    def test_equal_weights_average(self):
        out = weighted_estimate(
            _model(GAUSSIAN), np.array([[5.0], [9.0]]), np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(out.theta, [7.0], rtol=0)

    def test_hand_computed_tilt(self):
        """(0.25 * 5 + 0.75 * 9) / (0.25 + 0.75) = 8."""
        out = weighted_estimate(
            _model(GAUSSIAN), np.array([[5.0], [9.0]]), np.array([0.25, 0.75])
        )
        np.testing.assert_allclose(out.theta, [8.0], rtol=1e-15)

    def test_constant_weights_reduce_to_estimate_exactly(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(17, 2))
        model = _model(GAUSSIAN, 2)
        plain = estimate(model, points).theta
        for level in (1.0, 0.37, 1e-3):
            weighted = weighted_estimate(
                model, points, np.full(17, level)
            ).theta
            np.testing.assert_array_equal(weighted, plain)

    def test_weight_floor_guards_degenerate_selection(self):
        points = np.zeros((10, 1)) + 1.0
        with pytest.raises(DegenerateSelectionError):
            weighted_estimate(_model(GAUSSIAN), points, np.full(10, 1e-9))

    def test_weights_outside_unit_interval_rejected(self):
        points = np.ones((3, 1))
        with pytest.raises(InputValidationError):
            weighted_estimate(_model(GAUSSIAN), points, np.array([0.5, 1.5, 0.5]))
        with pytest.raises(InputValidationError):
            weighted_estimate(_model(GAUSSIAN), points, np.array([0.5, -0.1, 0.5]))


# One (4, 1) batch per fit code a family can reach, with its weights, its code
# and the pinned type and message of the error its one-row call raises. Code 8,
# an exponential theta that is not negative, is unreachable from data: -1/tbar
# of a positive mean is negative or -inf.
_NAN, _INF = np.nan, np.inf
_ONES = [1.0, 1.0, 1.0, 1.0]
_FLOOR = "weight sum {} is at or below the floor 4.000e-06"
_CODED_ROWS = {
    GAUSSIAN: [
        ([0.5, -1.0, 2.0, 0.25], _ONES, 0, None, None),
        ([0.0, _NAN, 1.0, 2.0], _ONES, 1, InputValidationError, "points must be finite"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 1.5, 1.0, 1.0], 3, InputValidationError,
         "weights must be finite and lie in [0, 1]"),
        ([0.0, 1.0, 2.0, 3.0], [0.0] * 4, 4, DegenerateSelectionError,
         _FLOOR.format("0.000e+00")),
        ([1e308] * 4, _ONES, 5, BoundaryError, "mean statistic is not finite"),
    ],
    POISSON: [
        ([0.0, 1.0, 3.0, 2.0], [0.5, 1.0, 0.25, 1.0], 0, None, None),
        ([0.0, 1.0, _NAN, 2.0], _ONES, 1, InputValidationError, "points must be finite"),
        ([0.0, 1.5, 2.0, 1.0], _ONES, 2, InputValidationError,
         "poisson data must be nonnegative integers"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, -0.5, 1.0, 1.0], 3, InputValidationError,
         "weights must be finite and lie in [0, 1]"),
        ([0.0, 1.0, 2.0, 3.0], [1e-7] * 4, 4, DegenerateSelectionError,
         _FLOOR.format("4.000e-07")),
        ([1e308] * 4, _ONES, 5, BoundaryError, "mean statistic is not finite"),
        ([0.0] * 4, _ONES, 6, BoundaryError, "poisson mean statistic must be strictly positive"),
    ],
    BERNOULLI: [
        ([0.0, 1.0, 1.0, 0.0], _ONES, 0, None, None),
        ([_NAN, 1.0, 1.0, 0.0], _ONES, 1, InputValidationError, "points must be finite"),
        ([0.0, 0.5, 1.0, 1.0], _ONES, 2, InputValidationError, "bernoulli data must be 0/1 valued"),
        ([0.0, 1.0, 1.0, 0.0], [1.0, _NAN, 1.0, 1.0], 3, InputValidationError,
         "weights must be finite and lie in [0, 1]"),
        ([0.0, 1.0, 1.0, 0.0], [0.0] * 4, 4, DegenerateSelectionError,
         _FLOOR.format("0.000e+00")),
        ([1.0] * 4, _ONES, 6, BoundaryError,
         "bernoulli mean statistic must lie strictly inside (0, 1)"),
    ],
    EXPONENTIAL: [
        ([0.5, 1.0, 2.0, 0.1], _ONES, 0, None, None),
        ([0.5, _INF, 2.0, 0.1], _ONES, 1, InputValidationError, "points must be finite"),
        ([0.5, -1.0, 2.0, 0.1], _ONES, 2, InputValidationError,
         "exponential data must be nonnegative"),
        ([0.5, 1.0, 2.0, 0.1], [1.0, 1.0, _INF, 1.0], 3, InputValidationError,
         "weights must be finite and lie in [0, 1]"),
        ([0.5, 1.0, 2.0, 0.1], [0.0] * 4, 4, DegenerateSelectionError,
         _FLOOR.format("0.000e+00")),
        ([1e308] * 4, _ONES, 5, BoundaryError, "mean statistic is not finite"),
        ([0.0] * 4, _ONES, 6, BoundaryError,
         "exponential mean statistic must be strictly positive"),
        ([1e-320] * 4, _ONES, 7, InputValidationError, "theta must be finite"),
    ],
}


class TestFitCodes:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_row_gets_the_code_and_the_error_of_its_first_failing_check(self, family):
        rows = _CODED_ROWS[family]
        points = np.array([r[0] for r in rows])[:, :, None]
        weights = np.array([r[1] for r in rows])
        theta, code = _fit_rows(family, points, weights)
        assert code.tolist() == [r[2] for r in rows]
        model = _model(family)
        for (_, w, c, kind, message), pts, fit in zip(rows, points, theta):
            if c == 0:
                assert weighted_estimate(model, pts, w).theta.tobytes() == fit.tobytes()
                continue
            with pytest.raises(kind) as info:
                weighted_estimate(model, pts, w)
            assert type(info.value) is kind and str(info.value) == message
            built = _fit_error(family, c, np.asarray(w))
            assert type(built) is kind and str(built) == message

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unweighted_rows_get_the_codes_and_errors_of_estimate(self, family):
        rows = [r for r in _CODED_ROWS[family] if r[2] not in (3, 4)]
        points = np.array([r[0] for r in rows])[:, :, None]
        theta, code = _fit_rows(family, points, None)
        assert code.tolist() == [r[2] for r in rows]
        model = _model(family)
        for (_, _, c, kind, message), pts, fit in zip(rows, points, theta):
            if c == 0:
                assert estimate(model, pts).theta.tobytes() == fit.tobytes()
                continue
            with pytest.raises(kind) as info:
                estimate(model, pts)
            assert type(info.value) is kind and str(info.value) == message

    @pytest.mark.parametrize(
        "family, points, weights, kind, message",
        [
            (GAUSSIAN, [[_NAN], [1.0]], [1.0], InputValidationError, "points must be finite"),
            (POISSON, [[-1.0], [2.0]], [1.5, 0.5], InputValidationError,
             "poisson data must be nonnegative integers"),
            (BERNOULLI, [[1.0], [1.0]], [1e-7, 1e-7], DegenerateSelectionError,
             "weight sum 2.000e-07 is at or below the floor 2.000e-06"),
            (BERNOULLI, [[0.5], [_NAN]], [1.0, 1.0], InputValidationError,
             "points must be finite"),
            (BERNOULLI, [[1.0], [1.0]], [1.0], InputValidationError,
             "weights must have shape (2,), got (1,)"),
            (EXPONENTIAL, [[1e-320], [1e-320]], [1.0, 1.0, 1.0], InputValidationError,
             "weights must have shape (2,), got (3,)"),
            (GAUSSIAN, [[0.0], [1.0]], [_NAN, 0.0], InputValidationError,
             "weights must be finite and lie in [0, 1]"),
            (GAUSSIAN, [[0.0], [1.0]], [-1.0, 0.5], InputValidationError,
             "weights must be finite and lie in [0, 1]"),
            (GAUSSIAN, [[1e308], [1e308]], [0.0, 0.0], DegenerateSelectionError,
             "weight sum 0.000e+00 is at or below the floor 2.000e-06"),
        ],
    )
    def test_a_multi_fault_input_raises_its_first_error(
        self, family, points, weights, kind, message
    ):
        with pytest.raises(kind) as info:
            weighted_estimate(_model(family), points, weights)
        assert type(info.value) is kind and str(info.value) == message

    @pytest.mark.parametrize(
        "family, tbar, kind, message",
        [
            (POISSON, [_NAN], InputValidationError, "tbar must be finite"),
            (EXPONENTIAL, [0.0], BoundaryError,
             "exponential mean statistic must be strictly positive"),
            (EXPONENTIAL, [1e-320], InputValidationError, "theta must be finite"),
        ],
    )
    def test_inverse_mean_map_raises_the_fit_errors_of_a_mean(self, family, tbar, kind, message):
        with pytest.raises(kind) as info:
            inverse_mean_map(_model(family), tbar)
        assert type(info.value) is kind and str(info.value) == message


class TestSample:
    def test_gaussian_mean_concentration(self):
        model = _model(GAUSSIAN)
        draws = sample(model, Parameter(np.zeros(1), model), 100_000, RngState(seed=8))
        assert abs(float(draws.mean())) <= 0.01

    def test_poisson_mean_concentration(self):
        model = _model(POISSON)
        theta = Parameter(np.array([np.log(2.0)]), model)
        draws = sample(model, theta, 100_000, RngState(seed=9))
        assert abs(float(draws.mean()) - 2.0) <= 0.015

    def test_single_draw_replay_identical(self):
        for family in FAMILIES:
            model = _model(family)
            theta = _param(family, [-1.0] if family == EXPONENTIAL else [0.2])
            a = sample(model, theta, 1, RngState(seed=55))
            b = sample(model, theta, 1, RngState(seed=55))
            np.testing.assert_array_equal(a, b)

    def test_draws_stay_in_support(self):
        rng = RngState(seed=31)
        poisson = sample(_model(POISSON), _param(POISSON, [1.0]), 500, rng.derive(0))
        assert np.all(poisson >= 0) and np.all(poisson == np.floor(poisson))
        bern = sample(_model(BERNOULLI), _param(BERNOULLI, [0.3]), 500, rng.derive(1))
        assert set(np.unique(bern)) <= {0.0, 1.0}
        expo = sample(
            _model(EXPONENTIAL), _param(EXPONENTIAL, [-2.0]), 500, rng.derive(2)
        )
        assert np.all(expo > 0)

    def test_invalid_count_rejected(self):
        model = _model(GAUSSIAN)
        with pytest.raises(InputValidationError):
            sample(model, Parameter(np.zeros(1), model), 0, RngState(seed=1))


def _theta_for(family: str, dim: int, shift: float = 0.0) -> np.ndarray:
    if family == EXPONENTIAL:
        return np.linspace(-1.7, -0.3, dim) - shift
    return np.linspace(-0.8, 1.1, dim) + shift


def _raw_draw(family: str, theta: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    """The numpy formula of each family, independent of the package's kernel."""
    d = theta.shape[0]
    if family == GAUSSIAN:
        return theta + gen.standard_normal((n, d))
    if family == POISSON:
        return gen.poisson(np.exp(theta), (n, d)).astype(float)
    if family == BERNOULLI:
        return (gen.random((n, d)) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    return gen.exponential(-1.0 / theta, (n, d))


class _FailingGenerator:
    """A stand-in stream whose every draw raises."""

    def __init__(self, error):
        self.error = error

    def _fail(self, *args, **kwargs):
        raise self.error

    standard_normal = random = poisson = standard_exponential = _fail


class TestDrawKernel:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_sample_gives_the_bits_of_the_numpy_formula(self, family, dim, n):
        theta = _theta_for(family, dim)
        rng = RngState(seed=17).derive(dim * 1000 + n)
        drawn = sample(_model(family, dim), Parameter(theta, _model(family, dim)), n, rng)
        expected = _raw_draw(family, theta, n, rng.generator())
        assert drawn.dtype == expected.dtype and drawn.shape == expected.shape
        np.testing.assert_array_equal(drawn, expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_first_raising_row_propagates_its_error(self, family):
        """Row 3's error leaves the call as it is raised; row 4, which would raise
        another, is never called."""
        dim, n, rows, k = 2, 7, 5, 3
        thetas = np.stack([_theta_for(family, dim, 0.1 * r) for r in range(rows)])
        rng = RngState(seed=23)
        error = ValueError("row 3 cannot draw")
        gens = [rng.derive(r).generator() for r in range(k)]
        gens += [_FailingGenerator(error), _FailingGenerator(ValueError("row 4"))]
        with pytest.raises(ValueError) as info:
            _base_rows(family, thetas, gens, np.empty((rows, n, dim)))
        assert info.value is error

    def test_sample_raises_the_error_of_its_one_row(self):
        model = _model(POISSON)
        theta = Parameter(np.array([np.log(POISSON_RATE_MAX) + 1.0]), model)
        with pytest.raises(BoundaryError, match="the largest rate numpy can sample"):
            sample(model, theta, 3, RngState(seed=2))

    def test_the_poisson_rate_limit_is_numpys(self):
        gen = RngState(seed=3).generator()
        assert gen.poisson(POISSON_RATE_MAX) >= 0
        with pytest.raises(ValueError, match="lam value too large"):
            gen.poisson(np.nextafter(POISSON_RATE_MAX, np.inf))
