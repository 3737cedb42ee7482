"""Natural-parameter exponential families with exact estimators.

Four concrete families, all with sufficient statistic T(x) = x and
coordinate-wise log-partition, so products over coordinates come for free:

==========================  ===============  ==================  =====================
family                      natural domain   mean map            mean domain (open)
==========================  ===============  ==================  =====================
gaussian-mean-known-cov     all reals        theta               all reals
poisson                     all reals        exp(theta)          (0, inf)
bernoulli                   all reals        sigmoid(theta)      (0, 1)
exponential                 theta < 0        -1/theta            (0, inf)
==========================  ===============  ==================  =====================

Maximum likelihood is the mean of sufficient statistics pushed through the
inverse mean map; the closed forms above are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, DegenerateSelectionError, InputValidationError
from .numerics import as_generator, as_vector, check_int, point_sums

GAUSSIAN = "gaussian-mean-known-cov"
POISSON = "poisson"
BERNOULLI = "bernoulli"
EXPONENTIAL = "exponential"
FAMILIES = (GAUSSIAN, POISSON, BERNOULLI, EXPONENTIAL)

_ALIASES = {"gaussian": GAUSSIAN, "normal": GAUSSIAN}

WEIGHT_FLOOR_PER_POINT = 1e-6

# the largest rate numpy's Poisson sampler accepts (its POISSON_LAM_MAX)
POISSON_RATE_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
_BEYOND_RATE_MAX = f"exceeds {POISSON_RATE_MAX:.6g}, the largest rate numpy can sample"


@dataclass(frozen=True)
class ExpFamilyModel:
    """A family tag plus data dimension; all state needed to sample and fit."""

    family: str
    dim: int

    def __post_init__(self):
        family = _ALIASES.get(self.family, self.family)
        if family not in FAMILIES:
            raise InputValidationError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "dim", check_int(self.dim, "dim", 1))


@dataclass(frozen=True, eq=False)
class Parameter:
    """A natural parameter bound to its model."""

    theta: np.ndarray
    model: ExpFamilyModel

    def __post_init__(self):
        theta = as_vector(self.theta, dim=self.model.dim, name="theta")
        if self.model.family == EXPONENTIAL and not np.all(theta < 0.0):
            raise _fit_error(EXPONENTIAL, _THETA_DOMAIN)
        object.__setattr__(self, "theta", theta)


# The fit checks in the order the one-row functions make them. A row's fit
# code is the first check it fails, 0 if it passes all of them.
_POINTS_NONFINITE, _OFF_SUPPORT, _WEIGHTS_RANGE, _WEIGHT_FLOOR = range(1, 5)
_MEAN_NONFINITE, _MEAN_DOMAIN, _THETA_NONFINITE, _THETA_DOMAIN = range(5, 9)

_FIT_ERRORS = {  # the (type, message) of each code's error
    _POINTS_NONFINITE: (InputValidationError, "points must be finite"),
    _OFF_SUPPORT: (InputValidationError, "{family} data must be {support}"),
    _WEIGHTS_RANGE: (InputValidationError, "weights must be finite and lie in [0, 1]"),
    _WEIGHT_FLOOR: (
        DegenerateSelectionError, "weight sum {total:.3e} is at or below the floor {floor:.3e}"
    ),
    _MEAN_NONFINITE: (BoundaryError, "mean statistic is not finite"),
    _MEAN_DOMAIN: (BoundaryError, "{family} mean statistic must {domain}"),
    _THETA_NONFINITE: (InputValidationError, "theta must be finite"),
    _THETA_DOMAIN: (InputValidationError, "exponential natural parameters must be negative"),
}
_SUPPORT = {POISSON: "nonnegative integers", BERNOULLI: "0/1 valued", EXPONENTIAL: "nonnegative"}
_DOMAIN = {BERNOULLI: "lie strictly inside (0, 1)"}  # the others: be strictly positive


def _fit_error(family: str, code: int, weights: np.ndarray | None = None) -> Exception:
    """The error of a row with fit ``code`` (nonzero); ``weights`` are the row's own (n,)."""
    kind, message = _FIT_ERRORS[int(code)]
    total = 0.0 if weights is None else float(weights.sum())
    floor = 0.0 if weights is None else WEIGHT_FLOOR_PER_POINT * weights.size
    return kind(message.format(
        family=family, support=_SUPPORT.get(family), total=total, floor=floor,
        domain=_DOMAIN.get(family, "be strictly positive"),
    ))


def _off_support(family: str, points: np.ndarray) -> np.ndarray:
    """Elementwise mask of points outside the support of a family other than the Gaussian."""
    if family == POISSON:
        return (points < 0.0) | (points != np.floor(points))
    if family == BERNOULLI:
        return (points != 0.0) & (points != 1.0)
    return points < 0.0


def _mean_from_natural(family: str, theta: np.ndarray) -> np.ndarray:
    if family == GAUSSIAN:
        return theta.copy()
    if family == POISSON:
        return np.exp(theta)
    if family == BERNOULLI:
        return 1.0 / (1.0 + np.exp(-theta))
    return -1.0 / theta


def _natural_from_mean(family: str, tbar: np.ndarray) -> np.ndarray:
    if family == GAUSSIAN:
        return tbar.copy()
    if family == POISSON:
        return np.log(tbar)
    if family == BERNOULLI:
        return np.log(tbar) - np.log1p(-tbar)
    return -1.0 / tbar


def _mean_slope(family: str, theta: np.ndarray) -> np.ndarray:
    """Derivative of the mean map per coordinate (the family variance)."""
    if family == GAUSSIAN:
        return np.ones_like(theta)
    if family == POISSON:
        return np.exp(theta)
    if family == BERNOULLI:
        p = 1.0 / (1.0 + np.exp(-theta))
        return p * (1.0 - p)
    return 1.0 / (theta * theta)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _as_points(model: ExpFamilyModel, points) -> np.ndarray:
    """A data batch as an (n, dim) float64 array of at least one point; checks shape only."""
    data = np.asarray(points, dtype=float)
    if data.ndim != 2 or data.shape[1] != model.dim:
        raise InputValidationError(f"points must have shape (n, {model.dim}), got {data.shape}")
    if data.shape[0] < 1:
        raise InputValidationError("points must contain at least one point")
    return data


def mean_map(model: ExpFamilyModel, theta: Parameter) -> np.ndarray:
    """E[T(x)] under the parameter (the gradient of the log-partition)."""
    if theta.model != model:
        raise InputValidationError("parameter belongs to a different model")
    return _mean_from_natural(model.family, theta.theta)


def inverse_mean_map(model: ExpFamilyModel, tbar) -> Parameter:
    """Natural parameter whose mean statistic equals ``tbar`` (closed form)."""
    t = as_vector(tbar, dim=model.dim, name="tbar")
    with np.errstate(all="ignore"):
        theta, code = _natural_rows(model.family, t[None], [])
    return _one_fit(model, theta, code)


def _mean_statistic(points: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Average statistic of each batch in ``points`` (rows, n, dim), weighted when given.

    Weights (rows, n) are rescaled by their row maximum before averaging so
    that constant weights cancel exactly.
    """
    if weights is None:
        return point_sums(points) / points.shape[1]
    scaled = weights / weights.max(axis=1, keepdims=True)
    return point_sums(points * scaled[:, :, None]) / scaled.sum(axis=1)[:, None]


def estimate(model: ExpFamilyModel, points) -> Parameter:
    """Maximum-likelihood fit: inverse mean map of the average statistic."""
    data = _as_points(model, points)
    return _one_fit(model, *_fit_rows(model.family, data[None], None))


def weighted_estimate(model: ExpFamilyModel, points, weights) -> Parameter:
    """Weighted maximum likelihood with weights in [0, 1].

    Rejects weight vectors whose sum falls below 1e-6 per point (a filter
    that keeps nothing defines no estimate). Weights are rescaled by their
    maximum before averaging so that constant weights cancel exactly.
    """
    data = _as_points(model, points)
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.shape[0],):
        _, code = _fit_rows(model.family, data[None], None)
        if 0 < code[0] < _WEIGHTS_RANGE:  # the points' own checks come first
            raise _fit_error(model.family, code[0])
        raise InputValidationError(f"weights must have shape ({data.shape[0]},), got {w.shape}")
    return _one_fit(model, *_fit_rows(model.family, data[None], w[None]), w)


def _one_fit(model: ExpFamilyModel, theta: np.ndarray, code: np.ndarray, weights=None):
    """The Parameter of a one-row fit, or the error of its code raised."""
    if code[0]:
        raise _fit_error(model.family, code[0], weights)
    return Parameter(theta[0], model)


def _fit_rows(family: str, points: np.ndarray, weights: np.ndarray | None):
    """``estimate`` (or ``weighted_estimate``) of every batch in ``points`` (rows, n, dim).

    The one implementation of the fit and its checks. Returns the natural
    parameters (rows, dim) and each row's fit code: 0 for a row with a fit,
    else the first check it fails, in the order of ``_FIT_ERRORS``. A coded
    row holds no fit; ``_fit_error`` builds the error it raises.
    """
    with np.errstate(all="ignore"):
        checks = [(_POINTS_NONFINITE, ~np.isfinite(points).all(axis=(1, 2)))]
        if family != GAUSSIAN:
            checks.append((_OFF_SUPPORT, _off_support(family, points).any(axis=(1, 2))))
        if weights is not None:
            in_range = (weights >= 0.0) & (weights <= 1.0)  # False at NaN too
            checks.append((_WEIGHTS_RANGE, ~in_range.all(axis=1)))
            floor = WEIGHT_FLOOR_PER_POINT * points.shape[1]
            checks.append((_WEIGHT_FLOOR, weights.sum(axis=1) <= floor))
        return _natural_rows(family, _mean_statistic(points, weights), checks)


def _natural_rows(family: str, tbar: np.ndarray, checks: list):
    """Natural parameters of the means ``tbar`` (rows, dim) and each row's fit code.

    ``checks`` holds the (code, row mask) pairs of the earlier checks. Call
    it with floating-point warnings off."""
    theta = _natural_from_mean(family, tbar)
    checks.append((_MEAN_NONFINITE, ~np.isfinite(tbar).all(axis=1)))
    if family != GAUSSIAN:  # the open mean domain; a NaN or inf was caught just above
        outside = (tbar <= 0.0) | (tbar >= 1.0) if family == BERNOULLI else tbar <= 0.0
        checks.append((_MEAN_DOMAIN, outside.any(axis=1)))
    if family == EXPONENTIAL:  # -1/tbar is the only map that can leave the reals
        checks.append((_THETA_NONFINITE, ~np.isfinite(theta).all(axis=1)))
        checks.append((_THETA_DOMAIN, ~(theta < 0.0).all(axis=1)))
    code = np.zeros(tbar.shape[0], dtype=np.int8)
    for c, bad in reversed(checks):  # the first check a row fails is written last
        code[bad] = c
    return theta, code


def _shift(draws: np.ndarray, theta: np.ndarray) -> None:
    draws += theta


def _below_mean(draws: np.ndarray, theta: np.ndarray) -> None:
    np.less(draws, 1.0 / (1.0 + np.exp(-theta)), out=draws)


def _scale(draws: np.ndarray, theta: np.ndarray) -> None:
    draws *= -1.0 / theta


# family -> (the Generator method of its base draw, the in-place transform of
# base draws to draws at theta). The base draws of the Gaussian, the Bernoulli
# and the exponential do not depend on theta; a Poisson draw depends on its
# rate, so its base draw is the final draw and it has no transform.
_DRAWS = {
    GAUSSIAN: ("standard_normal", _shift),
    BERNOULLI: ("random", _below_mean),
    EXPONENTIAL: ("standard_exponential", _scale),
    POISSON: ("poisson", None),
}


def _base_rows(family: str, theta_rows: np.ndarray, gens, out: np.ndarray) -> None:
    """Fill each row ``out[r]`` (m, dim) with base draws, one call of ``gens[r]`` per row.

    Rows are drawn in row order; a row whose call raises stops the draw with
    that error. A stream yields the same values in one call as in several
    calls of the same total size, so a row may hold the draws of several
    generations. A Poisson row draws at the rate of ``theta_rows[r]`` and
    fails with a BoundaryError before its call when numpy cannot sample
    that rate; the other families ignore ``theta_rows``.
    """
    method = _DRAWS[family][0]
    for r, gen in enumerate(gens):
        row = out[r]
        if family == POISSON:
            rate = np.exp(theta_rows[r])
            if np.any(rate > POISSON_RATE_MAX):
                raise BoundaryError(f"poisson rate {rate.max()} {_BEYOND_RATE_MAX}")
            row[...] = getattr(gen, method)(lam=rate, size=row.shape)
        else:
            getattr(gen, method)(out=row)


def _transform_rows(family: str, theta_rows: np.ndarray, draws: np.ndarray) -> None:
    """Map base draws (rows, n, dim) in place to draws at ``theta_rows`` (rows, dim).

    The bits are those of numpy's own sampler: a Gaussian adds theta, a
    Bernoulli tests u < sigmoid(theta), an exponential scales by -1/theta
    (the product ``exponential(scale=...)`` forms); a Poisson draw is
    already final.
    """
    transform = _DRAWS[family][1]
    if transform is not None:
        transform(draws, theta_rows[:, None, :])


def sample(model: ExpFamilyModel, theta: Parameter, n: int, rng) -> np.ndarray:
    """Draw n i.i.d. points from the parameterized distribution, shape (n, dim).

    One ``_base_rows`` call of one row, then ``_transform_rows``: the draw
    path the workflow kernel takes per window of generations. Its error is
    raised as it is.
    """
    if theta.model != model:
        raise InputValidationError("parameter belongs to a different model")
    n = check_int(n, "n", 1)
    theta_rows = theta.theta[None]
    out = np.empty((1, n, model.dim))
    _base_rows(model.family, theta_rows, [as_generator(rng)], out)
    _transform_rows(model.family, theta_rows, out)
    return out[0]
