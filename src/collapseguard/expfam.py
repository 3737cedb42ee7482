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
from .numerics import as_generator, as_vector

GAUSSIAN = "gaussian-mean-known-cov"
POISSON = "poisson"
BERNOULLI = "bernoulli"
EXPONENTIAL = "exponential"
FAMILIES = (GAUSSIAN, POISSON, BERNOULLI, EXPONENTIAL)

_ALIASES = {"gaussian": GAUSSIAN, "normal": GAUSSIAN}

WEIGHT_FLOOR_PER_POINT = 1e-6

# the largest rate numpy's Poisson sampler accepts (its POISSON_LAM_MAX)
POISSON_RATE_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


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
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise InputValidationError("dim must be a positive integer")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True, eq=False)
class Parameter:
    """A natural parameter bound to its model."""

    theta: np.ndarray
    model: ExpFamilyModel

    def __post_init__(self):
        theta = as_vector(self.theta, dim=self.model.dim, name="theta")
        _check_natural_domain(self.model.family, theta)
        object.__setattr__(self, "theta", theta)


def _check_natural_domain(family: str, theta: np.ndarray) -> None:
    if family == EXPONENTIAL and not np.all(theta < 0.0):
        raise InputValidationError("exponential natural parameters must be negative")


_SUPPORT_MESSAGES = {
    POISSON: "poisson data must be nonnegative integers",
    BERNOULLI: "bernoulli data must be 0/1 valued",
    EXPONENTIAL: "exponential data must be nonnegative",
}

_MEAN_DOMAIN_MESSAGES = {
    POISSON: "poisson mean statistic must be strictly positive",
    BERNOULLI: "bernoulli mean statistic must lie strictly inside (0, 1)",
    EXPONENTIAL: "exponential mean statistic must be strictly positive",
}


def _off_support(family: str, points: np.ndarray) -> np.ndarray:
    """Elementwise mask of points outside the family's support."""
    if family == POISSON:
        return (points < 0.0) | (points != np.floor(points))
    if family == BERNOULLI:
        return (points != 0.0) & (points != 1.0)
    if family == EXPONENTIAL:
        return points < 0.0
    return np.zeros(points.shape, dtype=bool)


def _outside_mean_domain(family: str, tbar: np.ndarray) -> np.ndarray:
    """Elementwise mask of mean statistics that are not finite or not in the open mean domain."""
    out = ~np.isfinite(tbar)
    if family == BERNOULLI:
        out |= (tbar <= 0.0) | (tbar >= 1.0)
    elif family in (POISSON, EXPONENTIAL):
        out |= tbar <= 0.0
    return out


def _check_support(family: str, points: np.ndarray) -> None:
    if np.any(_off_support(family, points)):
        raise InputValidationError(_SUPPORT_MESSAGES[family])


def _check_mean_interior(family: str, tbar: np.ndarray) -> None:
    if not np.all(np.isfinite(tbar)):
        raise BoundaryError("mean statistic is not finite")
    if np.any(_outside_mean_domain(family, tbar)):
        raise BoundaryError(_MEAN_DOMAIN_MESSAGES[family])


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


def as_dataset(model: ExpFamilyModel, points, name: str = "points") -> np.ndarray:
    """Validate a data batch as an (n, dim) float64 array on the family support."""
    data = np.asarray(points, dtype=float)
    if data.ndim == 1:
        data = data[None, :]
    if data.ndim != 2 or data.shape[1] != model.dim:
        raise InputValidationError(
            f"{name} must have shape (n, {model.dim}), got {np.asarray(points).shape}"
        )
    if data.shape[0] < 1:
        raise InputValidationError(f"{name} must contain at least one point")
    if not np.all(np.isfinite(data)):
        raise InputValidationError(f"{name} must be finite")
    _check_support(model.family, data)
    return data


def mean_map(model: ExpFamilyModel, theta: Parameter) -> np.ndarray:
    """E[T(x)] under the parameter (the gradient of the log-partition)."""
    if theta.model != model:
        raise InputValidationError("parameter belongs to a different model")
    return _mean_from_natural(model.family, theta.theta)


def inverse_mean_map(model: ExpFamilyModel, tbar) -> Parameter:
    """Natural parameter whose mean statistic equals ``tbar`` (closed form)."""
    t = as_vector(tbar, dim=model.dim, name="tbar")
    _check_mean_interior(model.family, t)
    return Parameter(_natural_from_mean(model.family, t), model)


def _mean_statistic(points: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Average statistic of each batch in ``points`` (rows, n, dim), weighted when given.

    Weights (rows, n) are rescaled by their row maximum before averaging so
    that constant weights cancel exactly.
    """
    if weights is None:
        return points.sum(axis=1) / points.shape[1]
    scaled = weights / weights.max(axis=1, keepdims=True)
    return (points * scaled[:, :, None]).sum(axis=1) / scaled.sum(axis=1)[:, None]


def estimate(model: ExpFamilyModel, points) -> Parameter:
    """Maximum-likelihood fit: inverse mean map of the average statistic."""
    data = as_dataset(model, points)
    tbar = _mean_statistic(data[None], None)[0]
    _check_mean_interior(model.family, tbar)
    return Parameter(_natural_from_mean(model.family, tbar), model)


def weighted_estimate(model: ExpFamilyModel, points, weights) -> Parameter:
    """Weighted maximum likelihood with weights in [0, 1].

    Rejects weight vectors whose sum falls below 1e-6 per point (a filter
    that keeps nothing defines no estimate). Weights are rescaled by their
    maximum before averaging so that constant weights cancel exactly.
    """
    data = as_dataset(model, points)
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.shape[0],):
        raise InputValidationError(
            f"weights must have shape ({data.shape[0]},), got {w.shape}"
        )
    if not np.all(np.isfinite(w)) or np.any(w < 0.0) or np.any(w > 1.0):
        raise InputValidationError("weights must be finite and lie in [0, 1]")
    total = float(w.sum())
    floor = WEIGHT_FLOOR_PER_POINT * data.shape[0]
    if total <= floor:
        raise DegenerateSelectionError(
            f"weight sum {total:.3e} is at or below the floor {floor:.3e}"
        )
    tbar = _mean_statistic(data[None], w[None])[0]
    _check_mean_interior(model.family, tbar)
    return Parameter(_natural_from_mean(model.family, tbar), model)


def _fit_rows(family: str, points: np.ndarray, weights: np.ndarray | None):
    """``estimate`` (or ``weighted_estimate``) of every batch in ``points`` (rows, n, dim).

    Returns the natural parameters (rows, dim) and a mask of the rows that
    pass every check the one-batch functions make: finite data on the
    support, weights in [0, 1] above the floor, a mean statistic inside the
    mean domain and a finite parameter in the natural domain. A row outside
    the mask holds no fit; refitting it with the one-batch function raises
    its error.
    """
    with np.errstate(all="ignore"):
        ok = np.isfinite(points).all(axis=(1, 2))
        ok &= ~_off_support(family, points).any(axis=(1, 2))
        if weights is not None:
            in_range = np.isfinite(weights) & (weights >= 0.0) & (weights <= 1.0)
            ok &= in_range.all(axis=1)
            ok &= weights.sum(axis=1) > WEIGHT_FLOOR_PER_POINT * points.shape[1]
        tbar = _mean_statistic(points, weights)
        ok &= ~_outside_mean_domain(family, tbar).any(axis=1)
        theta = _natural_from_mean(family, tbar)
    ok &= np.isfinite(theta).all(axis=1)
    if family == EXPONENTIAL:
        ok &= (theta < 0.0).all(axis=1)
    return theta, ok


def _draw_rows(family: str, theta_rows: np.ndarray, gens, out: np.ndarray):
    """Draw each row ``out[r]`` (n, dim) i.i.d. at ``theta_rows[r]`` from ``gens[r]``.

    One call of each row's own generator, in row order, fills that row;
    then the family's transform maps all drawn rows in one pass. The bits
    are those of one ``sample`` call per row. Stops at the first row whose
    call raises and returns ``(drawn, error)``: rows before ``drawn`` hold
    their points, later rows nothing; ``error`` is None when all rows drew.
    """
    drawn, error = 0, None
    for gen in gens:
        row = out[drawn]
        try:
            if family == GAUSSIAN:
                gen.standard_normal(out=row)
            elif family == BERNOULLI:
                gen.random(out=row)
            elif family == POISSON:
                row[...] = gen.poisson(lam=np.exp(theta_rows[drawn]), size=row.shape)
            else:
                row[...] = gen.exponential(scale=-1.0 / theta_rows[drawn], size=row.shape)
        except Exception as exc:
            error = exc
            break
        drawn += 1
    if family == GAUSSIAN:
        out[:drawn] += theta_rows[:drawn, None, :]
    elif family == BERNOULLI:
        p = 1.0 / (1.0 + np.exp(-theta_rows[:drawn, None, :]))
        out[:drawn] = out[:drawn] < p
    return drawn, error


def sample(model: ExpFamilyModel, theta: Parameter, n: int, rng) -> np.ndarray:
    """Draw n i.i.d. points from the parameterized distribution, shape (n, dim).

    The one-row call of ``_draw_rows``, the one draw path of the package.
    """
    if theta.model != model:
        raise InputValidationError("parameter belongs to a different model")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputValidationError("n must be a positive integer")
    out = np.empty((1, int(n), model.dim))
    _, error = _draw_rows(model.family, theta.theta[None], [as_generator(rng)], out)
    if error is not None:
        raise error
    return out[0]
