"""Lyapunov metrics, contraction/regulation checks, and scalar rate tools.

The central objects are a quadratic Lyapunov function V(e) = e' P e with
P positive definite, a state-dependent contraction coefficient c(e) with
values in [0, c_max] strictly below one, and a convex regulator f with
f(0) = 0 that lower-bounds the per-step decrease c(e) V(e). The scalar
recurrence x_{t+1} = max(0, x_t - f(x_t) + b_t) reproduces the decay-rate
regimes exactly and is cheap enough to run for a million steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InputValidationError
from .numerics import (
    STACK_LIMIT,
    RngState,
    as_symmetric_matrix,
    as_vector,
    quad_form,
    sym_eig,
    symmetrize,
)
from . import expfam

EXAMPLE_SQRT = "example-sqrt"
QUADRATIC_CLAMPED = "quadratic-clamped"
CONSTANT = "constant"
POWER_LAW = "power-law"

DEFAULT_C_MAX = 0.9


@dataclass(frozen=True, eq=False)
class LyapunovMetric:
    """Positive definite P defining V(e) = e' P e."""

    p_matrix: np.ndarray

    def __post_init__(self):
        p = as_symmetric_matrix(self.p_matrix, name="p_matrix")
        values, _ = sym_eig(p)
        if values[0] <= 1e-12:
            raise InputValidationError("p_matrix must be positive definite")
        object.__setattr__(self, "p_matrix", p)

    @classmethod
    def identity(cls, dim: int) -> "LyapunovMetric":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.p_matrix.shape[0]

    @cached_property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.p_matrix, np.eye(self.dim)))

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        return sym_eig(self.p_matrix)

    @cached_property
    def inverse_factor(self) -> np.ndarray:
        """C with C C' = P^{-1}, used to shape noise with a target P-energy."""
        values, vectors = self._eig
        return vectors / np.sqrt(values)[None, :]

    def value(self, e) -> float:
        """V(e) = e' P e; zero exactly at e = 0."""
        return quad_form(self.p_matrix, e)

    def values(self, errors: np.ndarray) -> np.ndarray:
        """V per row of a (n, dim) batch."""
        if self.is_identity:
            return np.einsum("ij,ij->i", errors, errors)
        return np.einsum("ij,ij->i", errors @ self.p_matrix, errors)


# ---------------------------------------------------------------------------
# Contraction coefficients c(e)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionFn:
    """State-dependent contraction coefficient, clamped into [0, c_max].

    Kinds: ``example-sqrt`` is 1 - (V(e)+1)^(-1/2), the closed-form pair
    partner of the example regulator; ``quadratic-clamped`` is
    min(alpha * ||e||^2, c_max); ``constant`` ignores the state.
    """

    kind: str
    alpha: float = 1.0
    level: float = 0.0
    c_max: float = DEFAULT_C_MAX

    def __post_init__(self):
        if self.kind not in (EXAMPLE_SQRT, QUADRATIC_CLAMPED, CONSTANT):
            raise InputValidationError(f"unknown contraction kind {self.kind!r}")
        if not 0.0 < self.c_max < 1.0:
            raise InputValidationError("c_max must lie in (0, 1)")
        if self.kind == QUADRATIC_CLAMPED and self.alpha <= 0.0:
            raise InputValidationError("alpha must be positive")
        if self.kind == CONSTANT and not 0.0 <= self.level <= self.c_max:
            raise InputValidationError("constant level must lie in [0, c_max]")

    @classmethod
    def example_sqrt(cls) -> "ContractionFn":
        return cls(EXAMPLE_SQRT, c_max=1.0 - 1e-12)

    @classmethod
    def quadratic(cls, alpha: float, c_max: float = DEFAULT_C_MAX) -> "ContractionFn":
        return cls(QUADRATIC_CLAMPED, alpha=alpha, c_max=c_max)

    @classmethod
    def constant(cls, level: float) -> "ContractionFn":
        return cls(CONSTANT, level=level, c_max=max(level, 1e-12))

    def value(self, metric: LyapunovMetric, e) -> float:
        err = as_vector(e, dim=metric.dim, name="e")
        return float(self.values(metric, err[None, :])[0])

    def values(self, metric: LyapunovMetric, errors: np.ndarray) -> np.ndarray:
        """Vectorized coefficient per row of a (n, dim) batch."""
        if self.kind == EXAMPLE_SQRT:
            v = metric.values(errors)
            raw = 1.0 - 1.0 / np.sqrt(v + 1.0)
        elif self.kind == QUADRATIC_CLAMPED:
            raw = self.alpha * np.einsum("ij,ij->i", errors, errors)
        else:
            raw = np.full(errors.shape[0], self.level)
        return np.clip(raw, 0.0, self.c_max)


# ---------------------------------------------------------------------------
# Regulators f
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegulatorFn:
    """Convex regulator with f(0) = 0 and f > 0 away from zero.

    ``example-sqrt`` is f(r) = r (1 - (r+1)^(-1/2)); ``power-law`` evaluates
    c1 * r^p. Its upper envelope constant c2 (c1 when not given) must be at
    least c1.
    """

    kind: str
    p: float = 2.0
    c1: float = 1.0
    c2: float | None = None

    def __post_init__(self):
        if self.kind not in (EXAMPLE_SQRT, POWER_LAW):
            raise InputValidationError(f"unknown regulator kind {self.kind!r}")
        if self.kind == POWER_LAW:
            if self.p < 1.0:
                raise InputValidationError("power-law exponent p must be >= 1 for convexity")
            if self.c1 <= 0.0:
                raise InputValidationError("c1 must be positive")
            c2 = self.c1 if self.c2 is None else self.c2
            if c2 < self.c1:
                raise InputValidationError("c2 must be >= c1")
            object.__setattr__(self, "c2", c2)

    @classmethod
    def example_sqrt(cls) -> "RegulatorFn":
        return cls(EXAMPLE_SQRT)

    @classmethod
    def power_law(cls, p: float, c1: float, c2: float | None = None) -> "RegulatorFn":
        return cls(POWER_LAW, p=p, c1=c1, c2=c2)

    def value(self, r: float) -> float:
        if r < 0.0:
            raise InputValidationError("regulator argument must be nonnegative")
        return self.scalar_fn()(r)

    def scalar_fn(self) -> Callable[[float], float]:
        """A plain closure for tight loops (no per-call validation)."""
        if self.kind == EXAMPLE_SQRT:
            return lambda r: r * (1.0 - 1.0 / math.sqrt(r + 1.0))
        p, c1 = self.p, self.c1
        if p == 1.0:
            return lambda r: c1 * r
        return lambda r: c1 * r**p


# ---------------------------------------------------------------------------
# Error maps A(e)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ContractionMap:
    """The state-dependent linear update e -> A(e) e.

    ``scaled-identity`` uses A(e) = sqrt(1 - c(e)) I, which satisfies the
    matrix contraction condition with equality for any metric. An explicit
    matrix function can be supplied as an escape hatch for experiments
    with non-diagonal maps.
    """

    metric: LyapunovMetric
    c_fn: ContractionFn | None = None
    matrix_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if (self.c_fn is None) == (self.matrix_fn is None):
            raise InputValidationError("provide exactly one of c_fn or matrix_fn")

    @classmethod
    def scaled_identity(cls, c_fn: ContractionFn, metric: LyapunovMetric) -> "ContractionMap":
        return cls(metric=metric, c_fn=c_fn)

    @classmethod
    def explicit(cls, matrix_fn, metric: LyapunovMetric) -> "ContractionMap":
        return cls(metric=metric, matrix_fn=matrix_fn)

    def apply_batch(self, errors: np.ndarray) -> np.ndarray:
        """Row-wise update of a (n, dim) batch."""
        if self.c_fn is not None:
            scale = np.sqrt(1.0 - self.c_fn.values(self.metric, errors))
            return scale[:, None] * errors
        d = self.metric.dim
        rows = []
        for row in errors:
            a = np.asarray(self.matrix_fn(row), dtype=float)
            if a.shape != (d, d):
                raise InputValidationError("matrix_fn must return a (dim, dim) matrix")
            rows.append(a @ row)
        return np.stack(rows)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_matrix_contraction(a, metric: LyapunovMetric, c_at_e: float, tol: float | None = None) -> bool:
    """Whether A' P A <= (1 - c) P holds in the semidefinite order.

    Decided through the smallest eigenvalue of (1 - c) P - A' P A; ``tol``
    defaults to 1e-9 times the largest magnitude entry of P.
    """
    mat = np.asarray(a, dtype=float)
    d = metric.dim
    if mat.shape != (d, d) or not np.all(np.isfinite(mat)):
        raise InputValidationError(f"a must be a finite ({d}, {d}) matrix")
    if not 0.0 <= c_at_e < 1.0:
        raise InputValidationError("c_at_e must lie in [0, 1)")
    if tol is None:
        tol = 1e-9 * float(np.max(np.abs(metric.p_matrix)))
    gap = (1.0 - c_at_e) * metric.p_matrix - mat.T @ metric.p_matrix @ mat
    values, _ = sym_eig(symmetrize(gap))
    return bool(values[0] >= -tol)


def check_regulation(
    c: ContractionFn,
    f: RegulatorFn,
    metric: LyapunovMetric,
    probe_points: np.ndarray,
    tol: float = 1e-12,
) -> bool:
    """Whether c(e) V(e) >= f(V(e)) - tol at every probe point."""
    probes = np.asarray(probe_points, dtype=float)
    if probes.ndim == 1:
        probes = probes[None, :]
    if probes.ndim != 2 or probes.shape[1] != metric.dim:
        raise InputValidationError(f"probe_points must have shape (n, {metric.dim})")
    if probes.shape[0] == 0:
        raise InputValidationError("probe_points must be non-empty")
    v = metric.values(probes)
    cv = c.values(metric, probes) * v
    fv = np.array([f.value(float(r)) for r in v])
    return bool(np.all(cv >= fv - tol))


# ---------------------------------------------------------------------------
# Scalar recurrence and rates
# ---------------------------------------------------------------------------


def power_law_bounds(steps: int, beta: float, scale: float = 1.0) -> np.ndarray:
    """b_t = scale * (t+1)^(-beta) for t = 0..steps-1."""
    if steps < 0:
        raise InputValidationError("steps must be nonnegative")
    if beta < 0.0 or scale < 0.0:
        raise InputValidationError("beta and scale must be nonnegative")
    t = np.arange(1, steps + 1, dtype=float)
    return scale * t**-beta if beta > 0.0 else np.full(steps, scale)


def constant_bounds(steps: int, level: float) -> np.ndarray:
    if level < 0.0:
        raise InputValidationError("level must be nonnegative")
    return np.full(steps, float(level))


def recurrence_simulate(f: RegulatorFn, x0: float, noise_bounds, steps: int) -> np.ndarray:
    """Iterate x_{t+1} = max(0, x_t - f(x_t) + b_t) for ``steps`` updates.

    Returns the full trajectory of length steps+1 including x0. With all
    bounds zero the sequence is monotone nonincreasing and stays
    nonnegative by construction.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise InputValidationError("steps must be a nonnegative integer")
    if not np.isfinite(x0) or x0 < 0.0:
        raise InputValidationError("x0 must be finite and nonnegative")
    bounds = np.asarray(noise_bounds, dtype=float)
    if bounds.ndim != 1 or bounds.shape[0] < steps:
        raise InputValidationError(f"noise_bounds must supply at least {steps} values")
    if np.any(bounds[:steps] < 0.0) or not np.all(np.isfinite(bounds[:steps])):
        raise InputValidationError("noise_bounds must be finite and nonnegative")

    fv = f.scalar_fn()
    out = np.empty(steps + 1)
    out[0] = x = float(x0)
    blist = bounds[:steps].tolist()
    for t in range(steps):
        x = x - fv(x) + blist[t]
        if x < 0.0:
            x = 0.0
        out[t + 1] = x
    return out


def fit_decay_rate(trajectory, tail_fraction: float = 0.9) -> tuple[float, float]:
    """Least-squares slope of log x_t against log t over the trailing window.

    Returns (slope, r_squared). Steps with t = 0 are excluded; nonpositive
    values inside the window are rejected since their logs are undefined
    (use an exponential fit for trajectories that hit zero).
    """
    x = np.asarray(trajectory, dtype=float)
    if x.ndim != 1 or x.shape[0] < 3:
        raise InputValidationError("trajectory must be 1-d with at least 3 points")
    if not 0.0 < tail_fraction <= 1.0:
        raise InputValidationError("tail_fraction must lie in (0, 1]")
    t = np.arange(x.shape[0])
    start = max(1, int(np.floor((1.0 - tail_fraction) * x.shape[0])))
    xw, tw = x[start:], t[start:]
    if xw.shape[0] < 2:
        raise InputValidationError("tail window must contain at least 2 points")
    if np.any(xw <= 0.0):
        raise InputValidationError("tail window contains nonpositive values")
    log_t, log_x = np.log(tw), np.log(xw)
    slope, intercept = np.polyfit(log_t, log_x, 1)
    fitted = slope * log_t + intercept
    ss_res = float(np.sum((log_x - fitted) ** 2))
    ss_tot = float(np.sum((log_x - log_x.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def limsup_bound(f: RegulatorFn, b: float, tol: float = 1e-12) -> float:
    """Largest solution L of f(x) = b, by bisection to absolute tolerance.

    This is the limiting ceiling of the noisy recurrence under a constant
    bound b; it does not depend on the starting point.
    """
    if b <= 0.0 or not np.isfinite(b):
        raise InputValidationError("b must be finite and positive")
    fv = f.scalar_fn()
    hi = 1.0
    for _ in range(2000):
        if fv(hi) > b:
            break
        hi *= 2.0
    else:
        raise InputValidationError("regulator never exceeds b; no finite bound")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fv(mid) > b:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Concentration
# ---------------------------------------------------------------------------


def measure_concentration(
    model: expfam.ExpFamilyModel,
    theta: expfam.Parameter,
    sizes: Sequence[int],
    deltas: Sequence[float],
    trials: int,
    rng: RngState,
) -> np.ndarray:
    """Empirical exceedance P(||estimate - theta|| >= delta) per sample size and delta.

    For each n in ``sizes`` runs ``trials`` Monte-Carlo fits of n fresh
    draws from the size's own substream ``rng.derive(i)`` and returns the
    fraction of fits whose estimation error reaches each delta, shape
    (len(sizes), len(deltas)). A fit that does not exist (a mean statistic
    on the boundary, possible for small discrete samples) exceeds every
    delta. Trials are drawn in chunks of at most ``STACK_LIMIT`` values,
    each continuing the size's stream, so the draws are those of one
    whole-stream draw. No tail constants are asserted; the curve itself is
    the product.
    """
    ds = np.asarray(deltas, dtype=float)
    if ds.ndim != 1 or ds.shape[0] == 0:
        raise InputValidationError("deltas must be a non-empty sequence")
    if np.any(ds < 0.0):
        raise InputValidationError("deltas must be nonnegative")
    if trials < 100:
        raise InputValidationError("trials must be at least 100 for a stable fraction")
    if len(sizes) == 0:
        raise InputValidationError("sizes must be non-empty")
    for n in sizes:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InputValidationError("sizes must be positive integers")
    if not isinstance(rng, RngState):
        raise InputValidationError("rng must be an RngState (substreams are derived per size)")

    counts = np.zeros((len(sizes), ds.shape[0]), dtype=np.int64)
    for i, n in enumerate(sizes):
        n = int(n)
        gen = rng.derive(i).generator()
        chunk = max(1, STACK_LIMIT // (n * model.dim))
        for lo in range(0, trials, chunk):
            rows = min(chunk, trials - lo)
            draws = expfam.sample(model, theta, rows * n, gen)
            theta_hat, ok = expfam._fit_rows(model.family, draws.reshape(rows, n, model.dim), None)
            dist = np.linalg.norm(theta_hat - theta.theta, axis=1)
            counts[i] += (~ok[:, None] | (dist[:, None] >= ds)).sum(axis=0)
    return counts / trials
