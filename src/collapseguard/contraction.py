"""Lyapunov metrics, the matrix contraction check, and scalar rate tools.

The central objects are a quadratic Lyapunov function V(e) = e' P e with
P positive definite, a state-dependent contraction coefficient c(e) with
values in [0, 1), and a convex regulator f with f(0) = 0 that lower-bounds
the per-step decrease c(e) V(e). The scalar recurrence
x_{t+1} = max(0, x_t - f(x_t) + b_t) reproduces the decay-rate regimes
exactly and is cheap enough to run for a million steps.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InputValidationError, SimulationOverflowError
from .numerics import (
    STACK_LIMIT,
    RngState,
    as_symmetric_matrix,
    as_vector,
    check_fits,
    check_int,
    sym_eig,
)
from . import expfam

EXAMPLE_SQRT = "example-sqrt"
QUADRATIC = "quadratic"
CONSTANT = "constant"
POWER_LAW = "power-law"


@np.errstate(over="ignore", invalid="ignore")
def _silent_square(x: np.ndarray) -> np.ndarray:
    """``x * x``, as silent as ``einsum`` when a square overflows or meets a
    signaling NaN; the decorator costs less per call than a ``with`` block."""
    return x * x


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
        """V(e) = e' P e, the row of ``values`` for e alone; zero exactly at e = 0."""
        return float(self.values(as_vector(e, dim=self.dim, name="e")[None, :])[0])

    def values(self, errors: np.ndarray) -> np.ndarray:
        """V per row of a (n, dim) batch, by ``einsum``: unlike a BLAS product, it
        gives a row the same bits whatever the rows around it.

        Under P = I at dim 1 V is the bare square, which has ``einsum``'s bits:
        ``einsum`` adds its one product to +0.0, and a square is never -0.0.
        """
        if self.is_identity:
            if self.dim == 1:
                return _silent_square(errors[:, 0])
            return np.einsum("ij,ij->i", errors, errors)
        return np.einsum("ij,ij->i", np.einsum("ij,jk->ik", errors, self.p_matrix), errors)


# ---------------------------------------------------------------------------
# Contraction coefficients c(e)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionFn:
    """Contraction coefficient c(e) in [0, 1); the ``contraction`` config section.

    Kinds: ``example-sqrt`` is 1 - (V(e)+1)^(-1/2), clipped at 1 - 1e-12,
    the closed-form pair partner of the example regulator; ``quadratic`` is
    min(alpha * ||e||^2, c_max); ``constant`` is ``level`` everywhere. Each
    kind checks only the fields it reads.
    """

    kind: str = EXAMPLE_SQRT
    alpha: float = 1.0
    level: float = 0.5
    c_max: float = 0.9

    def __post_init__(self):
        if self.kind == QUADRATIC:
            if not 0.0 < self.c_max < 1.0:
                raise InputValidationError("c_max must lie in (0, 1)")
            if not self.alpha > 0.0:
                raise InputValidationError("alpha must be positive")
        elif self.kind == CONSTANT:
            if not 0.0 <= self.level < 1.0:
                raise InputValidationError("level must lie in [0, 1)")
        elif self.kind != EXAMPLE_SQRT:
            raise InputValidationError(f"unknown contraction.kind {self.kind!r}")

    def value(self, metric: LyapunovMetric, e) -> float:
        err = as_vector(e, dim=metric.dim, name="e")[None, :]
        return float(self.values(err, metric.values(err))[0])

    def values(self, errors: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized coefficient per row of a (n, dim) batch whose rows have V ``v``.

        ``example-sqrt`` reads only ``v``, ``quadratic`` only the squared norm of
        ``errors`` and ``constant`` only their row count. The clip at 1 - 1e-12
        is ``np.minimum`` of ``np.maximum``, which has ``clip``'s bits.
        """
        if self.kind == EXAMPLE_SQRT:
            return np.minimum(np.maximum(1.0 - 1.0 / np.sqrt(v + 1.0), 0.0), 1.0 - 1e-12)
        if self.kind == QUADRATIC:
            return (self.alpha * np.einsum("ij,ij->i", errors, errors)).clip(0.0, self.c_max)
        return np.full(errors.shape[0], self.level)


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
            if not self.p >= 1.0:
                raise InputValidationError("power-law exponent p must be >= 1 for convexity")
            if not self.c1 > 0.0:
                raise InputValidationError("c1 must be positive")
            c2 = self.c1 if self.c2 is None else self.c2
            if not c2 >= self.c1:
                raise InputValidationError("c2 must be >= c1")
            object.__setattr__(self, "c2", c2)

    def value(self, r: float) -> float:
        """f(r); a power law whose r^p overflows is evaluated by logs, inf beyond the float range."""
        if not r >= 0.0:
            raise InputValidationError("regulator argument must be nonnegative")
        try:
            return self.scalar_fn()(r)
        except OverflowError:  # r**p of a power law; c1 < 1 may bring c1 r^p back in range
            try:
                return math.exp(math.log(self.c1) + self.p * math.log(r))
            except OverflowError:
                return math.inf

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
    """The state-dependent linear update e -> A(e) e with A(e) = sqrt(1 - c(e)) I.

    This scaled identity satisfies the matrix contraction condition with
    equality for any metric. Another map is a subclass whose
    ``apply_batch(errors, v)`` updates the whole (n, dim) batch at once, given
    each row's V under ``metric`` in ``v``, which it may ignore.
    """

    metric: LyapunovMetric
    c_fn: ContractionFn

    def __post_init__(self):
        if not (isinstance(self.metric, LyapunovMetric) and isinstance(self.c_fn, ContractionFn)):
            raise InputValidationError("a ContractionMap needs a LyapunovMetric and a ContractionFn")

    def apply_batch(self, errors: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row-wise update of a (n, dim) batch whose rows have V ``v``."""
        scale = np.sqrt(1.0 - self.c_fn.values(errors, v))
        return scale[:, None] * errors


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_matrix_contraction(a, metric: LyapunovMetric, c_at_e: float) -> bool:
    """Whether A' P A <= (1 - c) P holds in the semidefinite order.

    Decided through the smallest eigenvalue of (1 - c) P - A' P A, with a
    tolerance of 1e-9 times the largest magnitude entry of P.
    """
    mat = np.asarray(a, dtype=float)
    d = metric.dim
    if mat.shape != (d, d) or not np.all(np.isfinite(mat)):
        raise InputValidationError(f"a must be a finite ({d}, {d}) matrix")
    if not 0.0 <= c_at_e < 1.0:
        raise InputValidationError("c_at_e must lie in [0, 1)")
    tol = 1e-9 * float(np.max(np.abs(metric.p_matrix)))
    gap = (1.0 - c_at_e) * metric.p_matrix - mat.T @ metric.p_matrix @ mat
    values, _ = sym_eig((gap + gap.T) / 2.0)  # exactly symmetric, as sym_eig requires
    return bool(values[0] >= -tol)


# ---------------------------------------------------------------------------
# Scalar recurrence and rates
# ---------------------------------------------------------------------------


def recurrence_simulate(f: RegulatorFn, x0: float, noise, steps: int) -> np.ndarray:
    """Iterate x_{t+1} = max(0, x_t - f(x_t) + b_t) for ``steps`` updates.

    The forcing b_t is ``noise.sigma_sq_array(0, steps)``: a
    ``dynamics.NoiseSchedule``, the noise energy of the vector dynamics.
    Returns the full trajectory of length steps+1 including x0. Under zero
    noise the sequence is monotone nonincreasing and stays nonnegative by
    construction. A state beyond the float range raises
    SimulationOverflowError with the step it was lost at.
    """
    steps = check_int(steps, "steps", 0)
    if not np.isfinite(x0) or x0 < 0.0:
        raise InputValidationError("x0 must be finite and nonnegative")

    check_fits("trajectory values", (steps + 1,), "use fewer steps")
    fv = f.scalar_fn()
    path = array("d", [x := float(x0)])  # 8 bytes a step, where a list holds a float object
    try:
        for b in noise.sigma_sq_array(0, steps).tolist():
            x = x - fv(x) + b
            if x < 0.0:
                x = 0.0
            path.append(x)
    except OverflowError:  # f(x) beyond the float range
        raise SimulationOverflowError(len(path)) from None
    out = np.array(path)
    if not np.isfinite(out[-1]):  # a non-finite state stays non-finite
        raise SimulationOverflowError(int(np.argmin(np.isfinite(out))))
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


def limsup_bound(f: RegulatorFn, b: float) -> float:
    """Largest solution L of f(x) = b, by bisection to an absolute tolerance of 1e-12.

    This is the limiting ceiling of the noisy recurrence under a constant
    bound b; it does not depend on the starting point. Bisection also stops
    once no float lies strictly between the bounds, where the tolerance is
    below their spacing.
    """
    if b <= 0.0 or not np.isfinite(b):
        raise InputValidationError("b must be finite and positive")
    hi = 1.0
    while not f.value(hi) > b:
        hi *= 2.0
        if hi == math.inf:
            raise InputValidationError("regulator does not exceed b in the float range")
    lo = 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f.value(mid) > b:
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
    whole-stream draw. A size whose one-trial draw cannot fit in memory is
    refused before any draw. No tail constants are asserted; the curve
    itself is the product.
    """
    ds = np.asarray(deltas, dtype=float)
    if ds.ndim != 1 or ds.shape[0] == 0:
        raise InputValidationError("deltas must be a non-empty sequence")
    if not np.all(ds >= 0.0):
        raise InputValidationError("deltas must be nonnegative")
    if check_int(trials, "trials", 1) < 100:
        raise InputValidationError("trials must be at least 100 for a stable fraction")
    if len(sizes) == 0:
        raise InputValidationError("sizes must be non-empty")
    for n in sizes:
        check_int(n, "each size", 1)
        check_fits(f"one trial's draws at size {n}", (int(n), model.dim), "use smaller sizes")
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
            theta_hat, code = expfam._fit_rows(model.family, draws.reshape(rows, n, -1), None)
            dist = np.linalg.norm(theta_hat - theta.theta, axis=1)
            counts[i] += ((code != 0)[:, None] | (dist[:, None] >= ds)).sum(axis=0)
    return counts / trials
