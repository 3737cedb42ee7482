"""Learnable sample filter: PCA features, a tiny MLP, and its training loop.

The filter scores each candidate point with a weight in (0, 1). Training
couples an ordinary binary cross-entropy on good/bad labels with a hinge
penalty that activates whenever the weighted re-estimate would break the
per-step Lyapunov contraction around a frozen training anchor, plus an
optional effective-sample-size term. All gradients are written out by
hand (the whole computation is a few matmuls); Adam does the stepping.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import expfam
from .contraction import ContractionFn, LyapunovMetric
from .errors import CollapseGuardError, DegenerateSelectionError, InputValidationError
from .numerics import RngState, as_generator, as_vector, check_int, point_sums, sym_eig

CHECKPOINT_VERSION = 2

PROB_CLAMP = 1e-12
PULLBACK_TOL = 1e-8  # the oracle's residual tolerance, relative to 1 + ||target||


# ---------------------------------------------------------------------------
# PCA front-end
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PCATransform:
    """Standardize-then-project feature map fitted on training candidates."""

    mean: np.ndarray
    scale: np.ndarray
    projection: np.ndarray
    explained_variance_ratio: np.ndarray
    zero_variance: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def k(self) -> int:
        return self.projection.shape[1]

    def transform(self, x) -> np.ndarray:
        """Features of points (n, d) or of a stack (rows, n, d).

        A stack is one ``np.matmul`` call, which projects each (n, d) row
        with the BLAS routine that row gets alone, so each row keeps its bits.
        """
        data = np.asarray(x, dtype=float)
        if data.ndim not in (2, 3) or data.shape[-1] != self.input_dim:
            raise InputValidationError(
                f"points must be (n, {self.input_dim}) or a stack of them, got shape {data.shape}"
            )
        return ((data - self.mean) / self.scale) @ self.projection


def fit_pca(data, k: int) -> PCATransform:
    """Fit standardization and the top-k covariance eigendirections.

    Needs at least k+1 points and 1 <= k <= dim. Zero-variance coordinates
    are flagged and left unscaled rather than divided by zero.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise InputValidationError("data must be a 2-d array of points")
    n, d = x.shape
    if check_int(k, "k", 1) > d:
        raise InputValidationError(f"k must lie in [1, {d}]")
    if n < k + 1:
        raise InputValidationError(f"need at least {k + 1} points to fit k={k} components")
    if not np.all(np.isfinite(x)):
        raise InputValidationError("data must be finite")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    zero_variance = std == 0.0
    scale = np.where(zero_variance, 1.0, std)
    centered = (x - mean) / scale
    cov = centered.T @ centered / (n - 1)
    values, vectors = sym_eig(cov)
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    vectors = vectors[:, order]
    total = float(np.clip(values, 0.0, None).sum())
    ratios = np.clip(values[:k], 0.0, None) / total if total > 0.0 else np.zeros(k)
    return PCATransform(
        mean=mean,
        scale=scale,
        projection=vectors[:, :k].copy(),
        explained_variance_ratio=ratios,
        zero_variance=zero_variance,
    )


# ---------------------------------------------------------------------------
# Labeled data
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LabeledDataset:
    """Candidate points with 0/1 labels and (optionally) extracted features."""

    points: np.ndarray
    labels: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels)
        if pts.ndim != 2 or labels.shape != (pts.shape[0],):
            raise InputValidationError("points must be (n, d) with one label per point")
        if not np.all((labels == 0) | (labels == 1)):
            raise InputValidationError("labels must be 0 or 1")
        self.points = pts
        self.labels = labels.astype(np.int64)
        if self.features is not None:
            feats = np.asarray(self.features, dtype=float)
            if feats.ndim != 2 or feats.shape[0] != pts.shape[0]:
                raise InputValidationError("features must align with points row-wise")
            self.features = feats

    def __len__(self) -> int:
        return self.points.shape[0]


def label_by_distance(candidates, reference: expfam.Parameter, good_fraction: float) -> LabeledDataset:
    """Mark the ceil(good_fraction * n) points nearest the reference mean as good.

    Distance is Euclidean to mean_map(reference); ties resolve by original
    index (stable sort), so labeling is deterministic.
    """
    pts = np.asarray(candidates, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InputValidationError("candidates must be a non-empty (n, d) array")
    if not 0.0 < good_fraction <= 1.0:
        raise InputValidationError("good_fraction must lie in (0, 1]")
    anchor = expfam.mean_map(reference.model, reference)
    if pts.shape[1] != anchor.shape[0]:
        raise InputValidationError("candidates dimension does not match the reference model")
    dist = np.linalg.norm(pts - anchor[None, :], axis=1)
    keep = int(math.ceil(good_fraction * pts.shape[0]))
    order = np.argsort(dist, kind="stable")
    labels = np.zeros(pts.shape[0], dtype=np.int64)
    labels[order[:keep]] = 1
    return LabeledDataset(pts, labels)


# ---------------------------------------------------------------------------
# MLP parameters and forward pass
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FilterParams:
    """Weights of the two-layer scorer: sigmoid(w2 . relu(W1 z + b1) + b2)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=float)
        b1 = np.asarray(self.b1, dtype=float)
        w2 = np.asarray(self.w2, dtype=float)
        if w1.ndim != 2:
            raise InputValidationError("w1 must be (hidden, features)")
        h = w1.shape[0]
        if b1.shape != (h,) or w2.shape != (h,):
            raise InputValidationError("b1 and w2 must have one entry per hidden unit")
        self.w1, self.b1, self.w2 = w1, b1, w2
        self.b2 = float(self.b2)

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1]


def init_filter_params(feature_dim: int, hidden_dim: int, rng) -> FilterParams:
    """Uniform(-a, a) layers with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    if feature_dim < 1 or hidden_dim < 1:
        raise InputValidationError("feature_dim and hidden_dim must be positive")
    gen = as_generator(rng)
    lim1 = math.sqrt(6.0 / (feature_dim + hidden_dim))
    lim2 = math.sqrt(6.0 / (hidden_dim + 1))
    return FilterParams(
        w1=gen.uniform(-lim1, lim1, size=(hidden_dim, feature_dim)),
        b1=np.zeros(hidden_dim),
        w2=gen.uniform(-lim2, lim2, size=hidden_dim),
        b2=0.0,
    )


@dataclass(frozen=True, eq=False)
class _Workspace:
    """The (n, hidden) buffers that every loss-and-gradient pass over one dataset
    overwrites; ``train_filter`` owns one for its run and hands it to every pass."""

    hidden: np.ndarray
    active: np.ndarray
    dpre: np.ndarray

    @classmethod
    def for_run(cls, dataset: LabeledDataset, hidden_dim: int) -> "_Workspace":
        shape = (len(dataset), hidden_dim)
        return cls(np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape))


def _forward_cache(params: FilterParams, feats: np.ndarray, hidden: np.ndarray,
                   bias: np.ndarray | None = None):
    """(hidden, weights) of the scorer on ``feats``.

    The hidden layer is one (n, hidden) array: the pre-activation is written
    into the caller's ``hidden`` buffer and the ReLU is applied in
    place, which gives the bits of a separate output. Its entries are > 0
    exactly where the pre-activation's are, NaN included, so the backward
    pass takes its ReLU mask from it. ``bias``, if given, is ``params.b1``
    tiled to the (n, hidden) shape: added over one contiguous array it takes
    half the time of the broadcast (hidden,) row, with the same sum in every
    element.
    """
    hidden = np.matmul(feats, params.w1.T, out=hidden)
    hidden += params.b1 if bias is None else bias
    np.maximum(hidden, 0.0, out=hidden)
    return hidden, _sigmoid(hidden @ params.w2 + params.b2)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, in one pass.

    exp only ever sees -|x|, so it cannot overflow.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def forward_batch(params: FilterParams, features) -> np.ndarray:
    """Scorer weights of (n, k) features, or of each row of a (rows, n, k) stack.

    The rows of a stack run one at a time through one (n, hidden) buffer
    and one tiled bias, so each gets the bits of its own call. They are
    never stacked into one product: at 200 rows of 1000 candidates its
    temporaries made that 4x slower per row.
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim not in (2, 3) or feats.shape[-1] != params.feature_dim:
        raise InputValidationError(
            f"features must be (n, {params.feature_dim}) or (rows, n, {params.feature_dim})"
        )
    stack = feats if feats.ndim == 3 else feats[None]
    hidden = np.empty((stack.shape[1], params.hidden_dim))
    bias = np.tile(params.b1, (stack.shape[1], 1))
    out = np.empty(stack.shape[:2])
    for r, row in enumerate(stack):
        out[r] = _forward_cache(params, row, hidden, bias)[1]
    return out if feats.ndim == 3 else out[0]


# ---------------------------------------------------------------------------
# Loss, gradient and training loop
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class LossParts(NamedTuple):
    total: float
    class_part: float
    contract_part: float
    ess_part: float


@dataclass(frozen=True)
class TrainingSpec:
    """Drift data and training hyperparameters; the ``training`` config section.

    ``rounds``, ``candidates_per_round``, ``contamination`` and
    ``drift_scale`` shape the drift data (simulate_drift_training_data).
    ``pca_k`` (0 means min(dim, 8)) and ``holdout_fraction`` set the
    features and the held-out share; the rest set the loss and Adam.
    """

    rounds: int = 3
    candidates_per_round: int = 1000
    contamination: float = 0.3
    drift_scale: float = 1.0
    epochs: int = 1200
    hidden_dim: int = 64
    pca_k: int = 0
    lambda_contract: float = 1.0
    ess_weight: float = 0.0
    learning_rate: float = 3e-3
    holdout_fraction: float = 0.25

    def __post_init__(self):
        for name in ("rounds", "candidates_per_round", "epochs", "hidden_dim", "pca_k"):
            check_int(getattr(self, name), f"training.{name}")
        if self.rounds < 1:
            raise InputValidationError("training.rounds must be positive")
        if self.candidates_per_round < 2:
            raise InputValidationError("training.candidates_per_round must be at least 2")
        if not 0.0 <= self.contamination < 1.0:
            raise InputValidationError("training.contamination must lie in [0, 1)")
        if not self.drift_scale >= 0.0:
            raise InputValidationError("training.drift_scale must be nonnegative")
        if self.epochs < 0 or self.hidden_dim < 1 or self.pca_k < 0:
            raise InputValidationError("training epochs/hidden_dim/pca_k out of range")
        if not (self.lambda_contract >= 0.0 and self.ess_weight >= 0.0):
            raise InputValidationError("training loss weights must be nonnegative")
        if not self.learning_rate > 0.0:
            raise InputValidationError("training.learning_rate must be positive")
        if not 0.0 <= self.holdout_fraction <= 0.5:
            raise InputValidationError("training.holdout_fraction must lie in [0, 0.5]")


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """Everything train_filter needs besides the data.

    ``e_est`` is the frozen training anchor: the plain estimate over all
    candidates minus ``theta_good``. ``training`` gives the loss weights,
    the learning rate, the epoch count and the hidden width. ``threshold``,
    the hinge level (1 - c(e_est)) V(e_est), is computed once on construction.
    """

    theta_good: expfam.Parameter
    metric: LyapunovMetric
    e_est: np.ndarray
    c_fn: ContractionFn = field(default_factory=ContractionFn)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    threshold: float = field(init=False)

    def __post_init__(self):
        if self.metric.dim != self.theta_good.model.dim:
            raise InputValidationError("metric dimension must match the model dimension")
        e_est = as_vector(self.e_est, dim=self.metric.dim, name="e_est")
        c_est = self.c_fn.value(self.metric, e_est)
        object.__setattr__(self, "e_est", e_est)
        object.__setattr__(self, "threshold", (1.0 - c_est) * self.metric.value(e_est))

    @property
    def model(self) -> expfam.ExpFamilyModel:
        return self.theta_good.model


def _require_features(dataset: LabeledDataset) -> np.ndarray:
    if dataset.features is None:
        raise InputValidationError("dataset has no features; apply a PCATransform first")
    return dataset.features


def loss_gradient(
    params: FilterParams,
    dataset: LabeledDataset,
    config: TrainConfig,
    workspace: _Workspace | None = None,
) -> tuple[LossParts, FilterParams]:
    """The training loss, class + lambda * contract + mu * ess, and its exact
    gradient, both from one forward pass.

    ``class`` is the mean binary cross-entropy, with probabilities clamped
    only inside the logs. ``contract`` is the hinge on the certified
    decrease, max(0, V(e_new) - (1 - c(e_est)) V(e_est)): e_new comes from
    the weighted re-estimate under the current weights, and the threshold
    side is frozen at the config anchor. ``ess`` is one minus the effective
    sample size over n.

    The gradient, in the shape of FilterParams, follows the chain rule
    through sigmoid, ReLU, the weighted mean, and the inverse mean map
    (diagonal Jacobian 1/variance per coordinate). The clamp in the
    cross-entropy is treated as inactive, which it is everywhere the
    sigmoid has representable slack.

    ``workspace`` is the caller's ``_Workspace.for_run`` of this dataset
    and hidden width; the pass overwrites its buffers, so their contents
    are not part of the result. Without one, the pass makes its own. Both
    give the same bits.
    """
    feats = _require_features(dataset)
    lam, mu = config.training.lambda_contract, config.training.ess_weight
    n = feats.shape[0]
    work = workspace or _Workspace.for_run(dataset, params.hidden_dim)
    hidden, weights = _forward_cache(params, feats, work.hidden)
    y = dataset.labels.astype(float)
    p = np.clip(weights, PROB_CLAMP, 1.0 - PROB_CLAMP)
    class_part = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    theta_new = expfam.weighted_estimate(config.model, dataset.points, weights)
    e_new = theta_new.theta - config.theta_good.theta
    contract_part = max(0.0, config.metric.value(e_new) - config.threshold)
    s1 = float(weights.sum())
    s2 = float((weights * weights).sum())
    ess_part = 1.0 - (s1 * s1 / s2) / n if s2 > 0.0 else 1.0
    total = class_part + lam * contract_part + mu * ess_part
    parts = LossParts(total, class_part, contract_part, ess_part)

    # d(loss)/d(logit) for the classification part
    dlogit = (weights - y) / n
    # the hinge part, only past the hinge: the one term that needs the weighted mean
    if lam > 0.0 and contract_part > 0.0:
        tbar = expfam._mean_statistic(dataset.points[None], weights[None])[0]
        g_theta = 2.0 * (config.metric.p_matrix @ e_new)
        g_tbar = g_theta / expfam._mean_slope(config.model.family, theta_new.theta)
        g_w = (dataset.points - tbar[None, :]) @ g_tbar / s1
        dlogit = dlogit + lam * g_w * weights * (1.0 - weights)
    if mu > 0.0 and s2 > 0.0:
        g_w = -(2.0 * s1 * s2 - s1 * s1 * 2.0 * weights) / (n * s2 * s2)
        dlogit = dlogit + mu * g_w * weights * (1.0 - weights)

    g_w2 = hidden.T @ dlogit
    g_b2 = float(dlogit.sum())
    # einsum writes the outer product in half the time of the broadcast
    # multiply. It adds each product to a zeroed output, so a -0.0 product
    # comes out +0.0; but the BLAS product and the numpy sum below both
    # start from +0.0, where a zero of either sign adds the same, so the
    # gradient keeps its bits.
    dpre = np.einsum("i,j->ij", dlogit, params.w2, out=work.dpre)
    dpre *= np.greater(hidden, 0.0, out=work.active)
    g_w1 = dpre.T @ feats
    g_b1 = dpre.sum(axis=0)
    return parts, FilterParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def _flatten(params: FilterParams) -> np.ndarray:
    return np.concatenate([params.w1.ravel(), params.b1, params.w2, [params.b2]])


def _unflatten(x: np.ndarray, hidden_dim: int, feature_dim: int) -> FilterParams:
    cut = hidden_dim * feature_dim
    w1 = x[:cut].reshape(hidden_dim, feature_dim)
    return FilterParams(w1, x[cut : cut + hidden_dim], x[cut + hidden_dim : -1], x[-1])


def adam_step(
    x: np.ndarray, grad: np.ndarray, state: tuple, learning_rate: float
) -> tuple[np.ndarray, tuple]:
    """One bias-corrected Adam update of the flat parameter vector ``x``.

    ``state`` is ``(m, v, step)``: the moment vectors and the number of
    updates taken, zeros and 0 before the first. Adam acts on each element
    alone, so one flat vector gives the bits of one update per tensor. A
    zero gradient leaves ``x`` unchanged. Returns ``(x, state)`` after
    the update.
    """
    m, v, step = state
    t = step + 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (grad * grad)
    corr1 = 1.0 - ADAM_BETA1**t
    corr2 = 1.0 - ADAM_BETA2**t
    x = x - learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
    return x, (m, v, t)


def anchors_from_dataset(
    model: expfam.ExpFamilyModel, dataset: LabeledDataset
) -> tuple[expfam.Parameter, expfam.Parameter]:
    """(theta_est from all points, theta_good from the good-labeled points)."""
    good = dataset.points[dataset.labels == 1]
    if good.shape[0] == 0:
        raise InputValidationError("dataset has no good-labeled points")
    return expfam.estimate(model, dataset.points), expfam.estimate(model, good)


def train_filter(
    dataset: LabeledDataset,
    config: TrainConfig,
    rng,
) -> tuple[FilterParams, list[LossParts]]:
    """Full-batch Adam on the loss of loss_gradient for config.training.epochs updates.

    The log holds the loss parts after each update, so log[-1] is the
    training loss of the returned parameters and epochs=0 yields an empty
    log. One loss-and-gradient pass at the initial parameters and one per
    update make ``epochs + 1`` forward passes: the pass after an update
    gives both its log row and the next update's gradient. The passes
    share one ``_Workspace`` that this function owns for the whole run, so
    the (n, hidden) buffers are made once, not once per epoch. Datasets
    with a single class are rejected (the classification target would be
    degenerate).
    """
    feats = _require_features(dataset)
    labels = dataset.labels
    if labels.min() == labels.max():
        raise InputValidationError("training data must contain both classes")
    spec = config.training
    params = init_filter_params(feats.shape[1], spec.hidden_dim, rng)
    x = _flatten(params)
    state = (np.zeros_like(x), np.zeros_like(x), 0)
    work = _Workspace.for_run(dataset, spec.hidden_dim)
    _, grad = loss_gradient(params, dataset, config, work)
    log: list[LossParts] = []
    for _ in range(spec.epochs):
        x, state = adam_step(x, _flatten(grad), state, spec.learning_rate)
        params = _unflatten(x, spec.hidden_dim, feats.shape[1])
        parts, grad = loss_gradient(params, dataset, config, work)
        log.append(parts)
    return params, log


# ---------------------------------------------------------------------------
# Oracle pullback
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PullbackResult:
    """Weights plus the pull actually realized (projected on the offset line)."""

    weights: np.ndarray
    achieved_gamma: float
    target_reached: bool


def oracle_pullback_weights(
    candidates, theta_good: expfam.Parameter, gamma: float
) -> PullbackResult:
    """Weights whose weighted mean lands at anchor + (1-gamma)(mean - anchor).

    Solves for a linear tilt of the weights along the candidate spread
    (clipped to [0, 1], around a 0.5 base) by damped Newton iteration on
    the weighted-mean residual, until its norm is at most ``PULLBACK_TOL``
    (1 + ||target||); when clipping makes the target unreachable it falls
    back to the nearest prefix subset and reports the achieved pull
    instead of failing.
    """
    pts = np.asarray(candidates, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise InputValidationError("candidates must be an (n, d) array with n >= 2")
    return _pullback_row(pts, theta_good, gamma)


def _pullback_row(pts: np.ndarray, theta_good: expfam.Parameter, gamma: float) -> PullbackResult:
    """``oracle_pullback_weights`` of one (n, d) candidate set, n >= 2, after its shape check."""
    if not np.all(np.isfinite(pts)):
        raise InputValidationError("candidates must be finite")
    if not 0.0 <= gamma <= 1.0:
        raise InputValidationError("gamma must lie in [0, 1]")
    n = pts.shape[0]
    anchor = expfam.mean_map(theta_good.model, theta_good)
    if pts.shape[1] != anchor.shape[0]:
        raise InputValidationError("candidates dimension does not match the anchor model")

    # the first step of _pullback_rows on this row alone: the same BLAS and LAPACK calls
    mean = point_sums(pts[None])[0] / n
    offset = mean - anchor
    centered = pts - mean
    spread = centered.T @ centered / n
    offset_sq = float(offset @ offset)
    if gamma == 0.0 or offset_sq == 0.0:
        return PullbackResult(np.ones(n), gamma, True)
    if float(np.trace(spread)) <= 0.0:
        raise DegenerateSelectionError("candidate cloud has no spread; cannot tilt weights")
    try:
        tilt = 0.5 * np.linalg.solve(spread, -gamma * offset)
    except np.linalg.LinAlgError:  # a singular spread takes the least-squares tilt
        tilt = 0.5 * np.linalg.lstsq(spread, -gamma * offset, rcond=None)[0]
    target = mean - gamma * offset

    base = 0.5
    floor = expfam.WEIGHT_FLOOR_PER_POINT * n
    tol_abs = PULLBACK_TOL * (1.0 + float(np.linalg.norm(target)))

    def residual(tilt_vec):
        w = np.clip(base + centered @ tilt_vec, 0.0, 1.0)
        s = float(w.sum())
        if s <= floor:
            return w, None, np.inf
        wmean = (pts * w[:, None]).sum(axis=0) / s
        return w, wmean, float(np.linalg.norm(target - wmean))

    weights, wmean, rnorm = residual(tilt)
    reached = rnorm <= tol_abs
    for _ in range(200):
        if reached or wmean is None:
            break
        interior = (weights > 0.0) & (weights < 1.0)
        if not interior.any():
            break
        s = float(weights.sum())
        jac = (pts[interior] - wmean).T @ centered[interior] / s
        try:
            step = np.linalg.solve(jac, target - wmean)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, target - wmean, rcond=None)
        # backtrack: clipping makes the system only piecewise linear, so a
        # full Newton step can overshoot into a different saturation pattern
        scale, improved = 1.0, False
        for _ in range(40):
            cand_w, cand_mean, cand_norm = residual(tilt + scale * step)
            if cand_norm < rnorm:
                tilt = tilt + scale * step
                weights, wmean, rnorm = cand_w, cand_mean, cand_norm
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
        reached = rnorm <= tol_abs

    if not reached:
        fallback = _nearest_prefix_weights(pts, target)
        fallback_norm = float(np.linalg.norm(target - fallback @ pts / fallback.sum()))
        if fallback_norm < rnorm:
            weights = fallback

    s = float(weights.sum())
    if s <= floor:
        raise DegenerateSelectionError("pullback produced an empty selection")
    wmean = (pts * weights[:, None]).sum(axis=0) / s
    achieved = 1.0 - float((wmean - anchor) @ offset) / offset_sq
    reached = float(np.linalg.norm(target - wmean)) <= tol_abs
    return PullbackResult(weights, achieved, reached)


def _pullback_rows(pts: np.ndarray, theta_good: expfam.Parameter, gamma: float) -> np.ndarray:
    """The oracle's weights (rows, n) of the candidate sets ``pts`` (rows, n, d).

    All rows take the first step at once; stacked ``np.matmul`` and
    ``np.linalg.solve`` run a lone matrix's routine on each row, so a row
    that meets ``PULLBACK_TOL`` there with every check passed (with a
    relative margin of 1e-9, as its norm is not a BLAS dot) has the bits of
    its own call. ``_pullback_row`` finishes the other rows in row order, so
    the lowest failing row raises its own error.
    """
    rows, n, d = pts.shape
    if n < 2:
        raise InputValidationError("candidates must be an (n, d) array with n >= 2")
    anchor = expfam.mean_map(theta_good.model, theta_good)
    weights = np.empty((rows, n))
    ok = np.zeros(rows, dtype=bool)
    with np.errstate(all="ignore"):
        if d == anchor.shape[0] and 0.0 < gamma <= 1.0:  # else every row goes alone
            mean = point_sums(pts) / n
            offset = mean - anchor
            centered = pts - mean[:, None, :]
            spread = np.matmul(centered.transpose(0, 2, 1), centered) / n
            try:
                tilt = 0.5 * np.linalg.solve(spread, -gamma * offset[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # one singular spread fails the whole stack
                pass
            else:
                np.add(0.5, np.matmul(centered, tilt[:, :, None])[:, :, 0], out=weights)
                np.clip(weights, 0.0, 1.0, out=weights)
                s = weights.sum(axis=1)
                target = mean - gamma * offset
                miss = target - point_sums(pts * weights[:, :, None]) / s[:, None]
                rnorm = np.sqrt(np.einsum("ij,ij->i", miss, miss))
                tol_abs = PULLBACK_TOL * (1.0 + np.sqrt(np.einsum("ij,ij->i", target, target)))
                ok = np.isfinite(pts).all(axis=(1, 2))
                ok &= np.einsum("ij,ij->i", offset, offset) > 0.0
                ok &= np.trace(spread, axis1=1, axis2=2) > 0.0
                ok &= s > expfam.WEIGHT_FLOOR_PER_POINT * n
                ok &= rnorm <= tol_abs * (1.0 - 1e-9)
    for r in np.flatnonzero(~ok):
        weights[r] = _pullback_row(pts[r], theta_good, gamma).weights
    return weights


def _nearest_prefix_weights(pts: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Binary weights on the k nearest points to the target, best k by prefix mean."""
    dist = np.linalg.norm(pts - target[None, :], axis=1)
    order = np.argsort(dist, kind="stable")
    prefix = np.cumsum(pts[order], axis=0) / np.arange(1, pts.shape[0] + 1)[:, None]
    gaps = np.linalg.norm(prefix - target[None, :], axis=1)
    best = int(np.argmin(gaps))
    weights = np.zeros(pts.shape[0])
    weights[order[: best + 1]] = 1.0
    return weights


# ---------------------------------------------------------------------------
# Deployable filter handles
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FilterHandle:
    """A uniform wrapper the workflow loop can call for weights.

    Kinds: ``mlp`` (trained scorer behind its PCA), ``oracle-pullback``
    (needs the anchor parameter, so it is for diagnostics rather than
    deployment), and ``all-ones`` (keeps everything; the identity filter).
    """

    kind: str
    params: FilterParams | None = None
    pca: PCATransform | None = None
    theta_good: expfam.Parameter | None = None
    gamma: float = 0.5

    @classmethod
    def all_ones(cls) -> "FilterHandle":
        return cls(kind="all-ones")

    @classmethod
    def mlp(cls, params: FilterParams, pca: PCATransform) -> "FilterHandle":
        if params.feature_dim != pca.k:
            raise InputValidationError(
                f"scorer expects {params.feature_dim} features but the PCA yields {pca.k}"
            )
        return cls(kind="mlp", params=params, pca=pca)

    @classmethod
    def oracle_pullback(cls, theta_good: expfam.Parameter, gamma: float) -> "FilterHandle":
        # gamma = 0 would be a roundabout all-ones handle; require a real pull.
        if not 0.0 < gamma <= 1.0:
            raise InputValidationError("gamma must lie in (0, 1]")
        return cls(kind="oracle-pullback", theta_good=theta_good, gamma=gamma)

    def weights(self, points) -> np.ndarray:
        """Weights (rows, n) of a (rows, n, d) stack of candidate sets.

        Each row gets the bits of its own one-row call. The oracle is one
        ``_pullback_rows`` call, which raises the lowest failing row's error.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 3:
            raise InputValidationError("points must be a (rows, n, d) stack of candidate sets")
        if self.kind == "all-ones":
            return np.ones(pts.shape[:2])
        if self.kind == "oracle-pullback":
            return _pullback_rows(pts, self.theta_good, self.gamma)
        if self.kind == "mlp":
            return forward_batch(self.params, self.pca.transform(pts))
        raise InputValidationError(f"unknown filter kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Drift training data
# ---------------------------------------------------------------------------


def simulate_drift_training_data(
    model: expfam.ExpFamilyModel,
    theta_star: expfam.Parameter,
    spec: TrainingSpec,
    rng: RngState,
) -> tuple[LabeledDataset, np.ndarray]:
    """Rounds of drifting candidate sets with distance-to-truth labels, as one pool.

    ``spec`` supplies rounds, candidates_per_round, contamination and
    drift_scale. Each round draws a (1 - contamination) share of candidates from the
    current parameter and the rest from a mean-shifted pool (shift of
    ``drift_scale`` along the fixed direction ones/sqrt(dim)); the next
    parameter is the plain estimate over all candidates, so the shifted
    pool drags the chain a little further every round. Labels mark the
    nearest (1 - contamination) fraction of each round to the true mean as
    good. Returns the rounds concatenated in round order and the
    (rounds+1, dim) trace of natural parameters, starting at theta_star.
    """
    if theta_star.model != model:
        raise InputValidationError("theta_star belongs to a different model")
    if not isinstance(rng, RngState):
        raise InputValidationError("rng must be an RngState (substreams are derived per round)")

    d = model.dim
    rounds, contamination = spec.rounds, spec.contamination
    direction = np.ones(d) / math.sqrt(d)
    shift = spec.drift_scale * direction
    n_bad = int(round(contamination * spec.candidates_per_round))
    n_good = spec.candidates_per_round - n_bad

    points, labels = [], []
    trace = np.empty((rounds + 1, d))
    current = theta_star
    trace[0] = current.theta
    for r in range(rounds):
        gen = rng.derive(r).generator()
        clean = expfam.sample(model, current, n_good, gen) if n_good else np.empty((0, d))
        if n_bad:
            shifted_mean = expfam.mean_map(model, current) + shift
            shifted = expfam.sample(
                model, expfam.inverse_mean_map(model, shifted_mean), n_bad, gen
            )
            candidates = np.vstack([clean, shifted])
        else:
            candidates = clean
        labeled = label_by_distance(candidates, theta_star, 1.0 - contamination)
        points.append(labeled.points)
        labels.append(labeled.labels)
        current = expfam.estimate(model, candidates)
        trace[r + 1] = current.theta
    return LabeledDataset(np.vstack(points), np.concatenate(labels)), trace


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------


def content_hash(data: dict) -> str:
    """SHA-256 of JSON-serializable data in canonical (sorted-key, compact) form."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_floats, _bools = partial(np.asarray, dtype=float), partial(np.asarray, dtype=bool)

# The checkpoint's layout: each stored field, section by section in file order,
# with the conversion that reads it back. Saving applies the same conversion to
# the attribute of that name on the section's object.
_CHECKPOINT_FIELDS = {
    "pca": {"mean": _floats, "scale": _floats, "projection": _floats,
            "explained_variance_ratio": _floats, "zero_variance": _bools},
    "params": {"hidden_dim": int, "feature_dim": int,
               "w1": _floats, "b1": _floats, "w2": _floats, "b2": float},
}


def save_filter_checkpoint(path, params: FilterParams, pca: PCATransform, train_meta: dict) -> None:
    """Write a versioned JSON container with the PCA, the scorer, and a config echo.

    ``content_hash`` covers every other field, so the loader notices an
    edited weight as well as an edited echo.
    """
    objects = {"pca": pca, "params": params}
    payload = {"format_version": CHECKPOINT_VERSION}
    for section, table in _CHECKPOINT_FIELDS.items():
        payload[section] = {key: np.asarray(read(getattr(objects[section], key))).tolist()
                            for key, read in table.items()}
    payload["train_config"] = train_meta
    payload["content_hash"] = content_hash(payload)
    atomic_write_json(path, payload, indent=1)


def atomic_write_text(path, text) -> None:
    """Write ``text`` via a sibling temp file and rename, so readers never see partials.

    ``text`` is a str or an iterable of str pieces, written in order. If a
    piece raises, neither the file nor the temp file is left behind. The
    file gets the mode ``open`` would give it (0666 less the umask), not the
    0600 of a fresh temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, data, **dump_options) -> None:
    """``atomic_write_text`` of ``data`` as strict JSON; a NaN or infinity fails naming the file."""
    try:
        text = json.dumps(data, allow_nan=False, **dump_options)
    except ValueError as exc:
        raise CollapseGuardError(f"cannot write {path} as strict JSON: {exc}") from exc
    atomic_write_text(path, text + "\n")


def read_json_object(path, what: str) -> dict:
    """Read a JSON file whose root is an object; every failure names ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputValidationError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputValidationError(f"{what} {path}: root must be a JSON object")
    return raw


def load_filter_checkpoint(path) -> tuple[FilterParams, PCATransform, dict]:
    """Read a checkpoint, validating its version, shapes and content hash."""
    payload = read_json_object(path, "checkpoint")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise InputValidationError(
            f"unsupported checkpoint format_version {version!r}; expected {CHECKPOINT_VERSION}"
        )
    try:
        pca_fields, scorer = ({key: read(payload[section][key]) for key, read in table.items()}
                              for section, table in _CHECKPOINT_FIELDS.items())
        hidden, feat = scorer.pop("hidden_dim"), scorer.pop("feature_dim")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputValidationError(f"malformed checkpoint: {exc}") from exc
    pca, params = PCATransform(**pca_fields), FilterParams(**scorer)
    if pca.projection.ndim != 2 or pca.projection.shape[0] != pca.mean.shape[0]:
        raise InputValidationError("checkpoint PCA projection does not match its mean dimension")
    if params.w1.shape != (hidden, feat):
        raise InputValidationError(
            f"checkpoint scorer shape {params.w1.shape} contradicts declared ({hidden}, {feat})"
        )
    if feat != pca.k:
        raise InputValidationError(
            f"scorer expects {feat} features but the stored PCA yields {pca.k}"
        )
    for section, fields in zip(_CHECKPOINT_FIELDS, (pca_fields, scorer)):
        for key, value in fields.items():
            if not np.isfinite(value).all():
                raise InputValidationError(f"checkpoint {path}: {section}.{key} is not finite")
    if payload.pop("content_hash", None) != content_hash(payload):
        raise InputValidationError("checkpoint content hash does not match its contents")
    meta = payload.get("train_config", {})
    if not isinstance(meta, dict):
        raise InputValidationError("malformed checkpoint: train_config must be a JSON object")
    return params, pca, meta
