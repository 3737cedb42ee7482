"""Error-dynamics simulators: abstract contraction updates and model workflows.

Two batched entry points share one trajectory format. ``run_dynamics_trials``
iterates e_{t+1} = A(e_t) e_t + xi_t, with martingale-difference noise
whose P-energy follows a schedule, for a whole block of trials per step.
``run_workflow_trials`` re-fits an exponential family on its own samples
each generation, with or without a reweighting filter in the loop, which
is where estimation error actually comes from. Its kernel is
generation-major: per generation, each live trial of a block draws its
candidates from its own stream (and gets its filter weights), then one
batched fit advances them all.

Both fan one base RngState out into one independent stream per trial
(trial i draws only from ``rng.derive(i)``) and run fixed 256-trial blocks.
Dynamics runs reduce block by block; workflow runs add their statistics
one trial at a time in trial order. Either way results do not depend on
how many workers ran the trials."""

from __future__ import annotations

import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import expfam
from .contraction import ContractionMap
from .errors import (
    CollapseGuardError,
    InputValidationError,
    SimulationOverflowError,
)
from .numerics import STACK_LIMIT, RngState, as_vector

ZERO = "zero"
POWER_LAW = "power-law"
CONSTANT = "constant"

DIVERGENCE_CAP = 1e12
DEFAULT_DELTAS = (0.1, 0.2, 0.5)
WORKERS_ENV_VAR = "COLLAPSEGUARD_WORKERS"

_BLOCK = 256
_CHUNK = 2048


def worker_count() -> int:
    """Worker count from the environment (the only env knob this package reads)."""
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputValidationError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputValidationError(f"{WORKERS_ENV_VAR} must be >= 1")
    return value


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise energy sigma_t^2, measured in the map's Lyapunov metric.

    ``power-law`` decays as scale * (t+1)^(-beta) and satisfies the
    vanishing-noise assumption; ``constant`` does not and exists as a
    negative control; ``zero`` draws nothing at all.
    """

    kind: str = POWER_LAW
    beta: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (ZERO, POWER_LAW, CONSTANT):
            raise InputValidationError(f"unknown noise schedule kind {self.kind!r}")
        if self.kind == POWER_LAW and self.beta <= 0.0:
            raise InputValidationError("power-law beta must be positive")
        if self.scale < 0.0:
            raise InputValidationError("scale must be nonnegative")

    def sigma_sq_array(self, start: int, stop: int) -> np.ndarray:
        t = np.arange(start, stop, dtype=float)
        if self.kind == ZERO:
            return np.zeros(stop - start)
        if self.kind == CONSTANT:
            return np.full(stop - start, self.scale)
        return self.scale * (t + 1.0) ** -self.beta


@dataclass(frozen=True)
class SampleSchedule:
    """Per-generation sample sizes n_t.

    ``constant`` keeps the base size; ``power`` grows as
    ceil(base * t^exponent) for t >= 1 (the base also seeds generation 0,
    which always fits real data).
    """

    kind: str = CONSTANT
    base: int = 100
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONSTANT, "power"):
            raise InputValidationError(f"unknown sample schedule kind {self.kind!r}")
        if not isinstance(self.base, (int, np.integer)) or self.base < 1:
            raise InputValidationError("base sample size must be a positive integer")
        if self.exponent < 0.0:
            raise InputValidationError("exponent must be nonnegative")

    def size(self, t: int) -> int:
        if t < 0:
            raise InputValidationError("t must be nonnegative")
        size = int(self.base)
        if t > 0 and self.kind != CONSTANT:
            try:
                size = math.ceil(self.base * float(t) ** self.exponent)
            except OverflowError:  # t^exponent or its ceiling beyond the float range
                size = math.inf
        if size > np.iinfo(np.int64).max:
            raise InputValidationError(
                f"schedule size at generation {t} does not fit in a 64-bit integer"
            )
        return size


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TrialStats:
    """Step-indexed aggregates over a trial population."""

    ts: np.ndarray
    mse: np.ndarray
    mean_v: np.ndarray
    exceedance: dict[float, np.ndarray]
    trials: int
    ns: np.ndarray

    def exceedance_at(self, delta: float) -> np.ndarray:
        key = float(delta)
        if key not in self.exceedance:
            raise InputValidationError(f"no exceedance recorded for delta={delta}")
        return self.exceedance[key]


def _validate_deltas(deltas) -> tuple[float, ...]:
    out = tuple(float(d) for d in deltas)
    if len(out) == 0:
        raise InputValidationError("deltas must be non-empty")
    for d in out:
        if not np.isfinite(d) or d < 0.0:
            raise InputValidationError("deltas must be finite and nonnegative")
    return out


class _TrialFold:
    """Per-step sums over trials, added one trial at a time in trial order.

    The order is part of the result: summing each 256-trial block first and
    then adding the partial sums would change the last bits of ``mse``.
    """

    def __init__(self, ts: np.ndarray, ds: tuple[float, ...]):
        self.ts = ts
        self.ds = ds
        self.sum_sq = np.zeros(ts.shape[0])
        self.sum_v = np.zeros(ts.shape[0])
        self.counts = np.zeros((len(ds), ts.shape[0]))
        self.trials = 0

    def add(self, sq: np.ndarray, vs: np.ndarray, diverged_at: np.ndarray) -> None:
        """Fold (trials, steps) squared norms and V values; ``diverged_at`` is inf if never."""
        for row_sq, row_v in zip(sq, vs):
            self.sum_sq += row_sq
            self.sum_v += row_v
        norms = np.sqrt(sq)
        div = self.ts[None, :] >= diverged_at[:, None]
        for j, d in enumerate(self.ds):
            self.counts[j] += ((norms > d) | div).sum(axis=0)
        self.trials += sq.shape[0]

    def stats(self, ns: np.ndarray) -> TrialStats:
        return TrialStats(
            ts=self.ts.copy(),
            mse=self.sum_sq / self.trials,
            mean_v=self.sum_v / self.trials,
            exceedance={d: self.counts[j] / self.trials for j, d in enumerate(self.ds)},
            trials=self.trials,
            ns=ns.copy(),
        )


def aggregate_exceedance(sq_norms, vs, diverged_at, ns, deltas=DEFAULT_DELTAS) -> TrialStats:
    """Fold (trials, steps) paths into per-step MSE, mean V, and exceedance fractions.

    ``sq_norms`` and ``vs`` hold each trial's ||e_t||^2 and V(e_t),
    ``diverged_at`` each trial's divergence step (inf if never) and ``ns``
    each trial's sample sizes. Exceedance at delta is the fraction of trials
    with ||e_t|| > delta; diverged trials count as exceeding every threshold
    from their divergence step on. The sample size at a step is the largest
    over the trials, so it is zero only once every trial has stopped sampling.
    This is the one-shot form of the fold the simulators run block by block.
    """
    sq, vs, ns = (np.asarray(a) for a in (sq_norms, vs, ns))
    diverged_at = np.asarray(diverged_at, dtype=float)
    if sq.ndim != 2 or sq.shape[0] == 0 or not (
        vs.shape == ns.shape == sq.shape and diverged_at.shape == sq.shape[:1]
    ):
        raise InputValidationError(
            "paths must be nonempty (trials, steps) arrays with one divergence step per trial"
        )
    fold = _TrialFold(np.arange(sq.shape[1]), _validate_deltas(deltas))
    fold.add(sq, vs, diverged_at)
    return fold.stats(ns.max(axis=0))


# ---------------------------------------------------------------------------
# Trial fan-out
# ---------------------------------------------------------------------------


def _run_blocks(block_fn, args: tuple, trials: int):
    """Yield ``block_fn((args, lo, hi))`` for each 256-trial block, in trial order.

    The worker count comes from ``COLLAPSEGUARD_WORKERS``. The fixed blocks,
    not the workers, set the reduction order, so any worker count gives the
    same result. The caller folds each block as it arrives, so a serial run
    holds one block's results at a time. When a pool is used (more than one
    worker and more than one block), the first job is pickled up front so
    that work which cannot reach a worker process fails with a named error.
    """
    workers = worker_count()
    jobs = [(args, lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)]
    if workers < 2 or len(jobs) < 2:
        yield from map(block_fn, jobs)
        return
    try:
        pickle.dumps(jobs[0])
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise InputValidationError(
            f"trial arguments cannot be sent to worker processes ({exc}); use a "
            f"module-level function or class, or set {WORKERS_ENV_VAR}=1"
        ) from exc
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(block_fn, jobs)


def _check_run(rng, trials: int, horizon) -> int:
    if not isinstance(rng, RngState):
        raise InputValidationError("rng must be an RngState (per-trial streams are derived)")
    if trials < 1:
        raise InputValidationError("trials must be positive")
    if not isinstance(horizon, (int, np.integer)) or horizon < 0:
        raise InputValidationError("horizon must be a nonnegative integer")
    return int(horizon)


# ---------------------------------------------------------------------------
# Abstract dynamics
# ---------------------------------------------------------------------------


def _dynamics_block(job):
    """Simulate one contiguous block of trials, batched across trials.

    Each step draws xi_t with E[xi' P xi] = sigma_t^2 in the map's metric P.
    A trial freezes once V exceeds the cap; a state that becomes non-finite
    raises SimulationOverflowError with its step. Returns the block's
    per-step sums, its divergence steps (inf if never) and, when recording,
    its (trials, horizon+1, dim) error paths.
    """
    (map_, noise, e0, horizon, rng, ds, cap, record), trial_lo, trial_hi = job
    metric = map_.metric
    dim = metric.dim
    b = trial_hi - trial_lo
    gens = [rng.derive(i).generator() for i in range(trial_lo, trial_hi)]
    e_state = np.tile(e0, (b, 1))
    diverged = np.full(b, np.inf)
    n = horizon + 1
    sum_sq = np.zeros(n)
    sum_v = np.zeros(n)
    exceed = np.zeros((len(ds), n))
    records = np.empty((b, n, dim)) if record else None

    zero_noise = noise.kind == ZERO
    c_transform = None if metric.is_identity else metric.inverse_factor

    v_all = metric.values(e_state)
    diverged[v_all > cap] = 0
    sq = np.einsum("ij,ij->i", e_state, e_state)
    sum_sq[0] = sq.sum()
    sum_v[0] = v_all.sum()
    norms = np.sqrt(sq)
    div_now = diverged <= 0
    for j, d in enumerate(ds):
        exceed[j, 0] = ((norms > d) | div_now).sum()
    if record:
        records[:, 0] = e_state

    t = 0
    while t < horizon:
        span = min(_CHUNK, horizon - t)
        bufs = None
        scales = None
        if not zero_noise:
            bufs = np.empty((b, span, dim))
            for i, g in enumerate(gens):
                bufs[i] = g.standard_normal((span, dim))
            if c_transform is not None:
                bufs = bufs @ c_transform.T
            scales = np.sqrt(noise.sigma_sq_array(t, t + span) / dim)
        for k in range(span):
            step = t + k
            act = np.flatnonzero(np.isinf(diverged))
            if act.size:
                updated = map_.apply_batch(e_state[act])
                if not zero_noise and scales[k] > 0.0:
                    updated = updated + scales[k] * bufs[act, k, :]
                if not np.all(np.isfinite(updated)):
                    raise SimulationOverflowError(step + 1)
                e_state[act] = updated
                v_act = metric.values(updated)
                newly = act[v_act > cap]
                if newly.size:
                    diverged[newly] = step + 1
            sq = np.einsum("ij,ij->i", e_state, e_state)
            v_all = metric.values(e_state)
            sum_sq[step + 1] = sq.sum()
            sum_v[step + 1] = v_all.sum()
            norms = np.sqrt(sq)
            div_now = diverged <= step + 1
            for j, d in enumerate(ds):
                exceed[j, step + 1] = ((norms > d) | div_now).sum()
            if record:
                records[:, step + 1] = e_state
        t += span
    return sum_sq, sum_v, exceed, diverged, records


def run_dynamics_trials(
    map_: ContractionMap,
    noise: NoiseSchedule,
    e0,
    horizon: int,
    trials: int,
    rng: RngState,
    deltas=DEFAULT_DELTAS,
    divergence_cap: float = DIVERGENCE_CAP,
    record_trajectories: bool = False,
):
    """Monte-Carlo over independent trials of e_{t+1} = A(e_t) e_t + xi_t.

    The noise energy sigma_t^2 is measured in the map's metric P. Trial i
    draws from ``rng.derive(i)``, so any partition of trials over workers
    reproduces the serial result bit for bit (reduction happens in fixed
    256-trial blocks). A trial freezes, and is marked diverged, once V
    exceeds ``divergence_cap``. Returns TrialStats, or (TrialStats, errors,
    diverged_at) when ``record_trajectories`` is set: the (trials,
    horizon+1, dim) error paths and each trial's divergence step, inf if
    it never diverged.
    """
    horizon = _check_run(rng, trials, horizon)
    ds = _validate_deltas(deltas)
    e0 = as_vector(e0, dim=map_.metric.dim, name="e0")

    args = (map_, noise, e0, horizon, rng, ds, divergence_cap, record_trajectories)
    n = horizon + 1
    sum_sq = np.zeros(n)
    sum_v = np.zeros(n)
    exceed = np.zeros((len(ds), n))
    paths, frozen = [], []
    for bsq, bv, bex, bdiv, brec in _run_blocks(_dynamics_block, args, trials):
        sum_sq += bsq
        sum_v += bv
        exceed += bex
        paths.append(brec)
        frozen.append(bdiv)

    stats = TrialStats(
        ts=np.arange(n),
        mse=sum_sq / trials,
        mean_v=sum_v / trials,
        exceedance={d: exceed[j] / trials for j, d in enumerate(ds)},
        trials=trials,
        ns=np.zeros(n, dtype=np.int64),
    )
    if record_trajectories:
        return stats, np.concatenate(paths), np.concatenate(frozen)
    return stats


# ---------------------------------------------------------------------------
# Model-fitting workflows
# ---------------------------------------------------------------------------


def _fit_generation(model, points, weights, t):
    try:
        if weights is None:
            return expfam.estimate(model, points)
        return expfam.weighted_estimate(model, points, weights)
    except CollapseGuardError as exc:
        raise type(exc)(f"generation {t}: {exc}") from exc


def _filter_weights(filter_handle, points, size, t) -> np.ndarray:
    w = np.asarray(filter_handle.weights(points), dtype=float)
    if w.shape != (size,):
        raise InputValidationError(
            f"generation {t}: filter returned weights of shape {w.shape}, expected ({size},)"
        )
    return w


def _workflow_block(job):
    """Run one block of workflow trials generation by generation.

    Each generation draws every live trial's candidates from its own stream
    (one call per trial, as a trial-by-trial loop makes them), weighs them
    trial by trial when filtered, and fits all live trials at once, at most
    ``STACK_LIMIT`` stacked values at a time. A trial freezes once V
    exceeds the cap. A trial that fails stops, and so does every later
    trial: the block raises the failure of the lowest-index failing trial,
    the error a trial-by-trial loop meets first. Returns the (trials,
    horizon+1) V paths, the divergence steps (inf if never) and, when
    recording, the (trials, horizon+1, dim) error paths.
    """
    (model, theta_star, sizes, filter_handle, rng, cap, record), lo, hi = job
    family, dim = model.family, model.dim
    b, n = hi - lo, sizes.shape[0]
    gens = [rng.derive(i).generator() for i in range(lo, hi)]
    theta = np.tile(theta_star.theta, (b, 1))
    errors = np.zeros((b, dim))
    v_now = np.zeros(b)
    vs = np.empty((b, n))
    diverged = np.full(b, np.inf)
    records = np.empty((b, n, dim)) if record else None
    stop, failure = b, None  # trials from ``stop`` on have stopped on ``failure``

    for t in range(n):
        size = int(sizes[t])
        filtered = filter_handle is not None and t > 0
        live = np.flatnonzero(np.isinf(diverged))
        rows = max(1, STACK_LIMIT // (size * dim))
        for k in range(0, live.size, rows):
            part = live[k : k + rows]
            part = part[part < stop]
            points = np.empty((part.size, size, dim))
            weights = np.empty((part.size, size)) if filtered else None
            for r, i in enumerate(part):
                try:
                    drawn = expfam._draw(family, theta[i], size, gens[i])
                    if filtered:
                        weights[r] = _filter_weights(filter_handle, drawn, size, t)
                except Exception as exc:  # raised once no earlier trial can fail first
                    stop, failure = i, exc
                    break
                points[r] = drawn
            fit, ok = expfam._fit_rows(family, points, weights)
            for r in np.flatnonzero(~ok & (part < stop)):
                try:
                    w = None if weights is None else weights[r]
                    fit[r] = _fit_generation(model, points[r], w, t).theta
                except Exception as exc:
                    stop, failure = part[r], exc
                    break
            err = fit - theta_star.theta
            lost = np.flatnonzero(~np.isfinite(err).all(axis=1) & (part < stop))
            if lost.size:
                stop, failure = part[lost[0]], SimulationOverflowError(t)
            keep = part < stop
            part, fit, err = part[keep], fit[keep], err[keep]
            theta[part] = fit
            errors[part] = err
            v_now[part] = np.einsum("ij,ij->i", err, err)
            diverged[part[v_now[part] > cap]] = t
        vs[:, t] = v_now
        if record:
            records[:, t] = errors
    if failure is not None:
        raise failure
    return vs, diverged, records


def run_workflow_trials(
    model: expfam.ExpFamilyModel,
    theta_star: expfam.Parameter,
    schedule: SampleSchedule,
    horizon: int,
    trials: int,
    rng: RngState,
    deltas=DEFAULT_DELTAS,
    filter_handle=None,
    candidates_per_round: int | None = None,
    divergence_cap: float = DIVERGENCE_CAP,
    record_trajectories: bool = False,
):
    """Monte-Carlo over workflow trials; trial i runs on ``rng.derive(i)``.

    Generation 0 fits schedule.size(0) real draws from theta_star; each
    later generation samples from its predecessor's fit and re-estimates,
    recording e_t = theta_hat_t - theta_star with the identity-metric V.
    A trial freezes once V exceeds ``divergence_cap``. Returns TrialStats,
    or (TrialStats, errors, diverged_at) as ``run_dynamics_trials`` does
    when ``record_trajectories`` is set.

    With ``filter_handle`` (anything with a ``weights(points) -> array``
    method, see the filtering module) every generation past the first
    reweights its candidates before re-estimating. ``candidates_per_round``
    fixes the candidate count of those generations; None follows the
    sample schedule. A filter emitting all-ones weights reproduces the
    unfiltered workflow exactly on the same streams and counts.
    """
    horizon = _check_run(rng, trials, horizon)
    if filter_handle is not None and not hasattr(filter_handle, "weights"):
        raise InputValidationError("filter_handle must expose a weights(points) method")
    if candidates_per_round is not None and candidates_per_round < 1:
        raise InputValidationError("candidates_per_round must be positive when given")
    if theta_star.model != model:
        raise InputValidationError("theta_star belongs to a different model")
    ds = _validate_deltas(deltas)

    n = horizon + 1
    ts = np.arange(n)
    fixed = candidates_per_round if filter_handle is not None else None
    sizes = np.array(
        [schedule.size(t) if t == 0 or fixed is None else fixed for t in range(n)],
        dtype=np.int64,
    )
    args = (model, theta_star, sizes, filter_handle, rng, divergence_cap, record_trajectories)
    fold = _TrialFold(ts, ds)
    live_ns = np.zeros(n, dtype=np.int64)  # the schedule size while any trial samples, else 0
    paths, frozen = [], []
    for vs, diverged, records in _run_blocks(_workflow_block, args, trials):
        fold.add(vs, vs, diverged)
        ns = np.where(ts <= diverged[:, None], sizes, 0)
        live_ns = np.maximum(live_ns, ns.max(axis=0))
        paths.append(records)
        frozen.append(diverged)
    stats = fold.stats(live_ns)
    if record_trajectories:
        return stats, np.concatenate(paths), np.concatenate(frozen)
    return stats
