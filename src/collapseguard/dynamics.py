"""Error-dynamics simulators: abstract contraction updates and model workflows.

Two batched entry points return the same per-step statistics.
``run_dynamics_trials`` iterates e_{t+1} = A(e_t) e_t + xi_t, with
martingale-difference noise whose P-energy follows a schedule, for a whole
group of trial blocks per step. A step costs the map, the noise add and one
check of the new state, whose V the next step's map reads; the per-step
statistics are folded from a short history of ||e||^2 and V once per
``_WINDOW`` steps.
``run_workflow_trials`` re-fits an exponential family on its own samples
each generation, with or without a reweighting filter in the loop, which
is where estimation error actually comes from. Its kernel is
generation-major and draws per window of generations: each live trial fills
its row of a window, at most ``_DRAW_WINDOW`` values per block, with one
call of its own stream. Per generation, the family's transform maps a copy
of the generation's slice of the window to draws at each trial's current
fit, the filter weighs the whole (rows, n, d) chunk in one call that
returns (rows, n) weights, then one batched fit advances them all.

Both fan one base RngState out into one stream per trial (trial i draws only
from ``rng.derive(i)``) and share one job protocol, ``_run_trials``: a job is
a run of a kernel's units (256-trial blocks, which a dynamics job advances in
lockstep and still reduces per block, or single workflow trials), one fold,
``_TrialFold``, adds the jobs in trial order, and a failed job replays its
units alone. So neither results nor errors depend on the worker count."""

from __future__ import annotations

import contextlib
import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import expfam
from .contraction import ContractionMap
from .errors import (
    CollapseGuardError,
    InputValidationError,
    SimulationOverflowError,
)
from .filtering import FilterHandle
from .numerics import STACK_LIMIT, RngState, as_vector, check_fits, check_int

ZERO = "zero"
POWER_LAW = "power-law"
CONSTANT = "constant"

DIVERGENCE_CAP = 1e12
DEFAULT_DELTAS = (0.1, 0.2, 0.5)
WORKERS_ENV_VAR = "COLLAPSEGUARD_WORKERS"

_BLOCK = 256
_CHUNK = 2048
_LOCKSTEP = 8  # most blocks one dynamics job advances together; keeps a chunk >= 256 steps
_WINDOW = 64  # dynamics steps whose statistics are folded in one pass
_DRAW_WINDOW = 1 << 16  # most values of draws a workflow block holds, over a window of generations


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
    negative control; ``zero`` draws nothing at all. The same schedule is
    the forcing b_t of the scalar recurrence (contraction.recurrence_simulate).
    """

    kind: str = POWER_LAW
    beta: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (ZERO, POWER_LAW, CONSTANT):
            raise InputValidationError(f"unknown noise schedule kind {self.kind!r}")
        if self.kind == POWER_LAW and not self.beta > 0.0:
            raise InputValidationError("power-law beta must be positive")
        if not 0.0 <= self.scale < math.inf:
            raise InputValidationError("scale must be finite and nonnegative")

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
        check_int(self.base, "base sample size", 1)
        if not self.exponent >= 0.0:
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


def _exceed_counts(sq: np.ndarray, diverged_at: np.ndarray, ds: tuple[float, ...]) -> np.ndarray:
    """(deltas, steps) counts of the trials with ||e_t|| > delta or diverged by step t."""
    norms = np.sqrt(sq)
    div = np.arange(sq.shape[1])[None, :] >= diverged_at[:, None]
    return np.array([((norms > d) | div).sum(axis=0) for d in ds])


class _TrialFold:
    """The one reduction of a run's jobs into its TrialStats, added in job order.

    A job is ``(sum_sq rows, sum_v rows, exceedance counts, n_t row,
    diverged_at)``. Rows are added one at a time, so each kernel keeps its
    own order: a dynamics row is a 256-trial block's pairwise sum, a
    workflow row is one trial.
    """

    def __init__(self, steps: int, ds: tuple[float, ...]):
        self.ds = ds
        self.sum_sq = np.zeros(steps)
        self.sum_v = np.zeros(steps)
        self.counts = np.zeros((len(ds), steps))
        self.ns = np.zeros(steps, dtype=np.int64)
        self.trials = 0

    def add(self, job) -> None:
        sq, vs, counts, ns, diverged_at = job
        for row_sq, row_v in zip(sq, vs):
            self.sum_sq += row_sq
            self.sum_v += row_v
        self.counts += counts
        self.ns = np.maximum(self.ns, ns)
        self.trials += diverged_at.shape[0]

    def result(self) -> TrialStats:
        trials = self.trials
        return TrialStats(
            ts=np.arange(self.sum_sq.shape[0]),
            mse=self.sum_sq / trials,
            mean_v=self.sum_v / trials,
            exceedance={d: self.counts[j] / trials for j, d in enumerate(self.ds)},
            trials=trials,
            ns=self.ns,
        )


def aggregate_exceedance(sq_norms, vs, diverged_at, ns, deltas=DEFAULT_DELTAS) -> TrialStats:
    """Fold (trials, steps) paths into per-step MSE, mean V, and exceedance fractions.

    ``sq_norms`` and ``vs`` hold each trial's ||e_t||^2 and V(e_t),
    ``diverged_at`` each trial's divergence step (inf if never) and ``ns``
    each trial's sample sizes. Exceedance at delta is the fraction of trials
    with ||e_t|| > delta; diverged trials count as exceeding every threshold
    from their divergence step on. The sample size at a step is the largest
    over the trials, so it is zero only once every trial has stopped sampling.
    This is ``_TrialFold`` on one job that holds every trial.
    """
    sq, vs, ns = (np.asarray(a) for a in (sq_norms, vs, ns))
    diverged_at = np.asarray(diverged_at, dtype=float)
    if sq.ndim != 2 or sq.shape[0] == 0 or not (
        vs.shape == ns.shape == sq.shape and diverged_at.shape == sq.shape[:1]
    ):
        raise InputValidationError(
            "paths must be nonempty (trials, steps) arrays with one divergence step per trial"
        )
    ds = _validate_deltas(deltas)
    fold = _TrialFold(sq.shape[1], ds)
    fold.add((sq, vs, _exceed_counts(sq, diverged_at, ds), ns.max(axis=0), diverged_at))
    return fold.result()


# ---------------------------------------------------------------------------
# Trial fan-out
# ---------------------------------------------------------------------------


def _job_trials(kernel, trials: int, workers: int) -> int:
    """Trials per job: whole units spread evenly over the workers, at most the kernel's most."""
    _, unit, most, _ = kernel
    units = -(-trials // unit)
    return unit * min(most, -(-units // workers))


def _run_job(job):
    """Run one job's pass; a failed job of more than one unit replays its units alone.

    The replay runs the units one at a time, in trial order, and raises the
    first one's error: the error running them one after another meets first,
    though the pass may have met a later unit's. The failed pass's frames,
    and with them its arrays, are dropped first. Only a ``CollapseGuardError``
    is replayed.
    """
    (pass_, unit, _, _), args, lo, hi = job
    try:
        return pass_(args, lo, hi)
    except CollapseGuardError:
        if hi - lo <= unit:
            raise
    for u in range(lo, hi, unit):
        pass_(args, u, min(u + unit, hi))
    return pass_(args, lo, hi)  # a replay that met no failure: the pass raises its own again


def _run_trials(kernel, args: tuple, trials: int, fold: _TrialFold) -> TrialStats:
    """Run a kernel's trials as jobs, add them to ``fold`` in trial order and return its result.

    A kernel is ``(pass, unit, most units per job, rows held per unit)``;
    ``pass(args, lo, hi)`` returns the ``_TrialFold`` job of trials lo to hi - 1.
    The units, not the jobs, set the reduction order, so any worker count
    gives the same result. Before a pool runs (more than one worker and job),
    the first job is pickled, so that work which cannot reach a worker fails
    with a named error.
    """
    workers = worker_count()
    size = _job_trials(kernel, trials, workers)
    jobs = [(kernel, args, lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    pool = None
    if workers > 1 and len(jobs) > 1:
        try:
            pickle.dumps(jobs[0])
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise InputValidationError(
                f"trial arguments cannot be sent to worker processes ({exc}); use a "
                f"module-level function or class, or set {WORKERS_ENV_VAR}=1"
            ) from exc
        from concurrent.futures import ProcessPoolExecutor  # imported only when a pool runs

        pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
    with pool or contextlib.nullcontext():
        for job in pool.map(_run_job, jobs) if pool else map(_run_job, jobs):
            fold.add(job)
            del job  # not held while the next job runs
    return fold.result()


def _check_run(rng, trials: int, horizon, deltas, cap, kernel) -> tuple[int, tuple[float, ...]]:
    """Both runners' shared checks; returns the horizon as an int and the deltas.

    A run whose ``horizon + 1``-long arrays would not fit in memory or an
    array index is refused here, before any allocation or draw: the
    statistics (ts, mse, mean_v, ns and each delta's exceedance) and, for each
    job that runs at once (at most one per worker), its exceedance counts and
    the kernel's rows per unit. The divergence cap must be nonnegative (inf
    freezes no trial); a NaN cap, which no V exceeds, is refused.
    """
    if not isinstance(rng, RngState):
        raise InputValidationError("rng must be an RngState (per-trial streams are derived)")
    trials = check_int(trials, "trials", 1)
    horizon = check_int(horizon, "horizon", 0)
    if not cap >= 0.0:
        raise InputValidationError("divergence_cap must be nonnegative (inf freezes no trial)")
    ds = _validate_deltas(deltas)
    workers, (_, unit, _, rows) = worker_count(), kernel
    size = _job_trials(kernel, trials, workers)
    held = min(workers, -(-trials // size))
    check_fits("per-step statistics", (4 + len(ds) + held * (len(ds) + rows * size // unit),
                                       horizon + 1), "use a shorter horizon or fewer trials")
    return horizon, ds


# ---------------------------------------------------------------------------
# Abstract dynamics
# ---------------------------------------------------------------------------


def _block_sums(x: np.ndarray, out: np.ndarray) -> None:
    """Write each step's sums of the 256-trial slices of ``x`` to ``out``.

    ``x`` is (steps, rows) and ``out`` (blocks, steps); the last slice may be
    short. Each sum is the pairwise sum ``x[k, lo:hi].sum()`` gives, so
    neither grouping blocks nor summing a window of steps at once moves a bit.
    """
    steps, rows = x.shape
    cut = rows - rows % _BLOCK
    out[: cut // _BLOCK] = x[:, :cut].reshape(steps, -1, _BLOCK).sum(axis=2).T
    if cut < rows:
        out[-1] = x[:, cut:].sum(axis=1)


def _dynamics_pass(args, trial_lo, trial_hi):
    """Simulate a contiguous group of 256-trial blocks in lockstep, batched across trials.

    The group advances as one (rows, dim) state and still reduces per
    256-trial block. Each step draws xi_t with E[xi' P xi] = sigma_t^2 in the
    map's metric P; every trial draws from its own stream, in chunks of at
    most ``_BLOCK * _CHUNK`` (trial, step) pairs. The noise shaping, V and
    the map give each row the bits it gets alone, so neither the group size
    nor the chunk length moves a result.

    A step writes each row's V (and ||e||^2, under a general P) into a
    ``_WINDOW``-step history and makes one check: the largest V of the rows
    it moved is finite and at most the cap. The next step hands the map the
    V of its rows from that history, so V is computed once per step. Only a
    step that fails the check looks further. A state that became non-finite
    raises SimulationOverflowError at that step, whichever block lost it
    (``_run_job`` replays the blocks). A trial whose V exceeds the cap
    freezes, and from then on only the live rows are
    gathered and moved. The block sums and exceedance counts are folded from
    the history once per window. Returns the ``_TrialFold`` job: per-block,
    per-step sums of ||e||^2 and V, each (blocks, horizon+1), and an n_t of 0
    (the dynamics draw no samples).
    """
    map_, noise, e0, horizon, rng, ds, cap = args
    metric = map_.metric
    dim = metric.dim
    rows = trial_hi - trial_lo
    blocks = -(-rows // _BLOCK)
    gens = [rng.derive(i).generator() for i in range(trial_lo, trial_hi)]
    e_state = np.tile(e0, (rows, 1))
    diverged = np.full(rows, np.inf)
    n = horizon + 1
    sum_sq = np.zeros((blocks, n))
    identity = metric.is_identity
    sum_v = sum_sq if identity else np.zeros((blocks, n))
    exceed = np.zeros((len(ds), n))
    hist_sq = np.empty((_WINDOW, rows))
    hist_v = hist_sq if identity else np.empty((_WINDOW, rows))
    frozen = False  # whether any trial has frozen, and so whether to gather the live ones

    zero_noise = noise.kind == ZERO
    c_transform = None if identity else metric.inverse_factor
    per_chunk = _CHUNK * _BLOCK // rows
    limit = min(cap, np.finfo(float).max)  # so that the one check also finds a non-finite V

    def record(step):
        # the state's V (and ||e||^2, under a general P) into the history; the V
        # that is summed is the V that freezes and the V the next step's map reads
        k = step % _WINDOW
        hist_v[k] = metric.values(e_state)
        if not identity:
            np.einsum("ij,ij->i", e_state, e_state, out=hist_sq[k])
        return hist_v[k]

    def flush(last):
        # one statistics pass over the window that ends at step ``last``
        lo = last - last % _WINDOW
        sq = hist_sq[: last + 1 - lo]
        _block_sums(sq, sum_sq[:, lo : last + 1])
        if not identity:
            _block_sums(hist_v[: last + 1 - lo], sum_v[:, lo : last + 1])
        norms = np.sqrt(sq)
        div = diverged <= np.arange(lo, last + 1)[:, None]
        for j, d in enumerate(ds):
            exceed[j, lo : last + 1] = np.count_nonzero((norms > d) | div, axis=1)

    for step in range(n):
        act = np.flatnonzero(np.isinf(diverged)) if frozen else slice(None)
        moved = not frozen or act.size > 0
        if step and moved:
            k = (step - 1) % per_chunk
            if k == 0 and not zero_noise:
                span = min(per_chunk, horizon - step + 1)
                bufs = None  # release the last chunk before drawing the next
                bufs = np.empty((rows, span, dim))
                for i, g in enumerate(gens):
                    g.standard_normal(out=bufs[i])
                if c_transform is not None:
                    bufs = np.einsum("rsk,jk->rsj", bufs, c_transform)
                scales = np.sqrt(noise.sigma_sq_array(step - 1, step - 1 + span) / dim)
                bufs *= scales[:, None]
            updated = map_.apply_batch(e_state[act], hist_v[(step - 1) % _WINDOW][act])
            if not zero_noise and scales[k] > 0.0:
                updated += bufs[act, k]
            if frozen:
                e_state[act] = updated
            else:
                e_state = updated
        v = record(step)
        if moved and not v[act].max() <= limit:
            if not np.isfinite(e_state).all():
                raise SimulationOverflowError(step)
            over = v > cap
            if over.any():
                diverged[over & np.isinf(diverged)] = step
                frozen = True
        if step % _WINDOW == _WINDOW - 1 or step == horizon:
            flush(step)
    return sum_sq, sum_v, exceed, 0, diverged


def run_dynamics_trials(
    map_: ContractionMap,
    noise: NoiseSchedule,
    e0,
    horizon: int,
    trials: int,
    rng: RngState,
    deltas=DEFAULT_DELTAS,
    divergence_cap: float = DIVERGENCE_CAP,
) -> TrialStats:
    """Monte-Carlo over independent trials of e_{t+1} = A(e_t) e_t + xi_t.

    The noise energy sigma_t^2 is measured in the map's metric P. Trial i
    draws from ``rng.derive(i)``, so any partition of trials over workers
    reproduces the serial result bit for bit: a job advances up to
    ``_LOCKSTEP`` 256-trial blocks in lockstep, and ``_TrialFold`` adds the
    per-block sums in block order. A trial freezes, and is marked diverged,
    once V exceeds ``divergence_cap`` (nonnegative, inf included). A lost
    state raises SimulationOverflowError at the step its lowest failing block
    lost it. A run whose statistics and the block sums of the jobs that run
    at once would not fit in memory is refused before any draw.
    """
    horizon, ds = _check_run(rng, trials, horizon, deltas, divergence_cap, _DYNAMICS)
    e0 = as_vector(e0, dim=map_.metric.dim, name="e0")

    args = (map_, noise, e0, horizon, rng, ds, divergence_cap)
    return _run_trials(_DYNAMICS, args, trials, _TrialFold(horizon + 1, ds))


# 256-trial blocks, at most 8 per job, each holding its sums of ||e||^2 and of V
_DYNAMICS = (_dynamics_pass, _BLOCK, _LOCKSTEP, 2)


# ---------------------------------------------------------------------------
# Model-fitting workflows
# ---------------------------------------------------------------------------


def _workflow_pass(args, lo, hi):
    """Run workflow trials lo to hi - 1 generation by generation.

    Each generation takes the live trials in chunks of at most
    ``STACK_LIMIT`` stacked values, one chunk whenever the generation's
    draws fit in a window. The chunk's draws come from the window; when
    filtered, one ``FilterHandle.weights`` call weighs the chunk; then one
    fit advances all rows. The pass raises at the first refusal it meets: a
    draw, weighing or fit refusal prefixed with the generation, or the
    SimulationOverflowError of a non-finite fit. A row's draws, weights and
    fit have the bits of its own call, so a one-trial replay meets the same
    refusal. A trial freezes once V exceeds the cap. Returns the
    ``_TrialFold`` job: the V paths as both sums (the metric is the
    identity) and n_t, the schedule size while any trial samples, else 0.

    Draws come in windows of generations. A window opens for the live
    trials and spans the most generations whose draws for them fit in
    ``_DRAW_WINDOW`` values, one at least; a Poisson window spans one,
    because its draws depend on the rate. Each trial fills its row of the
    window with one call of its own stream (``expfam._base_rows``). Each
    generation copies its slice of the window into a contiguous chunk, as
    numpy runs a buffered, slower loop on a strided slice, and maps it to
    draws at the trials' current theta (``expfam._transform_rows``). A
    generation whose draws alone exceed the bound is its own window, drawn
    chunk by chunk. A stream yields the same values in one call as in one
    call per generation, and a trial frozen inside a window leaves its
    stream unread after it, so the windows move no bit.
    """
    model, theta_star, sizes, filter_handle, rng, ds, cap = args
    family, dim = model.family, model.dim
    b, n = hi - lo, sizes.shape[0]
    gens = [rng.derive(i).generator() for i in range(lo, hi)]
    theta = np.tile(theta_star.theta, (b, 1))
    v_now = np.zeros(b)
    vs = np.empty((b, n))
    diverged = np.full(b, np.inf)
    span = 1 if expfam._DRAWS[family][1] is None else n  # most generations in a window
    start = stop = 0
    window = drawn = None

    for t in range(n):
        size = int(sizes[t])
        filtered = filter_handle is not None and t > 0
        live = np.flatnonzero(np.isinf(diverged))
        if t == stop:  # open the next window
            values = live.size * dim
            reach = np.cumsum(sizes[t : t + max(1, min(span, _DRAW_WINDOW // max(values, 1)))])
            start, stop = t, t + max(1, int(np.count_nonzero(reach * values <= _DRAW_WINDOW)))
            total, offset = int(reach[stop - t - 1]), 0
        rows = max(1, STACK_LIMIT // (size * dim))  # one chunk whenever the window fits
        for k in range(0, live.size, rows):
            part = live[k : k + rows]
            try:
                if t == start:
                    window = points = None  # the last window is released before the next is drawn
                    window = np.empty((part.size, total, dim))
                    expfam._base_rows(family, theta[part], [gens[i] for i in part], window)
                    drawn = part
                points = window[:, offset : offset + size]
                if part.size < drawn.size:  # trials frozen since the window was drawn
                    points = points[np.searchsorted(drawn, part)]
                points = np.ascontiguousarray(points)
                expfam._transform_rows(family, theta[part], points)
                weights = filter_handle.weights(points) if filtered else None
                fit, code = expfam._fit_rows(family, points, weights)
                if code.any():
                    r = np.flatnonzero(code)[0]
                    row_weights = None if weights is None else weights[r]
                    raise expfam._fit_error(family, code[r], row_weights)
            except CollapseGuardError as exc:
                raise type(exc)(f"generation {t}: {exc}") from exc
            err = fit - theta_star.theta
            if not np.isfinite(err).all():
                raise SimulationOverflowError(t)
            theta[part] = fit
            v_now[part] = np.einsum("ij,ij->i", err, err)
            diverged[part[v_now[part] > cap]] = t
        vs[:, t] = v_now
        offset += size
    window = points = None
    ns = np.where(np.arange(n) <= diverged[:, None], sizes, 0).max(axis=0)
    return vs, vs, _exceed_counts(vs, diverged, ds), ns, diverged


# single trials, at most 256 per job, each holding its V path, its norms (or n_t) and masks
_WORKFLOW = (_workflow_pass, 1, _BLOCK, 3)


def run_workflow_trials(
    model: expfam.ExpFamilyModel,
    theta_star: expfam.Parameter,
    schedule: SampleSchedule,
    horizon: int,
    trials: int,
    rng: RngState,
    deltas=DEFAULT_DELTAS,
    filter_handle: FilterHandle | None = None,
    candidates_per_round: int | None = None,
    divergence_cap: float = DIVERGENCE_CAP,
) -> TrialStats:
    """Monte-Carlo over workflow trials; trial i runs on ``rng.derive(i)``.

    Generation 0 fits schedule.size(0) real draws from theta_star; each
    later generation samples from its predecessor's fit and re-estimates,
    tracking e_t = theta_hat_t - theta_star with the identity-metric V.
    A trial freezes once V exceeds ``divergence_cap``. ``_TrialFold`` adds
    the statistics one trial at a time into TrialStats. A run whose
    statistics and the V paths of the jobs that run at once would not fit in
    memory is refused before any draw, as is, by name, a largest generation
    whose draws would not fit. A run with a refused trial raises the error
    of the lowest-index failing trial, found by replaying its refused job
    one trial at a time.

    With ``filter_handle`` every generation past the first reweights its
    candidates before re-estimating.
    ``candidates_per_round`` fixes the candidate count of those generations;
    None follows the sample schedule. A filter emitting all-ones weights
    reproduces the unfiltered workflow exactly on the same streams and counts.
    """
    horizon, ds = _check_run(rng, trials, horizon, deltas, divergence_cap, _WORKFLOW)
    if filter_handle is not None and not isinstance(filter_handle, FilterHandle):
        raise InputValidationError("filter_handle must be a FilterHandle")
    if candidates_per_round is not None:
        check_int(candidates_per_round, "candidates_per_round", 1)
    if theta_star.model != model:
        raise InputValidationError("theta_star belongs to a different model")

    n = horizon + 1
    fixed = candidates_per_round if filter_handle is not None else None
    if fixed is not None and fixed > np.iinfo(np.int64).max:
        raise InputValidationError("candidates_per_round does not fit in a 64-bit integer")
    sizes = np.array(
        [schedule.size(t) if t == 0 or fixed is None else fixed for t in range(n)],
        dtype=np.int64,
    )
    t_max = int(sizes.argmax())
    check_fits(f"generation {t_max}'s draws", (int(sizes[t_max]), model.dim),
               "use a smaller schedule or a shorter horizon")
    args = (model, theta_star, sizes, filter_handle, rng, ds, divergence_cap)
    return _run_trials(_WORKFLOW, args, trials, _TrialFold(n, ds))
