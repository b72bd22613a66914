"""Trajectory sampling, transition estimation, and prediction risks.

The risk of a predictor against a ground-truth chain is the trajectory
average of a per-step divergence between the true next-state row and the
predictor's answer on the growing context.  Curves over context length
and log-log power-law fits live here too.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .chains import TransitionMatrix
from .oracles import SUM_TOL, ChainOracle, fit_ngram, smoothing, window_groups
from .states import state_path

SAMPLE_BLOCK = 1 << 16
# paths of d^3 + RANK_MIN_STEPS states or more, over at most this many,
# step by rank lookup in a table of ~d^3 list entries (0.9 MB at 48)
RANK_ROWS_MAX_STATES = 48
RANK_MIN_STEPS = 256
# else, up to this many states the sampler bisects rows held as Python
# lists, at 32 bytes an entry; above it, in place in numpy
LIST_ROWS_MAX_STATES = 64


@dataclass
class Trajectory:
    """A finite, nonempty path of state ids."""

    states: np.ndarray

    def __post_init__(self):
        self.states = state_path(self.states)

    def __len__(self):
        return int(self.states.size)


def start_distribution(start, d):
    """A path's start over ``d`` states: None as the uniform vector, an
    integer state in [0, d) as itself, or d nonnegative probabilities
    summing to 1 within SUM_TOL as a float vector."""
    if start is None:
        return np.full(d, 1.0 / d)
    if np.ndim(start) == 0:
        x = operator.index(start)
        if not 0 <= x < d:
            raise ValueError(f"state {x} outside [0, {d})")
        return x
    p = np.asarray(start, dtype=float)
    # written as "not >= 0" so that NaN fails too
    if p.shape != (d,) or not (np.all(p >= 0) and abs(p.sum() - 1.0) <= SUM_TOL):
        raise ValueError(f"need {d} probabilities summing to 1")
    return p


def sample_trajectory(Q, start, n, seed=0) -> Trajectory:
    """Sample an n-state path from a start state, distribution or None.

    Step k moves to the first state whose cumulative row entry exceeds
    the k-th uniform draw (the last state if none does).  On a long path
    a block of draws is ranked among all rows' breakpoints by one
    ``searchsorted``, and a step looks up its row's answer to the rank
    (Chen and Asau's indexed search); otherwise a step bisects its row,
    as a Python list made on the first visit, or as the numpy row.
    """
    rows = TransitionMatrix.of(Q).dense()
    d = rows.shape[0]
    if n < 1:
        raise ValueError(f"need at least one state, got n={n}")
    x = start_distribution(start, d)
    rng = np.random.default_rng(seed)
    if not isinstance(x, int):
        x = min(int(np.searchsorted(np.cumsum(x), rng.random(), side="right")), d - 1)
    cum = np.cumsum(rows, axis=1)
    # a NaN fails the sign test, an infinity the sum test
    if not (rows.min() >= 0
            and np.abs(cum[:, -1] - 1.0).max() <= SUM_TOL):
        raise ValueError("every row must be a distribution: finite, "
                         f"nonnegative and summing to 1 within {SUM_TOL}")
    table = [None] * d if d <= LIST_ROWS_MAX_STATES else cum
    last = d - 1
    ranked = d <= RANK_ROWS_MAX_STATES and n >= d ** 3 + RANK_MIN_STEPS
    if ranked:
        # a draw of rank r lies in [edges[r - 1], edges[r]): in row s it
        # passes exactly the breakpoints up to edges[r - 1]
        edges = np.unique(cum)
        table = [[0, *np.minimum(np.searchsorted(row, edges, side="right"),
                                 last).tolist()] for row in cum]
    out = np.empty(n, dtype=np.int64)
    out[0] = x
    draws = rng.random(n - 1)
    # draws become Python objects a block at a time, to hold O(n) bytes
    for a in range(0, n - 1, SAMPLE_BLOCK):
        block = draws[a:a + SAMPLE_BLOCK]
        path = []
        step = path.append
        if ranked:
            for r in np.searchsorted(edges, block, side="right").tolist():
                x = table[x][r]
                step(x)
        else:
            for u in block.tolist():
                row = table[x]
                if row is None:
                    row = table[x] = cum[x].tolist()
                x = bisect_right(row, u)
                if x > last:
                    x = last
                step(x)
        out[a + 1:a + 1 + len(path)] = path
    return Trajectory(states=out)


def sample_bytes(d, n) -> int:
    """At most the bytes `sample_trajectory` holds for an n-state path over
    d states: 16 a step for the path and its draws; 80 apiece for a block
    of up to SAMPLE_BLOCK draws or ranks as Python objects with their
    states; 8 d^2 + 64 d for the cumulative rows and a vector a row; up
    to LIST_ROWS_MAX_STATES states, 32 d^2 for the list rows (or the rank
    table's breakpoints and temporaries); and up to RANK_ROWS_MAX_STATES
    states, 8 d^3 for the rank table."""
    return (16 * n + 80 * min(n, SAMPLE_BLOCK) + 8 * d * d + 64 * d
            + 32 * d * d * (d <= LIST_ROWS_MAX_STATES)
            + 8 * d ** 3 * (d <= RANK_ROWS_MAX_STATES))


def replicate_bytes(d, n) -> int:
    """At most the bytes one risk-curve replicate holds on an n-state
    path over d states: the sampler's; the risk pass, at most ten int64
    or float64 arrays of path length; and a frequentist fit's int64
    counts, its rows and numpy's casting buffers, 32 bytes an entry."""
    return sample_bytes(d, n) + 80 * n + 32 * d * d


def frequentist_estimate(traj, d=None) -> TransitionMatrix:
    """Row-normalized transition counts; unvisited rows become uniform.

    The indices of the uniform-filled rows are recorded under
    ``meta["uniform_rows"]``.
    """
    states = state_path(traj)
    if states.size < 2:
        raise ValueError("need at least one transition to estimate")
    if d is None:
        d = int(states.max()) + 1
    if states.max() >= d:
        raise ValueError(f"state {states.max()} outside [0, {d})")
    counts = np.bincount(states[:-1] * d + states[1:],
                         minlength=d * d).reshape(d, d)
    totals = counts.sum(axis=1)
    unvisited = np.flatnonzero(totals == 0)
    rows = counts / np.maximum(totals, 1)[:, None]
    rows[unvisited] = 1.0 / d
    return TransitionMatrix(rows, meta={
        "estimator": "frequentist", "uniform_rows": [int(i) for i in unvisited]})


class FrequentistEstimator:
    """Counting estimator over a fixed state count; refit per trajectory."""

    def __init__(self, d):
        self.d = int(d)
        self.name = "frequentist"

    def fit(self, traj) -> ChainOracle:
        return ChainOracle(frequentist_estimate(traj, self.d), name=self.name)


class NgramEstimator:
    """Smoothed n-gram estimator; refit per trajectory."""

    def __init__(self, order, alpha=1.0, n_symbols=None):
        self.order = int(order)
        self.alpha = smoothing(alpha)
        self.n_symbols = n_symbols
        self.name = f"ngram-{order}"

    def fit(self, traj):
        return fit_ngram(traj, self.order, self.alpha, self.n_symbols)

    def fit_bytes(self, n) -> int:
        """At most the bytes of a fit's count rows on an n-state path: a
        float64 row of ``n_symbols`` (which must be set) per distinct
        window, and at most min(n - 1, d^L) windows of each length L up to
        the order."""
        d = self.n_symbols
        widths = min(self.order, n - 1)
        windows = 0
        for length in range(1, widths + 1):
            if d ** length >= n - 1:  # so is every longer width's bound
                windows += (widths - length + 1) * (n - 1)
                break
            windows += d ** length
        return 8 * d * windows


# ---------------------------------------------------------------------------
# divergences and risks
# ---------------------------------------------------------------------------

def tv_distance(p, q) -> float:
    """Half the L1 distance; equals the sup over events."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(0.5 * np.abs(p - q).sum())


def kl_divergence(p, q) -> float:
    """KL(p || q); math.inf when q vanishes on the support of p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] == 0.0):
        return math.inf
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


def _context_scores(states, cap, score) -> np.ndarray:
    """The score of each step's context: the path up to that step, cut
    to its last ``cap`` states unless cap is None.  Each distinct context
    is scored once (by state id for cap 1 and ids below n, else in order
    of first appearance) and the scores gathered back to the steps:
    ``score(contexts, lasts)`` yields them in turn, where ``contexts``
    yields the contexts one at a time and ``lasts`` holds their last
    states.  Only the path's contexts are scored, so a record of queries
    such as ``NgramOracle.unseen_queried`` names no state the path
    misses."""
    n = states.size
    if cap is not None and cap < 1:
        raise ValueError(f"context cap must be at least 1, got {cap}")
    if n == 0:
        return np.empty(0)
    if cap == 1 and states.max() < n:
        lasts = np.flatnonzero(np.bincount(states))
        ends, groups, context = lasts.tolist(), None, lambda s: (s,)
    else:
        if cap is None:  # every prefix is distinct
            cap, ends, groups = n, range(n), slice(None)
        else:
            # the widest grouping is the cap's; a one-slot deque keeps it
            firsts, groups = deque(window_groups(states, min(cap, n)),
                                   maxlen=1)[0]
            ends = firsts.tolist()
        lasts = states[ends]
        context = lambda k: tuple(states[max(0, k + 1 - cap):k + 1].tolist())
    scores = np.fromiter(score(map(context, ends), lasts), float, len(ends))
    if groups is None:  # gathered back through a table by state id
        table = np.zeros(n)
        table[lasts] = scores
        return table[states]
    return scores[groups]


def _per_step_divergences(Q_true, predictor, traj, div):
    rows = TransitionMatrix.of(Q_true).dense()
    return _context_scores(
        state_path(traj), getattr(predictor, "context_cap", None),
        lambda contexts, lasts: map(div, map(rows.__getitem__, lasts),
                                    predictor.query_many(contexts)))


def tv_risk(Q_true, predictor, traj) -> float:
    """Mean over the trajectory of TV(true next-state row, prediction)."""
    return float(np.mean(_per_step_divergences(Q_true, predictor, traj, tv_distance)))


def kl_risk(Q_true, predictor, traj) -> float:
    """Mean KL risk; math.inf as soon as any step is infinite."""
    vals = _per_step_divergences(Q_true, predictor, traj, kl_divergence)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# risk curves over context length
# ---------------------------------------------------------------------------

@dataclass
class RiskPoint:
    n_icl: int
    mean: float
    lo: float
    hi: float
    reps: int
    finite: bool = True


@dataclass
class RiskCurve:
    points: list
    metric: str
    estimator: str


_METRICS = {"tv": tv_risk, "kl": kl_risk}


def _one_replicate(args):
    rows, predictor, n, seed_seq, metric, start = args
    traj = sample_trajectory(rows, start, n, seed=seed_seq)
    oracle = predictor.fit(traj) if hasattr(predictor, "fit") else predictor
    return _METRICS[metric](rows, oracle, traj)


def _replicates(args):
    """The risks of the replicates numbered in ``stripe``: number k is
    replicate k % reps at context length n_list[k // reps]."""
    rows, predictor, n_list, reps, seed, metric, start, stripe = args
    return np.fromiter((_one_replicate(
        (rows, predictor, n_list[k // reps], [seed, k // reps, k % reps],
         metric, start)) for k in stripe), float, len(stripe))


def map_jobs(fn, args, count, jobs) -> list:
    """fn((*args, stripe)) for the stripes range(j, count, jobs) of items
    0..count-1, j < min(jobs, count), over that many worker processes if
    it is above 1 (fork starts them all at the first task)."""
    jobs = min(jobs, count)
    tasks = [(*args, range(j, count, jobs)) for j in range(jobs)]
    if jobs > 1:
        # imported here: most runs start no pool, and the import is slow
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def curve_bytes(n_points, reps) -> int:
    """Bytes a risk curve holds for its risks besides the replicate at
    work: 8 a replicate in the curve, 8 in the stripe that returned it,
    and 16 a replicate of one length for the temporaries of its spread."""
    return 16 * (n_points + 1) * reps


def context_length(n) -> int:
    """``n`` as a context length: a whole number of at least two states,
    so that every sampled trajectory holds a transition to fit."""
    if not (math.isfinite(n) and n == int(n) and n >= 2):
        raise ValueError(f"context length must be an integer >= 2, got {n!r}")
    return int(n)


def curve_settings(n_list, reps, metric="tv") -> list:
    """A risk curve's context lengths as ints, once its settings are valid."""
    n_list = [context_length(n) for n in n_list]
    if any(a >= b for a, b in zip(n_list, n_list[1:])) or not n_list:
        raise ValueError("context lengths must be strictly increasing")
    if reps < 2:
        raise ValueError("need at least two replicates for an interval")
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}, got {metric!r}")
    return n_list


def icl_risk_curve(Q_true, predictor, n_list, reps, seed=0, metric="tv",
                   start=None, jobs=1) -> RiskCurve:
    """Risk vs context length with a 95% normal-approximation interval.

    Fitting estimators (anything with ``.fit``) are refit on each sampled
    trajectory; fixed oracles are queried as-is.  Replicate seeds are
    derived as (seed, point-index, replicate), so curves are reproducible
    and independent of ``jobs``.  The replicates are dealt to ``jobs``
    stripes in turn, so that each worker gets as many long paths as short
    ones and no per-replicate task is ever built.
    """
    n_list = curve_settings(n_list, reps, metric)
    rows = TransitionMatrix.of(Q_true).dense()
    count = len(n_list) * reps
    parts = map_jobs(_replicates, (rows, predictor, n_list, reps, seed,
                                   metric, start), count, jobs)
    risks = np.empty(count)
    for j, part in enumerate(parts):
        risks[j::len(parts)] = part
    points = []
    for i, n in enumerate(n_list):
        vals = risks[i * reps:(i + 1) * reps]
        if np.all(np.isfinite(vals)):
            mean = float(vals.mean())
            sem = float(vals.std(ddof=1) / math.sqrt(reps))
            points.append(RiskPoint(n, mean, mean - 1.96 * sem,
                                    mean + 1.96 * sem, reps))
        else:
            points.append(RiskPoint(n, math.inf, math.inf, math.inf,
                                    reps, finite=False))
    name = getattr(predictor, "name", type(predictor).__name__)
    return RiskCurve(points=points, metric=metric, estimator=name)


# ---------------------------------------------------------------------------
# power-law fits
# ---------------------------------------------------------------------------

@dataclass
class PowerLawFit:
    slope: float
    intercept: float
    slope_stderr: float
    r2: float
    n_points: int


def fit_power_law(curve: RiskCurve) -> PowerLawFit:
    """Least squares on (log N, log mean risk); infinite points are skipped.

    A flat curve fits slope 0 with r2 = 1 by convention (zero residual
    around zero variance).
    """
    pts = [(p.n_icl, p.mean) for p in curve.points if p.finite]
    if any(m <= 0 for _, m in pts):
        raise ValueError("power-law fit needs positive risks")
    if len(pts) < 3:
        raise ValueError(f"need at least 3 finite points, got {len(pts)}")
    x = np.log([n for n, _ in pts])
    y = np.log([m for _, m in pts])
    n = len(pts)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ssr = float(np.sum(resid * resid))
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    stderr = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    return PowerLawFit(slope=slope, intercept=intercept, slope_stderr=stderr,
                       r2=r2, n_points=n)
