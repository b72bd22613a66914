"""Trajectory sampling, transition estimation, and prediction risks.

The risk of a predictor against a ground-truth chain is the trajectory
average of a per-step divergence between the true next-state row and the
predictor's answer on the growing context.  Curves over context length,
oracle-to-oracle divergences, and log-log power-law fits live here too.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chains import TransitionMatrix
from .oracles import ChainOracle, fit_ngram
from .spectral import _as_dense, _cell

MAX_EXACT_RISK_STATES = 64


@dataclass
class Trajectory:
    """A finite state path plus how it came to be."""

    states: np.ndarray
    seed: object = None
    source: object = "external"

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64)
        if self.states.ndim != 1 or self.states.size == 0:
            raise ValueError("trajectory must be a nonempty state vector")
        if self.states.min() < 0:
            raise ValueError("negative state id in trajectory")

    def __len__(self):
        return int(self.states.size)


def sample_trajectory(Q, start, n, seed=0) -> Trajectory:
    """Sample an n-state path; ``start`` is a state id or a distribution."""
    rows = _as_dense(Q)
    d = rows.shape[0]
    if n < 1:
        raise ValueError(f"need at least one state, got n={n}")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(rows, axis=1)
    out = np.empty(n, dtype=np.int64)
    if np.ndim(start) == 0:
        x = int(start)
        if not 0 <= x < d:
            raise ValueError(f"start state {x} outside [0, {d})")
    else:
        start_cum = np.cumsum(np.asarray(start, dtype=float))
        x = min(int(np.searchsorted(start_cum, rng.random(), side="right")), d - 1)
    out[0] = x
    draws = rng.random(n - 1)
    for k in range(n - 1):
        x = min(int(np.searchsorted(cum[x], draws[k], side="right")), d - 1)
        out[k + 1] = x
    return Trajectory(states=out, seed=seed)


def frequentist_estimate(traj, d=None) -> TransitionMatrix:
    """Row-normalized transition counts; unvisited rows become uniform.

    The indices of the uniform-filled rows are recorded under
    ``meta["uniform_rows"]``.
    """
    states = traj.states if isinstance(traj, Trajectory) else np.asarray(traj, dtype=np.int64)
    if states.size < 2:
        raise ValueError("need at least one transition to estimate")
    if d is None:
        d = int(states.max()) + 1
    if states.max() >= d:
        raise ValueError(f"state {states.max()} outside [0, {d})")
    counts = np.zeros((d, d))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    totals = counts.sum(axis=1)
    unvisited = np.flatnonzero(totals == 0)
    totals[unvisited] = 1.0
    rows = counts / totals[:, None]
    rows[unvisited] = 1.0 / d
    return TransitionMatrix.from_dense(
        rows, meta={"estimator": "frequentist",
                    "uniform_rows": [int(i) for i in unvisited]})


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
        self.alpha = float(alpha)
        self.n_symbols = n_symbols
        self.name = f"ngram-{order}"

    def fit(self, traj):
        return fit_ngram(traj, self.order, self.alpha, self.n_symbols)


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


def _per_step_divergences(Q_true, predictor, traj, div):
    rows = _as_dense(Q_true)
    states = traj.states if isinstance(traj, Trajectory) else np.asarray(traj, dtype=np.int64)
    cap = getattr(predictor, "context_cap", None)
    if cap == 1:
        # context collapses to the current state: tabulate one answer per state
        table = np.array([div(rows[i], predictor.query((i,)))
                          for i in range(rows.shape[0])])
        return table[states]
    n = states.size
    out = np.empty(n)
    for k in range(n):
        lo = 0 if cap is None else max(0, k + 1 - cap)
        ctx = tuple(states[lo:k + 1])
        out[k] = div(rows[states[k]], predictor.query(ctx))
    return out


def tv_risk(Q_true, predictor, traj) -> float:
    """Mean over the trajectory of TV(true next-state row, prediction)."""
    return float(np.mean(_per_step_divergences(Q_true, predictor, traj, tv_distance)))


def kl_risk(Q_true, predictor, traj) -> float:
    """Mean KL risk; math.inf as soon as any step is infinite."""
    vals = _per_step_divergences(Q_true, predictor, traj, kl_divergence)
    return float(np.mean(vals))


def expected_tv_risk(Q_true, predictor, n_steps, start=None) -> float:
    """Exact expectation of the TV risk via state marginals.

    Only for predictors that read a single trailing state, and only up to
    64 states; the marginal at each step is propagated explicitly instead
    of sampling trajectories.
    """
    rows = _as_dense(Q_true)
    d = rows.shape[0]
    if d > MAX_EXACT_RISK_STATES:
        raise ValueError(f"exact risk limited to {MAX_EXACT_RISK_STATES} states, got {d}")
    if getattr(predictor, "context_cap", None) != 1:
        raise ValueError("exact risk needs a predictor that reads one state")
    if n_steps < 1:
        raise ValueError("need at least one step")
    tv_table = np.array([tv_distance(rows[i], predictor.query((i,)))
                         for i in range(d)])
    dist = np.full(d, 1.0 / d) if start is None else np.asarray(start, dtype=float)
    total = 0.0
    for _ in range(n_steps):
        total += float(dist @ tv_table)
        dist = dist @ rows
    return total / n_steps


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

    def csv_rows(self) -> str:
        lines = ["N,mean,lo,hi,reps,metric,estimator"]
        for p in self.points:
            lines.append(f"{p.n_icl},{_cell(p.mean)},{_cell(p.lo)},"
                         f"{_cell(p.hi)},{p.reps},{self.metric},{self.estimator}")
        return "\n".join(lines) + "\n"


_METRICS = {"tv": tv_risk, "kl": kl_risk}


def _one_replicate(args):
    rows, predictor, n, seed_seq, metric, start = args
    traj = sample_trajectory(rows, start, n, seed=seed_seq)
    oracle = predictor.fit(traj) if hasattr(predictor, "fit") else predictor
    return _METRICS[metric](rows, oracle, traj)


def icl_risk_curve(Q_true, predictor, n_list, reps, seed=0, metric="tv",
                   start=None, jobs=1) -> RiskCurve:
    """Risk vs context length with a 95% normal-approximation interval.

    Fitting estimators (anything with ``.fit``) are refit on each sampled
    trajectory; fixed oracles are queried as-is.  Replicate seeds are
    derived as (seed, point-index, replicate), so curves are reproducible
    and independent of ``jobs``.
    """
    n_list = [int(n) for n in n_list]
    if any(a >= b for a, b in zip(n_list, n_list[1:])) or not n_list:
        raise ValueError("context lengths must be strictly increasing")
    if reps < 2:
        raise ValueError("need at least two replicates for an interval")
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}, got {metric!r}")
    rows = _as_dense(Q_true)
    if start is None:
        start = np.full(rows.shape[0], 1.0 / rows.shape[0])
    tasks = [(rows, predictor, n, [seed, i, rep], metric, start)
             for i, n in enumerate(n_list) for rep in range(reps)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            risks = list(pool.map(_one_replicate, tasks))
    else:
        risks = [_one_replicate(t) for t in tasks]
    points = []
    for i, n in enumerate(n_list):
        vals = np.array(risks[i * reps:(i + 1) * reps])
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


def oracle_divergence(o1, o2, trajs) -> float:
    """Trajectory-averaged mean TV between two oracles' answers.

    Symmetric and nonnegative by construction; a metric up to the Monte
    Carlo averaging over the supplied trajectories.
    """
    trajs = list(trajs)
    if not trajs:
        raise ValueError("need at least one trajectory")
    caps = [getattr(o, "context_cap", None) for o in (o1, o2)]
    cap = None if None in caps else max(caps)
    totals = []
    for traj in trajs:
        states = traj.states if isinstance(traj, Trajectory) else np.asarray(traj, dtype=np.int64)
        acc = 0.0
        for k in range(states.size):
            lo = 0 if cap is None else max(0, k + 1 - cap)
            ctx = tuple(states[lo:k + 1])
            acc += tv_distance(o1.query(ctx), o2.query(ctx))
        totals.append(acc / states.size)
    return float(np.mean(totals))


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

    def to_json(self) -> str:
        return json.dumps({"slope": self.slope, "intercept": self.intercept,
                           "stderr": self.slope_stderr, "r2": self.r2,
                           "n_points": self.n_points})


def fit_power_law(curve) -> PowerLawFit:
    """Least squares on (log N, log mean risk); infinite points are skipped.

    A flat curve fits slope 0 with r2 = 1 by convention (zero residual
    around zero variance).
    """
    if isinstance(curve, RiskCurve):
        pts = [(p.n_icl, p.mean) for p in curve.points if p.finite]
    else:
        pts = [(n, m) for n, m in curve if math.isfinite(m)]
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
