"""Long-run behavior of finite chains.

Stationary distributions by power iteration, communicating-class and period
structure, the geometric convergence envelope driven by the minimum entry of
a K-step power, and total-variation mixing times down to the minimized
constant used in the in-context estimation bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .chains import TransitionMatrix, build_qf
from .states import enumerate_states

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6
DEFAULT_T_CAP = 10_000
# thresholds for the minimized mixing constant: {0, 0.05, ..., 0.95}
DEFAULT_EPS_GRID = tuple(k * 0.05 for k in range(20))


def _as_csr(Q) -> sp.csr_matrix:
    if isinstance(Q, TransitionMatrix):
        return Q.sparse()
    if sp.issparse(Q):
        return Q.tocsr()
    return sp.csr_matrix(np.asarray(Q, dtype=float))


def _as_dense(Q) -> np.ndarray:
    if isinstance(Q, TransitionMatrix):
        return Q.dense()
    if sp.issparse(Q):
        return Q.toarray()
    return np.asarray(Q, dtype=float)


@dataclass
class StationaryResult:
    pi: np.ndarray
    iterations: int
    residual: float          # L-inf of (pi Q - pi), recomputed at the end
    converged: bool
    periodic: bool


@dataclass
class ConvergenceProfile:
    """Empirical worst-entry deviation of Q^n from the stationary rank-one
    limit, next to the bound (1 - 2 eps)^(floor(n/K) - 1)."""

    epsilon: float
    window: int              # the K in the exponent
    bound_curve: list        # (n, bound)
    empirical_curve: list    # (n, max_ij |Q^n_ij - pi_j|)
    vacuous: bool            # eps == 0: the bound carries no information

    def csv_rows(self) -> str:
        lines = ["n,empirical,bound"]
        for (n, emp), (_, b) in zip(self.empirical_curve, self.bound_curve):
            lines.append(f"{n},{_cell(emp)},{_cell(b)}")
        return "\n".join(lines) + "\n"


@dataclass
class MixingRow:
    epsilon: float
    t_mix: float             # integer step count, or math.inf
    factor: float            # ((2 - eps)/(1 - eps))^2
    product: float


@dataclass
class MixingReport:
    """Class structure of a chain plus, when computed, its mixing schedule."""

    classes: list            # per-state "recurrent" / "transient"
    recurrent_classes: list  # state indices, grouped, ordered by first member
    periods: list            # one per recurrent class
    period: int              # lcm over recurrent classes
    rows: list = field(default_factory=list)
    t_min: float | None = None
    argmin_epsilon: float | None = None

    @property
    def is_unichain(self) -> bool:
        return len(self.recurrent_classes) == 1

    @property
    def aperiodic(self) -> bool:
        return self.period == 1

    @property
    def transient_states(self) -> list:
        return [i for i, c in enumerate(self.classes) if c == "transient"]

    def csv_rows(self) -> str:
        lines = ["epsilon,t_mix,factor,product"]
        for r in self.rows:
            lines.append(f"{_cell(r.epsilon)},{_cell(r.t_mix)},"
                         f"{_cell(r.factor)},{_cell(r.product)}")
        return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if isinstance(x, float) and math.isinf(x):
        return "-inf" if x < 0 else "+inf"
    return repr(x)


def classify_states(Q) -> MixingReport:
    """Communicating classes, recurrence labels, and periods.

    A strongly connected component is recurrent exactly when no edge leaves
    it; the period of a recurrent class is the gcd of level differences
    along its edges in a breadth-first layering.
    """
    m = _as_csr(Q).copy()
    m.eliminate_zeros()
    n = m.shape[0]
    n_comp, labels = connected_components(m, directed=True, connection="strong")
    coo = m.tocoo()
    escapes = np.zeros(n_comp, dtype=bool)
    cross = labels[coo.row] != labels[coo.col]
    escapes[np.unique(labels[coo.row][cross])] = True
    classes = ["transient" if escapes[labels[i]] else "recurrent"
               for i in range(n)]
    members: dict[int, list] = {}
    for i in range(n):
        if not escapes[labels[i]]:
            members.setdefault(int(labels[i]), []).append(i)
    recurrent_classes = sorted(members.values(), key=lambda c: c[0])
    periods = [_class_period(m, cls) for cls in recurrent_classes]
    period = math.lcm(*periods) if periods else 1
    return MixingReport(classes=classes, recurrent_classes=recurrent_classes,
                        periods=periods, period=period)


def _class_period(m, nodes):
    inside = set(nodes)
    level = {nodes[0]: 0}
    queue = deque([nodes[0]])
    g = 0
    indptr, indices = m.indptr, m.indices
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u]:indptr[u + 1]]:
            v = int(v)
            if v not in inside:
                continue
            if v in level:
                g = math.gcd(g, level[u] + 1 - level[v])
            else:
                level[v] = level[u] + 1
                queue.append(v)
    return g or 1


def stationary(Q, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
               classification=None) -> StationaryResult:
    """Power iteration from the uniform vector.

    Periodic chains make the raw iteration oscillate, so the iterate is
    averaged over a window of one period (determined by classification)
    and the averaged vector is reported with ``periodic=True``.  The
    stopping rule bounds the L1 step difference, which dominates the
    reported L-inf residual because the chain map is an L1 contraction.
    """
    m = _as_csr(Q)
    n = m.shape[0]
    if classification is None:
        classification = classify_states(m)
    window = max(1, classification.period)
    mT = m.T.tocsr()
    pi = np.full(n, 1.0 / n)
    history = deque([pi], maxlen=window + 1)
    iterations = 0
    for t in range(1, max_iter + 1):
        pi = mT @ pi
        total = pi.sum()
        if total > 0:
            pi = pi / total
        history.append(pi)
        iterations = t
        if len(history) == window + 1:
            if np.abs(history[-1] - history[0]).sum() / window <= tol:
                break
    tail = list(history)[-window:]
    out = tail[0] if window == 1 else np.mean(tail, axis=0)
    out = out / out.sum()
    residual = float(np.abs(mT @ out - out).max())
    return StationaryResult(pi=out, iterations=iterations, residual=residual,
                            converged=residual <= tol,
                            periodic=window > 1)


def doeblin_epsilon(Q, window=None) -> float:
    """Minimum entry of the recurrent block of Q^window."""
    if isinstance(Q, TransitionMatrix):
        n_t = Q.n_transient
        if window is None:
            window = Q.meta.get("context_window", 1)
        D = Q.dense()
    else:
        n_t = 0
        window = window or 1
        D = np.asarray(Q, dtype=float)
    block = D[n_t:, n_t:]
    return float(np.linalg.matrix_power(block, window).min())


def envelope(epsilon, window, n):
    """(1 - 2 eps)^(floor(n/window) - 1), elementwise over steps n."""
    n = np.asarray(n)
    return (1.0 - 2.0 * epsilon) ** (n // window - 1)


def _polish_fixpoint(v, D, rounds=5000):
    """Iterate v @ D until the step difference stops shrinking.

    Power iteration stops at ``tol``, which leaves a residual large enough
    to sit above the envelope bound once that bound decays past the float
    floor; the extra rounds push v to the numerical fixed point.  Only
    valid when the recurrent block is aperiodic (epsilon > 0).
    """
    best = math.inf
    for _ in range(rounds):
        nxt = v @ D
        diff = float(np.abs(nxt - v).sum())
        if diff >= best:
            return nxt
        best = diff
        v = nxt
    return v


def convergence_profile(Q, window=None, n_max=1000, pi=None,
                        tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> ConvergenceProfile:
    """Both sides of the geometric convergence envelope for n = window..n_max.

    Accepts either a full sequence-state chain (the deviation then runs over
    every state, with the stationary vector zero on transient entries) or an
    extracted recurrent block.  The rate constant is always read off the
    recurrent block of Q^window, and a zero constant is reported as a
    vacuous bound rather than an error.
    """
    D = _as_dense(Q)
    n_t = Q.n_transient if isinstance(Q, TransitionMatrix) else 0
    if window is None:
        window = Q.meta.get("context_window", 1) if isinstance(Q, TransitionMatrix) else 1
    if n_max < window:
        raise ValueError(f"n_max={n_max} is below the window {window}")
    eps = float(np.linalg.matrix_power(D[n_t:, n_t:], window).min())
    if pi is None:
        pi = stationary(Q, tol, max_iter).pi
    pi = np.asarray(pi, dtype=float)
    if eps > 0.0:
        pi = _polish_fixpoint(pi, D)
    base = 1.0 - 2.0 * eps
    bound_curve, empirical_curve = [], []
    M = np.linalg.matrix_power(D, window)
    for n in range(window, n_max + 1):
        dev = float(np.abs(M - pi[None, :]).max())
        b = float(base ** (n // window - 1))
        empirical_curve.append((n, dev))
        bound_curve.append((n, b))
        if eps > 0:
            assert dev <= b + 1e-12, f"envelope violated at n={n}: {dev} > {b}"
        if n < n_max:
            M = M @ D
    return ConvergenceProfile(epsilon=eps, window=window,
                              bound_curve=bound_curve,
                              empirical_curve=empirical_curve,
                              vacuous=eps <= 0.0)


def _first_crossing_times(D, pi, thresholds, t_cap):
    """First t <= t_cap with max-start TV(Q^t, pi) <= threshold, per threshold.

    The distance is nonincreasing in t, so one incremental power walk
    answers every threshold; unreached thresholds map to math.inf.
    """
    pending = sorted({float(x) for x in thresholds}, reverse=True)
    out = {}
    M = np.eye(D.shape[0])
    for t in range(t_cap + 1):
        d = float(0.5 * np.abs(M - pi[None, :]).sum(axis=1).max())
        while pending and d <= pending[0]:
            out[pending.pop(0)] = t
        if not pending:
            return out
        M = M @ D
    for x in pending:
        out[x] = math.inf
    return out


def mixing_time(Q, pi, eps, t_cap=DEFAULT_T_CAP):
    """Smallest t <= t_cap with sup-start TV(Q^t, pi) <= eps, else math.inf."""
    times = _first_crossing_times(_as_dense(Q), np.asarray(pi, dtype=float),
                                  [eps], t_cap)
    return times[float(eps)]


def _mixing_rows(Q, pi, grid, t_cap):
    if not grid:
        raise ValueError("threshold grid is empty")
    grid = [float(e) for e in grid]
    for e in grid:
        if not 0.0 <= e < 1.0:
            raise ValueError(f"grid thresholds must lie in [0, 1), got {e}")
    times = _first_crossing_times(_as_dense(Q), np.asarray(pi, dtype=float),
                                  [e / 2 for e in grid], t_cap)
    rows = []
    for e in sorted(grid):
        t = times[e / 2]
        factor = ((2.0 - e) / (1.0 - e)) ** 2
        rows.append(MixingRow(epsilon=e, t_mix=t, factor=factor,
                              product=t * factor))
    best, best_eps = math.inf, None
    for r in rows:
        if r.product < best:
            best, best_eps = r.product, r.epsilon
    return rows, best, best_eps


def t_min(Q, pi, grid=None, t_cap=DEFAULT_T_CAP):
    """min over the grid of t_mix(eps/2) * ((2 - eps)/(1 - eps))^2.

    Ties break toward the smallest threshold; math.inf when no threshold
    is ever reached (periodic chains).
    """
    _, best, _ = _mixing_rows(Q, pi, DEFAULT_EPS_GRID if grid is None else list(grid), t_cap)
    return best


def mixing_report(Q, pi=None, grid=None, t_cap=DEFAULT_T_CAP,
                  tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> MixingReport:
    """Full mixing picture: classes, period, the t_mix schedule, and t_min."""
    report = classify_states(Q)
    if pi is None:
        pi = stationary(Q, tol, max_iter, classification=report).pi
    rows, best, best_eps = _mixing_rows(
        Q, pi, DEFAULT_EPS_GRID if grid is None else list(grid), t_cap)
    report.rows = rows
    report.t_min = best
    report.argmin_epsilon = best_eps
    return report


@dataclass
class TemperaturePoint:
    temperature: float
    epsilon: float
    iterations: int


def sweep_temperature(oracle, spec, temperatures, space=None,
                      tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Rebuild the chain of ``oracle`` at each temperature.

    Reports the envelope rate constant and the power-iteration step count;
    the oracle must expose ``with_temperature``.
    """
    if space is None:
        space = enumerate_states(spec)
    points = []
    for tau in temperatures:
        Q = build_qf(oracle.with_temperature(tau), spec, space)
        result = stationary(Q, tol, max_iter)
        eps = doeblin_epsilon(Q, spec.context_window)
        points.append(TemperaturePoint(temperature=float(tau), epsilon=eps,
                                       iterations=result.iterations))
    return points


def temperature_csv(points) -> str:
    lines = ["temperature,epsilon,iterations"]
    for p in points:
        lines.append(f"{_cell(p.temperature)},{_cell(p.epsilon)},{p.iterations}")
    return "\n".join(lines) + "\n"
