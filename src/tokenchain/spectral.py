"""Long-run behavior of finite chains.

Stationary distributions by power iteration, communicating-class and period
structure, the geometric convergence envelope driven by the minimum entry of
a K-step power, and total-variation mixing times down to the minimized
constant used in the in-context estimation bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .chains import POWERS_BUDGET_BYTES, TransitionMatrix, build_qf
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
    violations: int = 0      # steps n where empirical > bound + 1e-12

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

    ``iterations`` is the first step at which the stopping rule holds, or
    ``max_iter``.  The sparse loop looks for it step by step up to
    `_switch_step`; a chain still running then continues with a doubling
    search over dense powers of Q, and ``pi`` is the window-averaged
    iterate at the step it finds.
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
    stopped = False
    for t in range(1, _switch_step(n, m.nnz, window, max_iter) + 1):
        pi = mT @ pi
        total = pi.sum()
        if total > 0:
            pi = pi / total
        history.append(pi)
        iterations = t
        if len(history) == window + 1:
            if np.abs(history[-1] - history[0]).sum() / window <= tol:
                stopped = True
                break
    tail = list(history)[-window:]
    out = tail[0] if window == 1 else np.mean(tail, axis=0)
    if not stopped and iterations < max_iter:
        # both rows move on by Q^s: the window's step difference, whose L1
        # norm never grows under a stochastic Q, and the window average
        start = np.vstack([history[-1] - history[0], out])
        steps, rows = _doubling_search(
            start, [m.toarray()], lambda x: np.abs(x[0]).sum() / window,
            tol, max_iter - iterations)
        iterations = min(iterations + steps, max_iter)
        out = rows[1]
    out = out / out.sum()
    residual = float(np.abs(mT @ out - out).max())
    return StationaryResult(pi=out, iterations=iterations, residual=residual,
                            converged=residual <= tol,
                            periodic=window > 1)


# What one loop step of `stationary` costs beyond its sparse mat-vec, in
# flops of dense matrix product.  On a 2-vCPU Xeon with OpenBLAS a step
# takes 13-35 us and dense products run at 50-100 GFlop/s, so a step is
# worth about 1-3 Mflop; the smaller constant moves the switch 3-10x past
# break-even, toward the loop, which needs no second core.
STEP_OVERHEAD_FLOPS = 200_000


def _switch_step(n, nnz, window, max_iter):
    """Loop steps `stationary` takes before its doubling search.

    The search costs at most L = max_iter.bit_length() dense squarings of
    2 n^3 flops each, a loop step 2 nnz + STEP_OVERHEAD_FLOPS.  The loop
    runs for as many steps as the whole search is modeled to cost, so a
    chain that stops sooner never builds a dense power, and one that runs
    longer pays at most one search on top of the steps it has taken (the
    ski-rental bound).  The L + 1 stored n x n arrays must fit
    POWERS_BUDGET_BYTES; above it the loop runs to max_iter.
    """
    levels = max_iter.bit_length()
    if 8 * n * n * (levels + 1) > POWERS_BUDGET_BYTES:
        return max_iter
    search = levels * (2 * n**3 + STEP_OVERHEAD_FLOPS)
    steps = math.ceil(search / (2 * nnz + STEP_OVERHEAD_FLOPS))
    return min(max_iter, max(window, steps))


def _doubling_search(start, powers, measure, threshold, cap):
    """First t <= cap with measure(start @ Q^t) <= threshold.

    ``measure`` must be nonincreasing in t.  ``powers`` holds Q, Q^2,
    Q^4, ... as dense arrays and is extended in place, so searches on one
    Q share their squarings.  The search gallops over the powers until
    the threshold is bracketed or the cap passed, then bisects the
    bracket with the same powers: O(log t) products.  Returns
    ``(t, start @ Q^t)``, or ``(math.inf, start @ Q^cap)`` when the
    threshold is not reached by the cap.
    """
    if measure(start) <= threshold:
        return 0, start
    # invariant: measure > threshold at lo, <= threshold at hi (or hi > cap)
    lo, x_lo = 0, start
    k = 0
    while True:
        hi = lo + (1 << k)
        if hi > cap:
            break
        if k == len(powers):
            powers.append(powers[-1] @ powers[-1])
        x_hi = x_lo @ powers[k]
        if measure(x_hi) <= threshold:
            break
        lo, x_lo = hi, x_hi
        k += 1
    for j in range(k - 1, -1, -1):
        mid = lo + (1 << j)
        if mid > cap:
            hi = mid
            continue
        y = x_lo @ powers[j]
        if measure(y) > threshold:
            lo, x_lo = mid, y
        else:
            hi, x_hi = mid, y
    if hi > cap:
        return math.inf, x_lo
    return hi, x_hi


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
    vacuous bound rather than an error.  Steps where a nonvacuous bound is
    exceeded by more than 1e-12 are counted in ``violations``.
    """
    D = _as_dense(Q)
    n_t = Q.n_transient if isinstance(Q, TransitionMatrix) else 0
    if window is None:
        window = Q.meta.get("context_window", 1) if isinstance(Q, TransitionMatrix) else 1
    if n_max < window:
        raise ValueError(f"n_max={n_max} is below the window {window}")
    M = np.linalg.matrix_power(D, window)
    eps = float(M[n_t:, n_t:].min())
    if pi is None:
        pi = stationary(Q, tol, max_iter).pi
    pi = np.asarray(pi, dtype=float)
    if eps > 0.0:
        pi = _polish_fixpoint(pi, D)
    base = 1.0 - 2.0 * eps
    bound_curve, empirical_curve = [], []
    violations = 0
    for n in range(window, n_max + 1):
        dev = float(np.abs(M - pi[None, :]).max())
        b = float(base ** (n // window - 1))
        empirical_curve.append((n, dev))
        bound_curve.append((n, b))
        if eps > 0 and dev > b + 1e-12:
            violations += 1
        if n < n_max:
            M = M @ D
    return ConvergenceProfile(epsilon=eps, window=window,
                              bound_curve=bound_curve,
                              empirical_curve=empirical_curve,
                              vacuous=eps <= 0.0, violations=violations)


def _first_crossing_times(D, pi, thresholds, t_cap):
    """First t <= t_cap with max-start TV(Q^t, pi) <= threshold, per threshold.

    The distance is nonincreasing in t, so the thresholds are taken in
    descending order, each found by a doubling search that starts from the
    previous crossing and shares its powers of Q; unreached thresholds map
    to math.inf.
    """
    def distance(M):
        return float(0.5 * np.abs(M - pi[None, :]).sum(axis=1).max())

    powers = [D]
    t, M = 0, np.eye(D.shape[0])
    out = {}
    for x in sorted({float(x) for x in thresholds}, reverse=True):
        if t <= t_cap:
            steps, M = _doubling_search(M, powers, distance, x, t_cap - t)
            t += steps
        out[x] = t
    return out


def mixing_bytes(n_states, t_cap=DEFAULT_T_CAP) -> int:
    """Peak bytes of the dense n x n arrays the mixing schedule holds: the
    t_cap.bit_length() stored powers of Q, the search's start and bracket
    rows, the two temporaries of the distance, and the caller's matrix."""
    return 8 * n_states**2 * (max(t_cap.bit_length(), 1) + 6)


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
    is reached within t_cap, which periodic chains never do.
    """
    _, best, _ = _mixing_rows(Q, pi, DEFAULT_EPS_GRID if grid is None else list(grid), t_cap)
    return best


def mixing_report(Q, pi=None, grid=None, t_cap=DEFAULT_T_CAP,
                  tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                  classification=None) -> MixingReport:
    """Full mixing picture: classes, period, the t_mix schedule, and t_min.

    A ``classification`` from `classify_states` is reused, not redone.
    """
    if classification is None:
        classification = classify_states(Q)
    if pi is None:
        pi = stationary(Q, tol, max_iter, classification=classification).pi
    rows, best, best_eps = _mixing_rows(
        Q, pi, DEFAULT_EPS_GRID if grid is None else list(grid), t_cap)
    return replace(classification, rows=rows, t_min=best,
                   argmin_epsilon=best_eps)


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
