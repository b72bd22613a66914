"""Long-run behavior of finite chains.

Stationary distributions by power iteration, communicating-class and period
structure, the convergence envelope driven by the minimum entry of a K-step
power (a least path product over the table), and total-variation
mixing times down to the minimized constant of the in-context bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chains import TransitionMatrix, build_qf

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6
DEFAULT_T_CAP = 10_000
DEFAULT_N_MAX = 1000
# thresholds for the minimized mixing constant: {0, 0.05, ..., 0.95}
DEFAULT_EPS_GRID = tuple(k * 0.05 for k in range(20))
# the most rounds _polish_fixpoint takes
POLISH_ROUNDS = 5000
# stationary's doubling search stores up to log2(max_iter) dense n x n
# powers; a chain whose powers need more keeps the step loop
POWERS_BUDGET_BYTES = 1 << 28
# stationary checks its stopping rule once a pass of up to this many
# loop steps, or of as many iterates as fill CHECK_BYTES if fewer
CHECK_STEPS = 32
CHECK_BYTES = 1 << 18


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


def classify_states(Q) -> MixingReport:
    """Communicating classes, recurrence labels, and periods.

    A class is recurrent exactly when no edge leaves it.  Breadth-first
    passes over the edge arrays, a level at a time, find them (as in the
    forward-backward scheme of Fleischer, Hendrickson & Pinar, 2000): the
    states a pivot reaches are a closed class if all reach it back, else
    the pivot moves to the deepest one that does not; what reaches a
    closed class is transient.  A period is the gcd of level differences
    along the class's edges.  Only the full-length block is searched:
    shorter states are transient by construction.
    """
    Q = TransitionMatrix.of(Q)
    n, base = Q.n_states, Q.n_transient
    src, dst, _ = Q.triplet_columns(base)
    src, dst, m = src - base, dst - base, n - base
    forward, backward = _adjacency(src, dst, m), _adjacency(dst, src, m)
    unknown = np.ones(m, dtype=bool)
    found = []  # (members, period) of each closed class
    while unknown.any():
        pivot = int(np.argmax(unknown))
        while True:
            depth = _levels(forward, [pivot], unknown)
            reached = depth >= 0
            back = _levels(backward, [pivot], reached) >= 0
            if np.array_equal(back, reached):
                break
            pivot = int(np.argmax(np.where(reached & ~back, depth, -1)))
        own = reached[src]  # the class's edges, which all stay inside it
        gcd = np.gcd.reduce(np.abs(depth[src[own]] + 1 - depth[dst[own]]))
        members = np.flatnonzero(reached)
        found.append(((members + base).tolist(), max(int(gcd), 1)))
        unknown &= _levels(backward, members, unknown) < 0
    found.sort()  # by first member, as the classes are disjoint
    classes = np.full(n, "transient", dtype=object)
    classes[[i for members, _ in found for i in members]] = "recurrent"
    periods = [period for _, period in found]
    return MixingReport(
        classes=classes.tolist(),
        recurrent_classes=[members for members, _ in found],
        periods=periods, period=math.lcm(*periods) if periods else 1)


def _adjacency(src, dst, n):
    """The edges src -> dst of an n-state graph as (indptr, targets),
    each state's targets in edge order."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def _levels(adjacency, roots, allowed):
    """Breadth-first level of each state from ``roots`` (level 0), over
    the ``allowed`` states only; -1 where unreached."""
    indptr, targets = adjacency
    level = np.full(allowed.size, -1, dtype=np.int64)
    frontier = np.asarray(roots, dtype=np.int64)
    level[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        stops = indptr[frontier + 1]
        counts = stops - indptr[frontier]
        ends = np.cumsum(counts)  # the frontier's edges, gathered
        nxt = targets[np.repeat(stops - ends, counts) + np.arange(ends[-1])]
        fresh = np.sort(nxt[(level[nxt] < 0) & allowed[nxt]])
        frontier = fresh[np.diff(fresh, prepend=-1) != 0]
        level[frontier] = depth
    return level


def stationary(Q, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
               classification=None) -> StationaryResult:
    """Power iteration from the uniform vector.

    Periodic chains make the raw iteration oscillate, so the iterate is
    averaged over a window of one period (determined by classification)
    and the averaged vector is reported with ``periodic=True``.  The
    stopping rule bounds the L1 step difference, which dominates the
    reported L-inf residual because the chain map is an L1 contraction.

    ``iterations`` is the first step at which the stopping rule holds, or
    ``max_iter``.  A loop of `TransitionMatrix.left_product` steps looks
    for it up to `_switch_step`; a chain still running then continues
    with a doubling search over dense powers of Q, and ``pi`` is the
    window-averaged iterate at the step it finds.
    """
    Q = TransitionMatrix.of(Q)
    n = Q.n_states
    if classification is None:
        classification = classify_states(Q)
    window = max(1, classification.period)
    step = Q.left_product()
    switch = _switch_step(n, Q.nonzero_count(), window, max_iter)
    # a ring of the last R iterates, iterate t in row t % R; a pass's steps
    # are checked at once, a step below the window against a row of NaN
    R = window + max(1, min(CHECK_STEPS, CHECK_BYTES // (8 * n)))
    X, diff = np.full((R, n), np.nan), np.empty((R - window, n))
    X[0] = 1.0 / n
    t, stopped = 0, False
    while t < switch and not stopped:
        new, old = (t + 1) % R, (t + 1 - window) % R
        b = min(switch - t, R - new, R - old, R - window)
        for r in range(new, new + b):
            y = step(X[r - 1], out=X[r])
            total = y.sum()
            if total > 0:
                y /= total
        np.abs(np.subtract(X[new:new + b], X[old:old + b], out=diff[:b]),
               out=diff[:b])
        met = np.flatnonzero(diff[:b].sum(axis=1) / window <= tol)
        stopped = met.size > 0
        t += int(met[0]) + 1 if stopped else b
    iterations = t
    tail = [X[k % R] for k in range(max(0, t + 1 - window), t + 1)]
    out = tail[0] if window == 1 else np.mean(tail, axis=0)
    if not stopped and iterations < max_iter:
        # both rows move on by Q^s: the window's step difference, whose L1
        # norm never grows under a stochastic Q, and the window average
        start = np.vstack([X[t % R] - X[(t - window) % R], out])
        steps, rows = _doubling_search(
            start, [Q.dense()], lambda x: np.abs(x[0]).sum() / window,
            tol, max_iter - iterations)
        iterations = min(iterations + steps, max_iter)
        out = rows[1]
    out = out / out.sum()
    residual = float(np.abs(step(out) - out).max())
    return StationaryResult(pi=out, iterations=iterations, residual=residual,
                            converged=residual <= tol,
                            periodic=window > 1)


# What one loop step of `stationary` costs beyond its products, in
# flops of dense matrix product.  On a 2-vCPU Xeon with OpenBLAS a step
# takes 9-16 us up to 1,022 states and dense products run at 50-120
# GFlop/s, so a step is worth 0.5-2 Mflop; the smaller constant moves the
# switch 2.5-10x past break-even, toward the loop, which needs no 2nd core.
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


def doeblin_epsilon(Q) -> float:
    """Minimum entry of the recurrent block of Q^K, K the chain's window:
    each entry is the product along the one K-step path, and the least
    such product is found, bit for bit, in O(K T^(K+1)) with no dense
    block.  At K = 1 it is the least entry of the table."""
    Q = TransitionMatrix.of(Q)
    # u = a T^(K-1) + r appending t moves to r T + t: a pass carries f(v),
    # the least product (from 1, left to right) over the paths ending at v,
    # one step on, exactly, as rounding is monotone on nonnegative floats.
    # The table is read entry by entry, so a zero probability gives 0.
    T, K = Q.spec.n_tokens, Q.spec.context_window
    P = Q.probs[Q.n_transient:]
    f = np.ones(T**K)
    for _ in range(K):
        f = (f[:, None] * P).reshape(T, -1, T).min(axis=0).ravel()
    return float(f.min())


def envelope(epsilon, window, n):
    """max(1 - 2 eps, 0)^(floor(n/window) - 1), elementwise over steps n,
    by Python's float pow (numpy's ** rounds some differently); a chain of
    one state alone has eps > 1/2.  Below the window, a base 0 gives inf."""
    base = max(1.0 - 2.0 * float(epsilon), 0.0)
    return np.array([base ** e if base or e >= 0 else math.inf
                     for e in (np.ravel(n) // window - 1).tolist()])


def _polish_fixpoint(v, D):
    """Iterate v @ D until the step difference stops shrinking.

    Power iteration stops at ``tol``, which leaves a residual large enough
    to sit above the envelope bound once that bound decays past the float
    floor; the extra rounds push v to the numerical fixed point.  Only
    valid when the recurrent block is aperiodic (epsilon > 0).
    """
    best = math.inf
    for _ in range(POLISH_ROUNDS):
        nxt = v @ D
        diff = float(np.abs(nxt - v).sum())
        if diff >= best:
            return nxt
        best = diff
        v = nxt
    return v


def convergence_profile(Q, n_max=DEFAULT_N_MAX, pi=None) -> ConvergenceProfile:
    """Both sides of the geometric convergence envelope for n = window..n_max.

    The window is the chain's context window K; the deviation runs over
    every state, with the stationary vector zero on transient entries.
    The rate constant is `doeblin_epsilon`'s, and a zero constant is
    reported as a vacuous bound rather than an error.  Steps where a
    nonvacuous bound is exceeded by more than 1e-12 are counted in
    ``violations``.

    The iterate Q^n often repeats exactly (a float fixed point or a short
    cycle).  A repeat of a fingerprint of every entry's bits, at steps m
    and n, is checked by stepping p = n - m more times; once Q^(n+p)
    equals Q^n, the product being a function of the iterate, every later
    deviation is the one p steps before, so the rest of the curve is
    copied, to the bit, with no more products.
    """
    Q = TransitionMatrix.of(Q)
    D = Q.dense()
    window = Q.spec.context_window
    if n_max < window:
        raise ValueError(f"n_max={n_max} is below the window {window}")
    eps = doeblin_epsilon(Q)
    M = np.linalg.matrix_power(D, window)
    if pi is None:
        pi = stationary(Q).pi
    pi = np.asarray(pi, dtype=float)
    if eps > 0.0:
        pi = _polish_fixpoint(pi, D)
    # odd weights, invertible mod 2^64: a change to any one entry changes
    # the fingerprint, the wrapping sum of the weighted bit patterns
    w = np.random.default_rng(0).integers(
        1 << 64, size=D.size, dtype=np.uint64) | np.uint64(1)
    # the loop writes into M, which matrix_power returns as D at window 1
    M, work = M.copy() if M is D else M, np.empty_like(M)
    first, check, devs = {}, None, []
    for n in range(window, n_max + 1):
        devs.append(float(np.abs(np.subtract(M, pi, out=work), out=work).max()))
        if n == n_max:
            break
        if check is None:
            p = n - first.setdefault(int(np.dot(M.view(np.uint64).ravel(), w)), n)
            if p:  # Q^n may equal Q^(n-p): then Q^(n+p) equals Q^n
                check = (n + p, M.copy())
        elif n == check[0]:
            if np.array_equal(M, check[1]):
                for _ in range(n, n_max):
                    devs.append(devs[-p])
                break
            check = None
        np.matmul(M, D, out=work)
        M, work = work, M
    del first, check, M, work  # before the curves: a fingerprint a step
    steps = range(window, n_max + 1)
    bounds = envelope(eps, window, steps).tolist()
    violations = sum(e > bound + 1e-12 for e, bound in zip(devs, bounds)
                     ) if eps > 0 else 0
    return ConvergenceProfile(epsilon=eps, window=window,
                              bound_curve=list(zip(steps, bounds)),
                              empirical_curve=list(zip(steps, devs)),
                              vacuous=eps <= 0.0, violations=violations)


def _first_crossing_times(Q, pi, thresholds, t_cap):
    """First t <= t_cap with max-start TV(Q^t, pi) <= threshold, per threshold.

    The distance is nonincreasing in t, so the thresholds are taken in
    descending order, each found by a doubling search that starts from the
    previous crossing and shares its powers of Q; unreached thresholds map
    to math.inf.
    """
    D = TransitionMatrix.of(Q).dense()
    pi = np.asarray(pi, dtype=float)

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


def profile_bytes(n_states, window, n_max) -> int:
    """Peak bytes of `convergence_profile` up to ``n_max``: six n x n
    arrays (the chain, powers, iterates and fingerprint weights), 320 a
    step for the fingerprint table or the deviations, the bounds and their
    two curves, and 128 KiB for the rest."""
    return 48 * n_states**2 + 320 * (n_max - window + 1) + (1 << 17)


def mixing_report(Q, pi=None, grid=None, t_cap=DEFAULT_T_CAP,
                  classification=None) -> MixingReport:
    """Full mixing picture: classes, period, the t_mix schedule, and t_min.

    t_min is the min over the grid of t_mix(eps/2) * ((2 - eps)/(1 - eps))^2.
    Ties break toward the smallest threshold; math.inf when no threshold
    is reached within t_cap, which periodic chains never do.  A
    ``classification`` from `classify_states` is reused, not redone.
    """
    if classification is None:
        classification = classify_states(Q)
    if pi is None:
        pi = stationary(Q, classification=classification).pi
    grid = [float(e) for e in (DEFAULT_EPS_GRID if grid is None else grid)]
    if not grid:
        raise ValueError("threshold grid is empty")
    for e in grid:
        if not 0.0 <= e < 1.0:
            raise ValueError(f"grid thresholds must lie in [0, 1), got {e}")
    times = _first_crossing_times(Q, pi, [e / 2 for e in grid], t_cap)
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
    return replace(classification, rows=rows, t_min=best,
                   argmin_epsilon=best_eps)


@dataclass
class TemperaturePoint:
    temperature: float
    epsilon: float
    iterations: int
    converged: bool


def sweep_temperature(oracle, spec, temperatures, tol=DEFAULT_TOL,
                      max_iter=DEFAULT_MAX_ITER):
    """Rebuild the chain of ``oracle`` at each temperature.

    Reports the envelope rate constant, the power-iteration step count and
    whether it met ``tol``; the oracle must expose ``with_temperature``.
    """
    points = []
    for tau in temperatures:
        Q = build_qf(oracle.with_temperature(tau), spec)
        result = stationary(Q, tol, max_iter)
        eps = doeblin_epsilon(Q)
        points.append(TemperaturePoint(temperature=float(tau), epsilon=eps,
                                       iterations=result.iterations,
                                       converged=result.converged))
    return points
