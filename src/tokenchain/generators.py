"""Ground-truth chain families and discretized stochastic processes.

Every constructor returns a dense row-stochastic TransitionMatrix with no
transient block; these are the data-generating chains for the estimation
experiments, not sequence-state chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import TransitionMatrix

PROCESS_KINDS = ("gbm", "correlated_gaussian", "uncorrelated_gaussian",
                 "uncorrelated_uniform", "brownian")
CHAIN_KINDS = ("random", "constrained_walk", "polygonal_walk", "clique_rim",
               "discretized_process")


def random_chain(d, p_min=0.0, seed=0) -> TransitionMatrix:
    """Rows drawn uniformly from the simplex, floored at p_min.

    row = p_min + (1 - d * p_min) * dirichlet(1,...,1), so the minimum
    entry is at least p_min exactly and rows still sum to one.
    """
    if d < 2:
        raise ValueError(f"need at least 2 states, got {d}")
    if not p_min >= 0:
        raise ValueError(f"p_min must be >= 0, got {p_min}")
    if p_min * d > 1.0:
        raise ValueError(f"p_min={p_min} infeasible for {d} states")
    rng = np.random.default_rng(seed)
    rows = p_min + (1.0 - d * p_min) * rng.dirichlet(np.ones(d), size=d)
    return TransitionMatrix(
        rows, meta={"kind": "random", "d": d, "p_min": p_min, "seed": seed})


def constrained_walk(d) -> TransitionMatrix:
    """Nearest-neighbor walk on a path; the two endpoints reflect."""
    if d < 2:
        raise ValueError(f"need at least 2 states, got {d}")
    P = np.zeros((d, d))
    P[0, 1] = 1.0
    P[d - 1, d - 2] = 1.0
    for i in range(1, d - 1):
        P[i, i - 1] = P[i, i + 1] = 0.5
    return TransitionMatrix(P, meta={"kind": "constrained_walk", "d": d})


def polygonal_walk(d) -> TransitionMatrix:
    """Nearest-neighbor walk on a cycle of d >= 3 states."""
    if d < 3:
        raise ValueError(f"need at least 3 states on a cycle, got {d}")
    P = np.zeros((d, d))
    for i in range(d):
        P[i, (i + 1) % d] += 0.5
        P[i, (i - 1) % d] += 0.5
    return TransitionMatrix(P, meta={"kind": "polygonal_walk", "d": d})


def clique_rim(d, eta, tau, rim_eps=0.125) -> TransitionMatrix:
    """Inner clique of d/3 states, each tethered to its own pair of rim states.

    Block layout (clique states first, rim states after):

        [ C_eta   R_tau ]       C: (3/4 - eta) diagonal, eta spread evenly
        [ R_tau^T L_tau ]          off the diagonal
                                R: row i puts (1 +- 4 tau_i eps')/8 on its
                                   rim pair
                                L: diagonal (7 -+ 4 tau_i eps')/8 on the pair

    tau is a 0/1 vector of length d/3 selecting which spokes are biased.
    """
    if d % 3 != 0 or d < 3:
        raise ValueError(f"state count must be a positive multiple of 3, got {d}")
    m = d // 3
    if not 0 <= eta < 0.75:
        raise ValueError(f"eta must lie in [0, 3/4), got {eta}")
    if m == 1 and eta != 0:
        raise ValueError("a one-state clique has no off-diagonal to absorb eta")
    tau = tuple(int(t) for t in tau)
    if len(tau) != m or any(t not in (0, 1) for t in tau):
        raise ValueError(f"tau must be a 0/1 vector of length {m}")
    if not 0 <= rim_eps <= 0.25:
        raise ValueError(f"rim amplitude must lie in [0, 1/4], got {rim_eps}")

    P = np.zeros((d, d))
    # clique block
    for i in range(m):
        P[i, i] = 0.75 - eta
        for j in range(m):
            if j != i:
                P[i, j] = eta / (m - 1)
    # spokes and rim
    for i in range(m):
        bump = 4.0 * tau[i] * rim_eps
        hi, lo = (1.0 + bump) / 8.0, (1.0 - bump) / 8.0
        a, b = m + 2 * i, m + 2 * i + 1
        P[i, a], P[i, b] = hi, lo
        P[a, i], P[b, i] = hi, lo
        P[a, a] = (7.0 - bump) / 8.0
        P[b, b] = (7.0 + bump) / 8.0
    return TransitionMatrix(
        P, meta={"kind": "clique_rim", "d": d, "eta": eta, "tau": list(tau),
                 "rim_eps": rim_eps})


# ---------------------------------------------------------------------------
# stochastic processes and their discretization
# ---------------------------------------------------------------------------

def _check_sigma(sigma):
    if not 0 <= sigma < np.inf:     # NaN fails too
        raise ValueError(f"volatility must be finite and >= 0, got {sigma}")


def _gbm(rng, n, s0=1.0, mu=0.0, sigma=0.2, dt=1.0):
    _check_sigma(sigma)
    if s0 <= 0:
        raise ValueError(f"start value must be positive, got {s0}")
    if not 0 < dt < np.inf:
        raise ValueError(f"time step must be finite and positive, got {dt}")
    # exact log-Euler steps
    z = rng.standard_normal(n - 1)
    steps = (mu - 0.5 * sigma**2) * dt + sigma * np.sqrt(dt) * z
    return s0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def _correlated_gaussian(rng, n, rho=0.9, sigma=1.0, x0=0.0):
    _check_sigma(sigma)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"AR coefficient must lie in [-1, 1], got {rho}")
    out = np.empty(n)
    out[0] = x0
    for k in range(1, n):
        out[k] = rho * out[k - 1] + sigma * rng.standard_normal()
    return out


def _uncorrelated_gaussian(rng, n, mu=0.0, sigma=1.0):
    _check_sigma(sigma)
    return mu + sigma * rng.standard_normal(n)


def _uncorrelated_uniform(rng, n):
    return rng.random(n)


def _brownian(rng, n, sigma=1.0, dt=1.0, w0=0.0):
    _check_sigma(sigma)
    if not 0 < dt < np.inf:
        raise ValueError(f"time step must be finite and positive, got {dt}")
    steps = sigma * np.sqrt(dt) * rng.standard_normal(n - 1)
    return w0 + np.concatenate([[0.0], np.cumsum(steps)])


_SIMULATORS = {
    "gbm": _gbm,
    "correlated_gaussian": _correlated_gaussian,
    "uncorrelated_gaussian": _uncorrelated_gaussian,
    "uncorrelated_uniform": _uncorrelated_uniform,
    "brownian": _brownian,
}


def simulate_process(kind, n, seed=0, **params) -> np.ndarray:
    """Length-n sample path of one of the named scalar processes."""
    if kind not in _SIMULATORS:
        raise ValueError(f"unknown process kind {kind!r}, "
                         f"expected one of {PROCESS_KINDS}")
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    return _SIMULATORS[kind](np.random.default_rng(seed), int(n), **params)


def discretize(series, d):
    """Uniform-width binning of a real series over its realized range.

    Ties on an interior bin edge go to the lower bin.  Returns a Trajectory
    of bin indices in [0, d).
    """
    from .estimation import Trajectory
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise ValueError("series must be a nonempty vector")
    if not np.all(np.isfinite(series)):
        raise ValueError("series must be finite")
    if d < 2:
        raise ValueError(f"need at least 2 bins, got {d}")
    lo, hi = float(series.min()), float(series.max())
    if lo == hi:
        raise ValueError("constant series cannot be binned")
    edges = np.linspace(lo, hi, d + 1)
    states = np.digitize(series, edges[1:-1], right=True)
    return Trajectory(states=states.astype(np.int64))


@dataclass
class ChainSpec:
    """JSON-friendly recipe for a ground-truth chain."""

    kind: str
    d: int
    p_min: float = 0.0
    seed: int = 0
    eta: float = 0.0
    tau: list = field(default_factory=list)
    rim_eps: float = 0.125
    process: dict = field(default_factory=dict)
    n_samples: int = 100_000

    @classmethod
    def from_dict(cls, blob: dict) -> "ChainSpec":
        unknown = set(blob) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown chain spec fields: {sorted(unknown)}")
        if "kind" not in blob or "d" not in blob:
            raise ValueError("chain spec needs at least 'kind' and 'd'")
        return cls(**blob)


def build_chain(spec) -> TransitionMatrix:
    """Materialize a ChainSpec (or an equivalent dict)."""
    if isinstance(spec, dict):
        spec = ChainSpec.from_dict(spec)
    if spec.kind == "random":
        return random_chain(spec.d, spec.p_min, spec.seed)
    if spec.kind == "constrained_walk":
        return constrained_walk(spec.d)
    if spec.kind == "polygonal_walk":
        return polygonal_walk(spec.d)
    if spec.kind == "clique_rim":
        tau = spec.tau or [0] * (spec.d // 3 if spec.d % 3 == 0 else 0)
        return clique_rim(spec.d, spec.eta, tau, spec.rim_eps)
    if spec.kind == "discretized_process":
        from .estimation import frequentist_estimate
        process = dict(spec.process)
        kind = process.pop("kind", None)
        if kind is None:
            raise ValueError("discretized_process spec needs process.kind")
        series = simulate_process(kind, spec.n_samples, spec.seed, **process)
        traj = discretize(series, spec.d)
        Q = frequentist_estimate(traj, spec.d)
        Q.meta.update({"kind": "discretized_process", "process": kind,
                       "d": spec.d, "n_samples": spec.n_samples,
                       "seed": spec.seed})
        return Q
    raise ValueError(f"unknown chain kind {spec.kind!r}, "
                     f"expected one of {CHAIN_KINDS}")
