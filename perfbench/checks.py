"""Output checks for the benchmark's commands, against independent references.

Every reference is recomputed here from the job's config with numpy alone:
closed-form counts for `build`, a dense linear solve on the recurrent block
for stationary vectors, products along the unique K-step path for the
Doeblin constant.  A check returns a list of problems; each is a pair
(kind, message) where kind is "wrong" (an output disagrees with its
reference) or "unsolved" (a solver ran out of its iteration budget).
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

WRONG = "wrong"
UNSOLVED = "unsolved"

# L1 distance allowed between a reported stationary vector and the dense
# solve, ten thousand times the L1 step at which the power iteration stops
PI_L1_TOL = 1e-8
# relative distance allowed between a reported Doeblin constant and the
# path product (K multiplications, each exact to one ulp)
EPS_REL_TOL = 1e-9
FREQ_SLOPE_BAND = (-0.65, -0.35)


def _csv_rows(path: Path):
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _json(path: Path):
    return json.loads(path.read_text())


def _softmax(logits, temperature=1.0):
    x = np.asarray(logits, dtype=float) / temperature
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def _counts(T, K):
    n_states = T * (T**K - 1) // (T - 1)
    n_transient = T * (T ** (K - 1) - 1) // (T - 1)
    return n_states, n_transient


def _random_logit_probs(cfg, temperature=None):
    """Next-token rows of the full-length states of a random_logits oracle,
    as (T^K, T): row v is the base-T sequence v."""
    T, K = cfg["n_tokens"], cfg["context_window"]
    oracle = cfg["oracle"]
    n_states, n_transient = _counts(T, K)
    rng = np.random.default_rng(oracle["seed"])
    logits = oracle.get("scale", 1.0) * rng.standard_normal((n_states, T))
    tau = oracle.get("temperature", 1.0) if temperature is None else temperature
    return _softmax(logits[n_transient:], tau)


def _recurrent_block(probs, T):
    """Full-length-state transition matrix: v -> (v*T + t) mod T^K."""
    n = probs.shape[0]
    P = np.zeros((n, n))
    v = np.arange(n)
    for t in range(T):
        P[v, (v * T + t) % n] += probs[:, t]
    return P


def _dense_stationary(P):
    """Solve pi P = pi, sum(pi) = 1 directly."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def _path_epsilon(probs, T, K):
    """min over (u, v) of the K-step probability u -> v, each being the
    product along the unique path that appends v's tokens to u."""
    n = probs.shape[0]
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    state, mass = u, np.ones((n, n))
    for j in range(K):
        token = (v // T ** (K - 1 - j)) % T
        mass = mass * probs[state, token]
        state = (state * T + token) % n
    return float(mass.min())


def check_build(out: Path, cfg):
    T, K = cfg["n_tokens"], cfg["context_window"]
    n_states, _ = _counts(T, K)
    nnz = T * n_states
    report = _json(out / "structure.json")["structure"]
    problems = []
    expected = {
        "n_states": n_states,
        "nonzero_count": nnz,
        "nonzero_proportion": str(Fraction(nnz, n_states * n_states)),
        "ok": True,
    }
    for key, want in expected.items():
        if report.get(key) != want:
            problems.append((WRONG, f"structure.{key} = {report.get(key)!r}, "
                                    f"expected {want!r}"))
    return problems


def check_analyze(out: Path, cfg):
    T = cfg["n_tokens"]
    _, n_transient = _counts(T, cfg["context_window"])
    pi = np.array([float(r["probability"])
                   for r in _csv_rows(out / "stationary.csv")])
    ref = _dense_stationary(_recurrent_block(_random_logit_probs(cfg), T))
    dist = float(np.abs(pi[:n_transient]).sum()
                 + np.abs(pi[n_transient:] - ref).sum())
    if not dist <= PI_L1_TOL:
        return [(WRONG, f"stationary vector is {dist:.3g} (L1) from the "
                        f"dense solve")]
    return []


def check_sweep(out: Path, cfg):
    T, K = cfg["n_tokens"], cfg["context_window"]
    problems = []
    rows = _csv_rows(out / "sweep.csv")
    if [float(r["temperature"]) for r in rows] != \
            [float(t) for t in cfg["temperatures"]]:
        return [(WRONG, "sweep.csv temperatures differ from the config")]
    for r in rows:
        tau = float(r["temperature"])
        ref = _path_epsilon(_random_logit_probs(cfg, tau), T, K)
        eps = float(r["epsilon"])
        if not abs(eps - ref) <= EPS_REL_TOL * ref:
            problems.append((WRONG, f"tau={tau}: epsilon {eps!r}, "
                                    f"path product {ref!r}"))
        if int(r["iterations"]) >= cfg["max_iter"]:
            problems.append((UNSOLVED, f"tau={tau}: power iteration hit "
                                       f"max_iter={cfg['max_iter']}"))
    return problems


def _parity_contexts(n_digits, K):
    seq = [0, 0, 1]
    while len(seq) < n_digits:
        seq.append(sum(seq[-3:]) % 2)
    return {tuple(seq[i:i + K]) for i in range(len(seq) - K)}


def check_train_toy(out: Path, cfg):
    model = _json(out / "model.json")["model"]
    K = model["config"]["context_length"]
    T = model["n_tokens"]
    w_in, w_out = np.array(model["w_in"]), np.array(model["w_out"])
    bias = np.array(model["bias"])
    n = T**K
    # one-hot of every full-length context, position-major over T + 1 ids
    x = np.zeros((n, K * (T + 1)))
    for v in range(n):
        for pos in range(K):
            x[v, pos * (T + 1) + (v // T ** (K - 1 - pos)) % T] = 1.0
    probs = _softmax((x @ w_in) @ w_out + bias, model["config"]["temperature"])
    ref = _dense_stationary(_recurrent_block(probs, T))
    seen = _parity_contexts(cfg.get("n_digits", 40), K)
    is_seen = np.array([tuple((v // T ** (K - 1 - p)) % T for p in range(K))
                        in seen for v in range(n)])
    parity = _json(out / "parity.json")["parity"]
    dist = (abs(parity["seen_mass"] - float(ref[is_seen].sum()))
            + abs(parity["unseen_mass"] - float(ref[~is_seen].sum())))
    if not dist <= PI_L1_TOL:
        return [(WRONG, f"seen/unseen masses are {dist:.3g} (L1) from the "
                        f"dense solve")]
    return []


def check_estimate(out: Path, cfg, slope_band=None):
    problems = []
    rows = _csv_rows(out / "risk.csv")
    if [int(r["N"]) for r in rows] != list(cfg["n_list"]):
        problems.append((WRONG, "risk.csv N column differs from n_list"))
    for r in rows:
        mean = float(r["mean"])
        if not (math.isfinite(mean) and 0.0 <= mean <= 1.0):
            problems.append((WRONG, f"N={r['N']}: risk {mean!r} outside [0, 1]"))
    if slope_band is not None:
        fit = _json(out / "fit.json").get("fit")
        slope = None if fit is None else fit["slope"]
        lo, hi = slope_band
        if slope is None or not lo <= slope <= hi:
            problems.append((WRONG, f"slope {slope!r} outside [{lo}, {hi}]"))
    return problems


def check_frequentist(out: Path, cfg):
    return check_estimate(out, cfg, FREQ_SLOPE_BAND)


def check_bounds(out: Path, cfg):
    mc = _json(out / "bounds.json").get("mc") or {}
    want = cfg["mc"]["n_samples"]
    if mc.get("ok") is not True or mc.get("n_samples") != want:
        return [(WRONG, f"mc ok={mc.get('ok')!r} over "
                        f"{mc.get('n_samples')!r} samples, expected ok over "
                        f"{want}")]
    return []
