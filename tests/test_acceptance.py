"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with -v (or -s to see the PASS lines) to get a per-criterion verdict.
Numeric slack is stated inline wherever floating point forces it.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from tokenchain.bounds import (
    generalization_gap,
    log_ratio_checks,
    mc_verify,
    mcdiarmid_markov_tail,
    mcdiarmid_tail,
    predictor_table,
    sample_complexity,
)
from tokenchain.chains import build_qf, validate_structure
from tokenchain.cli import main
from tokenchain.estimation import (
    FrequentistEstimator,
    fit_power_law,
    icl_risk_curve,
)
from tokenchain.generators import polygonal_walk, random_chain
from tokenchain.oracles import (
    RandomLogitOracle,
    ToyModelConfig,
    UniformOracle,
    apply_temperature,
    parity_sequence,
    train_toy,
    windowed_examples,
)
from tokenchain.remote import MockOracleServer
from tokenchain.spectral import (
    classify_states,
    convergence_profile,
    mixing_report,
    stationary,
    sweep_temperature,
)
from tokenchain.states import VocabSpec


def _ok(number, label):
    print(f"ACCEPTANCE {number}: PASS ({label})")


@pytest.fixture(scope="module")
def parity_pipeline():
    dataset = windowed_examples(parity_sequence(40), 3)
    config = ToyModelConfig(context_length=3, embedding_dim=16,
                            learning_rate=0.1, epochs=500, seed=0,
                            temperature=1.0)
    return train_toy(dataset, config, n_tokens=2), dataset


def test_criterion_01_structure_counts_and_sparsity():
    started = time.monotonic()
    for n_tokens in (2, 3, 4):
        for window in (1, 2, 3, 4):
            spec = VocabSpec(n_tokens, window)
            matrix = build_qf(UniformOracle(n_tokens), spec)
            report = validate_structure(matrix, spec)
            n_states = n_tokens * (n_tokens ** window - 1) // (n_tokens - 1)
            assert report.n_states == n_states
            assert report.nonzero_count == n_tokens * n_states
            assert report.nonzero_proportion == \
                Fraction(n_tokens - 1, n_tokens ** window - 1)
            assert report.ok
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"structure suite took {elapsed:.2f}s"
    _ok(1, "state/edge counts with exact sparsity rationals")


def test_criterion_02_unichain_and_nilpotent_transients():
    for n_tokens in (2, 3):
        for window in (1, 2, 3, 4):
            spec = VocabSpec(n_tokens, window)
            space = spec
            for seed in (0, 1):
                oracle = RandomLogitOracle(space, seed=seed, scale=2.0)
                matrix = build_qf(oracle, spec)
                report = classify_states(matrix)
                n_recurrent = n_tokens ** window
                assert len(report.recurrent_classes) == 1
                assert sorted(report.recurrent_classes[0]) == \
                    list(range(matrix.n_states - n_recurrent,
                               matrix.n_states))
                assert report.periods == [1]
                n_t = matrix.n_states - n_recurrent
                assert len(report.transient_states) == n_t
                if n_t:
                    pattern = (matrix.dense()[:n_t, :n_t] != 0)
                    powered = np.linalg.matrix_power(
                        pattern.astype(np.int64), window)
                    assert not powered.any()
                structure = validate_structure(matrix, spec)
                assert structure.block_pattern_ok
                assert structure.nilpotency_index <= window
    _ok(2, "single aperiodic recurrent class; transient pattern nilpotent")


def _envelope_violations(matrix, n_max=3000):
    """Count n in [window, n_max] where the worst-entry deviation of Q^n
    from the stationary limit exceeds the geometric bound.  1e-12 absolute
    slack covers matmul roundoff once both curves sit near the float floor.
    """
    profile = convergence_profile(matrix, n_max=n_max)
    assert profile.epsilon > 0.0
    base = 1.0 - 2.0 * profile.epsilon
    violations = 0
    for (n, deviation), (_, bound) in zip(profile.empirical_curve,
                                          profile.bound_curve):
        assert bound == base ** (n // profile.window - 1)
        if deviation > bound + 1e-12:
            violations += 1
    return violations


def test_criterion_03_convergence_envelope(parity_pipeline):
    spec = VocabSpec(2, 3)
    space = spec
    for seed in range(50):
        oracle = RandomLogitOracle(space, seed=seed)
        assert _envelope_violations(build_qf(oracle, spec)) == 0
    model, _ = parity_pipeline
    assert _envelope_violations(build_qf(model, spec)) == 0
    _ok(3, "geometric convergence envelope, zero violations")


def test_criterion_04_temperature_monotonicity():
    taus = [k / 10 for k in range(1, 21)]

    rng = np.random.default_rng(42)
    for _ in range(1000):
        logits = rng.normal(0.0, 3.0, size=(int(rng.integers(2, 6)),
                                            int(rng.integers(2, 9))))
        for row in logits:
            mins = [float(apply_temperature(row, tau).min()) for tau in taus]
            assert all(b >= a for a, b in zip(mins, mins[1:]))

    spec = VocabSpec(2, 3)
    space = spec
    monotone = 0
    for seed in range(20):
        oracle = RandomLogitOracle(space, seed=seed, scale=2.0)
        points = sweep_temperature(oracle, spec, taus)
        eps = [p.epsilon for p in points]
        if all(b >= a * (1.0 - 1e-12) for a, b in zip(eps, eps[1:])):
            monotone += 1
    assert monotone >= 19, f"only {monotone}/20 sweeps monotone"
    _ok(4, "temperature flattening is monotone")


def test_criterion_05_parity_pipeline_numbers(parity_pipeline):
    model, dataset = parity_pipeline
    spec = VocabSpec(2, 3)
    assert spec.state_count == 14
    assert len(dataset) == 37

    matrix = build_qf(model, spec)
    pi = stationary(matrix).pi
    space = spec
    seen = {context for context, _ in dataset}
    seen_mass = sum(float(pi[i]) for i in range(space.n_transient, len(space))
                    if space[i] in seen)
    unseen_mass = sum(float(pi[i])
                      for i in range(space.n_transient, len(space))
                      if space[i] not in seen)
    assert seen_mass > unseen_mass
    _ok(5, "parity pipeline sizes and stationary mass split")


def _brute_first_crossings(dense, pi, thresholds, t_cap):
    """Independent oracle: fresh matrix powers, no incremental walk."""
    out = []
    for threshold in thresholds:
        hit = math.inf
        for t in range(t_cap + 1):
            power = np.linalg.matrix_power(dense, t)
            tv = float(0.5 * np.abs(power - pi[None, :]).sum(axis=1).max())
            if tv <= threshold:
                hit = t
                break
        out.append(hit)
    return out


def test_criterion_06_mixing_times():
    uniform = mixing_report(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert all(row.t_mix == 1 for row in uniform.rows)
    assert uniform.t_min == 4.0
    assert uniform.argmin_epsilon == 0.0

    polygon = mixing_report(polygonal_walk(4))
    assert polygon.t_min == math.inf
    assert polygon.period == 2
    assert all(math.isinf(row.t_mix) for row in polygon.rows)

    lazy = np.array([[0.9, 0.1], [0.2, 0.8]])
    report = mixing_report(lazy, t_cap=500)
    pi_exact = np.array([2.0 / 3.0, 1.0 / 3.0])
    expected = _brute_first_crossings(
        lazy, pi_exact, [row.epsilon / 2 for row in report.rows], 500)
    for row, t in zip(report.rows, expected):
        assert row.t_mix == t
    finite = [row.t_mix * row.factor for row in report.rows
              if math.isfinite(row.t_mix)]
    assert report.t_min == min(finite)
    _ok(6, "mixing schedule against brute-force matrix powers")


def test_criterion_07_estimator_scaling_law():
    started = time.monotonic()
    n_list = [100, 316, 1000, 3162, 10000, 31623, 100000]
    small = random_chain(3, p_min=0.05, seed=7)
    curve = icl_risk_curve(small, FrequentistEstimator(3), n_list, reps=20,
                           seed=0)
    slope = fit_power_law(curve).slope
    assert -0.65 <= slope <= -0.35, f"slope {slope}"

    big = random_chain(50, p_min=0.005, seed=7)
    at_1k = icl_risk_curve(small, FrequentistEstimator(3), [1000], reps=20,
                           seed=1).points[0].mean
    big_at_1k = icl_risk_curve(big, FrequentistEstimator(50), [1000], reps=20,
                               seed=1).points[0].mean
    assert big_at_1k > at_1k
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"scaling suite took {elapsed:.1f}s"
    _ok(7, "estimator risk scaling law")


def test_criterion_08_bound_roundtrip_and_predictor_orderings():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        constant = 10.0 ** rng.uniform(-1.0, 4.0)
        epsilon = 10.0 ** rng.uniform(-4.0, 1.0)
        delta = float(rng.uniform(1e-6, 0.5))
        n_star = sample_complexity(constant, epsilon, delta)
        assert n_star >= 1
        gap = generalization_gap(constant, n_star, delta)
        assert gap <= epsilon / 2.0 * (1.0 + 1e-12)

    rows = predictor_table()
    llama = [r for r in rows if r.name.startswith("Llama")]
    gemma = [r for r in rows if r.name.startswith("Gemma")]
    assert len(llama) == 4 and len(gemma) == 4
    assert min(g.constant for g in gemma) > max(l.constant for l in llama)
    for family in (llama, gemma):
        for a in family:
            for b in family:
                if a.n_train < b.n_train:
                    assert a.epsilon > b.epsilon
    _ok(8, "sample-size round trip and predictor table orderings")


class _CoinRows:
    def __init__(self, n):
        self.n = n

    def __call__(self, rng, size):
        return rng.integers(0, 2, size=(size, self.n))


def _row_mean(block):
    return block.mean(axis=1)


def test_criterion_09_concentration_tails():
    n = 100
    c = np.full(n, 1.0 / n)
    u_grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]

    iid = mc_verify(_CoinRows(n), _row_mean, c, 100_000, u_grid, seed=2026,
                    mean=0.5)
    assert len(iid.checks) == 6
    for check in iid.checks:
        assert check.bound == mcdiarmid_tail(check.u, c)
        assert check.empirical <= check.bound + 3.0 * check.stderr
    assert iid.ok

    t_min = mixing_report(np.array([[0.5, 0.5], [0.5, 0.5]])).t_min
    assert t_min == 4.0
    markov = mc_verify(_CoinRows(n), _row_mean, c, 100_000, u_grid, seed=2027,
                       t_min=t_min, mean=0.5)
    for check in markov.checks:
        assert check.bound == mcdiarmid_markov_tail(check.u, c, t_min)
        assert check.empirical <= check.bound + 3.0 * check.stderr
    assert markov.ok
    _ok(9, "bounded-difference tails hold empirically")


def test_criterion_10_divergence_and_softmax_floors():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        m = int(rng.integers(2, 17))
        alpha = float(rng.uniform(0.5, 5.0))
        p = rng.dirichlet(np.full(m, alpha)) + 1e-12
        q = rng.dirichlet(np.full(m, alpha)) + 1e-12
        report = log_ratio_checks(p / p.sum(), q / q.sum())
        assert report.ok

    for _ in range(10_000):
        m = int(rng.integers(2, 17))
        c1 = float(rng.uniform(0.05, 4.0))
        logits = rng.uniform(-c1, c1, size=m)
        floor = 1.0 / (m * math.exp(2.0 * c1))
        assert float(apply_temperature(logits, 1.0).min()) >= floor
    _ok(10, "divergence and softmax floor inequalities")


def test_criterion_11_remote_estimate_reproducible(tmp_path):
    cfg = {"chain": {"kind": "random", "d": 3, "p_min": 0.05, "seed": 5},
           "n_list": [200], "reps": 3, "seed": 17}
    with MockOracleServer(seed=0) as server:
        cfg["estimator"] = {"kind": "remote", "endpoint": server.url}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        for out in ("one", "two"):
            code = main(["estimate", "--config", str(cfg_path),
                         "--out", str(tmp_path / out)])
            assert code == 0
    first = (tmp_path / "one" / "risk.csv").read_bytes()
    assert first == (tmp_path / "two" / "risk.csv").read_bytes()
    data_rows = [line for line in first.decode().splitlines()
                 if line and not line.startswith("#")][1:]
    assert len(data_rows) == 1
    mean, lo, hi = (float(x) for x in data_rows[0].split(",")[1:4])
    assert math.isfinite(mean) and math.isfinite(lo) and math.isfinite(hi)
    _ok(11, "remote estimate run is finite and reproducible")
