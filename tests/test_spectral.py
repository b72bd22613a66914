import math
from collections import deque
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from tokenchain import spectral
from tokenchain.chains import build_qf, recurrent_block
from tokenchain.oracles import RandomLogitOracle, UniformOracle
from tokenchain.spectral import (
    DEFAULT_EPS_GRID, DEFAULT_MAX_ITER, DEFAULT_TOL, classify_states,
    convergence_profile, doeblin_epsilon, envelope, mixing_report,
    mixing_time, stationary, sweep_temperature, t_min, temperature_csv,
)
from tokenchain.states import VocabSpec, enumerate_states

LAZY = np.array([[0.9, 0.1], [0.2, 0.8]])


def four_cycle():
    P = np.zeros((4, 4))
    for i in range(4):
        P[i, (i + 1) % 4] = 0.5
        P[i, (i - 1) % 4] = 0.5
    return P


# ---------------------------------------------------------------------------
# stationary
# ---------------------------------------------------------------------------

def test_stationary_doubly_stochastic_in_one_step():
    result = stationary([[0.5, 0.5], [0.5, 0.5]])
    npt.assert_array_equal(result.pi, [0.5, 0.5])
    assert result.iterations == 1
    assert result.residual == 0.0
    assert result.converged and not result.periodic


def test_stationary_two_state_closed_form():
    # pi Q = pi solved by hand: pi = (2/3, 1/3)
    result = stationary(LAZY)
    npt.assert_allclose(result.pi, [2 / 3, 1 / 3], atol=1e-9)
    assert result.converged
    # re-check the residual independently
    assert np.abs(result.pi @ LAZY - result.pi).max() <= 1e-12


def test_stationary_vanishes_on_transient_states():
    spec = VocabSpec(2, 3)
    Q = build_qf(UniformOracle(2), spec)
    result = stationary(Q)
    npt.assert_array_equal(result.pi[:6], np.zeros(6))
    npt.assert_allclose(result.pi[6:], 1 / 8, atol=1e-12)


def test_stationary_periodic_chain_uses_window_average():
    result = stationary(four_cycle())
    assert result.periodic
    assert result.converged
    npt.assert_allclose(result.pi, 0.25, atol=1e-12)


def test_stationary_reports_nonconvergence():
    result = stationary(LAZY, max_iter=2)
    assert not result.converged
    assert result.iterations == 2
    assert result.residual > 1e-12


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_sequence_chain_is_aperiodic_unichain():
    spec = VocabSpec(2, 3)
    space = enumerate_states(spec)
    Q = build_qf(RandomLogitOracle(space, seed=2), spec, space)
    report = classify_states(Q)
    assert report.is_unichain
    assert report.aperiodic
    assert len(report.recurrent_classes[0]) == 8
    assert report.recurrent_classes[0] == list(range(6, 14))
    assert report.transient_states == list(range(6))
    assert report.periods == [1]


def test_classify_identity_matrix():
    report = classify_states(np.eye(3))
    assert len(report.recurrent_classes) == 3
    assert report.periods == [1, 1, 1]
    assert report.period == 1
    assert report.transient_states == []


def test_classify_four_cycle_has_period_two():
    report = classify_states(four_cycle())
    assert report.is_unichain
    assert report.period == 2
    assert not report.aperiodic


# ---------------------------------------------------------------------------
# convergence envelope
# ---------------------------------------------------------------------------

def test_epsilon_of_uniform_chains():
    assert doeblin_epsilon([[0.5, 0.5], [0.5, 0.5]], window=1) == 0.5
    spec = VocabSpec(2, 3)
    Q = build_qf(UniformOracle(2), spec)
    # three uniform coin flips reach any 3-token state: (1/2)^3
    assert doeblin_epsilon(Q) == pytest.approx(1 / 8)
    block = recurrent_block(Q)
    assert doeblin_epsilon(block, window=3) == pytest.approx(1 / 8)


def test_profile_uniform_two_state_chain_is_exact():
    profile = convergence_profile([[0.5, 0.5], [0.5, 0.5]], window=1, n_max=10)
    assert profile.epsilon == 0.5
    assert not profile.vacuous
    assert profile.bound_curve[0] == (1, 1.0)
    assert all(b == 0.0 for n, b in profile.bound_curve if n >= 2)
    assert all(e == 0.0 for _, e in profile.empirical_curve)


def test_profile_runs_on_full_chain_and_recurrent_block():
    spec = VocabSpec(2, 3)
    space = enumerate_states(spec)
    Q = build_qf(RandomLogitOracle(space, seed=0), spec, space)
    full = convergence_profile(Q, n_max=200)
    assert 0 < full.epsilon <= 0.5
    assert len(full.empirical_curve) == 200 - 3 + 1
    block = convergence_profile(recurrent_block(Q), window=3, n_max=200)
    assert block.epsilon == pytest.approx(full.epsilon)
    # the block mode ignores transient rows, so it can only be tighter
    for (n, e_block), (_, e_full) in zip(block.empirical_curve,
                                         full.empirical_curve):
        assert e_block <= e_full + 1e-12


def test_profile_vacuous_when_block_has_zeros():
    profile = convergence_profile(np.eye(2), window=1, n_max=5)
    assert profile.epsilon == 0.0
    assert profile.vacuous
    assert all(b == 1.0 for _, b in profile.bound_curve)


def test_profile_rejects_short_horizon():
    with pytest.raises(ValueError):
        convergence_profile(np.eye(2), window=3, n_max=2)


def test_envelope_slows_down_with_larger_window():
    # same rate constant, coarser block exponent: weaker bound at equal n
    n = np.arange(10, 200)
    slow = envelope(1e-6, 8, n)
    fast = envelope(1e-6, 3, n)
    assert np.all(fast <= slow)
    assert fast[-1] < slow[-1]


def test_profile_csv_rows():
    profile = convergence_profile([[0.5, 0.5], [0.5, 0.5]], window=1, n_max=3)
    lines = profile.csv_rows().strip().split("\n")
    assert lines[0] == "n,empirical,bound"
    assert lines[1] == "1,0.0,1.0"


# ---------------------------------------------------------------------------
# mixing times
# ---------------------------------------------------------------------------

def test_mixing_time_uniform_two_state():
    pi = np.array([0.5, 0.5])
    Q = [[0.5, 0.5], [0.5, 0.5]]
    assert mixing_time(Q, pi, 0.01) == 1
    assert mixing_time(Q, pi, 0.3) == 1
    # at threshold 1/2 the identity already qualifies
    assert mixing_time(Q, pi, 0.5) == 0


def test_mixing_time_matches_brute_force_powers():
    pi = stationary(LAZY).pi
    for eps in [0.2, 0.05, 0.01, 0.001]:
        expected = None
        for t in range(200):
            M = np.linalg.matrix_power(LAZY, t)
            if 0.5 * np.abs(M - pi).sum(axis=1).max() <= eps:
                expected = t
                break
        assert mixing_time(LAZY, pi, eps) == expected


def test_mixing_time_monotone_in_threshold():
    pi = stationary(LAZY).pi
    times = [mixing_time(LAZY, pi, eps) for eps in np.linspace(0.01, 0.5, 12)]
    assert all(a >= b for a, b in zip(times, times[1:]))


def test_periodic_chain_never_mixes():
    P = four_cycle()
    pi = stationary(P).pi
    assert mixing_time(P, pi, 0.25) == math.inf
    assert t_min(P, pi) == math.inf


def test_t_min_uniform_two_state_is_four():
    pi = np.array([0.5, 0.5])
    Q = [[0.5, 0.5], [0.5, 0.5]]
    assert t_min(Q, pi) == 4.0
    report = mixing_report(Q)
    assert report.t_min == 4.0
    assert report.argmin_epsilon == 0.0
    assert len(report.rows) == len(DEFAULT_EPS_GRID)
    # factor ((2-e)/(1-e))^2 is at least 4 on [0,1)
    assert all(r.factor >= 4.0 for r in report.rows)


def test_t_min_dominates_four_times_smallest_t_mix():
    pi = stationary(LAZY).pi
    report = mixing_report(LAZY, pi=pi)
    smallest = min(r.t_mix for r in report.rows)
    assert report.t_min >= 4.0 * smallest
    assert math.isfinite(report.t_min)


def test_t_min_grid_validation():
    pi = np.array([0.5, 0.5])
    Q = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ValueError):
        t_min(Q, pi, grid=[])
    with pytest.raises(ValueError):
        t_min(Q, pi, grid=[0.5, 1.0])


def test_mixing_csv_renders_infinity():
    report = mixing_report(four_cycle())
    text = report.csv_rows()
    assert text.splitlines()[0] == "epsilon,t_mix,factor,product"
    assert "+inf" in text


# ---------------------------------------------------------------------------
# temperature sweep
# ---------------------------------------------------------------------------

def test_sweep_temperature_epsilon_nondecreasing():
    spec = VocabSpec(2, 2)
    space = enumerate_states(spec)
    oracle = RandomLogitOracle(space, seed=4)
    points = sweep_temperature(oracle, spec, [0.25, 0.5, 1.0, 2.0, 4.0])
    eps = [p.epsilon for p in points]
    assert all(0 < a <= b for a, b in zip(eps, eps[1:]))
    assert all(p.iterations >= 1 for p in points)
    text = temperature_csv(points)
    assert text.splitlines()[0] == "temperature,epsilon,iterations"
    assert len(text.strip().splitlines()) == 6


# ---------------------------------------------------------------------------
# doubling search against the step-by-step walks it replaced
# ---------------------------------------------------------------------------

def _walk_crossings(D, pi, thresholds, t_cap):
    """Reference: one dense product per step, up to t_cap."""
    pending = sorted(set(thresholds), reverse=True)
    out = {}
    M = np.eye(D.shape[0])
    for t in range(t_cap + 1):
        d = float(0.5 * np.abs(M - pi[None, :]).sum(axis=1).max())
        while pending and d <= pending[0]:
            out[pending.pop(0)] = t
        if not pending:
            return out
        M = M @ D
    return {**out, **{x: math.inf for x in pending}}


def _loop_stationary(P, window, tol, max_iter):
    """Reference: the renormalizing sparse power iteration, step by step.

    Returns the stopping step, the window-averaged iterate there, and the
    stopping rule's measure at every step from the window on.
    """
    mT = sp.csr_matrix(P).T.tocsr()
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    history = deque([pi], maxlen=window + 1)
    measures = {}
    iterations = 0
    for t in range(1, max_iter + 1):
        pi = mT @ pi
        pi = pi / pi.sum()
        history.append(pi)
        iterations = t
        if len(history) == window + 1:
            measures[t] = np.abs(history[-1] - history[0]).sum() / window
            if measures[t] <= tol:
                break
    out = np.mean(list(history)[-window:], axis=0)
    return iterations, out / out.sum(), measures


CHAIN_KINDS = ("mixing", "lazy", "periodic", "transient")


def _chain(seed, n, kind):
    """Small row-stochastic test chains.

    mixing: every entry positive.  lazy: stays put with probability
    0.95-0.995, so thousands of power steps.  periodic: moves through
    2 or 3 cyclic classes.  transient: the first half of the states only
    moves forward, into a positive recurrent block.
    """
    rng = np.random.default_rng(seed)
    if kind == "mixing":
        return rng.dirichlet(np.ones(n), size=n)
    if kind == "lazy":
        stay = rng.uniform(0.95, 0.995)
        move = rng.dirichlet(np.ones(n), size=n)
        return stay * np.eye(n) + (1 - stay) * move
    P = np.zeros((n, n))
    if kind == "periodic":
        period = min(n, int(rng.integers(2, 4)))
        labels = np.arange(n) % period
        for i in range(n):
            targets = np.flatnonzero(labels == (labels[i] + 1) % period)
            P[i, targets] = rng.dirichlet(np.ones(targets.size))
        return P
    h = n // 2
    for i in range(n):
        targets = np.arange(i + 1 if i < h else h, n)
        P[i, targets] = rng.dirichlet(np.ones(targets.size))
    return P


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
       kind=st.sampled_from(CHAIN_KINDS), t_cap=st.integers(0, 400))
def test_mixing_crossings_match_the_walk(seed, n, kind, t_cap):
    P = _chain(seed, n, kind)
    pi = stationary(P).pi
    report = mixing_report(P, pi=pi, t_cap=t_cap)
    walk = _walk_crossings(P, pi, [e / 2 for e in DEFAULT_EPS_GRID], t_cap)
    assert [r.t_mix for r in report.rows] == \
        [walk[e / 2] for e in sorted(DEFAULT_EPS_GRID)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
       kind=st.sampled_from(CHAIN_KINDS), switch=st.integers(1, 40),
       max_iter=st.sampled_from([3, 50, 10**5]))
def test_stationary_doubling_matches_the_loop(seed, n, kind, switch,
                                              max_iter):
    P = _chain(seed, n, kind)
    window = max(1, classify_states(P).period)
    steps, pi, measures = _loop_stationary(P, window, DEFAULT_TOL, max_iter)
    # switch to the doubling search after `switch` loop steps
    with mock.patch.object(spectral, "_switch_step",
                           lambda n, nnz, w, m: min(m, max(w, switch))):
        result = stationary(P, max_iter=max_iter)
    if kind == "lazy":
        # on slow chains the loop's rounding moves the stopping step a little
        assert abs(result.iterations - steps) <= 2 + steps // 100
    elif result.iterations != steps:
        # both sides compute the measure to about 1e-5 relative (a
        # difference of nearly equal vectors), so a step where it sits
        # that close to tol may fall either way
        assert abs(result.iterations - steps) == 1
        tie = measures[min(result.iterations, steps)]
        assert abs(tie - DEFAULT_TOL) <= 1e-4 * DEFAULT_TOL
    npt.assert_allclose(result.pi, pi, rtol=0, atol=1e-9)
    assert result.periodic == (window > 1)


def test_stationary_loop_only_above_the_powers_budget(monkeypatch):
    spec = VocabSpec(2, 3)
    space = enumerate_states(spec)
    Q = build_qf(RandomLogitOracle(space, seed=0, scale=2.0,
                                   temperature=0.3), spec, space)
    doubled = stationary(Q)
    assert doubled.iterations > spectral._switch_step(
        Q.n_states, Q.sparse().nnz, 1, DEFAULT_MAX_ITER)
    monkeypatch.setattr(spectral, "POWERS_BUDGET_BYTES", 0)
    looped = stationary(Q)
    assert abs(doubled.iterations - looped.iterations) <= \
        2 + looped.iterations // 100
    assert doubled.converged and looped.converged
    npt.assert_allclose(doubled.pi, looped.pi, rtol=0, atol=1e-9)


def test_stationary_search_stops_at_max_iter():
    lazy = _chain(0, 5, "lazy")
    max_iter = 10**4 + 7
    result = stationary(lazy, tol=1e-300, max_iter=max_iter)
    assert result.iterations == max_iter
    assert not result.converged
    # the iterate at max_iter, as the loop would have left it
    _, pi, _ = _loop_stationary(lazy, 1, 1e-300, max_iter)
    npt.assert_allclose(result.pi, pi, rtol=0, atol=1e-12)


def test_profile_counts_envelope_violations():
    # a zero "stationary" vector is a fixed point of the polish, so every
    # step deviates by the largest entry of Q^n, above the decaying bound
    profile = convergence_profile(LAZY, window=1, n_max=20, pi=np.zeros(2))
    assert profile.violations > 0
    assert convergence_profile(LAZY, window=1, n_max=20).violations == 0
