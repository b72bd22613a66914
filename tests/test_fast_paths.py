"""The array forms of sampling, context risks, n-gram counting and coin
counts against loop references that keep the code they replaced; each pair
must agree exactly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tokenchain import cli, estimation
from tokenchain.bounds import MC_BATCH
from tokenchain.chains import TransitionMatrix
from tokenchain.cli import _coin_counts, _head_share
from tokenchain.estimation import (
    kl_divergence,
    kl_risk,
    oracle_divergence,
    sample_trajectory,
    tv_distance,
    tv_risk,
)
from tokenchain.generators import random_chain
from tokenchain.oracles import NgramOracle, Oracle, fit_ngram


# ---------------------------------------------------------------------------
# references: the per-step loops
# ---------------------------------------------------------------------------

def loop_sample(Q, start, n, seed=0):
    rows = TransitionMatrix.of(Q).dense()
    d = rows.shape[0]
    rng = np.random.default_rng(seed)
    cum = np.cumsum(rows, axis=1)
    out = np.empty(n, dtype=np.int64)
    if start is None:
        start = np.full(d, 1.0 / d)
    if np.ndim(start) == 0:
        x = int(start)
    else:
        start_cum = np.cumsum(np.asarray(start, dtype=float))
        x = min(int(np.searchsorted(start_cum, rng.random(), side="right")), d - 1)
    out[0] = x
    draws = rng.random(n - 1)
    for k in range(n - 1):
        x = min(int(np.searchsorted(cum[x], draws[k], side="right")), d - 1)
        out[k + 1] = x
    return out


def loop_divergences(Q_true, predictor, traj, div):
    rows = TransitionMatrix.of(Q_true).dense()
    states = traj.states
    cap = getattr(predictor, "context_cap", None)
    if cap == 1:
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


def loop_oracle_divergence(o1, o2, trajs):
    caps = [getattr(o, "context_cap", None) for o in (o1, o2)]
    cap = None if None in caps else max(caps)
    totals = []
    for traj in trajs:
        states = traj.states
        acc = 0.0
        for k in range(states.size):
            lo = 0 if cap is None else max(0, k + 1 - cap)
            ctx = tuple(states[lo:k + 1])
            acc += tv_distance(o1.query(ctx), o2.query(ctx))
        totals.append(acc / states.size)
    return float(np.mean(totals))


def loop_ngram_counts(states, order, n_symbols):
    counts = {}
    seq = [int(s) for s in states]
    for length in range(1, min(order, len(seq) - 1) + 1):
        for i in range(len(seq) - length):
            ctx = tuple(seq[i:i + length])
            row = counts.get(ctx)
            if row is None:
                row = counts[ctx] = np.zeros(n_symbols)
            row[seq[i + length]] += 1
    return counts


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@st.composite
def sampling_cases(draw):
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rows with zero entries, some with a single nonzero
    keep = rng.random((d, d)) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    keep[np.arange(d), rng.integers(0, d, d)] = True
    rows = rng.random((d, d)) * keep
    rows /= rows.sum(axis=1, keepdims=True)
    kind = draw(st.sampled_from(["none", "state", "vector"]))
    if kind == "none":
        start = None
    elif kind == "state":
        start = draw(st.integers(0, d - 1))
    else:
        start = rng.random(d) * (rng.random(d) < 0.5)
        start[rng.integers(0, d)] += 1.0
        start /= start.sum()
    block = draw(st.sampled_from([1, 2, 5]))
    n = draw(st.sampled_from([1, 2, block, block + 1, block + 2]))
    seed = draw(st.one_of(st.integers(0, 2**64 - 1),
                          st.lists(st.integers(0, 2**32 - 1),
                                   min_size=1, max_size=3)))
    # rows bisected as lists (d at most the limit) or as numpy rows
    list_limit = draw(st.sampled_from([0, 20, 64]))
    return rows, start, n, seed, block, list_limit


@settings(max_examples=150, deadline=None)
@given(sampling_cases())
def test_sampler_matches_the_searchsorted_loop(case):
    rows, start, n, seed, block, list_limit = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "SAMPLE_BLOCK", block)
        patch.setattr(estimation, "LIST_ROWS_MAX_STATES", list_limit)
        fast = sample_trajectory(rows, start, n, seed=seed).states
    np.testing.assert_array_equal(fast, loop_sample(rows, start, n, seed))


@pytest.mark.parametrize("d", [3, 40, 100])
def test_sampler_matches_the_loop_across_a_block(d):
    Q = random_chain(d, seed=d)
    n = estimation.SAMPLE_BLOCK + 2
    np.testing.assert_array_equal(sample_trajectory(Q, None, n, seed=[d]).states,
                                  loop_sample(Q, None, n, [d]))


# ---------------------------------------------------------------------------
# coin counts
# ---------------------------------------------------------------------------

COIN_NS = [1, 2, 7, 37, 100, 101]
COIN_SIZES = [1, 3, MC_BATCH]


@pytest.mark.parametrize("size", COIN_SIZES)
@pytest.mark.parametrize("n", COIN_NS)
def test_coin_rows_are_numpys_bounded_draws(size, n):
    counts = _coin_counts(n, np.random.default_rng([9, n]), size)
    expected = np.random.default_rng([9, n]).integers(0, 2, (size, n))
    np.testing.assert_array_equal(counts, expected.sum(axis=1))
    np.testing.assert_array_equal(_head_share(n, counts),
                                  np.mean(expected, axis=1))


# blocks of a few raw words: many blocks per batch, mostly of 2 rows, and
# at an odd n a block of an odd row count would end inside a raw output
@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("size", COIN_SIZES)
@pytest.mark.parametrize("n", COIN_NS)
def test_coin_counts_do_not_depend_on_the_block(monkeypatch, block, size, n):
    monkeypatch.setattr(cli, "COIN_BLOCK", block)
    expected = np.random.default_rng([9, n]).integers(0, 2, (size, n))
    np.testing.assert_array_equal(
        _coin_counts(n, np.random.default_rng([9, n]), size),
        expected.sum(axis=1))


# ---------------------------------------------------------------------------
# n-gram counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 40, 500])
def test_ngram_counts_match_the_window_loop(order, n):
    states = sample_trajectory(random_chain(3, seed=order), 0, n,
                               seed=n).states
    fast = fit_ngram(states, order, alpha=0.0, n_symbols=3).counts
    slow = loop_ngram_counts(states, order, 3)
    assert list(fast) == list(slow)
    for ctx, row in slow.items():
        np.testing.assert_array_equal(fast[ctx], row)


# ---------------------------------------------------------------------------
# risks and oracle divergence
# ---------------------------------------------------------------------------

class LengthOracle(Oracle):
    """Reads the whole context: its answer depends on the context length."""

    def __init__(self, n_symbols):
        self.n_symbols = n_symbols

    def _distribution(self, context):
        p = np.arange(1.0, self.n_symbols + 1) ** (len(context) % 3)
        return p / p.sum()


def _fitted(cap, fit_traj):
    if cap is None:
        return LengthOracle(3)
    return fit_ngram(fit_traj, cap, alpha=0.0, n_symbols=3)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, None])
@pytest.mark.parametrize("risk,div", [(tv_risk, tv_distance),
                                      (kl_risk, kl_divergence)])
@pytest.mark.parametrize("fit_n", [30, 3000])
def test_risks_match_the_per_step_loop(cap, risk, div, fit_n):
    Q = random_chain(3, seed=11)
    traj = sample_trajectory(Q, None, 400, seed=12)
    # a short fit leaves contexts unseen (and KL infinite); a long one not
    fit_traj = sample_trajectory(Q, None, fit_n, seed=13)
    fast_oracle, slow_oracle = _fitted(cap, fit_traj), _fitted(cap, fit_traj)
    fast = risk(Q, fast_oracle, traj)
    slow = float(np.mean(loop_divergences(Q, slow_oracle, traj, div)))
    assert fast == slow
    if risk is kl_risk and cap is not None and fit_n == 30:
        assert fast == math.inf
    if isinstance(fast_oracle, NgramOracle):
        # the path visits every state, so the old cap-1 table asked for
        # no context off it
        assert fast_oracle.unseen_queried == slow_oracle.unseen_queried


@pytest.mark.parametrize("cap", [1, 2])
def test_unseen_queried_names_only_the_paths_contexts(cap):
    # state 2 is unreachable from 0, so neither path below visits it
    Q = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    traj = sample_trajectory(Q, 0, 200, seed=31)
    fit_traj = sample_trajectory(Q, 0, 4, seed=32)
    fast_oracle, slow_oracle = _fitted(cap, fit_traj), _fitted(cap, fit_traj)
    assert tv_risk(Q, fast_oracle, traj) == float(np.mean(
        loop_divergences(Q, slow_oracle, traj, tv_distance)))
    states = traj.states.tolist()
    contexts = {tuple(states[max(0, k + 1 - cap):k + 1])
                for k in range(len(states))}
    assert fast_oracle.unseen_queried == contexts - set(fast_oracle.counts)
    assert fast_oracle.unseen_queried == slow_oracle.unseen_queried & contexts
    # the old cap-1 table also asked for the states off the path
    off_path = {(2,)} if cap == 1 else set()
    assert slow_oracle.unseen_queried - contexts == off_path


def test_context_scores_of_an_empty_path_and_a_zero_cap():
    empty = np.empty(0, dtype=np.int64)
    assert estimation._context_scores(empty, 3, len).size == 0
    with pytest.raises(ValueError, match="context cap"):
        estimation._context_scores(np.array([0, 1]), 0, len)


@pytest.mark.parametrize("caps", [(1, 2), (2, 4), (1, None)])
def test_oracle_divergence_matches_the_loop(caps):
    Q = random_chain(3, seed=21)
    trajs = [sample_trajectory(Q, None, 200, seed=s) for s in range(3)]
    fit_traj = sample_trajectory(Q, None, 60, seed=22)
    o1, o2 = (_fitted(cap, fit_traj) for cap in caps)
    assert oracle_divergence(o1, o2, trajs) == pytest.approx(
        loop_oracle_divergence(o1, o2, trajs), rel=1e-15)
