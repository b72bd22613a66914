"""The array forms of sampling, context risks, n-gram counting, coin
counts, the convergence profile, the stationary step loop and toy training
against loop references that keep the code they replaced; each pair must
agree exactly."""

import math
import tracemalloc
from bisect import bisect_right
from collections import deque
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tokenchain import bounds, estimation, spectral
from tokenchain.bounds import MC_BATCH, _coin_counts, _head_share
from tokenchain.chains import TransitionMatrix, build_qf
from tokenchain.estimation import (
    frequentist_estimate,
    kl_divergence,
    kl_risk,
    sample_trajectory,
    tv_distance,
    tv_risk,
)
from tokenchain.generators import random_chain
from tokenchain.oracles import (
    ChainOracle,
    NgramOracle,
    Oracle,
    RandomLogitOracle,
    ToyModel,
    ToyModelConfig,
    TrainingDivergedError,
    fit_ngram,
    parity_sequence,
    train_toy,
    windowed_examples,
)
from tokenchain.spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_N_MAX,
    DEFAULT_T_CAP,
    DEFAULT_TOL,
    ConvergenceProfile,
    StationaryResult,
    _doubling_search,
    _polish_fixpoint,
    classify_states,
    convergence_profile,
    doeblin_epsilon,
    envelope,
    mixing_bytes,
    stationary,
)
from tokenchain.states import VocabSpec


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


def bisect_sample(Q, start, n, seed=0):
    """The sampler before rank lookup: each step bisects its cumulative
    row, held as a Python list, and clamps to the last state."""
    rows = TransitionMatrix.of(Q).dense()
    d = rows.shape[0]
    rng = np.random.default_rng(seed)
    if start is not None and np.ndim(start) == 0:
        x = int(start)
    else:
        p = np.full(d, 1.0 / d) if start is None else np.asarray(start)
        x = min(int(np.searchsorted(np.cumsum(p), rng.random(),
                                    side="right")), d - 1)
    cum = np.cumsum(rows, axis=1).tolist()
    out = [x]
    for u in rng.random(n - 1).tolist():
        x = min(bisect_right(cum[x], u), d - 1)
        out.append(x)
    return np.array(out, dtype=np.int64)


def add_at_estimate(states, d):
    """frequentist_estimate's rows as np.add.at counted them."""
    counts = np.zeros((d, d))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    totals = counts.sum(axis=1)
    unvisited = np.flatnonzero(totals == 0)
    totals[unvisited] = 1.0
    rows = counts / totals[:, None]
    rows[unvisited] = 1.0 / d
    return rows, unvisited.tolist()


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

def random_rows(rng, d, density):
    """d random rows, some with zero entries (so repeated breakpoints) and
    some with a single nonzero."""
    keep = rng.random((d, d)) < density
    keep[np.arange(d), rng.integers(0, d, d)] = True
    rows = rng.random((d, d)) * keep
    return rows / rows.sum(axis=1, keepdims=True)


@st.composite
def sampling_cases(draw):
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = random_rows(rng, d, draw(st.sampled_from([0.1, 0.5, 1.0])))
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


def no_bisect(*args):
    raise AssertionError("a ranked path bisects no row")


def jumping(patch, rows, L):
    """A sampler of ``rows`` that steps L draws a lookup: the table cap
    is patched to d R^L, and the sampler built for many paths, which take
    its tables on blocks of any length."""
    cum = np.cumsum(rows, axis=1)
    R = np.unique(cum[rows > 0]).size + 1
    patch.setattr(estimation, "JUMP_ENTRIES", len(rows) * R ** L)
    patch.setattr(estimation, "JUMP_MIN_DRAWS", 1)
    patch.setattr(estimation, "bisect_right", no_bisect)
    sampler = estimation.PathSampler(rows, 10 ** 9)
    assert sampler.L == L
    return sampler


@st.composite
def ranked_cases(draw):
    # on both sides of LIST_ROWS_MAX_STATES, and few enough states for
    # several draws a lookup
    d = draw(st.one_of(st.integers(1, 5), st.integers(1, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = random_rows(rng, d, draw(st.sampled_from([0.1, 0.5, 1.0])))
    # L from 1 to 5, as far as a table of 2^18 entries goes
    R = np.unique(np.cumsum(rows, axis=1)[rows > 0]).size + 1
    L = max(1, min(draw(st.integers(1, 5)),
                   int(math.log(2 ** 18 / d) / math.log(R))))
    while L > 1 and d * R ** L > 2 ** 18:  # the float log rounded up
        L -= 1
    start = draw(st.one_of(st.none(), st.integers(0, d - 1)))
    block = draw(st.sampled_from([1, 7, 64]))
    # whole codes, one draw short of them and one over, within a block
    # and across blocks
    k = draw(st.integers(1, 90))
    n = draw(st.sampled_from([1, 2, L * k, L * k + 1, L * k + 2, block + 1,
                              3 * block + 2, 300]))
    return rows, start, n, draw(st.integers(0, 2**64 - 1)), block, L


@settings(max_examples=150, deadline=None)
@given(ranked_cases())
def test_rank_lookup_matches_the_bisect_loop(case):
    rows, start, n, seed, block, L = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "SAMPLE_BLOCK", block)
        sampler = jumping(patch, rows, L)
        fast = sample_trajectory(sampler, start, n, seed=seed).states
    np.testing.assert_array_equal(fast, bisect_sample(rows, start, n, seed))


class ScriptedDraws(np.random.Generator):
    """A generator whose ``random(size)`` hands out fixed draws."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = draws

    def random(self, size=None):
        return self.draws[:size].copy()


# zero entries repeat breakpoints, and the last row sums to 1 - 2^-53, so
# a draw at or above its last breakpoint is clamped to the last state
EDGE_ROWS = np.array([[0.25, 0.0, 0.5, 0.25], [0.0, 0.0, 1.0, 0.0],
                      [0.1, 0.2, 0.3, 0.4], [0.1, 0.7, 0.1, 0.1]])


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("block", [7, estimation.SAMPLE_BLOCK])
def test_rank_lookup_on_and_beside_breakpoints(block, extra):
    """Draws of 0, of every breakpoint and of each one's float neighbours,
    shuffled so that every row meets them, over paths that end just
    before, on and after a block edge, stepped 1 to 5 draws a lookup:
    the leftover draws of a block number 0 to L - 1."""
    cum = np.unique(np.cumsum(EDGE_ROWS, axis=1))
    assert cum[-2] < 1.0 and cum.size < 12
    near = np.concatenate(([0.0], cum, np.nextafter(cum, 0.0),
                           np.nextafter(cum, 2.0)))
    near = np.unique(near[near < 1.0])
    n = (block if block > 400 else 60 * block) + extra
    draws = near[np.random.default_rng(0).permutation(
        np.resize(np.arange(near.size), n - 1))]
    slow = bisect_sample(EDGE_ROWS, 0, n, ScriptedDraws(draws))
    assert np.bincount(slow, minlength=4).min() > 0
    for L in range(1, 6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "SAMPLE_BLOCK", block)
            fast = sample_trajectory(jumping(patch, EDGE_ROWS, L), 0, n,
                                     seed=ScriptedDraws(draws)).states
        np.testing.assert_array_equal(fast, slow)
    # a sampler built for this path alone takes the same steps, by its
    # tables on the long blocks and by bisection on the short ones
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "SAMPLE_BLOCK", block)
        fast = sample_trajectory(EDGE_ROWS, 0, n,
                                 seed=ScriptedDraws(draws)).states
    np.testing.assert_array_equal(fast, slow)


@pytest.mark.parametrize("n,block,bisected", [
    (2, 10 ** 6, 1), (128, 10 ** 6, 127), (129, 10 ** 6, 0),
    (300, 200, 99), (328, 200, 127), (329, 200, 0), (400, 130, 9)])
def test_short_blocks_bisect(n, block, bisected):
    """Blocks of fewer than JUMP_MIN_DRAWS draws bisect the rows, even on
    a sampler with tables, and the path is the same; a sampler built for
    fewer than four times as many draws has no tables."""
    assert estimation.JUMP_MIN_DRAWS == 128
    assert estimation.PathSampler(EDGE_ROWS, 511).L == 0
    assert estimation.PathSampler(EDGE_ROWS, 512).L == 2
    sampler = estimation.PathSampler(EDGE_ROWS, 10 ** 6)
    assert sampler.L >= 3
    calls = []

    def counted(row, u):
        calls.append(u)
        return bisect_right(row, u)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "SAMPLE_BLOCK", block)
        patch.setattr(estimation, "bisect_right", counted)
        fast = sample_trajectory(sampler, 1, n, seed=n).states
    assert len(calls) == bisected
    np.testing.assert_array_equal(fast, bisect_sample(EDGE_ROWS, 1, n, n))


class TopDraw(np.random.Generator):
    """A generator whose one draw is 1 - 2^-53, and whose arrays are 0."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def random(self, size=None):
        return 1.0 - 2.0 ** -53 if size is None else np.zeros(size)


def test_a_start_draw_past_the_vector_sum_takes_the_last_state():
    """A start vector may sum to a little under 1; a draw at or past its
    sum starts the path at the last state, as a row's does."""
    rows = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    start = np.array([0.25, 0.25, 0.5 - 2.0 ** -53])
    assert np.cumsum(start)[-1] == 1.0 - 2.0 ** -53
    for n in (1, 3):
        path = sample_trajectory(rows, start, n, seed=TopDraw()).states
        assert path[0] == 2
        np.testing.assert_array_equal(
            path, bisect_sample(rows, start, n, TopDraw()))


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (3, 1000), (7, 50),
                                 (64, 300), (200, 1000)])
def test_frequentist_counts_match_add_at(d, n):
    states = sample_trajectory(random_chain(d, seed=d), 0, n,
                               seed=n).states
    # d + 3 leaves rows no path visits
    for width in (None, d + 3):
        fit = frequentist_estimate(states, width)
        rows, unvisited = add_at_estimate(
            states, width or int(states.max()) + 1)
        assert fit.dense().tobytes() == rows.tobytes()
        assert fit.meta["uniform_rows"] == unvisited


# ---------------------------------------------------------------------------
# coin counts
# ---------------------------------------------------------------------------

COIN_NS = [1, 2, 7, 37, 64, 65, 100, 101]
COIN_SIZES = [1, 3, MC_BATCH]


def raw_bit_rows(n, rng, size):
    """size rows of n coins: bit j of the raw stream is bit j % 64, from
    the least significant, of output j // 64."""
    words = rng.bit_generator.random_raw(-(-size * n // 64))
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.ravel()[:size * n].reshape(size, n)


@pytest.mark.parametrize("size", COIN_SIZES)
@pytest.mark.parametrize("n", COIN_NS)
def test_coin_rows_are_consecutive_raw_bits(size, n):
    counts = _coin_counts(n, np.random.default_rng([9, n]), size)
    expected = raw_bit_rows(n, np.random.default_rng([9, n]), size)
    np.testing.assert_array_equal(counts, expected.sum(axis=1))
    np.testing.assert_array_equal(_head_share(n, counts),
                                  np.mean(expected, axis=1))


# numpy's bounded bool draws are the same stream: each takes the next bit,
# from the least significant, of a 32-bit draw, and PCG64 hands out the low
# half of each output before the high half
@pytest.mark.parametrize("size", COIN_SIZES)
@pytest.mark.parametrize("n", COIN_NS)
def test_coin_rows_are_numpys_bounded_draws(size, n):
    counts = _coin_counts(n, np.random.default_rng([9, n]), size)
    expected = np.random.default_rng([9, n]).integers(0, 2, (size, n),
                                                      dtype=bool)
    np.testing.assert_array_equal(counts, expected.sum(axis=1))
    np.testing.assert_array_equal(_head_share(n, counts),
                                  np.mean(expected, axis=1))


# blocks of a few raw words: many blocks per batch, and rows that cross
# the edges between them
@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("size", COIN_SIZES)
@pytest.mark.parametrize("n", COIN_NS)
def test_coin_counts_do_not_depend_on_the_block(monkeypatch, block, size, n):
    monkeypatch.setattr(bounds, "COIN_BLOCK", block)
    expected = raw_bit_rows(n, np.random.default_rng([9, n]), size)
    np.testing.assert_array_equal(
        _coin_counts(n, np.random.default_rng([9, n]), size),
        expected.sum(axis=1))


def test_coin_tails_match_the_binomial():
    """Each empirical tail of 2 * 10^5 means of 100 coins lies within 4
    binomial standard errors of the exact tail, taken over the head counts
    k that pass the check's own float test."""
    n, n_samples = 100, 200_000
    grid = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    report = bounds.mc_verify(partial(_coin_counts, n),
                              partial(_head_share, n), np.full(n, 1.0 / n),
                              n_samples, grid, mean=0.5, seed=11)
    for check in report.checks:
        exact = sum(math.comb(n, k) for k in range(n + 1)
                    if abs(k / n - 0.5) >= check.u) / 2 ** n
        stderr = math.sqrt(exact * (1.0 - exact) / n_samples)
        assert abs(check.empirical - exact) <= 4.0 * stderr, check


def sampler_peak(n, size):
    # the generator is made first: a first one imports modules
    rng = np.random.default_rng(n)
    tracemalloc.start()
    try:
        _coin_counts(n, rng, size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# odd n above 2^21 / 64 coins: 64 rows of them keep the test fast
@pytest.mark.parametrize("n", [1, 100, 30_000, 40_001, 1_000_001])
def test_coin_check_bytes_covers_the_sampler(n):
    size = MC_BATCH if n <= 30_000 else 64
    assert sampler_peak(n, size) <= bounds.coin_check_bytes(n, size)


def test_wide_coin_rows_hold_one_block():
    """64 rows of 1,000,001 coins are 10^6 raw words; the sampler holds
    COIN_BLOCK of them and their prefix, where rounding a block to whole
    outputs held all of them (16.0 MB)."""
    assert sampler_peak(1_000_001, 64) < 1 << 20


@pytest.mark.parametrize("n,n_samples", [(40_001, 200), (1_000_001, 64)])
def test_coin_check_bytes_covers_the_whole_check(n, n_samples):
    """c, the sampler, and mc_verify's own generators, report and numpy
    temporaries: the sampler's terms alone fell 7 and 13 KB short."""
    np.random.default_rng(n)
    grid = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    tracemalloc.start()
    try:
        bounds.mc_verify(partial(_coin_counts, n), partial(_head_share, n),
                         np.full(n, 1.0 / n), n_samples, grid, mean=0.5,
                         seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bounds.coin_check_bytes(n, n_samples)


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
    def score(contexts, lasts):
        return map(len, contexts)

    empty = np.empty(0, dtype=np.int64)
    assert estimation._context_scores(empty, 3, score).size == 0
    with pytest.raises(ValueError, match="context cap"):
        estimation._context_scores(np.array([0, 1]), 0, score)


def per_step_scores(states, score):
    """Each step's one-state context, scored on its own."""
    return np.array([score((s,)) for s in states])


# at d = 3, and at d = 200 over 3,000 steps, every state id is below the
# path's length; at d = 200 over 60 steps some are not.  A 10-step fit
# leaves transitions unseen, so at d = 3 some step's KL is infinite.
@pytest.mark.parametrize("d,n", [(3, 400), (200, 60), (200, 3000)])
@pytest.mark.parametrize("risk,div", [(tv_risk, tv_distance),
                                      (kl_risk, kl_divergence)])
def test_one_state_risks_match_per_step_scoring(d, n, risk, div):
    Q = random_chain(d, seed=d)
    rows = Q.dense()
    traj = sample_trajectory(Q, None, n, seed=n)
    fit_traj = sample_trajectory(Q, None, 10, seed=1)
    for fitted in (lambda: ChainOracle(frequentist_estimate(fit_traj, d)),
                   lambda: fit_ngram(fit_traj, 1, alpha=0.0, n_symbols=d)):
        fast_oracle, slow_oracle = fitted(), fitted()
        fast = risk(Q, fast_oracle, traj)
        assert fast == float(np.mean(per_step_scores(
            traj.states,
            lambda ctx: div(rows[ctx[-1]], slow_oracle.query(ctx)))))
        if risk is kl_risk and d == 3:
            assert fast == math.inf
        if isinstance(fast_oracle, NgramOracle):
            # the 10-step fit saw at most 9 of the 200 contexts
            assert bool(fast_oracle.unseen_queried) == (d == 200)
            assert fast_oracle.unseen_queried == slow_oracle.unseen_queried


# ---------------------------------------------------------------------------
# convergence profile: one dense product per step
# ---------------------------------------------------------------------------

def loop_profile(Q, n_max=DEFAULT_N_MAX, pi=None) -> ConvergenceProfile:
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
    steps = range(window, n_max + 1)
    bounds = envelope(eps, window, steps).tolist()
    bound_curve, empirical_curve = [], []
    violations = 0
    for n, b in zip(steps, bounds):
        dev = float(np.abs(M - pi[None, :]).max())
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


def first_repeat(Q, window, n_max):
    """(m, p) for the first n = m + p <= n_max with Q^n == Q^m bit for
    bit, or None."""
    D = TransitionMatrix.of(Q).dense()
    M = np.linalg.matrix_power(D, window)
    seen = {}
    for n in range(window, n_max + 1):
        m = seen.setdefault(M.tobytes(), n)
        if m != n:
            return m, n - m
        M = M @ D
    return None


def random_logit_chain(T, K, seed):
    spec = VocabSpec(T, K)
    return build_qf(RandomLogitOracle(spec, seed=seed), spec)


def counted_profile(monkeypatch, *args, **kwargs):
    """The profile and the number of products its step loop took."""
    products, np_matmul = [], np.matmul

    def matmul(*a, **kw):
        products.append(1)
        return np_matmul(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(np, "matmul", matmul)
        return convergence_profile(*args, **kwargs), len(products)


# T=2, K=6 random-logit chains at seeds 0, 2, 7 and 11 first repeat at
# n = 347 + 1, 246 + 12, 561 + 3 and 225 + 2; seed 1 not by n = 1000
@pytest.mark.parametrize("Q,kwargs", [
    # a rank-one chain: Q^n = Q from the start
    ([[0.5, 0.25, 0.25]] * 3, {}),
    (np.eye(2), {"n_max": 5}),
    # the periodic walk: a 3-cycle of period 3, eps = 0
    (np.roll(np.eye(3), 1, axis=1), {"n_max": 50}),
    # a multichain: two closed classes and a transient state
    ([[0.5, 0.5, 0, 0, 0], [0.25, 0.75, 0, 0, 0], [0, 0, 0.5, 0.5, 0],
      [0, 0, 0.3, 0.7, 0], [0.2, 0.2, 0.2, 0.2, 0.2]], {"n_max": 300}),
    # a profile of one step, at the window
    (random_logit_chain(2, 3, 5), {"n_max": 3}),
    (random_logit_chain(2, 6, 0), {}),
    (random_logit_chain(2, 6, 1), {}),
    (random_logit_chain(2, 6, 2), {}),
    (random_logit_chain(2, 6, 7), {}),
    (random_logit_chain(2, 6, 11), {}),
    # T=2, K=4, seed 19: period 6 from n = 175, two deviations in a period
    (random_logit_chain(2, 4, 19), {}),
    # repeats past n_max
    (random_logit_chain(2, 6, 11), {"n_max": 100}),
    (random_logit_chain(2, 6, 2), {"n_max": 250}),
    # a zero "stationary" vector: violations past the repeat as well
    ([[0.9, 0.1], [0.2, 0.8]], {"n_max": 400, "pi": np.zeros(2)}),
])
def test_profile_matches_the_product_loop(monkeypatch, Q, kwargs):
    profile, products = counted_profile(monkeypatch, Q, **kwargs)
    assert profile == loop_profile(Q, **kwargs)
    window = profile.window
    n_max = kwargs.get("n_max", DEFAULT_N_MAX)
    repeat = first_repeat(Q, window, n_max)
    if repeat is None:
        assert products == n_max - window
    else:
        onset, period = repeat
        assert products <= min(onset + 2 * period, n_max) - window


def test_profile_checks_each_fingerprint_match(monkeypatch):
    """With every fingerprint 0, each candidate repeat is false until the
    check of one more period proves one; the curve stays the loop's."""
    class ZeroFingerprints:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def dot(x, y):
            return np.uint64(0) if x.dtype == np.uint64 else np.dot(x, y)

    chains = [random_logit_chain(2, 4, 19), random_logit_chain(2, 6, 1)]
    loops = [loop_profile(Q) for Q in chains]
    monkeypatch.setattr(spectral, "np", ZeroFingerprints())
    assert [convergence_profile(Q) for Q in chains] == loops


def test_profile_peak_is_admitted_by_mixing_bytes():
    """The iterate, its work buffer, the check copy of a candidate repeat
    and the fingerprint's weights, next to the dense chain: within what
    analyze admits."""
    Q = random_logit_chain(2, 7, 3)
    n, pi = Q.n_states, stationary(Q).pi
    convergence_profile(Q, n_max=20, pi=pi)
    tracemalloc.start()
    try:
        convergence_profile(Q, pi=pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mixing_bytes(n, 0) <= mixing_bytes(n, DEFAULT_T_CAP)


# ---------------------------------------------------------------------------
# stationary: a fresh iterate and one stopping check a step
# ---------------------------------------------------------------------------

def loop_stationary(Q, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                    classification=None) -> StationaryResult:
    Q = TransitionMatrix.of(Q)
    n = Q.n_states
    if classification is None:
        classification = classify_states(Q)
    window = max(1, classification.period)
    step = Q.left_product()
    # the entries a K = 1 step reads
    stored = Q.nonzero_count()
    pi = np.full(n, 1.0 / n)
    history = deque([pi], maxlen=window + 1)
    diff = np.empty(n)
    iterations = 0
    stopped = False
    for t in range(1, spectral._switch_step(n, stored, window, max_iter) + 1):
        pi = step(pi)
        total = pi.sum()
        if total > 0:
            pi /= total
        history.append(pi)
        iterations = t
        if len(history) == window + 1:
            np.abs(np.subtract(history[-1], history[0], out=diff), out=diff)
            if diff.sum() / window <= tol:
                stopped = True
                break
    tail = list(history)[-window:]
    out = tail[0] if window == 1 else np.mean(tail, axis=0)
    if not stopped and iterations < max_iter:
        # both rows move on by Q^s: the window's step difference, whose L1
        # norm never grows under a stochastic Q, and the window average
        start = np.vstack([history[-1] - history[0], out])
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


def stationary_outcome(solve, Q, **kwargs):
    result = solve(Q, **kwargs)
    return (result.pi.tobytes(), result.iterations, result.residual,
            result.converged, result.periodic)


def cyclic_rows(seed, d, period, stay=0.0):
    """d random rows that move from class i % period to the next one, with
    ``stay`` of each row on state i + 1 (d a multiple of the period): the
    larger ``stay``, the slower the chain mixes."""
    rng = np.random.default_rng(seed)
    labels = np.arange(d) % period
    P = rng.random((d, d)) * (labels[None, :] == (labels[:, None] + 1) % period)
    return (stay * np.roll(np.eye(d), 1, axis=1)
            + (1 - stay) * P / P.sum(axis=1, keepdims=True))


def cyclic_table(seed, T, K, period):
    """The sequence chain whose next token follows the last one by the
    rows of `cyclic_rows`: its period is the rows'."""
    spec = VocabSpec(T, K)
    return build_qf(ChainOracle(cyclic_rows(seed, T, period)), spec)


def slow_table(T, K, seed, temperature):
    spec = VocabSpec(T, K)
    return build_qf(RandomLogitOracle(spec, seed=seed,
                                      scale=2.0, temperature=temperature), spec)


# (chain, its period): table and dense chains, windows 1 to 3
STATIONARY_CHAINS = [
    (slow_table(2, 3, 0, 0.5), 1),
    (slow_table(2, 6, 0, 1.0), 1),
    (slow_table(3, 4, 1, 0.7), 1),
    (random_logit_chain(4, 2, 5), 1),
    (cyclic_table(3, 4, 1, 2), 2),
    (cyclic_table(4, 4, 2, 2), 2),
    (cyclic_table(5, 6, 2, 3), 3),
    (cyclic_table(6, 3, 1, 3), 3),
    (cyclic_rows(7, 6, 1), 1),
    (cyclic_rows(8, 5, 1, stay=0.95), 1),
    (cyclic_rows(9, 6, 2, stay=0.9), 2),
    (cyclic_rows(10, 6, 3), 3),
    (cyclic_rows(11, 9, 3, stay=0.9), 3),
    # the uniform start is every iterate: only a full window may stop it
    (np.roll(np.eye(3), 1, axis=1), 3),
]


def no_switch(n, nnz, window, max_iter):
    return max_iter


@pytest.mark.parametrize("check_steps", [None, 1, 4])
@pytest.mark.parametrize("loop_only", [False, True])
@pytest.mark.parametrize("Q,period", STATIONARY_CHAINS)
def test_stationary_matches_the_step_loop(monkeypatch, Q, period, loop_only,
                                          check_steps):
    assert classify_states(Q).period == period
    if loop_only:
        monkeypatch.setattr(spectral, "_switch_step", no_switch)
    if check_steps is not None:
        monkeypatch.setattr(spectral, "CHECK_STEPS", check_steps)
    for kwargs in ({}, {"max_iter": 3000}, {"tol": 1e-6}):
        outcome = stationary_outcome(stationary, Q, **kwargs)
        assert outcome == stationary_outcome(loop_stationary, Q, **kwargs)
        assert outcome[4] == (period > 1)


def loop_measures(Q, window, steps):
    """The stopping rule's measure at steps 1..steps, inf below the
    window, as the step loop computes it."""
    step, n = Q.left_product(), Q.n_states
    pi = np.full(n, 1.0 / n)
    history = deque([pi], maxlen=window + 1)
    measures = []
    for _ in range(steps):
        pi = step(pi)
        pi /= pi.sum()
        history.append(pi)
        measures.append(np.abs(history[-1] - history[0]).sum() / window
                        if len(history) == window + 1 else math.inf)
    return measures


# slow chains, whose measure falls strictly for 70 steps at least
STOP_CHAINS = [(cyclic_rows(8, 5, 1, stay=0.95), 1),
               (slow_table(2, 3, 0, 0.5), 1),
               (cyclic_rows(9, 6, 2, stay=0.9), 2),
               (cyclic_rows(11, 9, 3, stay=0.9), 3)]


@pytest.mark.parametrize("check_steps,stops", [
    # every offset of the passes of 4 steps (a ring of 4 + window rows),
    # the first step and the edges of the passes of 32
    (4, range(1, 16)), (None, [1, 2, 3, 31, 32, 33, 34, 35, 64, 65, 66])])
@pytest.mark.parametrize("Q,period", STOP_CHAINS)
def test_stationary_stops_where_the_loop_stops(monkeypatch, Q, period,
                                               check_steps, stops):
    Q = TransitionMatrix.of(Q)
    monkeypatch.setattr(spectral, "_switch_step", no_switch)
    if check_steps is not None:
        monkeypatch.setattr(spectral, "CHECK_STEPS", check_steps)
    measures = loop_measures(Q, period, max(stops))
    for stop in stops:
        if stop < period:
            continue
        # the first step at which the measure is at most tol is `stop`
        tol = measures[stop - 1]
        assert min(measures[:stop - 1], default=math.inf) > tol
        outcome = stationary_outcome(stationary, Q, tol=tol)
        assert outcome[1] == stop
        assert outcome == stationary_outcome(loop_stationary, Q, tol=tol)


@pytest.mark.parametrize("check_steps", [None, 4])
@pytest.mark.parametrize("Q,period", STOP_CHAINS)
def test_stationary_ends_inside_a_pass_as_the_loop(monkeypatch, Q, period,
                                                   check_steps):
    """A max_iter, or a switch to the doubling search, that falls inside
    a pass: the same iterate, window and search start as the loop."""
    if check_steps is not None:
        monkeypatch.setattr(spectral, "CHECK_STEPS", check_steps)
    ends = [1, 2, 3, 5, 6, 7, 9, 30, 33, 34, 37, 70]
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_switch_step", no_switch)
        for max_iter in ends:
            kwargs = {"tol": 1e-300, "max_iter": max_iter}
            outcome = stationary_outcome(stationary, Q, **kwargs)
            assert outcome[1] == max_iter and not outcome[3]
            assert outcome == stationary_outcome(loop_stationary, Q, **kwargs)
    for switch in ends:
        if switch < period:
            continue
        patch_switch = partial(lambda s, n, nnz, w, m: min(m, s), switch)
        monkeypatch.setattr(spectral, "_switch_step", patch_switch)
        for kwargs in ({}, {"tol": 1e-300, "max_iter": 10**4 + 7}):
            outcome = stationary_outcome(stationary, Q, **kwargs)
            assert outcome == stationary_outcome(loop_stationary, Q, **kwargs)


# ---------------------------------------------------------------------------
# toy SGD: fresh arrays and fancy-indexed row updates
# ---------------------------------------------------------------------------

def loop_train_toy(dataset, config: ToyModelConfig, n_tokens=None) -> ToyModel:
    if not dataset:
        raise ValueError("dataset is empty")
    dataset = [(tuple(ctx), int(y)) for ctx, y in dataset]
    for ctx, y in dataset:
        if len(ctx) > config.context_length:
            raise ValueError(f"context {ctx} longer than the window")
    if n_tokens is None:
        n_tokens = 1 + max(max((max(c) for c, _ in dataset if c), default=0),
                           max(y for _, y in dataset))
    rng = np.random.default_rng(config.seed)
    dim_in = config.context_length * (n_tokens + 1)
    w_in = 0.01 * rng.standard_normal((dim_in, config.embedding_dim))
    w_out = 0.01 * rng.standard_normal((config.embedding_dim, n_tokens))
    bias = np.zeros(n_tokens)
    model = ToyModel(config, n_tokens, w_in, w_out, bias)

    # x, the K rows of w_in that x selects, and the target
    encoded = [(x, np.flatnonzero(x), y)
               for x, y in ((model._encode(ctx), y) for ctx, y in dataset)]
    order = np.arange(len(encoded))
    lr = config.learning_rate
    # an update that overflows shows in the next logits
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            rng.shuffle(order)
            total = 0.0
            for idx in order:
                x, rows, y = encoded[idx]
                h = x @ w_in
                z = h @ w_out + bias
                top = z.max()
                if not (math.isfinite(top) and math.isfinite(z.min())):
                    raise TrainingDivergedError(epoch, float("inf"))
                e = np.exp(z - top)
                g = e / e.sum()
                total -= np.log(max(g[y], 1e-300))
                # d(cross-entropy)/d(logits) = p - onehot(y); the rows of
                # w_in that x leaves at 0 would lose lr * 0 * (g @ w_out.T),
                # exactly 0 while that product is finite
                g[y] -= 1.0
                w_in[rows] -= lr * (g @ w_out.T)
                w_out -= lr * np.outer(h, g)
                bias -= lr * g
            loss = total / len(encoded)
            model.loss_history.append(loss)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
    return model


def training_outcome(train, dataset, config, n_tokens=None):
    try:
        model = train(dataset, config, n_tokens=n_tokens)
    except TrainingDivergedError as exc:
        return "diverged", exc.epoch, str(exc)
    return ("trained", model.w_in.tobytes(), model.w_out.tobytes(),
            model.bias.tobytes(), np.array(model.loss_history).tobytes())


PARITY = windowed_examples(parity_sequence(40))
THREE_TOKENS = [((0, 2), 1), ((2,), 0), ((1, 1), 2), ((), 2), ((2, 0), 0)]
# 9 logits: np.add.reduce sums them pairwise, and the products are longer
NINE_TOKENS = [((0, 8), 3), ((5,), 7), ((2, 2), 8), ((), 1), ((8, 4), 0),
               ((6, 1), 5), ((3, 3), 2), ((7, 0), 4), ((4,), 6)]


@pytest.mark.parametrize("dataset,n_tokens,context_length", [
    (PARITY, 2, 3), (THREE_TOKENS, None, 2), (THREE_TOKENS, 4, 3),
    (NINE_TOKENS, 9, 2)])
@pytest.mark.parametrize("embedding_dim", [1, 2, 16, 40])
@pytest.mark.parametrize("learning_rate,seed", [(0.1, 0), (0.5, 3), (1.0, 7)])
def test_train_toy_matches_the_loop(dataset, n_tokens, context_length,
                                    embedding_dim, learning_rate, seed):
    config = ToyModelConfig(context_length=context_length,
                            embedding_dim=embedding_dim,
                            learning_rate=learning_rate, epochs=15, seed=seed)
    outcome = training_outcome(train_toy, dataset, config, n_tokens)
    assert outcome[0] == "trained"
    assert outcome == training_outcome(loop_train_toy, dataset, config,
                                       n_tokens)


@pytest.mark.parametrize("learning_rate,epochs", [
    (1e12, 50), (1e150, 5), (1e308, 2)])
def test_train_toy_diverges_as_the_loop(learning_rate, epochs):
    config = ToyModelConfig(learning_rate=learning_rate, epochs=epochs)
    outcome = training_outcome(train_toy, PARITY[:9], config, 2)
    assert outcome[0] == "diverged"
    assert outcome == training_outcome(loop_train_toy, PARITY[:9], config, 2)


np_default_rng = np.random.default_rng


class CraftedWeights:
    """A generator whose normal draws are the given arrays, in turn."""

    def __init__(self, seed, draws):
        self.rng = np_default_rng(seed)
        self.draws = list(draws)

    def standard_normal(self, shape):
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw

    def shuffle(self, x):
        self.rng.shuffle(x)


def test_train_toy_stops_at_a_nan_past_the_first_logit(monkeypatch):
    """w_out's second column holds +inf and -inf, so the second logit is
    inf - inf = NaN behind a finite first one: Python's max and min pass
    over such a NaN, z.max() does not."""
    w_in = np.ones((2 * 3, 2))
    w_out = np.array([[1.0, math.inf], [1.0, -math.inf]])
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: CraftedWeights(seed, [w_in, w_out]))
    config = ToyModelConfig(context_length=2, embedding_dim=2, epochs=3)
    dataset = [((0, 1), 1), ((1, 1), 0)]
    outcome = training_outcome(train_toy, dataset, config, 2)
    assert outcome == ("diverged", 0,
                       "training loss became non-finite at epoch 0: inf")
    assert outcome == training_outcome(loop_train_toy, dataset, config, 2)
