import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from tokenchain.oracles import (
    ChainOracle, NgramOracle, OracleError, RandomLogitOracle, ToyModelConfig,
    TrainingDivergedError, UniformOracle, apply_temperature, fit_ngram,
    parity_sequence, parity_spec, softmax_floor, train_toy,
    validate_distribution, windowed_examples,
)
from tokenchain.states import VocabSpec, enumerate_states


# ---------------------------------------------------------------------------
# softmax / temperature
# ---------------------------------------------------------------------------

def test_softmax_of_equal_logits_is_uniform():
    npt.assert_allclose(apply_temperature([0.0, 0.0, 0.0], 1.0), np.full(3, 1 / 3))


def test_softmax_two_logits_closed_form():
    e = math.e
    npt.assert_allclose(apply_temperature([1.0, 0.0], 1.0),
                        [e / (1 + e), 1 / (1 + e)], rtol=1e-12)


def test_high_temperature_flattens():
    p = apply_temperature([3.0, -1.0, 0.5], 1e6)
    npt.assert_allclose(p, np.full(3, 1 / 3), atol=1e-3)


def test_min_probability_nondecreasing_in_temperature():
    rng = np.random.default_rng(7)
    taus = [0.1, 0.5, 1.0, 2.0, 10.0]
    for _ in range(50):
        logits = rng.normal(scale=3.0, size=rng.integers(2, 8))
        mins = [apply_temperature(logits, t).min() for t in taus]
        assert all(a <= b + 1e-15 for a, b in zip(mins, mins[1:]))


def test_temperature_validation():
    with pytest.raises(ValueError):
        apply_temperature([0.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        apply_temperature([0.0, 1.0], -2.0)
    with pytest.raises(ValueError):
        apply_temperature([np.inf, 1.0], 1.0)


def test_softmax_floor_zero_logits_is_tight():
    # ||x||_1 = 0, so the bound 1/(m e^0) = 1/m is attained exactly
    assert softmax_floor(np.zeros(5)) == pytest.approx(0.2)


def test_softmax_floor_bounds_every_entry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        logits = rng.normal(scale=2.0, size=rng.integers(2, 10))
        p = apply_temperature(logits, 1.0)
        assert p.min() >= softmax_floor(logits)


def test_validate_distribution():
    validate_distribution([0.5, 0.5])
    with pytest.raises(OracleError):
        validate_distribution([0.7, 0.4])
    with pytest.raises(OracleError):
        validate_distribution([1.2, -0.2])
    with pytest.raises(OracleError):
        validate_distribution(np.eye(2))
    with pytest.raises(OracleError, match="NaN"):
        validate_distribution([float("nan"), 1.0])


# ---------------------------------------------------------------------------
# fixed oracles
# ---------------------------------------------------------------------------

def test_chain_oracle_reads_row_of_last_token():
    P = np.array([[0.2, 0.8], [0.6, 0.4]])
    oracle = ChainOracle(P)
    npt.assert_array_equal(oracle.query((1,)), P[1])
    # longer histories are truncated to the single trailing token
    npt.assert_array_equal(oracle.query((1, 1, 0)), P[0])


def test_chain_oracle_takes_a_scipy_matrix():
    P = np.array([[0.2, 0.8], [0.0, 1.0]])
    npt.assert_array_equal(ChainOracle(sp.csr_matrix(P)).rows,
                           ChainOracle(P).rows)


def test_chain_oracle_rejects_nonsquare():
    with pytest.raises(ValueError):
        ChainOracle(np.ones((2, 3)))


def test_uniform_oracle():
    oracle = UniformOracle(4)
    npt.assert_array_equal(oracle.query((2,)), np.full(4, 0.25))


def test_random_logit_oracle_is_deterministic_and_valid():
    space = enumerate_states(parity_spec())
    a = RandomLogitOracle(space, seed=3)
    b = RandomLogitOracle(space, seed=3)
    for state in space:
        npt.assert_array_equal(a.query(state), b.query(state))
        validate_distribution(a.query(state))


def test_with_temperature_shares_frozen_logits():
    space = enumerate_states(parity_spec())
    base = RandomLogitOracle(space, seed=1)
    hot = base.with_temperature(1e6)
    assert hot.logits is base.logits
    npt.assert_allclose(hot.query((0, 1, 0)), [0.5, 0.5], atol=1e-3)
    # same logits means the same argmax at any temperature
    cold = base.with_temperature(0.25)
    for state in space:
        assert np.argmax(cold.query(state)) == np.argmax(base.query(state))


# ---------------------------------------------------------------------------
# n-gram counting
# ---------------------------------------------------------------------------

def test_ngram_counts_deterministic_alternation():
    oracle = fit_ngram([0, 1, 0, 1, 0], order=1, alpha=0.0)
    npt.assert_array_equal(oracle.query((0,)), [0.0, 1.0])
    npt.assert_array_equal(oracle.query((1,)), [1.0, 0.0])


def test_ngram_counts_split_evenly():
    oracle = fit_ngram([0, 0, 1, 0], order=1, alpha=0.0)
    npt.assert_array_equal(oracle.query((0,)), [0.5, 0.5])


def test_ngram_smoothing_hand_computed():
    # context (0,): two transitions, both to 1; alpha=1, T=2
    # P = (counts + 1) / (2 + 2) = (1/4, 3/4)
    oracle = fit_ngram([0, 1, 0, 1, 0], order=1, alpha=1.0)
    npt.assert_allclose(oracle.query((0,)), [0.25, 0.75])


def test_huge_smoothing_approaches_uniform():
    oracle = fit_ngram([0, 1, 0, 1, 0], order=1, alpha=1e9)
    npt.assert_allclose(oracle.query((0,)), [0.5, 0.5], atol=1e-8)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -0.5])
def test_ngram_smoothing_must_be_finite_and_nonnegative(alpha):
    # +inf smoothed every row to inf/inf = NaN
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        fit_ngram([0, 1, 0, 1, 0], order=1, alpha=alpha)


def test_ngram_warmup_windows_are_counted():
    oracle = fit_ngram([0, 1, 0, 1, 0], order=2, alpha=0.0)
    npt.assert_array_equal(oracle.query((0, 1)), [1.0, 0.0])
    # a bare single-token context hits the length-1 counts
    npt.assert_array_equal(oracle.query((0,)), [0.0, 1.0])


def test_ngram_order_beyond_the_trajectory_counts_every_window():
    # an order of 10^30 stops at the trajectory length instead of spinning
    traj = [0, 1, 1, 0, 1]
    huge = fit_ngram(traj, order=10**30, alpha=1.0)
    full = fit_ngram(traj, order=len(traj), alpha=1.0)
    assert huge.counts.keys() == full.counts.keys()
    for ctx, row in full.counts.items():
        npt.assert_array_equal(huge.counts[ctx], row)


def test_unseen_context_unsmoothed_falls_back_to_uniform():
    oracle = fit_ngram([0, 1, 0, 1, 0], order=1, alpha=0.0, n_symbols=3)
    npt.assert_allclose(oracle.query((2,)), np.full(3, 1 / 3))
    assert (2,) in oracle.unseen_queried


def test_fit_ngram_validation():
    with pytest.raises(ValueError):
        fit_ngram([0, 1, 0], order=1, alpha=-0.5)
    with pytest.raises(ValueError):
        fit_ngram([], order=1)
    with pytest.raises(ValueError):
        fit_ngram([0], order=1, alpha=0.0)


def test_fit_ngram_refuses_a_negative_state_id():
    with pytest.raises(ValueError, match="negative state id"):
        fit_ngram([0, -1, 1], order=1)


@pytest.mark.parametrize("states", [[0.0, 1.5, 1.0], [0.0, math.nan, 1.0],
                                    [0.0, -math.inf, 1.0]])
def test_fit_ngram_refuses_a_fractional_or_infinite_state_id(states):
    with pytest.raises(ValueError, match="non-integral or non-finite"):
        fit_ngram(states, order=1)


def test_fit_ngram_takes_whole_float_state_ids():
    whole = fit_ngram([0.0, 1.0, 0.0, 1.0], order=1, alpha=0.0)
    ints = fit_ngram([0, 1, 0, 1], order=1, alpha=0.0)
    assert whole.query((0,)).tolist() == ints.query((0,)).tolist()


def test_ngram_consistency_on_long_trajectory():
    """Unsmoothed frequencies converge to the generating rows."""
    P = np.array([[0.2, 0.5, 0.3],
                  [0.1, 0.1, 0.8],
                  [0.4, 0.4, 0.2]])
    rng = np.random.default_rng(0)
    cum = np.cumsum(P, axis=1)
    states = [0]
    for _ in range(100_000):
        states.append(int(np.searchsorted(cum[states[-1]], rng.random())))
    oracle = fit_ngram(states, order=1, alpha=0.0)
    worst = max(0.5 * np.abs(oracle.query((s,)) - P[s]).sum() for s in range(3))
    assert worst < 0.05


# ---------------------------------------------------------------------------
# toy model on the parity task
# ---------------------------------------------------------------------------

def test_parity_sequence_repeats_0011():
    seq = parity_sequence(12)
    assert seq == [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    with pytest.raises(ValueError):
        parity_sequence(2)


def test_windowed_examples_count_and_content():
    examples = windowed_examples(parity_sequence(40))
    assert len(examples) == 37
    assert examples[0] == ((0, 0, 1), 1)
    for ctx, y in examples:
        assert y == sum(ctx) % 2


def test_trained_toy_model_learns_the_seen_contexts():
    examples = windowed_examples(parity_sequence(40))
    model = train_toy(examples, ToyModelConfig())
    assert len(model.loss_history) == 500
    assert model.loss_history[-1] < model.loss_history[0]
    for ctx in {c for c, _ in examples}:
        assert int(np.argmax(model.query(ctx))) == sum(ctx) % 2


def test_toy_model_overfits_a_single_example():
    model = train_toy([((0, 1, 0), 1)], ToyModelConfig(epochs=200), n_tokens=2)
    assert model.query((0, 1, 0))[1] > 0.9


def test_toy_model_pads_short_contexts():
    model = train_toy([((0, 1, 0), 1)], ToyModelConfig(epochs=1), n_tokens=2)
    validate_distribution(model.query(()))
    validate_distribution(model.query((1,)))


def test_toy_model_json_roundtrip():
    examples = windowed_examples(parity_sequence(16))
    model = train_toy(examples, ToyModelConfig(epochs=20))
    clone = type(model).from_json(model.to_json())
    for ctx, _ in examples:
        npt.assert_array_equal(clone.query(ctx), model.query(ctx))


def test_train_toy_validation():
    with pytest.raises(ValueError):
        train_toy([], ToyModelConfig())
    with pytest.raises(ValueError):
        train_toy([((0, 1, 0, 1), 0)], ToyModelConfig(context_length=3))


def test_train_toy_divergence_is_reported():
    examples = windowed_examples(parity_sequence(12))
    with pytest.raises(TrainingDivergedError):
        train_toy(examples, ToyModelConfig(learning_rate=1e12, epochs=50))


def test_toy_config_validation():
    with pytest.raises(ValueError):
        ToyModelConfig(epochs=0)
    with pytest.raises(ValueError):
        ToyModelConfig(temperature=-1.0)


@pytest.mark.parametrize("tau", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("T,K", [(2, 4), (3, 3), (8, 2)])
def test_query_many_equals_stacked_query(T, K, tau):
    space = enumerate_states(VocabSpec(T, K))
    chain = np.random.default_rng(1).dirichlet(np.ones(T), size=T)
    oracles = [
        RandomLogitOracle(space, seed=4, scale=2.0).with_temperature(tau),
        UniformOracle(T),
        ChainOracle(chain),
    ]
    n = len(space)
    for rows in (np.arange(n), np.array([n - 1, 0, n // 2, 0])):
        for oracle in oracles:
            stacked = np.array([oracle.query(space[i]) for i in rows])
            assert np.array_equal(oracle.query_many(space, rows), stacked)


def test_random_logit_query_many_on_a_wider_window_truncates_contexts():
    oracle = RandomLogitOracle(enumerate_states(VocabSpec(2, 2)), seed=3)
    space = enumerate_states(VocabSpec(2, 4))
    rows = np.arange(len(space))
    stacked = np.array([oracle.query(space[i]) for i in rows])
    assert np.array_equal(oracle.query_many(space, rows), stacked)
