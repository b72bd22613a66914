import json
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from tokenchain import chains, cli
from tokenchain.chains import TransitionMatrix, build_qf, validate_structure
from tokenchain.estimation import frequentist_estimate, sample_trajectory
from tokenchain.generators import (clique_rim, constrained_walk,
                                   polygonal_walk, random_chain)
from tokenchain.oracles import (ChainOracle, Oracle, OracleError,
                                RandomLogitOracle, UniformOracle)
from tokenchain.spectral import (classify_states, convergence_profile,
                                 doeblin_epsilon, mixing_report, stationary)
from tokenchain.states import VocabSpec, successors


class FixedRowOracle(Oracle):
    """Answers the same vector for every context."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)
        self.n_symbols = self.row.size

    def _distribution(self, context):
        return self.row


def test_uniform_chain_2_3_structure():
    spec = VocabSpec(2, 3)
    Q = build_qf(UniformOracle(2), spec)
    report = validate_structure(Q, spec)
    assert report.n_states == 14
    assert report.nonzero_count == 28
    assert report.expected_nonzero_count == 28
    assert report.nonzero_proportion == Fraction(1, 7)
    assert report.row_sum_max_error == 0.0
    assert report.block_pattern_ok
    # transient block dies in two steps: length-1 -> length-2 -> gone
    assert report.nilpotency_index == 2
    assert report.ok


def test_uniform_chain_3_2_structure():
    spec = VocabSpec(3, 2)
    report = validate_structure(build_qf(UniformOracle(3), spec), spec)
    assert report.n_states == 12
    assert report.nonzero_count == 36
    assert report.nonzero_proportion == Fraction(1, 4)
    assert report.nilpotency_index == 1
    assert report.ok


def test_no_transient_states_when_window_is_one():
    spec = VocabSpec(2, 1)
    Q = build_qf(UniformOracle(2), spec)
    assert Q.n_transient == 0
    assert validate_structure(Q, spec).nilpotency_index == 0


def test_rows_reproduce_the_oracle():
    spec = VocabSpec(2, 3)
    oracle = RandomLogitOracle(spec, seed=5)
    Q = build_qf(oracle, spec)
    for state in [(0,), (1, 0), (0, 1, 1), (1, 1, 1)]:
        i = spec.index(state)
        row = Q.dense()[i]
        expected = oracle.query(state)
        for t, v in enumerate(successors(state, spec)):
            assert row[spec.index(v)] == pytest.approx(expected[t], abs=1e-15)
        # and nothing outside the successor set
        support = set(np.nonzero(row)[0])
        assert support <= {spec.index(v) for v in successors(state, spec)}


def test_explicit_zeros_do_not_count():
    spec = VocabSpec(2, 2)
    Q = build_qf(FixedRowOracle([1.0, 0.0]), spec)
    assert Q.nonzero_count() == 6
    assert validate_structure(Q, spec).nonzero_count == 6


def test_mild_row_drift_is_repaired():
    spec = VocabSpec(2, 2)
    drift = (1.0 + 5e-7) / 2.0
    Q = build_qf(FixedRowOracle([drift, drift]), spec)
    npt.assert_allclose(Q.dense().sum(axis=1), 1.0, atol=1e-12)


def test_large_row_drift_fails_the_build():
    spec = VocabSpec(2, 2)
    bad = (1.0 + 1e-3) / 2.0
    with pytest.raises(OracleError):
        build_qf(FixedRowOracle([bad, bad]), spec)


def test_negative_and_misshapen_rows_fail_the_build():
    spec = VocabSpec(2, 2)
    with pytest.raises(OracleError):
        build_qf(FixedRowOracle([1.5, -0.5]), spec)
    with pytest.raises(OracleError):
        build_qf(FixedRowOracle([0.5, 0.25, 0.25]), spec)
    with pytest.raises(OracleError, match="negative or NaN"):
        build_qf(FixedRowOracle([float("nan"), 1.0]), spec)


class TableOracle(Oracle):
    """Answers from a context -> row table, and ``default`` elsewhere."""

    def __init__(self, table, default):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        self.default = np.asarray(default, dtype=float)
        self.n_symbols = self.default.size

    def _distribution(self, context):
        return self.table.get(context, self.default)


def test_build_errors_name_the_first_offending_state():
    spec = VocabSpec(2, 2)
    oracle = TableOracle({(1,): [0.7, 0.7], (0, 1): [1.5, -0.5]}, [0.5, 0.5])
    with pytest.raises(OracleError, match=r"state \(1,\)"):
        build_qf(oracle, spec)
    oracle = TableOracle({(1,): [0.5, 0.25, 0.25]}, [0.5, 0.5])
    with pytest.raises(OracleError, match=r"shape \(3,\) for state \(1,\)"):
        build_qf(oracle, spec)
    oracle = TableOracle({(0, 1): [float("nan"), 1.0]}, [0.5, 0.5])
    with pytest.raises(OracleError,
                       match=r"NaN probability in row for state \(0, 1\)"):
        build_qf(oracle, spec)


def test_corrupted_pattern_is_detected():
    # a table holds only successor entries; a dense matrix is refused
    spec = VocabSpec(2, 2)
    dense = build_qf(UniformOracle(2), spec).dense()
    dense[0, 0] = 0.5  # (0,) -> (0,) is not a legal step
    with pytest.raises(ValueError, match="is not a chain of"):
        validate_structure(TransitionMatrix(dense), spec)


def test_validation_refuses_a_dense_matrix_of_the_right_state_count():
    spec = VocabSpec(2, 3)
    Q = build_qf(UniformOracle(2), spec)
    assert validate_structure(Q, spec).ok
    with pytest.raises(ValueError, match=r"a matrix of 14 states \(spec "
                       r"VocabSpec\(n_tokens=14, context_window=1\)\) is "
                       r"not a chain of"):
        validate_structure(TransitionMatrix(Q.dense()), spec)


@pytest.mark.parametrize("T", [2, 3, 4])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_n_transient_is_derived_from_the_spec(T, K):
    spec = VocabSpec(T, K)
    Q = build_qf(UniformOracle(T), spec)
    assert Q.n_transient == spec.n_transient
    assert TransitionMatrix(Q.dense()).n_transient == 0


def test_state_count_mismatch_is_an_error():
    spec = VocabSpec(2, 3)
    with pytest.raises(ValueError):
        validate_structure(TransitionMatrix(np.eye(4)), spec)


def written(Q, tmp_path):
    """The "matrix" member of the matrix.json that the CLI writes for Q."""
    path = tmp_path / "matrix.json"
    cli._write_json(path, {}, 0, {"matrix": Q})
    return json.loads(path.read_text())["matrix"]


def scatter(payload):
    """The dense matrix of a written matrix's triplets."""
    out = np.zeros((payload["n"], payload["n"]))
    for r, c, v in payload["triplets"]:
        out[r, c] += v
    return out


def test_json_roundtrip(tmp_path):
    spec = VocabSpec(2, 3)
    Q = build_qf(RandomLogitOracle(spec, seed=9), spec)
    blob = written(Q, tmp_path)
    # the table's rows, scattered onto the successor indices
    expected = np.zeros((Q.n_states, Q.n_states))
    np.put_along_axis(expected, spec.first_successors()[:, None]
                      + np.arange(spec.n_tokens), Q.probs, axis=1)
    npt.assert_array_equal(scatter(blob), expected)
    npt.assert_array_equal(Q.dense(), expected)
    assert blob["triplets"] == [list(t) for t in zip(
        *(c.tolist() for c in Q.triplet_columns()))]
    assert blob["blocks"] == {"transient": [0, 6], "recurrent": [6, 14]}


def test_json_triplets_sorted_and_zero_free(tmp_path):
    spec = VocabSpec(2, 2)
    Q = build_qf(FixedRowOracle([1.0, 0.0]), spec)
    blob = written(Q, tmp_path)
    keys = [(r, c) for r, c, _ in blob["triplets"]]
    assert keys == sorted(keys)
    assert all(v != 0.0 for _, _, v in blob["triplets"])
    assert blob["blocks"] == {"transient": [0, 2], "recurrent": [2, 6]}


class WideOracle(Oracle):
    """Answers every state of a space with three probabilities."""

    n_symbols = 3

    def query_many(self, space):
        return np.full((len(space), 3), 1 / 3)


def test_build_refuses_an_answer_of_the_wrong_shape():
    with pytest.raises(OracleError, match=r"^oracle returned shape \(3,\) "
                       r"for state \(0,\), expected \(2,\)$"):
        build_qf(WideOracle(), VocabSpec(2, 2))


def test_dense_form_of_a_sequence_chain_is_checked_before_allocating():
    # 131,070 states: the dense form would take 131,070^2 doubles, 137 GB
    Q = build_qf(UniformOracle(2), VocabSpec(2, 16))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="dense block of 131070 states "
                           "needs 137434759200 bytes"):
            sample_trajectory(Q, 0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dense_form_of_a_small_sequence_chain_is_under_the_cap(monkeypatch):
    Q = build_qf(UniformOracle(2), VocabSpec(2, 3))
    monkeypatch.setattr(chains, "DENSE_BLOCK_CAP_BYTES", 14 * 14 * 8)
    assert Q.dense().shape == (14, 14)
    monkeypatch.setattr(chains, "DENSE_BLOCK_CAP_BYTES", 14 * 14 * 8 - 1)
    with pytest.raises(MemoryError, match="dense block of 14 states"):
        Q.dense()
    # a dense chain is dense already and is not checked again
    assert TransitionMatrix(np.eye(14)).dense().shape == (14, 14)


def test_a_dense_chain_is_the_k1_table_whatever_its_meta():
    rows = np.array([[0.5, 0.5], [0.25, 0.75]])
    Q = TransitionMatrix(rows, meta={"n_tokens": 2, "context_window": 3})
    assert Q.spec == VocabSpec(2, 1) and Q.dense() is Q.probs
    npt.assert_allclose(stationary(Q).pi, [1 / 3, 2 / 3], rtol=1e-12)
    assert doeblin_epsilon(Q) == 0.25
    assert build_qf(UniformOracle(2), VocabSpec(2, 3)).spec == VocabSpec(2, 3)


def csr_of(Q):
    """Q as a CSR matrix that stores every table entry, zeros too."""
    n, T = Q.probs.shape
    cols = Q.spec.first_successors()[:, None] + np.arange(T)
    return sp.csr_matrix((Q.probs.ravel(), cols.ravel(),
                          np.arange(0, n * T + 1, T)), shape=(n, n))


@pytest.mark.parametrize("T,K", [(2, 1), (3, 1), (2, 6), (2, 12), (3, 5),
                                 (4, 4), (5, 2), (8, 3)])
def test_left_product_of_a_table_matches_a_csr_product(T, K):
    spec = VocabSpec(T, K)
    Q = build_qf(RandomLogitOracle(spec, seed=T + K, scale=3.0), spec)
    _assert_steps_match(Q)


def test_left_product_of_a_dense_chain_matches_a_csr_product():
    rng = np.random.default_rng(8)
    for d in (1, 3, 17, 60, 300):
        P = rng.random((d, d)) * (rng.random((d, d)) < 0.3) + np.eye(d)
        _assert_steps_match(TransitionMatrix.of(P / P.sum(axis=1)[:, None]))
    # a zero probability in the table, and a -0.0 one, sum to 0.0
    _assert_steps_match(build_qf(FixedRowOracle([1.0, 0.0]), VocabSpec(2, 3)))
    _assert_steps_match(build_qf(FixedRowOracle([1.0, -0.0]), VocabSpec(2, 3)))


def _assert_steps_match(Q, steps=200):
    """x Q to the bit, for the normalized iterates from the uniform x."""
    step, mT = Q.left_product(), csr_of(Q).T.tocsr()
    x = np.full(Q.n_states, 1.0 / Q.n_states)
    for _ in range(steps):
        y = mT @ x
        got = step(x)
        assert np.array_equal(got, y) and not np.signbit(got).any()
        x = y / y.sum()


def _table_cases():
    for T, K in [(2, 1), (2, 2), (2, 5), (3, 1), (3, 3), (4, 2), (4, 4)]:
        spec = VocabSpec(T, K)
        yield build_qf(RandomLogitOracle(spec, seed=T * K,
                                         scale=3.0), spec)
    # zero successors: one token never follows, a transient row that ends
    # every path early, and rows with no successor at all
    yield build_qf(FixedRowOracle([1.0, 0.0]), VocabSpec(2, 4))
    yield build_qf(FixedRowOracle([0.0, 1.0, 0.0]), VocabSpec(3, 3))
    Q = build_qf(UniformOracle(2), VocabSpec(2, 4))
    Q.probs[[0, 3, 20]] = 0.0
    Q.probs[1] = [1.0, -0.0]
    yield Q


@pytest.mark.parametrize("Q", list(_table_cases()),
                         ids=lambda Q: f"T{Q.spec.n_tokens}K"
                                       f"{Q.spec.context_window}")
def test_table_validation_matches_the_dense_path(Q):
    assert validate_structure(Q, Q.spec) == dense_report(Q)


def dense_report(Q):
    """The structure report of a table, read off its dense form: the
    nonzeros and a power of the transient block."""
    spec, D = Q.spec, Q.dense()
    T, K, n, n_t = spec.n_tokens, spec.context_window, Q.n_states, Q.n_transient
    rows, cols = np.nonzero(D)
    # the T successors of a state are consecutive indices
    offset = cols - spec.first_successors()[rows]
    block = (D[:n_t, :n_t] != 0.0).astype(np.int64)
    nilpotency, power = None, np.eye(n_t, dtype=np.int64)
    for k in range(K + 1):
        if not power.any():
            nilpotency = k
            break
        power = np.minimum(power @ block, 1)
    return chains.StructureReport(
        n_states=n, nonzero_count=rows.size,
        nonzero_proportion=Fraction(rows.size, n * n),
        expected_nonzero_count=T * T * (T**K - 1) // (T - 1),
        row_sum_max_error=float(np.abs(np.add.reduceat(
            Q.probs, [0], axis=1)[:, 0] - 1.0).max()),
        block_pattern_ok=bool(np.all((offset >= 0) & (offset < T))),
        nilpotency_index=nilpotency)


def test_validation_refuses_the_table_of_another_spec():
    # both specs have 30 states
    Q = build_qf(UniformOracle(5), VocabSpec(5, 2))
    with pytest.raises(ValueError, match="is not a chain of"):
        validate_structure(Q, VocabSpec(2, 4))


def test_nilpotency_index_at_131070_states():
    spec = VocabSpec(2, 16)
    report = validate_structure(build_qf(UniformOracle(2), spec), spec)
    assert report.n_states == 131_070
    assert report.nilpotency_index == 15
    assert report.ok


def test_build_and_validate_at_two_million_states():
    # 2,097,150 states: an n x n array of any dtype would not fit in memory
    spec = VocabSpec(2, 20)
    Q = build_qf(UniformOracle(2), spec)
    report = validate_structure(Q, spec)
    assert report.n_states == 2_097_150
    assert report.nonzero_count == report.expected_nonzero_count
    assert report.nilpotency_index == 19
    assert report.ok


def test_of_wraps_lists_and_arrays():
    rows = [[0.25, 0.75], [1.0, 0.0]]
    for given in (rows, np.array(rows), np.array([[1, 0], [0, 1]])):
        Q = TransitionMatrix.of(given)
        assert Q.spec == VocabSpec(2, 1) and Q.probs.dtype == float
        assert Q.n_transient == 0 and Q.meta == {}


def test_of_returns_a_chain_unchanged():
    Q = build_qf(UniformOracle(2), VocabSpec(2, 3))
    assert TransitionMatrix.of(Q) is Q


# ---------------------------------------------------------------------------
# one layout: a d-state chain is the K = 1 table of VocabSpec(d, 1)
# ---------------------------------------------------------------------------

def test_a_square_array_gets_the_k1_spec_and_anything_else_is_refused():
    Q = TransitionMatrix(np.eye(3, dtype=int))
    assert Q.spec == VocabSpec(3, 1) and Q.probs.dtype == float
    assert Q.n_transient == 0
    for bad, shape in (([[0.5, 0.5]], r"\(1, 2\)"), ([1.0], r"\(1,\)"),
                       (np.ones((2, 2, 2)), r"\(2, 2, 2\)")):
        with pytest.raises(ValueError,
                           match=f"need a square matrix, got shape {shape}"):
            TransitionMatrix.of(bad)


def test_the_one_state_chain_goes_through_every_analysis():
    Q = TransitionMatrix.of([[1.0]])
    assert Q.spec == VocabSpec(1, 1) and Q.dense() is Q.probs
    report = classify_states(Q)
    assert report.recurrent_classes == [[0]] and report.period == 1
    result = stationary(Q)
    assert result.pi.tolist() == [1.0] and result.converged
    assert doeblin_epsilon(Q) == 1.0
    profile = convergence_profile(Q, n_max=4)
    assert profile.empirical_curve == [(n, 0.0) for n in range(1, 5)]
    assert profile.violations == 0 and not profile.vacuous
    assert mixing_report(Q).t_min == 0.0
    assert sample_trajectory(Q, 0, 5).states.tolist() == [0] * 5
    assert ChainOracle(Q).query_many(VocabSpec(1, 1)).tolist() == [[1.0]]
    estimate = frequentist_estimate([0, 0, 0])
    assert estimate.spec == VocabSpec(1, 1)
    assert estimate.probs.tolist() == [[1.0]]


def dense_chains():
    yield random_chain(30, seed=4)
    yield random_chain(12, p_min=0.01, seed=1)
    yield constrained_walk(17)
    yield polygonal_walk(7)
    yield clique_rim(9, 0.1, [1, 0, 1])


@pytest.mark.parametrize("Q", list(dense_chains()),
                         ids=lambda Q: Q.meta["kind"])
def test_a_dense_chain_is_read_as_its_k1_table(Q):
    P = np.array(Q.probs)
    d = len(P)
    assert Q.spec == VocabSpec(d, 1) and Q.n_transient == 0
    rows, cols = np.nonzero(P)
    got = Q.triplet_columns()
    assert [a.tolist() for a in got] == [rows.tolist(), cols.tolist(),
                                         P[rows, cols].tolist()]
    assert doeblin_epsilon(Q) == P.min()
    step, x = Q.left_product(), np.full(d, 1.0 / d)
    for _ in range(50):
        y = np.zeros(d)
        for i in range(d):  # each column summed over the rows in order
            y = y + x[i] * P[i]
        assert np.array_equal(step(x), y)
        x = y / y.sum()


def test_a_sparse_dense_chain_is_classified_without_its_successor_table():
    """The columns of a K = 1 chain's nonzeros come from the first
    successors, d entries, not from a (d, d) successor table: at d = 2,000
    the table alone was 32 MB, where the nonzero mask is 4 MB."""
    Q = constrained_walk(2000)
    classify_states(Q)
    tracemalloc.start()
    try:
        classify_states(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2000 ** 2


@pytest.mark.parametrize("T,K", [(1, 1), *((T, K) for T in (2, 3, 4)
                                             for K in (1, 2, 3, 4))])
def test_expected_nonzero_count_is_t_times_the_state_count(T, K):
    spec = VocabSpec(T, K)
    report = validate_structure(build_qf(UniformOracle(T), spec), spec)
    assert report.expected_nonzero_count == T * spec.state_count
    assert report.nonzero_count == report.expected_nonzero_count
    if T > 1:
        assert report.expected_nonzero_count == T * T * (T**K - 1) // (T - 1)
