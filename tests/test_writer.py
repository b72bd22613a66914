"""The output writers against json.dumps: a matrix's triplets are streamed
from its rows a block at a time, and must come out in exactly the bytes
json.dumps(indent=2, sort_keys=True) gives the whole document."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tokenchain import cli
from tokenchain.chains import TransitionMatrix, build_qf
from tokenchain.oracles import RandomLogitOracle
from tokenchain.states import VocabSpec, successors

CONFIG = {"n_tokens": 2, "context_window": 1, "oracle": {"kind": "uniform"}}


def written(path, config, payload):
    """The matrix.json bytes, and those of json.dumps on the whole doc."""
    cli._write_json(path, config, 0, payload)
    text = path.read_text()
    doc = {"header": json.loads(text)["header"], **payload}
    matrix = doc["matrix"]
    doc["matrix"] = {**cli._matrix_payload(matrix), "triplets": list(map(
        list, zip(*(c.tolist() for c in matrix.triplet_columns()))))}
    return text, json.dumps(doc, indent=2, sort_keys=True) + "\n"


def matrix_of(cells, n, dtype=float):
    return TransitionMatrix(np.asarray(cells, dtype=dtype).reshape(n, n))


EDGE_FLOATS = [5e-324, 1e-7, 1e16, 0.1 + 0.2, -0.0, 1.0, 2.5e-308]
CELLS = st.one_of(st.just(0.0), st.sampled_from(EDGE_FLOATS),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(-10**6, 10**6), min_size=n * n,
                              max_size=n * n))
        return matrix_of(cells, n, dtype=np.int64)
    return matrix_of(draw(st.lists(CELLS, min_size=n * n, max_size=n * n)), n)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=matrices(), chunk=st.sampled_from([1, 2, 3, 7, 2048]),
       meta=st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                            max_size=2))
def test_streamed_matrix_equals_json_dumps(tmp_path, matrix, chunk, meta):
    with mock.patch.object(cli, "TRIPLET_CHUNK", chunk):
        text, expected = written(tmp_path / "m.json", CONFIG,
                                 {"matrix": matrix, "meta": meta})
    assert text == expected


@st.composite
def tables(draw):
    """A table chain with T 2-4 and K 1-4, zeros and edge floats in it:
    a drawn run of cells, repeated to fill the table."""
    spec = VocabSpec(draw(st.integers(2, 4)), draw(st.integers(1, 4)))
    n, T = spec.state_count, spec.n_tokens
    cells = draw(st.lists(CELLS, min_size=1, max_size=41))
    return TransitionMatrix(np.resize(np.array(cells, dtype=float), (n, T)),
                            spec=spec)


def table_triplets(matrix):
    """The nonzero triplets of a table, each column found by sequence."""
    spec = matrix.spec
    return [[i, spec.index(v), float(p)] for i in range(len(spec))
            for v, p in zip(successors(spec[i], spec), matrix.probs[i])
            if p != 0.0]


# a transient row with a zero successor, and a first row all zeros
ZERO_ROWS = TransitionMatrix(
    np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.75], [1.0, 0.0], [0.0, 1.0],
              [-0.0, 1.0]]), spec=VocabSpec(2, 2))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=tables(), chunk=st.sampled_from([1, 2, 3, 7, 2048]))
@example(matrix=ZERO_ROWS, chunk=1)
@example(matrix=ZERO_ROWS, chunk=3)
def test_streamed_table_equals_json_dumps(tmp_path, matrix, chunk):
    with mock.patch.object(cli, "TRIPLET_CHUNK", chunk):
        cli._write_json(tmp_path / "m.json", CONFIG, 0, {"matrix": matrix})
    text = (tmp_path / "m.json").read_text()
    doc = {"header": json.loads(text)["header"], "matrix": {
        **cli._matrix_payload(matrix), "triplets": table_triplets(matrix)}}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("matrix", [
    matrix_of([1.0], 1),                     # n = 1, a single triplet
    matrix_of([0.0], 1),                     # no triplets at all
    matrix_of([0.0, 0.0, 0.0, 5e-324], 2),   # one triplet, the last cell
    matrix_of([3, 0, 0, 1], 2, dtype=np.int64),
])
def test_single_and_empty_triplet_lists(tmp_path, matrix):
    text, expected = written(tmp_path / "m.json", CONFIG, {"matrix": matrix})
    assert text == expected


def test_chunk_boundaries(tmp_path, monkeypatch):
    """Triplet counts below, at and above a multiple of the chunk."""
    for chunk in (1, 2, 3, 4):
        monkeypatch.setattr(cli, "TRIPLET_CHUNK", chunk)
        for n_cells in (3, 4, 5, 8, 9):
            cells = np.zeros(9)
            cells[:n_cells] = np.arange(1, n_cells + 1) / 10
            text, expected = written(tmp_path / "m.json", CONFIG,
                                     {"matrix": matrix_of(cells, 3)})
            assert text == expected, (chunk, n_cells)


def test_non_finite_values_take_json_spellings(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "TRIPLET_CHUNK", 2)
    cells = [np.nan, 0.5, np.inf, -np.inf, 0.0, 1e-7, 0.1 + 0.2, 1.0, -1.0]
    text, expected = written(tmp_path / "m.json", CONFIG,
                             {"matrix": matrix_of(cells, 3)})
    assert text == expected
    assert "NaN" in text and "-Infinity" in text


# the slot the writer fills, in the strings of a config and a meta (a
# string escapes its newlines), and in a member that sorts before "matrix"
SLOT = '\n    "triplets": []'
LOOKALIKES = [SLOT, SLOT.strip(), '"triplets": []', "[]", '\n  "matrix": {']


@pytest.mark.parametrize("lookalike", LOOKALIKES)
def test_strings_equal_to_the_slot_are_left_alone(tmp_path, lookalike):
    config = {"n_tokens": 2, "context_window": 2, "triplets": [],
              "oracle": {"kind": "remote", "endpoint": "http://127.0.0.1:9",
                         "alphabet": [lookalike, "b"],
                         "separator": lookalike}}
    meta = {"kind": lookalike, "triplets": [], lookalike: []}
    text, expected = written(tmp_path / "m.json", config, {
        "matrix": matrix_of([0.5, 0.5, 0.25, 0.75], 2), "meta": meta,
        "aside": {"triplets": []}})
    assert text == expected
    assert json.loads(text)["header"]["config"] == config


def test_matrix_write_holds_a_chunk_not_the_file(tmp_path):
    """The writer holds O(TRIPLET_CHUNK) bytes, its triplet columns
    included, where json.dumps held O(file) and the columns O(nnz)."""
    spec = VocabSpec(2, 14)
    matrix = build_qf(RandomLogitOracle(spec, seed=0), spec)
    path = tmp_path / "matrix.json"
    tracemalloc.start()
    try:
        cli._write_json(path, CONFIG, 0, {"matrix": matrix})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.nonzero_count() == 65_532
    assert peak < 512 * cli.TRIPLET_CHUNK < path.stat().st_size / 4


def test_trajectory_csv_is_streamed_in_blocks(tmp_path):
    states = np.random.default_rng(0).integers(0, 40, 10**6)
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        cli._write_csv(path, CONFIG, 0, cli._trajectory_blocks(states))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the one-string body held 72 MiB at this length
    assert peak < 128 * cli.CSV_BLOCK < path.stat().st_size / 4
    text = path.read_text()
    assert text.count("\n") == 5 + states.size
    assert "\nstep,state\n0,%d\n1,%d\n" % tuple(states[:2]) in text
    assert text.endswith("999999,%d\n" % states[-1])
