import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tokenchain.states import VocabSpec, successors


def brute_force_states(T, K):
    """Independent enumeration: all tuples of length 1..K over range(T)."""
    out = []
    for length in range(1, K + 1):
        out.extend(itertools.product(range(T), repeat=length))
    return out


def test_state_count_formula():
    assert VocabSpec(2, 3).state_count == 14
    assert VocabSpec(2, 1).state_count == 2
    # brute-force enumeration over 3 symbols, lengths 1..2
    assert VocabSpec(3, 2).state_count == len(brute_force_states(3, 2)) == 12


def test_spec_validation():
    with pytest.raises(ValueError):
        VocabSpec(1, 3)
    with pytest.raises(ValueError):
        VocabSpec(2, 0)


def test_enumeration_order_length_major_then_numeric():
    space = VocabSpec(2, 2)
    assert list(space) == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("T,K", [(2, 1), (2, 4), (3, 3), (3, 4)])
def test_index_roundtrip_is_identity(T, K):
    space = VocabSpec(T, K)
    assert len(space) == VocabSpec(T, K).state_count
    for i, state in enumerate(space):
        assert space.index(state) == i
        assert space[i] == state


def test_index_rejects_bad_sequences():
    space = VocabSpec(2, 3)
    with pytest.raises(ValueError):
        space.index(())
    with pytest.raises(ValueError):
        space.index((0, 1, 0, 1))
    with pytest.raises(ValueError):
        space.index((2,))


def test_state_cap_error_names_requirement():
    with pytest.raises(ValueError, match="16777216|states"):
        VocabSpec(2, 30)


def test_state_cap_admits_the_largest_binary_window():
    assert VocabSpec(2, 23).state_count == 16777214
    with pytest.raises(ValueError, match="33554430 states, above the cap "
                                         "of 16777216"):
        VocabSpec(2, 24)


@pytest.mark.parametrize("T,K", [(3, 20_000), (2, 65), (1 << 25, 1)])
def test_a_huge_space_is_refused_without_its_count(T, K):
    with pytest.raises(ValueError, match=rf"needs at least {T}\^{K} states, "
                                         "above the cap of 16777216"):
        VocabSpec(T, K)


@pytest.mark.parametrize("T", [2, 3, 4])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_spec_numbers_its_states_in_length_major_product_order(T, K):
    spec = VocabSpec(T, K)
    states = [state for length in range(1, K + 1)
              for state in itertools.product(range(T), repeat=length)]
    assert list(spec) == states
    assert [spec[i] for i in range(len(states))] == states
    assert [spec.index(state) for state in states] == list(range(len(states)))
    assert spec.n_transient == len(states) - T**K


def test_successors_append_below_window():
    spec = VocabSpec(2, 3)
    assert successors((0,), spec) == [(0, 0), (0, 1)]


def test_successors_shift_at_window():
    spec = VocabSpec(2, 3)
    assert successors((0, 1, 0), spec) == [(1, 0, 0), (1, 0, 1)]


@pytest.mark.parametrize("T,K", [(2, 3), (3, 2)])
def test_successor_count_is_vocab_size(T, K):
    spec = VocabSpec(T, K)
    for state in spec:
        assert len(successors(state, spec)) == T


def is_incompatible(u, v, K):
    """Independent pair rule: ``v`` can follow ``u`` in one step only by a
    pure append within the window, or by a shift-and-append at the window
    boundary (both full length, ``v`` starting with ``u``'s last K - 1)."""
    if len(v) == len(u) + 1 and len(v) <= K and v[:len(u)] == u:
        return False
    return not (len(u) == len(v) == K and v[:K - 1] == u[1:])


def test_incompatibility_examples():
    spec = VocabSpec(3, 3)
    a, b, c, = 0, 1, 2
    assert (a, b, c) in successors((a, b), spec)          # append
    assert (c, c, c) not in successors((a, b), spec)      # wrong prefix
    assert (b, c, a) in successors((a, b, c), spec)       # shift


@pytest.mark.parametrize("T,K", [(2, 1), (2, 2), (2, 3), (2, 4),
                                 (3, 1), (3, 2), (3, 3), (3, 4)])
def test_incompatible_iff_not_a_successor(T, K):
    """Exhaustive agreement between the pair rule and the successor sets."""
    spec = VocabSpec(T, K)
    for u in spec:
        succ = set(successors(u, spec))
        for v in spec:
            assert is_incompatible(u, v, K) == (v not in succ)


@pytest.mark.parametrize("T,K", [(2, 3), (2, 4), (3, 2), (3, 4), (4, 4)])
def test_compatible_pair_count_closed_form(T, K):
    spec = VocabSpec(T, K)
    pairs = {(u, v) for u in spec
             for v in successors(u, spec)}
    assert len(pairs) == T * T * (T**K - 1) // (T - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5))
def test_closed_form_index_math_matches_brute_force(T, K):
    spec = VocabSpec(T, K)
    states = brute_force_states(T, K)
    where = {state: i for i, state in enumerate(states)}
    assert len(spec) == len(states)
    assert list(spec) == states
    assert [spec[i] for i in range(len(states))] == states
    assert spec[-1] == states[-1]
    with pytest.raises(IndexError):
        spec[len(states)]
    assert [spec.index(state) for state in states] == list(range(len(states)))
    table = spec.successor_table()
    assert table.shape == (len(states), T)
    assert table.tolist() == [[where[v] for v in successors(u, spec)]
                              for u in states]


def test_one_token_is_admitted_at_window_1_only():
    spec = VocabSpec(1, 1)
    assert spec.state_count == len(spec) == 1 and spec.n_transient == 0
    assert list(spec) == [(0,)] and spec[0] == (0,) and spec.index((0,)) == 0
    assert spec.successor_table().tolist() == [[0]]
    for T, K in ((1, 2), (1, 3), (0, 1), (-1, 1)):
        with pytest.raises(ValueError, match=f"n_tokens must be >= 2, got {T}"):
            VocabSpec(T, K)
