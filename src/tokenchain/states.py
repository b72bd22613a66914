"""State space of a next-token model viewed as a Markov chain.

A model with vocabulary size ``T`` and context window ``K`` walks on the
set of all token sequences of length 1..K.  Sequences grow by appending
tokens until they hit the window, after which the oldest token is dropped
(front truncation).  This module numbers that state space in closed
form and maps sequences to indices and back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Dense analysis of the full-length block needs O(T^K) rows in memory.
STATE_CAP = 1 << 24


@dataclass(frozen=True)
class VocabSpec:
    """Vocabulary size and context window of a next-token model."""

    n_tokens: int
    context_window: int

    def __post_init__(self):
        if self.n_tokens < 2:
            raise ValueError(f"n_tokens must be >= 2, got {self.n_tokens}")
        if self.context_window < 1:
            raise ValueError(
                f"context_window must be >= 1, got {self.context_window}")

    @property
    def state_count(self) -> int:
        """Number of token sequences of length 1..K, i.e. T(T^K - 1)/(T - 1)."""
        T, K = self.n_tokens, self.context_window
        return T * (T**K - 1) // (T - 1)


class StateSpace:
    """All sequences of length 1..K over T tokens, addressed by index arithmetic.

    States are ordered by length first, then by the base-T numeric value of
    the token list: the length-L sequence with value v sits at index
    o_L + v, where o_L counts the sequences shorter than L.  Shorter-than-K
    sequences therefore occupy the leading indices and the T^K full-length
    sequences the trailing block, which fixes the transient/recurrent
    matrix layout.  Only the offsets are stored; tuples are decoded on
    demand.
    """

    def __init__(self, spec: VocabSpec):
        if spec.state_count > STATE_CAP:
            raise ValueError(f"state space needs {spec.state_count} states, "
                             f"above the cap of {STATE_CAP}")
        self.spec = spec
        T, K = spec.n_tokens, spec.context_window
        # offsets[L] = number of states strictly shorter than L + 1 tokens
        self._offsets = [0]
        for length in range(1, K + 1):
            self._offsets.append(self._offsets[-1] + T**length)

    def __len__(self) -> int:
        return self._offsets[-1]

    def __iter__(self):
        for length in range(1, self.spec.context_window + 1):
            yield from itertools.product(range(self.spec.n_tokens),
                                         repeat=length)

    def __getitem__(self, i) -> tuple[int, ...]:
        i = range(len(self))[i]  # list semantics: negative i, IndexError
        length = next(L for L, o in enumerate(self._offsets) if i < o)
        digits = np.unravel_index(i - self._offsets[length - 1],
                                  (self.spec.n_tokens,) * length)
        return tuple(map(int, digits))

    def index(self, tokens) -> int:
        """Canonical index of a sequence: length-major, base-T within a length."""
        tokens = tuple(tokens)
        T, K = self.spec.n_tokens, self.spec.context_window
        if not 1 <= len(tokens) <= K:
            raise ValueError(f"sequence length {len(tokens)} outside 1..{K}")
        value = 0
        for t in tokens:
            if not 0 <= t < T:
                raise ValueError(f"token {t} outside the vocabulary of size {T}")
            value = value * T + t
        return self._offsets[len(tokens) - 1] + value

    def successor_table(self, start=0, stop=None) -> np.ndarray:
        """(n, T) int64 array whose row i lists the indices of
        ``successors(space[i])``, ascending in the appended token; or its
        rows [start, stop), made alone.

        State o_L + v keeps its last h = min(L, K - 1) tokens, v mod T^h,
        and appends t: its successors are o_{h+1} + (v mod T^h) T + t.
        As o_{L+1} = T + T o_L, that is T + i T + t for a state i shorter
        than K, and n_t + (v mod T^(K-1)) T + t for a full-length one.
        """
        T, K = self.spec.n_tokens, self.spec.context_window
        i = np.arange(*slice(start, stop).indices(len(self)), dtype=np.int64)
        n_t = self.n_transient
        first = np.where(i < n_t, T + i * T, n_t + (i - n_t) % T**(K - 1) * T)
        return first[:, None] + np.arange(T)

    @property
    def n_transient(self) -> int:
        """Number of sequences shorter than the context window."""
        return self._offsets[-2]


def enumerate_states(spec: VocabSpec) -> StateSpace:
    """Enumerate the full state space for the given vocabulary spec."""
    return StateSpace(spec)


def state_path(path) -> np.ndarray:
    """``path`` (or its ``.states``) as a nonempty 1-D int64 vector of
    state ids >= 0; float ids must be whole numbers within int64."""
    states = np.asarray(getattr(path, "states", path))
    if states.dtype.kind == "f" and not np.all(
            (states == np.trunc(states)) & (abs(states) < 2.0**63)):
        raise ValueError("non-integral or non-finite state id in trajectory")
    states = states.astype(np.int64, copy=False)
    if states.ndim != 1 or states.size == 0:
        raise ValueError("trajectory must be a nonempty state vector")
    if states.min() < 0:
        raise ValueError("negative state id in trajectory")
    return states


def successors(u, spec: VocabSpec) -> list[tuple[int, ...]]:
    """The T sequences reachable from ``u`` in one generation step.

    Below the context window the appended token extends the sequence; at
    the window the oldest token is dropped before appending.
    """
    u = tuple(u)
    if len(u) < spec.context_window:
        head = u
    else:
        head = u[1:]
    return [head + (t,) for t in range(spec.n_tokens)]
