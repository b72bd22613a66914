"""State space of a next-token model viewed as a Markov chain.

A model with vocabulary size ``T`` and context window ``K`` walks on the
set of all token sequences of length 1..K.  Sequences grow by appending
tokens until they hit the window, after which the oldest token is dropped
(front truncation).  This module numbers that state space in closed
form, maps sequences to indices and back, and decides which ordered
pairs of sequences can follow each other in one step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Dense analysis of the full-length block needs O(T^K) rows in memory.
DEFAULT_STATE_CAP = 1 << 24


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

    @property
    def transient_count(self) -> int:
        """Number of sequences shorter than the context window."""
        T, K = self.n_tokens, self.context_window
        return T * (T ** (K - 1) - 1) // (T - 1)


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

    def __init__(self, spec: VocabSpec, max_states: int = DEFAULT_STATE_CAP):
        if spec.state_count > max_states:
            raise ValueError(
                f"state space needs {spec.state_count} states, "
                f"above the cap of {max_states}")
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

    def successor_table(self) -> np.ndarray:
        """(n, T) int64 array whose row i lists the indices of
        ``successors(space[i])``, ascending in the appended token.

        State o_L + v keeps its last h = min(L, K - 1) tokens, v mod T^h,
        and appends t: its successors are o_{h+1} + (v mod T^h) T + t.
        """
        T, K = self.spec.n_tokens, self.spec.context_window
        first = []
        for length in range(1, K + 1):
            h = min(length, K - 1)
            v = np.arange(T**length, dtype=np.int64)
            first.append(self._offsets[h] + v % T**h * T)
        return np.concatenate(first)[:, None] + np.arange(T)

    @property
    def n_transient(self) -> int:
        return self.spec.transient_count


def enumerate_states(spec: VocabSpec,
                     max_states: int = DEFAULT_STATE_CAP) -> StateSpace:
    """Enumerate the full state space for the given vocabulary spec."""
    return StateSpace(spec, max_states=max_states)


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


def is_incompatible(u, v, spec: VocabSpec) -> bool:
    """True iff ``v`` cannot follow ``u`` in one generation step.

    Compatibility means either a pure append (``v`` extends ``u`` by one
    token while staying within the window) or a shift-and-append at the
    window boundary (both are full length and ``v`` starts with the last
    K - 1 tokens of ``u``).
    """
    u, v = tuple(u), tuple(v)
    K = spec.context_window
    if len(v) == len(u) + 1 and len(v) <= K and v[:len(u)] == u:
        return False
    if len(u) == len(v) == K and v[:K - 1] == u[1:]:
        return False
    return True
