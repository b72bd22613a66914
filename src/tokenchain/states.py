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
    """Vocabulary size T and context window K of a next-token model, and
    its state space: the sequences of length 1..K over T tokens, ordered
    by length, then by base-T value.  The length-L sequence of value v
    sits at index o_L + v, o_L = T(T^(L-1) - 1)/(T - 1) counting the
    shorter ones, so the transient states (shorter than K) lead and the
    T^K full-length ones trail.  One token (o_L = L - 1) is admitted at
    K = 1 only.  A space above STATE_CAP states is refused.
    """

    n_tokens: int
    context_window: int

    def __post_init__(self):
        T, K = self.n_tokens, self.context_window
        if T < 2 and (T, K) != (1, 1):
            raise ValueError(f"n_tokens must be >= 2, got {T}")
        if K < 1:
            raise ValueError(f"context_window must be >= 1, got {K}")
        # counted exactly only while T^K has a few hundred digits at most
        small = K <= 64 and T <= STATE_CAP
        if not small or self.state_count > STATE_CAP:
            count = self.state_count if small else f"at least {T}^{K}"
            raise ValueError(f"state space needs {count} states, "
                             f"above the cap of {STATE_CAP}")

    def _offset(self, length) -> int:
        T = self.n_tokens
        return T * (T**(length - 1) - 1) // (T - 1) if T > 1 else length - 1

    @property
    def state_count(self) -> int:
        """Number of token sequences of length 1..K, i.e. T(T^K - 1)/(T - 1)."""
        return self._offset(self.context_window + 1)

    @property
    def n_transient(self) -> int:
        """Number of sequences shorter than the context window."""
        return self._offset(self.context_window)

    def __len__(self) -> int:
        return self.state_count

    def __iter__(self):
        for L in range(1, self.context_window + 1):
            yield from itertools.product(range(self.n_tokens), repeat=L)

    def __getitem__(self, i) -> tuple[int, ...]:
        i = range(len(self))[i]  # list semantics: negative i, IndexError
        length = next(L for L in range(1, self.context_window + 1)
                      if i < self._offset(L + 1))
        digits = np.unravel_index(i - self._offset(length),
                                  (self.n_tokens,) * length)
        return tuple(map(int, digits))

    def index(self, tokens) -> int:
        """Canonical index of a sequence: length-major, base-T within a length."""
        tokens = tuple(tokens)
        T, K = self.n_tokens, self.context_window
        if not 1 <= len(tokens) <= K:
            raise ValueError(f"sequence length {len(tokens)} outside 1..{K}")
        value = 0
        for t in tokens:
            if not 0 <= t < T:
                raise ValueError(f"token {t} outside the vocabulary of size {T}")
            value = value * T + t
        return self._offset(len(tokens)) + value

    def successor_table(self, start=0, stop=None) -> np.ndarray:
        """(n, T) int64 array whose row i lists the indices of
        ``successors(spec[i])``, ascending in the appended token; or its
        rows [start, stop), made alone.

        State o_L + v keeps its last h = min(L, K - 1) tokens, v mod T^h,
        and appends t: its successors are o_{h+1} + (v mod T^h) T + t.
        As o_{L+1} = T + T o_L, that is T + i T + t for a state i shorter
        than K, and n_t + (v mod T^(K-1)) T + t for a full-length one.
        """
        T, K = self.n_tokens, self.context_window
        i = np.arange(*slice(start, stop).indices(len(self)), dtype=np.int64)
        n_t = self.n_transient
        first = np.where(i < n_t, T + i * T, n_t + (i - n_t) % T**(K - 1) * T)
        return first[:, None] + np.arange(T)


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
