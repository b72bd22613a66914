"""State space of a next-token model viewed as a Markov chain.

A model with vocabulary size ``T`` and context window ``K`` walks on the
set of all token sequences of length 1..K.  Sequences grow by appending
tokens until they hit the window, after which the oldest token is dropped
(front truncation).  This module enumerates that state space, assigns a
canonical index to every sequence, and decides which ordered pairs of
sequences can follow each other in one step.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def recurrent_count(self) -> int:
        return self.n_tokens**self.context_window


class StateSpace:
    """Explicit enumeration of all sequences of length 1..K over T tokens.

    States are ordered by length first, then by the base-T numeric value of
    the token list.  Shorter-than-K sequences therefore occupy the leading
    indices and the T^K full-length sequences the trailing block, which
    fixes the transient/recurrent matrix layout.
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
        states = []
        for length in range(1, K + 1):
            states.extend(_sequences_of_length(T, length))
        self._states: list[tuple[int, ...]] = states

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return iter(self._states)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._states[i]

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

    @property
    def n_transient(self) -> int:
        return self.spec.transient_count


def _sequences_of_length(T, length):
    seq = [0] * length
    out = [tuple(seq)]
    # odometer increment in base T keeps the ordering numeric
    for _ in range(T**length - 1):
        pos = length - 1
        while seq[pos] == T - 1:
            seq[pos] = 0
            pos -= 1
        seq[pos] += 1
        out.append(tuple(seq))
    return out


def enumerate_states(spec: VocabSpec,
                     max_states: int = DEFAULT_STATE_CAP) -> StateSpace:
    """Enumerate the full state space for the given vocabulary spec."""
    return StateSpace(spec, max_states=max_states)


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
