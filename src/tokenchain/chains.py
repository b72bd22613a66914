"""Materialize and validate the transition matrix induced by a next-token oracle.

Querying an oracle on every sequence state yields a row-stochastic matrix
with at most T nonzeros a row: the only reachable targets of a state are
its T one-step successors, so a fraction (T - 1)/(T^K - 1) of the entries
can be nonzero.  Such a chain is held as its (n, T) next-token table and
reached through the closed-form successor rule; a d-state chain is the
table of d tokens at K = 1.  States shorter than the context window are
transient (the sequence keeps growing) and the T^K full-length states
form the closed trailing block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .states import VocabSpec
from .oracles import SUM_TOL, OracleError

ROW_REPAIR_TOL = 1e-6

# the CLI's cap on the dense arrays a command may hold, and on `dense()`
DENSE_BLOCK_CAP_BYTES = 1 << 31


class StructureError(Exception):
    """A built matrix violates its structural contract."""


@dataclass
class TransitionMatrix:
    """Row-stochastic matrix held as the (n, T) next-token table of its
    ``spec`` (T tokens, window K): entry (i, t) is the probability of the
    state ``spec.first_successors()[i] + t``, and the states shorter
    than K, ``[0, n_transient)``, are transient.  Made without a spec, a
    square (d, d) array is the table of VocabSpec(d, 1), the matrix itself.
    ``dense()`` refuses an (n, n) above DENSE_BLOCK_CAP_BYTES.
    """

    probs: np.ndarray
    meta: dict = field(default_factory=dict)
    spec: VocabSpec = None

    def __post_init__(self):
        if not isinstance(self.spec, VocabSpec):
            self.probs = P = np.asarray(self.probs, dtype=float)
            if P.ndim != 2 or P.shape[0] != P.shape[1]:
                raise ValueError(f"need a square matrix, got shape {P.shape}")
            self.spec = VocabSpec(len(P), 1)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_transient(self) -> int:
        return self.spec.n_transient

    def dense(self) -> np.ndarray:
        if self.spec.context_window == 1:
            return self.probs
        n = self.n_states
        if n * n * 8 > DENSE_BLOCK_CAP_BYTES:
            raise MemoryError(
                f"dense block of {n} states needs {n * n * 8} bytes, "
                f"above the cap of {DENSE_BLOCK_CAP_BYTES}")
        out = np.zeros((n, n))
        rows, cols, values = self.triplet_columns()
        out[rows, cols] = values
        return out

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.probs))

    @classmethod
    def of(cls, Q) -> "TransitionMatrix":
        """``Q`` itself if it is a TransitionMatrix; otherwise ``Q``, a
        square array or nested lists, as the table of VocabSpec(d, 1)."""
        return Q if isinstance(Q, cls) else cls(Q)

    def triplet_columns(self, start=0, stop=None):
        """The nonzero entries of rows [start, stop), by default all of
        them, as (row, col, value) arrays in row-major order."""
        block = self.probs[start:stop]
        rows, t = np.divmod(np.flatnonzero(block != 0.0), block.shape[1])
        cols = self.spec.first_successors(start, stop)[rows] + t
        return start + rows, cols, block[rows, t]

    def left_product(self):
        """The map x -> x Q, into ``out`` if given.  Entry j of x Q is
        summed from 0.0 over the predecessors of j in increasing index
        order: iterates repeat to the bit.  At K = 1 every state precedes
        every state, so one bincount over the nonzeros beats the block
        step, which would loop over d blocks."""
        n = self.n_states
        T, K = self.spec.n_tokens, self.spec.context_window
        if K == 1:
            rows, cols, values = self.triplet_columns()

            def step(x, out=None):
                y = np.bincount(cols, weights=x[rows] * values, minlength=n)
                return y if out is None else np.copyto(out, y) or out
            return step
        n_t, m = self.n_transient, T ** (K - 1)
        # state i < n_t - m moves to T + i T + t; the full-length state
        # n_t + r T + t has the predecessors n_t - m + r and n_t + a m + r
        # for a < T: the m-row blocks from `first` on.  + 0.0 turns a
        # stored -0.0 into 0.0, as a sum from 0.0 does.
        first = n_t - m
        PT = np.ascontiguousarray(self.probs.T) + 0.0
        head, body = PT[:, :first], PT[:, first:]
        tail = np.empty((T, n - first))
        blocks = list(tail.reshape(T, -1, m).swapaxes(0, 1))

        def step(x, out=None):
            y = np.empty(n) if out is None else out
            y[:T] = 0.0
            np.multiply(head, x[:first], out=y[T:n_t].reshape(-1, T).T)
            np.multiply(body, x[first:], out=tail)
            acc = np.add(blocks[0], blocks[1], out=y[n_t:].reshape(m, T).T)
            for block in blocks[2:]:
                acc += block
            return y
        return step


@dataclass
class StructureReport:
    n_states: int
    nonzero_count: int
    nonzero_proportion: Fraction
    expected_nonzero_count: int
    row_sum_max_error: float
    block_pattern_ok: bool
    nilpotency_index: int

    @property
    def failures(self) -> list[str]:
        """The failed checks, by name; empty when the chain is ok."""
        return [] if self.row_sum_max_error <= SUM_TOL else [
            f"row sums: max error {self.row_sum_max_error!r} > {SUM_TOL}"]

    @property
    def ok(self):
        return not self.failures


def build_qf(oracle, spec: VocabSpec) -> TransitionMatrix:
    """Build the sequence-state transition matrix of a next-token oracle.

    Row i of its table holds the oracle's next-token probabilities for
    state i, one for each of its successor states; every other entry of
    the matrix is zero.
    A row whose probabilities miss unit sum by more than SUM_TOL is silently
    renormalized only when the drift is at most 1e-6, otherwise the oracle
    is considered buggy and the build fails.
    """
    n, T = len(spec), spec.n_tokens
    P = np.asarray(oracle.query_many(spec), dtype=float)
    if P.shape != (n, T):
        raise OracleError(f"oracle returned shape {P.shape[1:]} for state "
                          f"{spec[0]}, expected ({T},)")
    negative = ~(P >= 0).all(axis=1)
    sums = P.sum(axis=1)
    drift = sums - 1.0
    np.abs(drift, out=drift)
    bad = np.flatnonzero(negative | (drift > ROW_REPAIR_TOL))
    if bad.size:
        i = bad[0]
        if negative[i]:
            raise OracleError(
                f"negative or NaN probability in row for state {spec[i]}")
        raise OracleError(f"row for state {spec[i]} sums to {sums[i]}; "
                          f"drift above {ROW_REPAIR_TOL}")
    repair = (drift > SUM_TOL)[:, None]
    if repair.any():
        P = np.divide(P, sums[:, None], out=P.copy(), where=repair)
    return TransitionMatrix(P, spec=spec)


def validate_structure(Q: TransitionMatrix, spec: VocabSpec) -> StructureReport:
    """Check the row sums and transient block of the table of ``spec``'s
    chain; any other matrix is a ValueError.

    The report records the exact nonzero count against its closed form
    T n, the nonzero proportion as an exact rational, and the smallest
    power at which the transient-to-transient block vanishes.  A table's
    columns are its successors, so its pattern always holds.
    """
    n = Q.n_states
    if n != spec.state_count or Q.spec != spec:
        raise ValueError(f"a matrix of {n} states (spec {Q.spec}) is not "
                         f"a chain of {spec}, {spec.state_count} states")
    T, K, n_t = spec.n_tokens, spec.context_window, Q.n_transient
    # the state i < first moves to T + i T + t, inside the transient block
    first = max(n_t - T ** (K - 1), 0)
    nilpotency = _nilpotency_index(Q.probs[:first] != 0.0, n_t)

    # pairwise sums, row by row: a table's row sums are pinned in
    # structure.json, and probs.sum(axis=1) rounds some rows differently
    row_err = np.abs(np.add.reduceat(Q.probs, [0], axis=1)[:, 0] - 1.0)
    row_err = float(row_err.max())
    nonzeros = Q.nonzero_count()
    return StructureReport(
        n_states=n,
        nonzero_count=nonzeros,
        nonzero_proportion=Fraction(nonzeros, n * n),
        expected_nonzero_count=T * n,
        row_sum_max_error=row_err,
        block_pattern_ok=True,
        nilpotency_index=nilpotency,
    )


def _nilpotency_index(moves, n_transient):
    """Smallest k with the transient block's k-th power identically zero:
    no state starts a k-step path inside the block.  Row i of the
    (first, T) bool ``moves`` marks state i's moves to T + i T + t; the
    states from ``first`` on leave the block.  Every move inside the block
    lengthens the sequence, so k is at most K - 1."""
    first, T = moves.shape
    alive = np.ones(n_transient, dtype=bool)
    k = 0
    while alive.any():
        alive[:first] = (moves & alive[T:].reshape(first, T)).any(axis=1)
        alive[first:] = False
        k += 1
    return k
