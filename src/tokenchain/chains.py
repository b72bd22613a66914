"""Materialize and validate the transition matrix induced by a next-token oracle.

Querying an oracle on every sequence state yields a sparse row-stochastic
matrix: the only reachable targets of a state are its T one-step
successors, so a fraction (T - 1)/(T^K - 1) of the entries can be nonzero.
States shorter than the context window are transient (the sequence keeps
growing) and the T^K full-length states form the closed trailing block.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .states import VocabSpec, StateSpace, enumerate_states
from .oracles import OracleError

ROW_SUM_TOL = 1e-9
ROW_REPAIR_TOL = 1e-6

# recurrent_block materializes a dense T^K x T^K array
DENSE_BLOCK_CAP_BYTES = 1 << 31
# spectral.stationary's doubling search stores up to log2(max_iter) dense
# n x n powers; a chain whose powers need more keeps the sparse loop
POWERS_BUDGET_BYTES = 1 << 28


class StructureError(Exception):
    """A built matrix violates its structural contract."""


@dataclass
class TransitionMatrix:
    """Row-stochastic matrix with transient/recurrent block metadata.

    ``probs`` is either a scipy CSR matrix (full sequence-state chains,
    which are extremely sparse) or a dense ndarray (generated chains and
    extracted recurrent blocks).  States ``[0, n_transient)`` are the
    transient ones; the rest form the trailing recurrent-candidate block.
    """

    probs: object
    n_transient: int = 0
    recurrent_only: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.probs)

    def dense(self) -> np.ndarray:
        if self.is_sparse:
            return self.probs.toarray()
        return np.asarray(self.probs, dtype=float)

    def sparse(self) -> sp.csr_matrix:
        if self.is_sparse:
            return self.probs
        return sp.csr_matrix(self.probs)

    def row(self, i) -> np.ndarray:
        if self.is_sparse:
            return self.probs.getrow(i).toarray().ravel()
        return np.asarray(self.probs[i], dtype=float)

    def nonzero_count(self) -> int:
        if self.is_sparse:
            return int(self.probs.count_nonzero())
        return int(np.count_nonzero(self.probs))

    @classmethod
    def from_dense(cls, rows, n_transient=0, **kw):
        return cls(np.asarray(rows, dtype=float), n_transient=n_transient, **kw)

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready dict: the nonzero (row, col, value) triplets in
        row-major order, plus the block layout."""
        coo = self.sparse().tocoo()
        order = np.lexsort((coo.col, coo.row))
        keep = order[coo.data[order] != 0.0]
        triplets = list(map(list, zip(coo.row[keep].tolist(),
                                      coo.col[keep].tolist(),
                                      coo.data[keep].tolist())))
        return {
            "n": self.n_states,
            "triplets": triplets,
            "blocks": {
                "transient": [0, self.n_transient],
                "recurrent": [self.n_transient, self.n_states],
                "recurrent_only": self.recurrent_only,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_json(cls, text):
        blob = json.loads(text)
        n = blob["n"]
        triplets = blob["triplets"]
        rows = [t[0] for t in triplets]
        cols = [t[1] for t in triplets]
        data = [t[2] for t in triplets]
        m = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        blocks = blob.get("blocks", {})
        return cls(m, n_transient=blocks.get("transient", [0, 0])[1],
                   recurrent_only=blocks.get("recurrent_only", False))

    def to_csv(self, max_states=10000) -> str:
        if self.n_states > max_states:
            raise ValueError(
                f"dense CSV export limited to {max_states} states, "
                f"matrix has {self.n_states}")
        buf = io.StringIO()
        for r in self.dense():
            buf.write(",".join(repr(float(x)) for x in r))
            buf.write("\n")
        return buf.getvalue()


@dataclass
class StructureReport:
    n_states: int
    nonzero_count: int
    nonzero_proportion: Fraction
    expected_nonzero_count: int
    row_sum_max_error: float
    block_pattern_ok: bool
    nilpotency_index: int | None

    @property
    def failures(self) -> list[str]:
        """The failed checks, by name; empty when the chain is ok."""
        checks = [
            (self.block_pattern_ok, "pattern: a nonzero off the successor set"),
            (self.row_sum_max_error <= ROW_SUM_TOL,
             f"row sums: max error {self.row_sum_max_error!r} > {ROW_SUM_TOL}"),
            (self.nilpotency_index is not None,
             "nilpotency: transient block not nilpotent within K steps"),
        ]
        return [what for passed, what in checks if not passed]

    @property
    def ok(self):
        return not self.failures


def build_qf(oracle, spec: VocabSpec, space: StateSpace | None = None) -> TransitionMatrix:
    """Build the sequence-state transition matrix of a next-token oracle.

    Row i holds the oracle's next-token probabilities for state i, scattered
    onto the indices of its successor states; every other entry is zero.
    A row whose probabilities miss unit sum by more than 1e-9 is silently
    renormalized only when the drift is at most 1e-6, otherwise the oracle
    is considered buggy and the build fails.
    """
    if space is None:
        space = enumerate_states(spec)
    T = spec.n_tokens
    n = len(space)
    P = np.asarray(oracle.query_many(space, np.arange(n)), dtype=float)
    if P.shape != (n, T):
        raise OracleError(f"oracle returned shape {P.shape[1:]} for state "
                          f"{space[0]}, expected ({T},)")
    negative = (P < 0).any(axis=1)
    sums = P.sum(axis=1)
    drift = np.abs(sums - 1.0)
    bad = np.flatnonzero(negative | (drift > ROW_REPAIR_TOL))
    if bad.size:
        i = bad[0]
        if negative[i]:
            raise OracleError(f"negative probability in row for state {space[i]}")
        raise OracleError(f"row for state {space[i]} sums to {sums[i]}; "
                          f"drift above {ROW_REPAIR_TOL}")
    P = np.where((drift > ROW_SUM_TOL)[:, None], P / sums[:, None], P)
    m = sp.csr_matrix((P.ravel(), space.successor_table().ravel(),
                       np.arange(0, n * T + 1, T, dtype=np.int64)),
                      shape=(n, n))
    return TransitionMatrix(m, n_transient=space.n_transient,
                            meta={"n_tokens": T, "context_window": spec.context_window})


def validate_structure(Q: TransitionMatrix, spec: VocabSpec,
                       space: StateSpace | None = None) -> StructureReport:
    """Check the sparsity pattern, block layout, and row sums of a built chain.

    The report records the exact nonzero count against the closed form
    T^2 (T^K - 1)/(T - 1), the nonzero proportion as an exact rational,
    and the smallest power at which the transient-to-transient block
    vanishes (it must, within K steps: sequences only grow until full).
    """
    if space is None:
        space = enumerate_states(spec)
    n = Q.n_states
    if n != spec.state_count:
        raise ValueError(
            f"matrix has {n} states, spec wants {spec.state_count}")
    T, K = spec.n_tokens, spec.context_window
    coo = Q.sparse().tocoo()
    mask = coo.data != 0.0
    rows, cols = coo.row[mask], coo.col[mask]
    nnz = int(mask.sum())

    # the T successors of a state are consecutive indices
    offset = cols - space.successor_table()[rows, 0]
    pattern_ok = bool(np.all((offset >= 0) & (offset < T)))

    row_sums = np.asarray(Q.sparse().sum(axis=1)).ravel()
    row_err = float(np.abs(row_sums - 1.0).max()) if n else 0.0

    return StructureReport(
        n_states=n,
        nonzero_count=nnz,
        nonzero_proportion=Fraction(nnz, n * n),
        expected_nonzero_count=T * T * (T**K - 1) // (T - 1),
        row_sum_max_error=row_err,
        block_pattern_ok=pattern_ok,
        nilpotency_index=_nilpotency_index(Q, space.n_transient, K),
    )


def _nilpotency_index(Q, n_transient, K):
    """Smallest k <= K with the transient block's k-th power identically zero.

    B^k vanishes iff no state starts a k-step path inside the block.
    """
    if n_transient == 0:
        return 0
    block = Q.sparse()[:n_transient, :n_transient] != 0.0
    alive = np.ones(n_transient, dtype=bool)
    for k in range(1, K + 1):
        alive = block @ alive
        if not alive.any():
            return k
    return None


def recurrent_block(Q: TransitionMatrix,
                    cap_bytes=DENSE_BLOCK_CAP_BYTES) -> TransitionMatrix:
    """Extract the dense full-length-state block of a sequence-state chain."""
    n_t = Q.n_transient
    n_r = Q.n_states - n_t
    if n_r * n_r * 8 > cap_bytes:
        raise MemoryError(
            f"dense block of {n_r} states needs {n_r * n_r * 8} bytes, "
            f"above the cap of {cap_bytes}")
    block = Q.sparse()[n_t:, n_t:].toarray()
    return TransitionMatrix(block, n_transient=0, recurrent_only=True)
