"""Next-token probability sources.

Every oracle answers the same question: given a context (a sequence of
token ids), what is the distribution of the next token?  Implementations
cover a ground-truth chain row lookup, smoothed n-gram counts, a small
trainable softmax classifier, and fixed logit tables for temperature
studies.  The remote HTTP oracle lives in :mod:`tokenchain.remote`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .states import VocabSpec, state_path

SUM_TOL = 1e-9
PARITY_DIGITS = 40  # the parity task's default sequence length


class OracleError(Exception):
    """An oracle failed to produce a usable distribution."""


class TrainingDivergedError(OracleError):
    def __init__(self, epoch, loss):
        super().__init__(f"training loss became non-finite at epoch {epoch}: {loss}")
        self.epoch = epoch


def validate_distribution(p, tol=SUM_TOL):
    """Check nonnegativity and unit sum of a probability vector."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise OracleError(f"expected a vector, got shape {p.shape}")
    if not np.all(p >= 0):
        raise OracleError(f"negative or NaN probability: min={p.min()}")
    s = p.sum()
    if abs(s - 1.0) > tol:
        raise OracleError(f"probabilities sum to {s}, off by more than {tol}")
    return p


def apply_temperature(logits, temperature):
    """softmax(logits / temperature) along the last axis, computed stably.

    Raising the temperature flattens the distribution: the minimum entry is
    nondecreasing in the temperature for any fixed logit vector.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    with np.errstate(over="ignore"):
        x = np.asarray(logits, dtype=float) / temperature
    if not np.all(np.isfinite(x)):
        if np.all(np.isfinite(logits)):
            raise OracleError(f"temperature {temperature!r} is too small: "
                              f"logits / temperature overflow float64")
        raise ValueError("logits must be finite")
    # in place in the fresh x; a spread that overflows leaves -inf, exp 0
    with np.errstate(over="ignore"):
        x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    return np.divide(x, x.sum(axis=-1, keepdims=True), out=x)


class Oracle:
    """Base next-token oracle.

    Subclasses set ``n_symbols`` (alphabet size of the answer) and
    ``context_cap`` (how many trailing context tokens the oracle consumes;
    None means the whole context).  ``query`` front-truncates the context
    to the cap before delegating.
    """

    n_symbols: int
    context_cap = None

    def query(self, context) -> np.ndarray:
        context = tuple(context)
        cap = self.context_cap
        if cap is not None and len(context) > cap:
            context = context[-cap:]
        return self._distribution(context)

    def query_many(self, contexts) -> np.ndarray:
        """Next-token distributions of ``contexts``, any iterable of them
        or a VocabSpec (its states in index order), as an (n, T) array.
        By default ``query`` answers them one at a time; an override must
        return exactly the same rows."""
        space = isinstance(contexts, VocabSpec)
        T = contexts.n_tokens if space else self.n_symbols

        def rows():
            for context in contexts:
                p = np.asarray(self.query(context), dtype=float)
                if p.shape != (T,):
                    raise OracleError(f"oracle returned shape {p.shape} for "
                                      f"state {context}, expected ({T},)")
                yield p
        return np.fromiter(rows(), np.dtype((float, T)),
                           len(contexts) if space else -1)

    def _distribution(self, context):
        raise NotImplementedError


class ChainOracle(Oracle):
    """Ground-truth oracle: answers with the chain row of the last state."""

    context_cap = 1

    def __init__(self, matrix, name="chain"):
        from .chains import TransitionMatrix  # chains imports this module
        self.rows = TransitionMatrix.of(matrix).dense()
        self.n_symbols = self.rows.shape[0]
        self.name = name

    def _distribution(self, context):
        return self.rows[context[-1]]

    def query_many(self, contexts):
        # the last token of state o_L + v is v mod T, and every o_L is a
        # multiple of T
        return self.rows[np.arange(len(contexts)) % contexts.n_tokens
                         if isinstance(contexts, VocabSpec)
                         else [context[-1] for context in contexts]]


class UniformOracle(Oracle):
    """Answers 1/T for every token regardless of context."""

    context_cap = 1

    def __init__(self, n_symbols):
        self.n_symbols = n_symbols
        self._row = np.full(n_symbols, 1.0 / n_symbols)
        self.name = "uniform"

    def _distribution(self, context):
        return self._row

    def query_many(self, contexts):
        if not isinstance(contexts, VocabSpec):
            return super().query_many(contexts)
        return np.tile(self._row, (len(contexts), 1))


class RandomLogitOracle(Oracle):
    """Fixed random logits over a spec's states, read out through a softmax.

    The logits are frozen at construction; only the temperature varies, so
    rebuilding the chain across a temperature grid probes exactly the
    flattening effect of the softmax.
    """

    def __init__(self, spec, seed=0, temperature=1.0, scale=1.0, _logits=None):
        if not temperature > 0:
            raise ValueError(f"temperature must be > 0, got {temperature}")
        self.spec = spec
        self.seed = seed
        self.temperature = float(temperature)
        if _logits is None:
            rng = np.random.default_rng(seed)
            with np.errstate(over="ignore", invalid="ignore"):
                _logits = scale * rng.standard_normal(
                    (len(spec), spec.n_tokens))
            if not np.all(np.isfinite(_logits)):
                raise ValueError(f"scale {scale!r} times a standard normal "
                                 f"draw is not a finite float64")
        self.logits = _logits
        self.n_symbols = spec.n_tokens
        self.context_cap = spec.context_window
        self.name = f"random-logits-{seed}"

    def with_temperature(self, temperature):
        return RandomLogitOracle(self.spec, self.seed, temperature,
                                 _logits=self.logits)

    def _distribution(self, context):
        row = self.logits[self.spec.index(context)]
        return apply_temperature(row, self.temperature)

    def query_many(self, contexts):
        # a spec is a sequence: compared with an array, numpy would walk it
        if not isinstance(contexts, VocabSpec) or contexts != self.spec:
            return super().query_many(contexts)
        return apply_temperature(self.logits, self.temperature)


class NgramOracle(Oracle):
    """Transition counts with additive smoothing.

    P(t | ctx) = (count(ctx, t) + alpha) / (count(ctx, .) + alpha * T).
    Contexts never observed during fitting fall back to the uniform
    distribution when alpha = 0; they are listed in ``unseen_queried``.
    """

    def __init__(self, counts, order, alpha, n_symbols):
        self.counts = counts
        self.order = order
        self.alpha = float(alpha)
        self.n_symbols = n_symbols
        self.context_cap = order
        self.unseen_queried = set()
        self.name = f"ngram-{order}"

    def _distribution(self, context):
        c = self.counts.get(context)
        if c is None:
            c = np.zeros(self.n_symbols)
            if self.alpha == 0:
                self.unseen_queried.add(context)
                return np.full(self.n_symbols, 1.0 / self.n_symbols)
        total = c.sum() + self.alpha * self.n_symbols
        return (c + self.alpha) / total


def window_groups(states, width):
    """For w = 1 .. ``width``, group the windows of the last w states up
    to each position (fewer where fewer precede); yield ``(firsts,
    groups)``: groups in order of first appearance, ``firsts[g]`` the
    position of group g's first window, ``groups[k]`` the group at k.

    A window of w + 1 states is its last state after the window of w one
    step earlier: one stable lexsort of two columns per width, and none
    once every window is distinct.
    """
    n = states.size
    groups = np.full(n, -1)
    for w in range(width):
        if w == 0 or firsts.size < n:
            earlier = np.concatenate(([-1], groups[:-1]))
            order = np.lexsort((earlier, states))
            new = np.ones(n, dtype=bool)
            new[1:] = ((states[order[1:]] != states[order[:-1]])
                       | (earlier[order[1:]] != earlier[order[:-1]]))
            # stable, so each run of equal windows starts at its first one
            starts = order[new]
            appearance = np.argsort(starts)
            groups = np.empty_like(order)
            groups[order] = np.argsort(appearance)[np.cumsum(new) - 1]
            firsts = starts[appearance]
        yield firsts, groups


def smoothing(alpha) -> float:
    """``alpha`` as an n-gram's additive smoothing: finite and >= 0."""
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    return float(alpha)


def fit_ngram(trajectory, order, alpha=1.0, n_symbols=None):
    """Fit an n-gram oracle on a state trajectory.

    Windows of every length up to ``order`` are counted so queries shorter
    than the full order (the warm-up steps of a trajectory) still hit
    observed statistics.
    """
    states = state_path(trajectory)
    alpha = smoothing(alpha)
    if states.size < 2 and alpha == 0:
        raise ValueError("need at least one transition to fit with alpha=0")
    if n_symbols is None:
        n_symbols = int(states.max()) + 1
    counts: dict[tuple, np.ndarray] = {}
    seq = states.tolist()
    # no window longer than the trajectory has a next state to count
    widths = window_groups(states[:-1], min(order, states.size - 1))
    for length, (firsts, groups) in enumerate(widths, 1):
        # the shorter windows at positions 0 .. length - 2 come first, as
        # groups 0 .. length - 2; the full ones follow
        short = length - 1
        table = np.zeros((firsts.size - short, n_symbols))
        np.add.at(table, (groups[short:] - short, states[length:]), 1.0)
        for end, row in zip(firsts[short:].tolist(), table):
            counts[tuple(seq[end - short:end + 1])] = row
    return NgramOracle(counts, order, alpha, n_symbols)


# ---------------------------------------------------------------------------
# Trainable toy model: one-hot(context) -> linear -> softmax
# ---------------------------------------------------------------------------

@dataclass
class ToyModelConfig:
    context_length: int = 3
    embedding_dim: int = 16
    learning_rate: float = 0.1
    epochs: int = 500
    seed: int = 0
    temperature: float = 1.0

    def __post_init__(self):
        # written as "not 0 < x < inf" so that NaN fails too
        for name in ("context_length", "embedding_dim", "learning_rate", "epochs"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.temperature > 0:
            raise ValueError("temperature must be > 0")


class ToyModel(Oracle):
    """Linear softmax classifier over a one-hot encoded, padded context.

    Contexts shorter than the window are left-padded with the reserved pad
    id T, then each position is one-hot encoded over T + 1 symbols and the
    concatenation is mapped through a rank-limited linear layer
    (D x embedding_dim x T) to next-token logits.
    """

    def __init__(self, config: ToyModelConfig, n_tokens, w_in, w_out, bias,
                 loss_history=None):
        self.config = config
        self.n_tokens = n_tokens
        self.n_symbols = n_tokens
        self.context_cap = config.context_length
        self.w_in = w_in
        self.w_out = w_out
        self.bias = bias
        self.loss_history = loss_history or []
        self.name = "toy-model"

    def _encode(self, context):
        K, width = self.config.context_length, self.n_tokens + 1
        if not all(0 <= t < self.n_tokens for t in context):
            raise ValueError(f"context {tuple(context)}: tokens must lie "
                             f"in [0, {self.n_tokens})")
        padded = (self.n_tokens,) * (K - len(context)) + tuple(context)
        x = np.zeros(K * width)
        for pos, tok in enumerate(padded):
            x[pos * width + tok] = 1.0
        return x

    def logits(self, context):
        with np.errstate(over="ignore", invalid="ignore"):
            z = (self._encode(context) @ self.w_in) @ self.w_out + self.bias
        if not np.all(np.isfinite(z)):
            raise OracleError(
                f"logits of context {tuple(context)} are not finite")
        return z

    def with_temperature(self, temperature):
        cfg = replace(self.config, temperature=temperature)
        return ToyModel(cfg, self.n_tokens, self.w_in, self.w_out, self.bias,
                        loss_history=self.loss_history)

    def _distribution(self, context):
        return apply_temperature(self.logits(context), self.config.temperature)


def toy_bytes(n_digits, context_length, embedding_dim=0) -> int:
    """Bytes that training a binary toy of width E on the windows of
    ``parity_sequence(n_digits)`` may hold at once: 0.6-4 KB a window for
    K of 1-23 under tracemalloc, 16 an entry of the (3K, E) w_in and its
    draw, and 48 a unit of width for the (E+1, 2) w_ob, its draw and dW."""
    weights = 16 * embedding_dim * (3 * context_length + 3)
    return (512 + 192 * context_length) * n_digits + weights + (1 << 16)


def train_toy(dataset, config: ToyModelConfig, n_tokens=None) -> ToyModel:
    """Train the toy classifier with per-example SGD at a fixed learning rate.

    ``dataset`` is a list of (context, next_token) pairs with contexts of
    length at most the configured window.  Mean cross-entropy per epoch is
    recorded in ``loss_history``; a non-finite loss aborts training.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    dataset = [(tuple(ctx), int(y)) for ctx, y in dataset]
    if n_tokens is None:
        n_tokens = 1 + max(max((max(c) for c, _ in dataset if c), default=0),
                           max(y for _, y in dataset))
    for i, (ctx, y) in enumerate(dataset):
        if len(ctx) > config.context_length:
            raise ValueError(f"context {ctx} longer than the window")
        if not all(0 <= t < n_tokens for t in (*ctx, y)):
            raise ValueError(f"example {i} {ctx} -> {y}: tokens must lie "
                             f"in [0, {n_tokens})")
    rng = np.random.default_rng(config.seed)
    dim_in, E = config.context_length * (n_tokens + 1), config.embedding_dim
    w_in = 0.01 * rng.standard_normal((dim_in, E))
    # w_out and then bias, as the rows of one array: one outer product
    # with (h, 1.0) updates both
    w_ob = np.zeros((E + 1, n_tokens))
    w_ob[:E] = 0.01 * rng.standard_normal((E, n_tokens))
    w_out, bias = w_ob[:E], w_ob[E]
    model = ToyModel(config, n_tokens, w_in, w_out, bias)

    # x, the K rows of w_in that x selects, and the target
    encoded = [(x, [w_in[r] for r in np.flatnonzero(x)], y)
               for x, y in ((model._encode(ctx), y) for ctx, y in dataset)]
    order = np.arange(len(encoded))
    lr = config.learning_rate
    h1, dh, dW = np.ones(E + 1), np.empty(E), np.empty_like(w_ob)
    z, g, p_y = np.empty(n_tokens), np.empty(n_tokens), np.empty(len(order))
    # views kept for the whole run: every update below is in place
    h, w_out_t, h1_col = h1[:E], w_out.T, h1[:, None]
    # an update that overflows shows in the next logits
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            rng.shuffle(order)
            for i, idx in enumerate(order):
                x, rows, y = encoded[idx]
                np.dot(x, w_in, out=h)
                np.add(np.dot(h, w_out, out=z), bias, out=z)
                logits = z.tolist()
                if not all(map(math.isfinite, logits)):
                    raise TrainingDivergedError(epoch, float("inf"))
                np.exp(np.subtract(z, max(logits), out=g), out=g)
                np.divide(g, np.add.reduce(g), out=g)
                p_y[i] = g[y]
                # d(cross-entropy)/d(logits) = p - onehot(y); the rows of
                # w_in that x leaves at 0 would lose lr * 0 * (g @ w_out.T),
                # exactly 0 while that product is finite
                g[y] -= 1.0
                np.multiply(lr, np.dot(g, w_out_t, out=dh), out=dh)
                for row in rows:
                    np.subtract(row, dh, out=row)
                np.subtract(w_ob, np.multiply(
                    lr, np.multiply(h1_col, g, out=dW), out=dW), out=w_ob)
            # the cross-entropies, subtracted in step order from 0.0
            loss = np.subtract.reduce(np.log(np.maximum(p_y, 1e-300)),
                                      initial=0.0) / len(encoded)
            model.loss_history.append(loss)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
    return model


# ---------------------------------------------------------------------------
# Parity task: next digit = parity of the previous three
# ---------------------------------------------------------------------------

def parity_sequence(n_digits=PARITY_DIGITS, start=(0, 0, 1)):
    """Binary sequence where each digit past the seed is the parity of the
    previous three (0 if their sum is even, 1 otherwise)."""
    seq = list(start)
    if len(seq) > n_digits:
        raise ValueError("seed longer than the requested sequence")
    while len(seq) < n_digits:
        seq.append(sum(seq[-3:]) % 2)
    return seq


def windowed_examples(sequence, context_length=3):
    """Supervised (context, next-token) pairs from every window of a sequence."""
    seq = list(sequence)
    if len(seq) <= context_length:
        raise ValueError(f"a sequence of {len(seq)} tokens has no window of "
                         f"{context_length} with a next token")
    return [(tuple(seq[i:i + context_length]), seq[i + context_length])
            for i in range(len(seq) - context_length)]
