"""Closed-form deviation constants, sample-complexity inversions, and the
concentration / log-ratio inequalities that back them.

Every evaluator here is a pure function of its inputs.  The Monte Carlo
verifier draws in fixed-size batches with seeds derived from (seed, batch)
and sums their integer tail counts, so results match at any worker count.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimation import kl_divergence, map_jobs, tv_distance
from .oracles import validate_distribution

MC_BATCH = 10_000
COIN_BLOCK = 1 << 15    # raw 64-bit words (256 KiB, 2^21 coins) per block
CHECK_SLACK = 1e-12
DEFAULT_DELTA = 0.05


class BoundOverflowError(ArithmeticError):
    """Raised when a deviation constant overflows float range.

    From depth_constant, log_power carries n_layers * log(layer_bound) so
    callers can still reason about the bound's magnitude; else None.
    """

    def __init__(self, log_power=None):
        self.log_power = log_power
        super().__init__(
            "deviation constant exceeds float range" if log_power is None
            else f"per-layer factor overflows: exponent sum {log_power!r} "
            "exceeds float range")


def _check_delta(delta):
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _check_positive(value, name):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_at_least(value, low, name):
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_floor(value, name):
    if not 0 < value <= 1:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


@dataclass(frozen=True)
class PretrainBoundParams:
    """Inputs for the pre-training deviation constant.

    n_tokens: alphabet size (any positive real; exactness is not needed).
    unembed_bound: cap on the unembedding norm, >= 0.
    ambiguity_floor: smallest admissible next-token probability, in (0, 1].
    mixing_norm: operator norm of the training-sequence mixing matrix,
        >= 1, with 1 meaning independent samples.
    """

    n_tokens: float
    unembed_bound: float
    temperature: float
    ambiguity_floor: float
    delta: float
    n_train: int
    mixing_norm: float = 1.0

    def __post_init__(self):
        _check_positive(self.n_tokens, "n_tokens")
        _check_at_least(self.unembed_bound, 0, "unembed_bound")
        _check_positive(self.temperature, "temperature")
        _check_floor(self.ambiguity_floor, "ambiguity_floor")
        _check_delta(self.delta)
        _check_positive(self.n_train, "n_train")
        _check_at_least(self.mixing_norm, 1, "mixing_norm")


@dataclass(frozen=True)
class IclBoundParams:
    """Inputs for the in-context deviation constant over a d-state chain."""

    n_states: int
    unembed_bound: float
    temperature: float
    min_transition_prob: float
    delta: float
    n_icl: int
    t_min: float

    def __post_init__(self):
        _check_positive(self.n_states, "n_states")
        _check_at_least(self.unembed_bound, 0, "unembed_bound")
        _check_positive(self.temperature, "temperature")
        _check_floor(self.min_transition_prob, "min_transition_prob")
        _check_delta(self.delta)
        _check_positive(self.n_icl, "n_icl")
        _check_positive(self.t_min, "t_min")


@dataclass(frozen=True)
class DepthBoundParams:
    """Inputs for the architecture-aware deviation constant.

    ffn_dim is the MLP hidden width; mlp_in_bound / mlp_out_bound cap its
    two weight matrices, attn_out_bound / value_bound the attention
    projections, token_bound the token embeddings.  A head count that does
    not divide embed_dim only warns; the formula stays evaluable.
    """

    n_layers: int
    n_heads: int
    embed_dim: int
    ffn_dim: int
    mlp_in_bound: float
    mlp_out_bound: float
    attn_out_bound: float
    value_bound: float
    token_bound: float
    unembed_bound: float
    n_tokens: float
    temperature: float
    ambiguity_floor: float
    delta: float
    mixing_norm: float = 1.0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "embed_dim", "ffn_dim",
                     "n_tokens", "temperature"):
            _check_positive(getattr(self, name), name)
        for name in ("mlp_in_bound", "mlp_out_bound", "attn_out_bound",
                     "value_bound", "token_bound", "unembed_bound"):
            _check_at_least(getattr(self, name), 0, name)
        _check_floor(self.ambiguity_floor, "ambiguity_floor")
        _check_delta(self.delta)
        _check_at_least(self.mixing_norm, 1, "mixing_norm")
        if self.embed_dim % self.n_heads != 0:
            warnings.warn(
                f"n_heads={self.n_heads} does not divide "
                f"embed_dim={self.embed_dim}", RuntimeWarning, stacklevel=3)


@dataclass(frozen=True)
class ModelCard:
    """Published training-scale numbers for one checkpoint."""

    name: str
    n_train: int
    n_tokens: int
    embed_dim: int

    def __post_init__(self):
        for field_name in ("n_train", "n_tokens", "embed_dim"):
            _check_positive(getattr(self, field_name), field_name)


def _deviation_constant(n, norm_bound, temperature, floor, mixing_norm=1.0,
                        log_power=None):
    """2 m sqrt(max(log n + 2 B / tau, log 1/floor)), the form every
    deviation constant here shares; BoundOverflowError if it overflows,
    carrying log_power only when 2 B / tau is what overflowed."""
    scaled = 2.0 * norm_bound / temperature
    inside = max(math.log(n) + scaled, math.log(1.0 / floor))
    constant = 2.0 * mixing_norm * math.sqrt(inside)
    if not math.isfinite(constant):
        raise BoundOverflowError(log_power if math.isinf(scaled) else None)
    return constant


def pretrain_constant(p: PretrainBoundParams) -> float:
    """Deviation constant for pre-training on mixing sequences."""
    return _deviation_constant(p.n_tokens, p.unembed_bound, p.temperature,
                               p.ambiguity_floor, p.mixing_norm)


def generalization_gap(constant, n_train, delta) -> float:
    """Deviation term at a given sample count: constant * sqrt(log(2/d)/N)."""
    _check_positive(constant, "constant")
    _check_positive(n_train, "n_train")
    _check_delta(delta)
    return constant * math.sqrt(math.log(2.0 / delta) / n_train)


def approximation_error(constant, n_train, delta) -> float:
    """Width of the risk confidence interval: twice the deviation term."""
    return 2.0 * generalization_gap(constant, n_train, delta)


def sample_complexity(constant, epsilon, delta) -> int:
    """Samples needed to drive the deviation term below epsilon / 2."""
    _check_positive(constant, "constant")
    _check_positive(epsilon, "epsilon")
    _check_delta(delta)
    n = 4.0 * constant * constant / (epsilon * epsilon) * math.log(2.0 / delta)
    return math.ceil(n)


def icl_constant(p: IclBoundParams) -> float:
    """Deviation constant for in-context estimation of a finite chain."""
    return _deviation_constant(p.n_states, p.unembed_bound, p.temperature,
                               p.min_transition_prob)


def icl_gap(p: IclBoundParams) -> float:
    """In-context deviation term; undefined when t_min is infinite."""
    if not math.isfinite(p.t_min):
        raise ValueError("t_min is not finite; the in-context deviation "
                         "term is undefined")
    return (icl_constant(p) * math.sqrt(p.t_min / p.n_icl)
            * math.sqrt(math.log(2.0 / p.delta)))


def layer_bound(p: DepthBoundParams) -> float:
    """Per-layer norm factor of the depth-aware constant."""
    mlp = 1.0 + p.embed_dim * p.ffn_dim * p.mlp_in_bound * p.mlp_out_bound
    attn = 1.0 + (p.embed_dim ** 3 / p.n_heads) * p.attn_out_bound * p.value_bound
    embed = p.token_bound * p.unembed_bound
    return mlp * attn * embed ** (1.0 / p.n_layers)


def depth_constant(p: DepthBoundParams) -> float:
    """Deviation constant with the unembedding cap replaced by the
    depth-compounded per-layer factor."""
    base = layer_bound(p)
    if base > 0.0:
        log_power = p.n_layers * math.log(base)
        try:
            powered = math.exp(log_power)
        except OverflowError:
            raise BoundOverflowError(log_power) from None
    else:
        log_power = float("-inf")
        powered = 0.0
    return _deviation_constant(p.n_tokens, powered, p.temperature,
                               p.ambiguity_floor, p.mixing_norm, log_power)


@dataclass(frozen=True)
class PredictorRow:
    name: str
    n_train: int
    n_tokens: int
    embed_dim: int
    constant: float
    epsilon: float


def default_unembed_bound(n_tokens, embed_dim) -> float:
    """Norm preset for checkpoints whose exact unembedding norm is unknown:
    alphabet size times sqrt of the embedding width."""
    return float(n_tokens) * math.sqrt(embed_dim)


def builtin_model_cards() -> list:
    """The eight shipped checkpoint cards."""
    # imported here: the import is slow, and most commands never need it
    from importlib import resources
    raw = resources.files("tokenchain").joinpath(
        "data/model_cards.json").read_text()
    return [ModelCard(**row) for row in json.loads(raw)]


def predictor_table(cards=None, temperature=1.0, delta=DEFAULT_DELTA) -> list:
    """Per-checkpoint deviation constants and achievable accuracy.

    cards=None uses the shipped table.  The constant uses the norm preset
    and an inactive ambiguity floor; epsilon is the confidence-interval
    width at the card's training-set size.
    """
    if cards is None:
        cards = builtin_model_cards()
    rows = []
    for card in cards:
        params = PretrainBoundParams(
            n_tokens=card.n_tokens,
            unembed_bound=default_unembed_bound(card.n_tokens, card.embed_dim),
            temperature=temperature,
            ambiguity_floor=1.0,
            delta=delta,
            n_train=card.n_train,
        )
        constant = pretrain_constant(params)
        epsilon = approximation_error(constant, card.n_train, delta)
        rows.append(PredictorRow(card.name, card.n_train, card.n_tokens,
                                 card.embed_dim, constant, epsilon))
    return rows


def _check_tail_args(u, c):
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("c must be a nonempty 1-D vector")
    norm_sq = float(np.dot(c, c))
    if norm_sq <= 0.0:
        raise ValueError("c must be nonzero")
    _check_at_least(u, 0, "u")
    return norm_sq


def mcdiarmid_tail(u, c, mixing_norm=1.0) -> float:
    """Two-sided bounded-differences tail for dependent samples.

    mixing_norm 1 is the independent case.  The bound may exceed 1 for
    small u; it is still a valid (vacuous) tail.
    """
    norm_sq = _check_tail_args(u, c)
    _check_at_least(mixing_norm, 1, "mixing_norm")
    return 2.0 * math.exp(-2.0 * u * u / (mixing_norm * mixing_norm * norm_sq))


def mcdiarmid_markov_tail(u, c, t_min) -> float:
    """Bounded-differences tail along a stationary chain; the minimal
    mixing time scales the exponent.  Infinite t_min gives the vacuous 2."""
    norm_sq = _check_tail_args(u, c)
    _check_positive(t_min, "t_min")
    return 2.0 * math.exp(-2.0 * u * u / (norm_sq * t_min))


@dataclass(frozen=True)
class TailCheck:
    u: float
    bound: float
    empirical: float
    stderr: float
    ok: bool


@dataclass(frozen=True)
class TailReport:
    checks: list
    n_samples: int
    center: float

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.checks)


def _coin_counts(n, rng, size):
    """Heads per row of ``size`` rows of ``n`` fair coins, one coin per bit
    of rng's raw PCG64 stream: row r is bits r*n to (r+1)*n - 1, and bit j
    is bit j % 64, counted from the least significant, of output j // 64
    (taken by shift and mask, so either byte order reads the same bits).

    A row's count is the difference of the stream's head counts at its
    two edges: the heads up to the end of the edge's output, carried
    across blocks of COIN_BLOCK outputs (which the counts do not depend
    on), less the popcount of that output's bits from the edge on.
    Picklable, for mc_verify's workers."""
    # counts[r - 1] holds the heads before edge r until the differences
    counts = np.empty(size, dtype=np.int64)
    n_words = -(-size * n // 64)
    first, carried = 1, 0
    for start in range(0, n_words, COIN_BLOCK):
        words = rng.bit_generator.random_raw(min(COIN_BLOCK, n_words - start))
        ends = np.empty(words.size, dtype=np.int64)
        np.cumsum(np.bitwise_count(words, out=ends), out=ends)
        ends += carried
        # the edges before the block's end, bit 64 * (start + words.size)
        last = min(size + 1, -(-64 * (start + words.size) // n))
        bits = np.arange(first, last, dtype=np.uint64) * np.uint64(n)
        at = (bits >> np.uint64(6)).astype(np.intp) - start
        part = np.take(words, at)
        part >>= bits & np.uint64(63)
        heads = counts[first - 1:last - 1]
        np.take(ends, at, out=heads, mode="clip")  # "raise" buffers out
        heads -= np.bitwise_count(part)
        carried, first = ends[-1], last
        del words, ends, bits, at, part  # before the next block is drawn
    counts[first - 1:] = carried  # an edge at the stream's very end
    # ufuncs read an overlapping operand as it was: end less start edge
    counts[1:] -= counts[:-1]
    return counts


def _head_share(n, counts):
    """np.mean(rows, axis=1)'s floats, from exact per-row head counts."""
    return counts / n


def coin_check_bytes(n, n_samples) -> int:
    """Bytes a check of the mean of ``n`` coins holds at once: c; a
    _coin_counts block of W <= COIN_BLOCK raw words with their popcount
    prefix, and its E <= 64 W / n + 1 row edges with their bit, word offset,
    partial word and shift (8 bytes apiece); a batch's counts, values,
    deviations and flags (25 bytes each); and 24 KiB for mc_verify's own."""
    batch = min(n_samples, MC_BATCH)
    words = min(COIN_BLOCK, -(-batch * n // 64))
    edges = min(batch, 64 * words // n + 1)
    return 8 * n + 16 * words + 8 + 32 * (edges + 1) + 25 * batch + 24_576


def _mc_hits(args):
    """Per u, the samples of ``batches`` at least u from the center."""
    sampler, f, center, u_grid, seed, n_samples, batches = args
    hits = np.zeros(len(u_grid), dtype=np.int64)
    for b in batches:
        size = min(MC_BATCH, n_samples - b * MC_BATCH)
        values = np.asarray(f(sampler(np.random.default_rng([seed, b]), size)),
                            dtype=float)
        if values.shape != (size,):
            raise ValueError(f"f must return one value per realization, "
                             f"got {values.shape}")
        deviations = values - center
        np.abs(deviations, out=deviations)
        hits += [np.count_nonzero(deviations >= u) for u in u_grid]
    return hits


def tail_bounds(c, u_grid, n_samples, mixing_norm=1.0, t_min=None) -> list:
    """The tail bound at each u, McDiarmid's or (given t_min) its chain
    variant, once the arguments of an ``n_samples`` check are valid."""
    if not u_grid:
        raise ValueError("u_grid must be nonempty")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if t_min is None:
        return [mcdiarmid_tail(u, c, mixing_norm=mixing_norm) for u in u_grid]
    return [mcdiarmid_markov_tail(u, c, t_min) for u in u_grid]


def mc_verify(sampler, f, c, n_samples, u_grid, *, mean, seed=0,
              mixing_norm=1.0, t_min=None, jobs=1) -> TailReport:
    """Check a tail bound on |f - E f| against simulation; E f = ``mean``.

    sampler(rng, size) returns realizations stacked on the first axis and
    f maps them to a float per realization.  Batches of MC_BATCH draw from
    seeds (seed, batch) and keep, per u, only their count of samples at
    least u from ``mean``; the empirical tail is the summed count over
    n_samples.  jobs > 1 splits the batches among worker processes
    (sampler and f must then be picklable); counts sum exactly, so the
    output is identical to serial.  t_min switches the bound to the chain
    variant.  Each check passes when the empirical tail is at most the
    bound plus three binomial standard errors.
    """
    u_grid = [float(u) for u in u_grid]
    bounds = tail_bounds(c, u_grid, n_samples, mixing_norm, t_min)
    center = float(mean)
    n_batches = -(-n_samples // MC_BATCH)
    hits = sum(map_jobs(_mc_hits, (sampler, f, center, u_grid, seed,
                                   n_samples), n_batches, jobs))

    checks = []
    for u, bound, hit in zip(u_grid, bounds, hits.tolist()):
        empirical = hit / n_samples
        stderr = math.sqrt(empirical * (1.0 - empirical) / n_samples)
        ok = empirical <= bound + 3.0 * stderr
        checks.append(TailCheck(u, bound, empirical, stderr, ok))
    return TailReport(checks=checks, n_samples=n_samples, center=center)


@dataclass(frozen=True)
class LogRatioReport:
    """Distances between two positive distributions against the caps the
    worst log ratio implies."""

    log_ratio_bound: float
    tv: float
    kl: float
    hellinger_sq: float
    tv_ok: bool
    kl_ok: bool
    hellinger_ok: bool

    @property
    def ok(self) -> bool:
        return self.tv_ok and self.kl_ok and self.hellinger_ok


def log_ratio_checks(p, q) -> LogRatioReport:
    """Verify tv <= sqrt(2B), kl <= B, hellinger_sq <= 2B where B is the
    worst absolute log ratio of the two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    validate_distribution(p)
    validate_distribution(q)
    if p.min() <= 0.0 or q.min() <= 0.0:
        raise ValueError("both distributions must be strictly positive")
    bound = float(np.max(np.abs(np.log(p / q))))
    tv = tv_distance(p, q)
    kl = kl_divergence(p, q)
    hellinger_sq = float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))
    return LogRatioReport(
        log_ratio_bound=bound,
        tv=tv,
        kl=kl,
        hellinger_sq=hellinger_sq,
        tv_ok=tv <= math.sqrt(2.0 * bound) + CHECK_SLACK,
        kl_ok=kl <= bound + CHECK_SLACK,
        hellinger_ok=hellinger_sq <= 2.0 * bound + CHECK_SLACK,
    )
