"""Command-line front end.

Every command reads a JSON config, applies the --seed override, and
writes deterministic CSV/JSON files into --out.  File headers carry the
tool version, the resolved config (and its sha256), and the seed; no
timestamps, so reruns are byte-identical.

Each command checks its whole config, one table of keys per section,
before any work; a key left out keeps the library's default.

Exit codes: 0 success, 2 config/validation error, 3 oracle or training
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache, partial, reduce
from pathlib import Path

import numpy as np

from . import __version__
from .chains import (
    DENSE_BLOCK_CAP_BYTES,
    StructureError,
    TransitionMatrix,
    build_qf,
    validate_structure,
)
from .estimation import (
    FrequentistEstimator,
    NgramEstimator,
    context_length,
    curve_bytes,
    curve_settings,
    fit_power_law,
    icl_risk_curve,
    replicate_bytes,
    sample_bytes,
    sample_trajectory,
    start_distribution,
)
from .generators import ChainSpec, build_chain, process_bytes
from .bounds import (
    DEFAULT_DELTA,
    ModelCard,
    _coin_counts,
    _head_share,
    coin_check_bytes,
    generalization_gap,
    mc_verify,
    predictor_table,
    sample_complexity,
    tail_bounds,
)
from .oracles import (
    ChainOracle,
    PARITY_DIGITS,
    OracleError,
    RandomLogitOracle,
    ToyModelConfig,
    UniformOracle,
    parity_sequence,
    toy_bytes,
    train_toy,
    windowed_examples,
)
from .spectral import (
    DEFAULT_N_MAX,
    DEFAULT_T_CAP,
    classify_states,
    convergence_profile,
    mixing_bytes,
    mixing_report,
    profile_bytes,
    stationary,
    sweep_temperature,
)
from .states import VocabSpec


_NUMBER = (int, float)


def _is_number(value):
    """A JSON number: a JSON boolean is not one."""
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


class ConfigError(Exception):
    """Config failed schema validation; the message names the bad path."""


# a value kind checks one value and names its path ``at`` on failure
def _is(*kinds, at_least=None, above=None):
    """One of ``kinds`` (a JSON boolean is not a number), in range."""
    def check(value, at):
        if isinstance(value, bool) or not isinstance(value, kinds):
            wanted = "/".join(k.__name__ for k in kinds)
            raise ConfigError(
                f"{at}: expected {wanted}, got {type(value).__name__}")
        if at_least is not None and value < at_least:
            raise ConfigError(f"{at}: must be >= {at_least}, got {value}")
        if above is not None and not value > above:
            raise ConfigError(f"{at}: must be > {above}, got {value!r}")
    return check


def _list_of(wanted, ok=_is_number, nonempty=False):
    """A list whose every item passes ``ok``, which may raise ValueError."""
    def check(values, at):
        _LIST(values, at)
        for i, v in enumerate(values):
            with _library_errors(f"{at}[{i}]"):
                if not ok(v):
                    raise ConfigError(
                        f"{at}[{i}]: expected {wanted}, got {v!r}")
        if nonempty and not values:
            raise ConfigError(f"{at}: must be nonempty")
    return check


_INT = _is(int)
_NUM = _is(*_NUMBER)
_STR = _is(str)
_LIST = _is(list)
_DICT = _is(dict)
_NUMBERS = _list_of("a number")
_ROWS = _list_of("a list of numbers", lambda row: isinstance(row, list)
                 and all(map(_is_number, row)))
_SEED = _is(int, at_least=0)


def _checked(cfg, fields, path="config", required=()):
    """``cfg``, once its keys are all in ``fields`` and pass their checks."""
    extras = sorted(set(cfg) - set(fields))
    if extras:
        raise ConfigError(f"{path}.{extras[0]}: unknown key")
    for key, check in fields.items():
        if key in cfg:
            check(cfg[key], f"{path}.{key}")
        elif key in required:
            raise ConfigError(f"{path}.{key}: required")
    return cfg


def _set(cfg, keys):
    """The ``keys`` that ``cfg`` sets, so that the library's defaults hold."""
    return {key: cfg[key] for key in keys if key in cfg}


@contextmanager
def _library_errors(path, sep=": "):
    """The library's argument errors in the block as config errors."""
    try:
        yield
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{path}{sep}{exc}") from exc


def _check_dense(path, what, need):
    """Refuse, before any work, a run that holds more bytes than the cap."""
    if need > DENSE_BLOCK_CAP_BYTES:
        raise ConfigError(f"{path}: {what} needs {need} bytes, above the "
                          f"cap of {DENSE_BLOCK_CAP_BYTES}")


def _render(x):
    """JSON-safe scalar: infinities become '+inf'/'-inf' strings."""
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "+inf"
    return x


def _cell(x) -> str:
    """A CSV cell: a bool as JSON spells it, a float as `_render` does."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(_render(x) if isinstance(x, float) else x)


def _csv(header, rows):
    """The header line, then each row's `_cell`s, comma-separated: lines
    made as they are written, so a long CSV is never held whole."""
    yield header + "\n"
    for r in rows:
        yield ",".join(map(_cell, r)) + "\n"


def _canonical(config) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _stream(path: Path, *parts):
    """Write each part, a string or an iterable of strings, into ``path``."""
    with path.open("w") as f:
        for part in parts:
            f.writelines([part] if isinstance(part, str) else part)


def _write_csv(path: Path, config, seed, body):
    """``body`` is the text after the header, or an iterable of it."""
    blob = _canonical(config)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    lines = [
        f"# tool: tokenchain {__version__}",
        f"# config: {blob}",
        f"# config_sha256: {digest}",
        f"# seed: {seed}",
    ]
    _stream(path, "\n".join(lines) + "\n", body)


# what the writers format per write (about 0.9 and 1.3 MB), so that they
# hold O(chunk) bytes rather than O(file)
TRIPLET_CHUNK = 1 << 11
CSV_BLOCK = 1 << 14
# how json.dumps(indent=2) opens the triplets of a top-level "matrix", and
# what it puts between their cells and between the triplets
_SLOT = '\n    "triplets": '
_CELL, _NEXT = ",\n        ", "\n      ],\n      [\n        "
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def build_bytes(spec: VocabSpec) -> int:
    """Bytes that building, checking and writing the chain of ``spec`` may
    hold at once: three (n, T) float tables (the oracle's, the answers and
    their repair), two masks, four state vectors and one writer block."""
    n, T = spec.state_count, spec.n_tokens
    return 26 * n * T + 32 * n + 512 * min(n * T, max(T, TRIPLET_CHUNK))


def _triplet_blocks(matrix):
    """json.dumps(indent=2) of a top-level member's triplets, joined from
    the matrix's `triplet_columns` a block of rows (about TRIPLET_CHUNK
    triplets) at a time, each row's index spelled once; str of a Python
    int and repr of a float are json's spellings, but for NaN and Infinity."""
    n, width = matrix.probs.shape
    step, sep = max(1, TRIPLET_CHUNK // width), "[\n      [\n        "
    for a in range(0, n, step):
        rows, cols, values = matrix.triplet_columns(a, a + step)
        if not rows.size:
            continue
        heads = [f"{_NEXT}{i}{_CELL}" for i in range(a, rows[-1] + 1)]
        parts = [_CELL] * (4 * rows.size)
        parts[0::4] = np.array(heads, object)[rows - a].tolist()
        parts[1::4] = map(str, cols.tolist())
        parts[3::4] = map(repr, values.tolist())
        if not np.isfinite(values).all():
            parts[3::4] = [_JSON_SPELLING.get(v, v) for v in parts[3::4]]
        parts[0] = sep + parts[0][len(_NEXT):]
        yield "".join(parts)
        sep = _NEXT
    yield "\n      ]\n    ]" if sep is _NEXT else "[]"


def _trajectory_blocks(states):
    """trajectory.csv's body, CSV_BLOCK steps a block."""
    yield "step,state\n"
    for a in range(0, len(states), CSV_BLOCK):
        yield "".join(f"{k},{s}\n" for k, s in
                      enumerate(states[a:a + CSV_BLOCK].tolist(), a))


def _matrix_payload(matrix) -> dict:
    """matrix.json's "matrix", its triplets left for `_write_json`."""
    n, n_t = matrix.n_states, matrix.n_transient
    return {"n": n, "triplets": [], "blocks": {
        "transient": [0, n_t], "recurrent": [n_t, n]}}


def _write_json(path: Path, config, seed, payload: dict):
    """The header and ``payload`` as json.dumps(indent=2, sort_keys=True);
    a TransitionMatrix under "matrix" as its `_matrix_payload`, with its
    `_triplet_blocks` as the [row, col, value] triplets."""
    blob = _canonical(config)
    doc = {"header": {
        "tool": "tokenchain",
        "version": __version__,
        "config": json.loads(blob),
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": seed,
    }}
    doc.update(payload)
    matrix = doc.get("matrix")
    if not isinstance(matrix, TransitionMatrix):
        return _stream(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    doc["matrix"] = _matrix_payload(matrix)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # strings escape their newlines and an object's keys are unique, so the
    # first such slot after the top-level key is the matrix's own
    at = text.index(_SLOT + "[]", text.index('\n  "matrix": {')) + len(_SLOT)
    _stream(path, text[:at], _triplet_blocks(matrix), text[at + len("[]"):])


# ---------------------------------------------------------------------------
# config sections -> domain objects
# ---------------------------------------------------------------------------

_VOCAB = {"n_tokens": _INT, "context_window": _INT, "oracle": _DICT}
_SOLVER = {"tol": _is(*_NUMBER, above=0), "max_iter": _is(int, at_least=1)}
# ToyModelConfig's fields, less the window
_TOY_FIELDS = {"embedding_dim": _INT, "learning_rate": _NUM, "epochs": _INT,
               "seed": _SEED, "temperature": _NUM}
_REMOTE_FIELDS = {"endpoint": _STR, "alphabet": _LIST,
                  "timeout_ms": _INT, "max_inflight": _INT}
_ORACLE_FIELDS = {
    "uniform": {},
    "random_logits": {"seed": _SEED, "temperature": _NUM, "scale": _NUM},
    "matrix": {"rows": _LIST},
    "parity_toy": {"n_digits": _INT, **_TOY_FIELDS},
    "remote": _REMOTE_FIELDS,
}
_ESTIMATOR_FIELDS = {
    "frequentist": {},
    "ngram": {"order": _is(int, at_least=1), "alpha": _NUM},
    "exact": {},
    "remote": _REMOTE_FIELDS,
}
# the keys that a section of their kind must set
_KIND_REQUIRED = ("rows", "endpoint")
# ChainSpec's fields; a wrong type would surface inside build_chain
_CHAIN_FIELDS = {"kind": _STR, "d": _INT, "seed": _SEED, "p_min": _NUM,
                 "eta": _NUM, "rim_eps": _NUM, "tau": _LIST, "process": _DICT,
                 "n_samples": _is(int, at_least=2)}
_CARD_FIELDS = {"name": _STR, "n_train": _INT, "n_tokens": _INT,
                "embed_dim": _INT}


def _kind(cfg, tables, path):
    """The kind of section ``cfg`` and its table, once ``cfg`` fits it."""
    if "kind" not in cfg:
        raise ConfigError(f"{path}.kind: required")
    kind = cfg["kind"]
    if kind not in list(tables):
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}, expected one "
                          f"of {', '.join(tables)}")
    _checked(cfg, {"kind": _STR, **tables[kind]}, path, _KIND_REQUIRED)
    return kind, tables[kind]


def _vocab_spec(n_tokens, context_window,
                path="config.n_tokens/context_window") -> VocabSpec:
    """The spec, which refuses a state space above the state cap."""
    with _library_errors(path):
        return VocabSpec(n_tokens, context_window)


# the remote oracles the running command built; main closes them when it
# ends, so a finished command holds none of an endpoint's connections
_remotes: list = []


def _remote(cfg, n_symbols, path):
    from .remote import RemoteOracle, RemoteOracleConfig
    alphabet = cfg.get("alphabet", [str(i) for i in range(n_symbols)])
    if len(alphabet) != n_symbols:
        raise ConfigError(f"{path}.alphabet: need {n_symbols} symbols, "
                          f"got {len(alphabet)}")
    # RemoteOracleConfig's messages start with the offending field's name
    with _library_errors(path, sep="."):
        oracle = RemoteOracle(RemoteOracleConfig(
            **{**_set(cfg, _REMOTE_FIELDS), "alphabet": alphabet}))
    _remotes.append(oracle)
    return oracle


def _toy_model(cfg, context_length, seed, path):
    """The parity toy trained as ``cfg`` says, and its dataset."""
    # ToyModelConfig's messages start with the offending field's name
    with _library_errors(path, sep="."):
        model_config = ToyModelConfig(context_length=context_length, **{
            "seed": seed, **_set(cfg, _TOY_FIELDS)})
    n_digits = cfg.get("n_digits", PARITY_DIGITS)
    what, E = f"training on {n_digits} digits", model_config.embedding_dim
    _check_dense(f"{path}.n_digits", what, toy_bytes(n_digits, context_length))
    _check_dense(f"{path}.embedding_dim", f"{what} at width {E}",
                 toy_bytes(n_digits, context_length, E))
    with _library_errors(path):
        dataset = windowed_examples(parity_sequence(n_digits), context_length)
    return train_toy(dataset, model_config, n_tokens=2), dataset


def _oracle(cfg, spec: VocabSpec, seed, path="config.oracle"):
    kind, fields = _kind(cfg, _ORACLE_FIELDS, path)
    _check_dense("config.n_tokens/context_window", "building a chain of "
                 f"{spec.state_count} states", build_bytes(spec))
    if kind == "uniform":
        return UniformOracle(spec.n_tokens)
    if kind == "random_logits":
        with _library_errors(path):
            return RandomLogitOracle(spec, **{
                "seed": seed, **_set(cfg, fields)})
    if kind == "matrix":
        with _library_errors(path):
            rows = np.asarray(cfg["rows"], dtype=float)
        # numpy names a value that is no number, but reads true as 1.0
        _ROWS(cfg["rows"], f"{path}.rows")
        if rows.shape != (spec.n_tokens, spec.n_tokens):
            raise ConfigError(
                f"{path}.rows: need shape "
                f"({spec.n_tokens}, {spec.n_tokens}), got {rows.shape}")
        return ChainOracle(rows)
    if kind == "parity_toy":
        if spec.n_tokens != 2:
            raise ConfigError(
                f"config.n_tokens: parity_toy needs a binary alphabet, "
                f"got {spec.n_tokens}")
        return _toy_model(cfg, spec.context_window, seed, path)[0]
    return _remote(cfg, spec.n_tokens, path)


def _estimator(cfg, d, path="config.estimator"):
    """The predictor ``cfg`` names; None for the chain itself (not built)."""
    kind, fields = _kind(cfg, _ESTIMATOR_FIELDS, path)
    if kind == "frequentist":
        return FrequentistEstimator(d)
    if kind == "ngram":
        with _library_errors(path, sep="."):
            return NgramEstimator(n_symbols=d, **{
                "order": 1, **_set(cfg, fields)})
    if kind == "remote":
        return _remote(cfg, d, path)
    return None


def _chain_spec(config, path="config.chain") -> ChainSpec:
    """config.chain as a ChainSpec whose dense matrix fits under the cap."""
    with _library_errors(path):
        spec = ChainSpec.from_dict(config["chain"])
    _checked(config["chain"], _CHAIN_FIELDS, path)
    _check_dense(f"{path}.d", f"a chain of {spec.d} states", 8 * spec.d ** 2)
    if spec.kind == "discretized_process":
        _check_dense(f"{path}.n_samples", f"a series of {spec.n_samples} "
                     "samples", process_bytes(spec.d, spec.n_samples))
    return spec


def _start_vector(cfg, d, path):
    """``cfg``'s start over ``d`` states, by the library's start rule."""
    start = cfg.get("start")
    if isinstance(start, list):
        _NUMBERS(start, path)
    with _library_errors(path):
        return start_distribution(start, d)


def _sequence_chain(oracle, spec, out, config, seed):
    """The chain of ``oracle`` on ``spec`` and its structure.json payload,
    written into ``out`` with matrix.json once the structure is ok."""
    matrix = build_qf(oracle, spec)
    report = validate_structure(matrix, spec)
    if not report.ok:
        raise StructureError("; ".join(report.failures))
    structure = {**asdict(report), "ok": report.ok,
                 "nonzero_proportion": str(report.nonzero_proportion)}
    _write_json(out / "matrix.json", config, seed, {"matrix": matrix})
    _write_json(out / "structure.json", config, seed,
                {"structure": structure})
    return matrix, structure


# ---------------------------------------------------------------------------
# commands: each checks its whole config before any work
# ---------------------------------------------------------------------------

def cmd_build(config, seed, out: Path, jobs: int) -> int:
    """build a sequence-state transition matrix from an oracle"""
    _checked(config, {**_VOCAB, "seed": _SEED}, required=_VOCAB)
    spec = _vocab_spec(config["n_tokens"], config["context_window"])
    structure = _sequence_chain(_oracle(config["oracle"], spec, seed), spec,
                                out, config, seed)[1]
    print("built {n_states} states, {nonzero_count} nonzeros (proportion "
          "{nonzero_proportion})".format(**structure))
    return 0


def cmd_analyze(config, seed, out: Path, jobs: int) -> int:
    """stationary distribution, classification, envelope, mixing"""
    if ("chain" in config) == ("oracle" in config):
        raise ConfigError(
            'config: give exactly one of "chain" or "oracle" (with '
            '"n_tokens" and "context_window")')
    source = {"chain": _DICT} if "chain" in config else _VOCAB
    _checked(config, {
        **_SOLVER, "n_max": _INT, "t_cap": _is(int, at_least=0),
        "grid": _list_of("a number in [0, 1)",
                         lambda e: _is_number(e) and 0 <= e < 1,
                         nonempty=True),
        **source, "seed": _SEED}, required=_VOCAB)
    n_max = config.get("n_max", DEFAULT_N_MAX)
    t_cap = config.get("t_cap", DEFAULT_T_CAP)
    if "chain" in config:
        chain = _chain_spec(config)
        n_states, window, path = chain.d, 1, "config.chain.d"
    else:
        spec = _vocab_spec(config["n_tokens"], config["context_window"])
        n_states, window = spec.state_count, spec.context_window
        path = "config.n_tokens/context_window"
    if n_max < window:
        raise ConfigError(f"config.n_max: must be >= the context window "
                          f"{window}, got {n_max}")
    _check_dense(path, f"analyzing {n_states} states",
                 mixing_bytes(n_states, t_cap))
    _check_dense("config.n_max", f"a profile of {n_max - window + 1} steps "
                 f"over {n_states} states",
                 profile_bytes(n_states, window, n_max))
    if "chain" in config:
        with _library_errors("config.chain"):
            matrix = build_chain(chain)
    else:
        matrix = build_qf(_oracle(config["oracle"], spec, seed), spec)

    classification = classify_states(matrix)
    stat = stationary(matrix, classification=classification,
                      **_set(config, _SOLVER))
    report = mixing_report(matrix, pi=stat.pi, grid=config.get("grid"),
                           t_cap=t_cap, classification=classification)
    profile = convergence_profile(matrix, n_max=n_max, pi=stat.pi)
    epsilon = profile.epsilon

    _write_csv(out / "stationary.csv", config, seed, _csv(
        "state,probability", enumerate(stat.pi.tolist())))
    _write_csv(out / "profile.csv", config, seed, _csv(
        "n,empirical,bound", ((n, e, b) for (n, e), (_, b) in
                              zip(profile.empirical_curve,
                                  profile.bound_curve))))
    _write_csv(out / "mixing.csv", config, seed, _csv(
        "epsilon,t_mix,factor,product",
        ((r.epsilon, r.t_mix, r.factor, r.product) for r in report.rows)))
    _write_json(out / "analysis.json", config, seed, {"analysis": {
        "n_states": matrix.n_states,
        "recurrent_classes": report.recurrent_classes,
        "periods": report.periods,
        "period": report.period,
        "unichain": report.is_unichain,
        "aperiodic": report.aperiodic,
        "n_transient": len(report.transient_states),
        "epsilon": float(epsilon),
        "envelope_vacuous": profile.vacuous,
        "envelope_violations": profile.violations,
        "t_min": _render(report.t_min),
        "argmin_epsilon": report.argmin_epsilon,
        "stationary": {
            "iterations": stat.iterations,
            "residual": float(stat.residual),
            "converged": stat.converged,
            "periodic": stat.periodic,
        },
    }})
    print(f"analyzed {matrix.n_states} states: epsilon={float(epsilon)!r}, "
          f"t_min={_cell(report.t_min)}")
    return 0


def cmd_sweep_temperature(config, seed, out: Path, jobs: int) -> int:
    """epsilon and convergence steps across temperatures"""
    _checked(config, {
        "temperatures": _list_of("a positive number",
                                 lambda t: _is_number(t) and t > 0,
                                 nonempty=True),
        **_VOCAB, **_SOLVER, "seed": _SEED},
        required=("temperatures", *_VOCAB))
    spec = _vocab_spec(config["n_tokens"], config["context_window"])
    oracle = _oracle(config["oracle"], spec, seed)
    if not hasattr(oracle, "with_temperature"):
        raise ConfigError("config.oracle.kind: this oracle has no "
                          "temperature control; use random_logits or "
                          "parity_toy")
    points = sweep_temperature(oracle, spec, config["temperatures"],
                               **_set(config, _SOLVER))
    _write_csv(out / "sweep.csv", config, seed, _csv(
        "temperature,epsilon,iterations,converged",
        ((p.temperature, p.epsilon, p.iterations, p.converged)
         for p in points)))
    print(f"swept {len(points)} temperatures: epsilon "
          f"{float(points[0].epsilon)!r} -> {float(points[-1].epsilon)!r}")
    return 0


def cmd_generate(config, seed, out: Path, jobs: int) -> int:
    """materialize a reference chain, optionally sample it"""
    _checked(config, {"chain": _DICT, "sample": _DICT, "seed": _SEED},
             required=("chain",))
    chain = _chain_spec(config)
    sample = config.get("sample")
    if sample is not None:
        _checked(sample, {"length": _is(int, at_least=1),
                          "start": _is(int, list), "seed": _SEED},
                 "config.sample", required=("length",))
        start = _start_vector(sample, chain.d, "config.sample.start")
        length = sample["length"]
        _check_dense("config.sample.length",
                     f"a trajectory of {length} states",
                     sample_bytes(chain.d, length))
    with _library_errors("config.chain"):
        matrix = build_chain(chain)
    _write_json(out / "matrix.json", config, seed,
                {"matrix": matrix, "meta": matrix.meta})
    if sample is not None:
        traj = sample_trajectory(matrix, start, length,
                                 seed=sample.get("seed", seed))
        _write_csv(out / "trajectory.csv", config, seed,
                   _trajectory_blocks(traj.states))
    print(f"generated {matrix.n_states}-state chain "
          f"({matrix.meta.get('kind', 'unknown')})")
    return 0


def cmd_estimate(config, seed, out: Path, jobs: int) -> int:
    """risk curves and power-law fit for an estimator"""
    _checked(config, {
        "chain": _DICT, "estimator": _DICT,
        "n_list": _list_of("a number", lambda n: _is_number(n)
                           and context_length(n)),
        "reps": _INT, "metric": _STR, "start": _is(int, list),
        "seed": _SEED}, required=("chain", "estimator", "n_list"))
    chain = _chain_spec(config)
    predictor = _estimator(config["estimator"], chain.d)
    reps = config.get("reps", 5)
    metric = _set(config, ("metric",))
    with _library_errors("config"):
        longest = curve_settings(config["n_list"], reps, **metric)[-1]
    last = f"config.n_list[{len(config['n_list']) - 1}]"
    if isinstance(predictor, NgramEstimator):
        _check_dense(last, f"an order-{predictor.order} n-gram fit to "
                     f"{longest} states", predictor.fit_bytes(longest))
    replicate = replicate_bytes(chain.d, longest)
    _check_dense(last, f"a replicate of {longest} states", replicate)
    n_points = len(config["n_list"])
    _check_dense("config.reps", f"a curve of {reps} replicates at each of "
                 f"{n_points} lengths", replicate + curve_bytes(n_points, reps))
    start = _start_vector(config, chain.d, "config.start")
    with _library_errors("config.chain"):
        matrix = build_chain(chain)
    if predictor is None:
        predictor = ChainOracle(matrix, name="exact")
    # a remote session cannot cross process boundaries
    curve_jobs = 1 if predictor in _remotes else jobs
    curve = icl_risk_curve(matrix, predictor, config["n_list"], reps,
                           seed=seed, start=start, jobs=curve_jobs, **metric)
    _write_csv(out / "risk.csv", config, seed, _csv(
        "N,mean,lo,hi,reps,metric,estimator",
        ((p.n_icl, p.mean, p.lo, p.hi, p.reps, curve.metric, curve.estimator)
         for p in curve.points)))
    try:
        law = fit_power_law(curve)
        fit = {"fit": {"slope": law.slope, "intercept": law.intercept,
                       "stderr": law.slope_stderr, "r2": law.r2,
                       "n_points": law.n_points}}
    except ValueError as exc:
        fit = {"fit": None, "reason": str(exc)}
    _write_json(out / "fit.json", config, seed, fit)
    slope = fit["fit"]["slope"] if fit["fit"] else None
    print(f"estimated {len(curve.points)} curve points "
          f"({curve.estimator}, {curve.metric}); slope="
          f"{slope if slope is None else repr(float(slope))}")
    return 0


def cmd_bounds(config, seed, out: Path, jobs: int) -> int:
    """deviation constants, predictor table, tail verification"""
    _checked(config, {"predictor": _DICT,
                      "cards": _list_of("an object",
                                        lambda row: isinstance(row, dict)),
                      "sample_complexity": _DICT, "mc": _is(dict, type(None)),
                      "seed": _SEED})
    mc = config.get("mc", {})
    if mc is not None:
        _checked(mc, {"n": _is(int, at_least=1), "n_samples": _INT,
                      "u_grid": _NUMBERS, "t_min": _NUM, "seed": _SEED},
                 "config.mc")
        n = mc.get("n", 100)
        n_samples = mc.get("n_samples", 100_000)
        u_grid = mc.get("u_grid", [0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
        _check_dense("config.mc.n", f"a check of {n} coins",
                     coin_check_bytes(n, n_samples))
        with _library_errors("config.mc"):
            tail_bounds(np.full(n, 1.0 / n), u_grid, n_samples,
                        t_min=mc.get("t_min"))
    # the closed forms below check their own arguments in microseconds
    pred = _checked(config.get("predictor", {}),
                    {"temperature": _NUM, "delta": _NUM}, "config.predictor")
    cards = None
    if "cards" in config:
        cards = []
        for i, row in enumerate(config["cards"]):
            card = f"config.cards[{i}]"
            _checked(row, _CARD_FIELDS, card, required=_CARD_FIELDS)
            with _library_errors(card):
                cards.append(ModelCard(**row))
    with _library_errors("config.predictor"):
        rows = predictor_table(cards, **pred)
    payload = {}
    sc = config.get("sample_complexity")
    if sc is not None:
        _checked(sc, {"constant": _NUM, "epsilon": _NUM, "delta": _NUM},
                 "config.sample_complexity", required=("constant", "epsilon"))
        epsilon = sc["epsilon"]
        sc_delta = sc.get("delta", pred.get("delta", DEFAULT_DELTA))
        with _library_errors("config.sample_complexity"):
            n_star = sample_complexity(sc["constant"], epsilon, sc_delta)
            gap = generalization_gap(sc["constant"], n_star, sc_delta)
        payload["sample_complexity"] = {
            "constant": float(sc["constant"]),
            "epsilon": float(epsilon),
            "delta": float(sc_delta),
            "n_star": n_star,
            "gap_at_n_star": gap,
            "half_epsilon": epsilon / 2.0,
            "ok": gap <= epsilon / 2.0 * (1.0 + 1e-12),
        }
    if mc is not None:
        report = mc_verify(
            partial(_coin_counts, n), partial(_head_share, n),
            np.full(n, 1.0 / n), n_samples, u_grid, t_min=mc.get("t_min"),
            mean=0.5, jobs=jobs, seed=mc.get("seed", seed))
        # the report's fields: checks, n_samples and center
        payload["mc"] = {"n": n, "t_min": mc.get("t_min"), "ok": report.ok,
                         **asdict(report)}

    _write_csv(out / "predictor.csv", config, seed, _csv(
        "name,n_train,n_tokens,embed_dim,constant,epsilon",
        ((r.name, r.n_train, r.n_tokens, r.embed_dim, r.constant, r.epsilon)
         for r in rows)))
    _write_json(out / "bounds.json", config, seed, payload)
    print(f"wrote {len(rows)} predictor rows"
          + (f"; mc ok={payload['mc']['ok']}" if "mc" in payload else ""))
    return 0


def cmd_train_toy(config, seed, out: Path, jobs: int) -> int:
    """parity pipeline: dataset, training, chain extraction"""
    _checked(config, {"n_digits": _INT, "context_length": _INT,
                      **_TOY_FIELDS, **_SOLVER})
    context_length = config.get("context_length",
                                ToyModelConfig.context_length)
    spec = _vocab_spec(2, context_length, "config.context_length")
    model, dataset = _toy_model(config, context_length, seed, "config")
    matrix = _sequence_chain(model, spec, out, config, seed)[0]
    stat = stationary(matrix, **_set(config, _SOLVER))

    seen = {context for context, _ in dataset}
    pi_full = stat.pi[spec.n_transient:]
    is_seen = np.zeros(pi_full.size, dtype=bool)
    is_seen[[spec.index(c) - spec.n_transient for c in seen]] = True
    # one addition at a time in ascending index order (sum() compensates
    # float rounding from Python 3.12 on)
    seen_mass = reduce(operator.add, pi_full[is_seen].tolist(), 0.0)
    unseen_mass = reduce(operator.add, pi_full[~is_seen].tolist(), 0.0)
    ratio = math.inf if unseen_mass == 0.0 else seen_mass / unseen_mass

    _write_json(out / "model.json", config, seed, {"model": {
        "config": asdict(model.config), "n_tokens": model.n_tokens,
        "w_in": model.w_in.tolist(), "w_out": model.w_out.tolist(),
        "bias": model.bias.tolist()}})
    _write_csv(out / "loss.csv", config, seed, _csv(
        "epoch,loss", enumerate(map(float, model.loss_history))))
    _write_json(out / "parity.json", config, seed, {"parity": {
        "n_states": spec.state_count,
        "n_examples": len(dataset),
        "seen_contexts": sorted("".join(map(str, c)) for c in seen),
        "seen_mass": seen_mass,
        "unseen_mass": unseen_mass,
        "ratio": _render(ratio),
    }})
    print(f"trained on {len(dataset)} examples over {spec.state_count} "
          f"states; seen/unseen stationary mass ratio "
          f"{_render(ratio)!r}")
    return 0


def cmd_mock_serve(config, seed, out: Path, jobs: int) -> int:
    """run the bundled oracle-protocol mock server"""
    _checked(config, {"seed": _SEED, "port": _INT})
    from .remote import MockOracleServer
    with _library_errors("config"):
        try:
            server = MockOracleServer(seed=seed, **_set(config, ("port",)))
        except OSError as exc:
            raise ConfigError(f"config.port: cannot listen on port "
                              f"{config.get('port')}: "
                              f"{exc.strerror or exc}") from exc
    print(f"serving oracle protocol on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


# each command's docstring is its --help line
_COMMANDS = {
    "build": cmd_build,
    "analyze": cmd_analyze,
    "sweep-temperature": cmd_sweep_temperature,
    "generate": cmd_generate,
    "estimate": cmd_estimate,
    "bounds": cmd_bounds,
    "train-toy": cmd_train_toy,
    "mock-serve": cmd_mock_serve,
}


@cache  # built once per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenchain",
        description="Markov-chain tooling for next-token models.")
    parser.add_argument("--version", action="version",
                        version=f"tokenchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.__doc__)
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="JSON config file")
        cmd.add_argument("--seed", metavar="U64", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", metavar="DIR", default=".",
                         help="output directory (created if missing)")
        cmd.add_argument("--jobs", metavar="N", type=int, default=1,
                         help="worker processes for batched work, at most "
                         "the machine's CPU count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = {}
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise ConfigError(f"config: cannot read {args.config}: {exc}")
            try:
                config = json.loads(text)
            except ValueError as exc:
                raise ConfigError(f"config: not valid JSON: {exc}")
            if not isinstance(config, dict):
                raise ConfigError("config: top level must be a JSON object")
        if args.seed is not None:
            config["seed"] = args.seed
        seed = config.get("seed", 0)
        _INT(seed, "config.seed")
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"config.seed: must fit in u64, got {seed}")
        if args.jobs < 1:
            raise ConfigError(f"config.jobs: must be >= 1, got {args.jobs}")
        # stripes make the outputs the same at any job count
        jobs = min(args.jobs, os.cpu_count() or 1)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, seed, out, jobs)
    except ConfigError as exc:
        print(f"tokenchain: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"tokenchain: invalid chain structure: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"tokenchain: oracle failure: {exc}", file=sys.stderr)
        return 3
    finally:
        while _remotes:
            _remotes.pop().close()


if __name__ == "__main__":
    sys.exit(main())
