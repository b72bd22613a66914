"""Command-line front end.

Every command reads a JSON config, applies the --seed override, and
writes deterministic CSV/JSON files into --out.  File headers carry the
tool version, the resolved config (and its sha256), and the seed; no
timestamps, so reruns are byte-identical.

Exit codes: 0 success, 2 config/validation error, 3 oracle or training
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
from functools import reduce
from pathlib import Path

import numpy as np

from . import __version__
from .chains import (
    DENSE_BLOCK_CAP_BYTES,
    StructureError,
    build_qf,
    validate_structure,
)
from .estimation import (
    FrequentistEstimator,
    NgramEstimator,
    fit_power_law,
    icl_risk_curve,
    sample_trajectory,
)
from .generators import build_chain
from .bounds import (
    ModelCard,
    generalization_gap,
    mc_verify,
    predictor_csv,
    predictor_table,
    sample_complexity,
)
from .oracles import (
    ChainOracle,
    OracleError,
    RandomLogitOracle,
    ToyModelConfig,
    UniformOracle,
    parity_sequence,
    train_toy,
    windowed_examples,
)
from .remote import MockOracleServer, RemoteOracle, RemoteOracleConfig
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_T_CAP,
    DEFAULT_TOL,
    classify_states,
    convergence_profile,
    doeblin_bytes,
    mixing_bytes,
    mixing_report,
    stationary,
    sweep_temperature,
    temperature_csv,
)
from .states import VocabSpec, enumerate_states

_MISSING = object()
_NUMBER = (int, float)


class ConfigError(Exception):
    """Config failed schema validation; the message names the bad path."""


def _take(cfg, key, kinds, default=_MISSING, path="config", at_least=None):
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: required")
        return default
    value = cfg[key]
    if kinds is not None and not isinstance(value, kinds):
        if isinstance(kinds, type):
            kinds = (kinds,)
        wanted = "/".join(k.__name__ for k in kinds)
        raise ConfigError(
            f"{path}.{key}: expected {wanted}, got {type(value).__name__}")
    if at_least is not None and value < at_least:
        raise ConfigError(f"{path}.{key}: must be >= {at_least}, got {value}")
    return value


def _list_of(cfg, key, wanted, ok=lambda v: isinstance(v, _NUMBER),
             default=_MISSING, path="config"):
    """The list under ``key``, with every item passing ``ok``."""
    values = _take(cfg, key, list, default=default, path=path)
    for i, v in enumerate(values or ()):
        if not ok(v):
            raise ConfigError(
                f"{path}.{key}[{i}]: expected {wanted}, got {v!r}")
    return values


def _check_dense(path, what, n_states, need):
    """Refuse, before any work, dense arrays above the byte cap."""
    if need > DENSE_BLOCK_CAP_BYTES:
        raise ConfigError(
            f"{path}: {what} {n_states} states needs {need} bytes of "
            f"dense arrays, above the cap of {DENSE_BLOCK_CAP_BYTES}")


def _no_extras(cfg, allowed, path="config"):
    extras = sorted(set(cfg) - set(allowed))
    if extras:
        raise ConfigError(f"{path}.{extras[0]}: unknown key")


def _render(x):
    """JSON-safe scalar: infinities become '+inf'/'-inf' strings."""
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "+inf"
    return x


def _canonical(config) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _write_csv(path: Path, config, seed, body: str):
    blob = _canonical(config)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    lines = [
        f"# tool: tokenchain {__version__}",
        f"# config: {blob}",
        f"# config_sha256: {digest}",
        f"# seed: {seed}",
    ]
    path.write_text("\n".join(lines) + "\n" + body)


def _write_json(path: Path, config, seed, payload: dict):
    blob = _canonical(config)
    doc = {"header": {
        "tool": "tokenchain",
        "version": __version__,
        "config": json.loads(blob),
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": seed,
    }}
    doc.update(payload)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------

def _vocab_spec(config) -> VocabSpec:
    n_tokens = _take(config, "n_tokens", int)
    context_window = _take(config, "context_window", int)
    return _checked_spec(n_tokens, context_window,
                         "config.n_tokens/context_window")


def _checked_spec(n_tokens, context_window, path) -> VocabSpec:
    """The spec, once its state space is known to fit under the state cap."""
    try:
        spec = VocabSpec(n_tokens, context_window)
        enumerate_states(spec)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return spec


def _remote_config(cfg, n_symbols, path) -> RemoteOracleConfig:
    _no_extras(cfg, {"kind", "endpoint", "alphabet", "separator",
                     "timeout_ms", "max_inflight"}, path)
    endpoint = _take(cfg, "endpoint", str, path=path)
    alphabet = _take(cfg, "alphabet", list,
                     default=[str(i) for i in range(n_symbols)], path=path)
    if len(alphabet) != n_symbols:
        raise ConfigError(f"{path}.alphabet: need {n_symbols} symbols, "
                          f"got {len(alphabet)}")
    try:
        return RemoteOracleConfig(
            endpoint=endpoint,
            alphabet=tuple(alphabet),
            separator=_take(cfg, "separator", str, default=",", path=path),
            timeout_ms=_take(cfg, "timeout_ms", int, default=10_000, path=path),
            max_inflight=_take(cfg, "max_inflight", int, default=4, path=path),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _toy_model(cfg, context_length, seed, path):
    n_digits = _take(cfg, "n_digits", int, default=40, path=path)
    try:
        model_config = ToyModelConfig(
            context_length=context_length,
            embedding_dim=_take(cfg, "embedding_dim", int, default=16,
                                path=path),
            learning_rate=_take(cfg, "learning_rate", _NUMBER, default=0.1,
                                path=path),
            epochs=_take(cfg, "epochs", int, default=500, path=path),
            seed=_take(cfg, "seed", int, default=seed, path=path),
            temperature=_take(cfg, "temperature", _NUMBER, default=1.0,
                              path=path),
        )
    except ValueError as exc:
        # ToyModelConfig's messages start with the offending field's name
        raise ConfigError(f"{path}.{exc}") from exc
    sequence = parity_sequence(n_digits)
    dataset = windowed_examples(sequence, context_length)
    return train_toy(dataset, model_config, n_tokens=2), dataset


_ORACLE_KINDS = ("uniform", "random_logits", "matrix", "parity_toy", "remote")


def _oracle_from_config(config, spec: VocabSpec, seed, path="config.oracle"):
    cfg = _take(config, "oracle", dict)
    kind = _take(cfg, "kind", str, path=path)
    if kind == "uniform":
        _no_extras(cfg, {"kind"}, path)
        return UniformOracle(spec.n_tokens)
    if kind == "random_logits":
        _no_extras(cfg, {"kind", "seed", "temperature", "scale"}, path)
        return RandomLogitOracle(
            enumerate_states(spec),
            seed=_take(cfg, "seed", int, default=seed, path=path),
            temperature=_take(cfg, "temperature", _NUMBER, default=1.0,
                              path=path),
            scale=_take(cfg, "scale", _NUMBER, default=1.0, path=path),
        )
    if kind == "matrix":
        _no_extras(cfg, {"kind", "rows"}, path)
        rows = np.asarray(_take(cfg, "rows", list, path=path), dtype=float)
        if rows.shape != (spec.n_tokens, spec.n_tokens):
            raise ConfigError(
                f"{path}.rows: need shape "
                f"({spec.n_tokens}, {spec.n_tokens}), got {rows.shape}")
        return ChainOracle(rows)
    if kind == "parity_toy":
        _no_extras(cfg, {"kind", "n_digits", "embedding_dim",
                         "learning_rate", "epochs", "seed", "temperature"},
                   path)
        if spec.n_tokens != 2:
            raise ConfigError(
                f"config.n_tokens: parity_toy needs a binary alphabet, "
                f"got {spec.n_tokens}")
        model, _ = _toy_model(cfg, spec.context_window, seed, path)
        return model
    if kind == "remote":
        return RemoteOracle(_remote_config(cfg, spec.n_tokens, path))
    raise ConfigError(f"{path}.kind: unknown kind {kind!r}, expected one of "
                      f"{', '.join(_ORACLE_KINDS)}")


# a wrong type here would surface as a TypeError inside build_chain
_CHAIN_FIELDS = {"d": int, "seed": int, "p_min": _NUMBER, "eta": _NUMBER,
                 "rim_eps": _NUMBER, "n_samples": _NUMBER, "tau": list,
                 "process": dict}


def _chain_states(config) -> int:
    """The state count of config.chain, read before anything is built."""
    chain_cfg = _take(config, "chain", dict)
    for key, kinds in _CHAIN_FIELDS.items():
        if key in chain_cfg:
            _take(chain_cfg, key, kinds, path="config.chain")
    return _take(chain_cfg, "d", int, path="config.chain")


def _generator_chain(config):
    d = _chain_states(config)
    _check_dense("config.chain.d", "a chain of", d, 8 * d * d)
    try:
        return build_chain(config["chain"])
    except ValueError as exc:
        raise ConfigError(f"config.chain: {exc}") from exc


def _start_vector(config, d, path="config"):
    start = config.get("start")
    if start is None:
        return None
    if isinstance(start, int):
        if not 0 <= start < d:
            raise ConfigError(f"{path}.start: state {start} outside [0, {d})")
        return start
    if isinstance(start, list):
        arr = np.asarray(_list_of(config, "start", "a number", path=path),
                         dtype=float)
        if arr.shape != (d,):
            raise ConfigError(f"{path}.start: need {d} probabilities")
        return arr
    raise ConfigError(f"{path}.start: expected int or list")


def _require_ok(report):
    if not report.ok:
        raise StructureError("; ".join(report.failures))


def _structure_payload(report):
    return {
        "n_states": report.n_states,
        "nonzero_count": report.nonzero_count,
        "nonzero_proportion": str(report.nonzero_proportion),
        "expected_nonzero_count": report.expected_nonzero_count,
        "row_sum_max_error": float(report.row_sum_max_error),
        "block_pattern_ok": bool(report.block_pattern_ok),
        "nilpotency_index": report.nilpotency_index,
        "ok": bool(report.ok),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_build(config, out: Path, jobs: int) -> int:
    _no_extras(config, {"n_tokens", "context_window", "oracle", "seed"})
    seed = config.get("seed", 0)
    spec = _vocab_spec(config)
    matrix = build_qf(_oracle_from_config(config, spec, seed), spec)
    report = validate_structure(matrix, spec)
    _require_ok(report)
    _write_json(out / "matrix.json", config, seed,
                {"matrix": matrix.to_payload()})
    _write_json(out / "structure.json", config, seed,
                {"structure": _structure_payload(report)})
    print(f"built {report.n_states} states, {report.nonzero_count} nonzeros "
          f"(proportion {report.nonzero_proportion}), ok={report.ok}")
    return 0


def _solver_settings(config):
    """The power iteration's tol and max_iter, checked."""
    tol = _take(config, "tol", _NUMBER, default=DEFAULT_TOL)
    if not tol > 0:
        raise ConfigError(f"config.tol: must be > 0, got {tol!r}")
    max_iter = _take(config, "max_iter", int, default=DEFAULT_MAX_ITER,
                     at_least=1)
    return float(tol), max_iter


def _analysis_settings(config):
    """analyze's n_max, t_cap and threshold grid, checked."""
    n_max = _take(config, "n_max", int, default=1000)
    t_cap = _take(config, "t_cap", int, default=DEFAULT_T_CAP, at_least=0)
    grid = _list_of(config, "grid", "a number in [0, 1)",
                    lambda e: isinstance(e, _NUMBER) and 0 <= e < 1,
                    default=None)
    if grid == []:
        raise ConfigError("config.grid: must be nonempty")
    return n_max, t_cap, grid


def cmd_analyze(config, out: Path, jobs: int) -> int:
    _no_extras(config, {"n_tokens", "context_window", "oracle", "chain",
                        "seed", "tol", "max_iter", "n_max", "t_cap", "grid"})
    seed = config.get("seed", 0)
    tol, max_iter = _solver_settings(config)
    n_max, t_cap, grid = _analysis_settings(config)
    if ("chain" in config) == ("oracle" in config):
        raise ConfigError(
            'config: give exactly one of "chain" or "oracle" (with '
            '"n_tokens" and "context_window")')
    if "chain" in config:
        n_states, window, path = _chain_states(config), 1, "config.chain.d"
    else:
        spec = _vocab_spec(config)
        n_states, window = spec.state_count, spec.context_window
        path = "config.n_tokens/context_window"
    if n_max < window:
        raise ConfigError(f"config.n_max: must be >= the context window "
                          f"{window}, got {n_max}")
    _check_dense(path, "analyzing", n_states, mixing_bytes(n_states, t_cap))
    if "chain" in config:
        matrix = _generator_chain(config)
    else:
        matrix = build_qf(_oracle_from_config(config, spec, seed), spec)

    classification = classify_states(matrix)
    stat = stationary(matrix, tol, max_iter, classification=classification)
    report = mixing_report(matrix, pi=stat.pi, grid=grid, t_cap=t_cap,
                           classification=classification)
    profile = convergence_profile(matrix, n_max=n_max, pi=stat.pi)
    epsilon = profile.epsilon

    body = "state,probability\n" + "".join(
        f"{i},{float(p)!r}\n" for i, p in enumerate(stat.pi))
    _write_csv(out / "stationary.csv", config, seed, body)
    _write_csv(out / "profile.csv", config, seed, profile.csv_rows())
    _write_csv(out / "mixing.csv", config, seed, report.csv_rows())
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
          f"t_min={'+inf' if math.isinf(report.t_min) else report.t_min}")
    return 0


def cmd_sweep_temperature(config, out: Path, jobs: int) -> int:
    _no_extras(config, {"n_tokens", "context_window", "oracle",
                        "temperatures", "seed", "tol", "max_iter"})
    seed = config.get("seed", 0)
    temperatures = _list_of(config, "temperatures", "a positive number",
                            lambda t: isinstance(t, _NUMBER) and t > 0)
    if not temperatures:
        raise ConfigError("config.temperatures: must be nonempty")
    spec = _vocab_spec(config)
    n_full = spec.n_tokens ** spec.context_window
    _check_dense("config.n_tokens/context_window",
                 "the Doeblin constant of", n_full, doeblin_bytes(n_full))
    oracle = _oracle_from_config(config, spec, seed)
    if not hasattr(oracle, "with_temperature"):
        raise ConfigError("config.oracle.kind: this oracle has no "
                          "temperature control; use random_logits or "
                          "parity_toy")
    tol, max_iter = _solver_settings(config)
    points = sweep_temperature(oracle, spec, temperatures, tol=tol,
                               max_iter=max_iter)
    _write_csv(out / "sweep.csv", config, seed, temperature_csv(points))
    print(f"swept {len(points)} temperatures: epsilon "
          f"{float(points[0].epsilon)!r} -> {float(points[-1].epsilon)!r}")
    return 0


def cmd_generate(config, out: Path, jobs: int) -> int:
    _no_extras(config, {"chain", "sample", "seed"})
    seed = config.get("seed", 0)
    matrix = _generator_chain(config)
    sample = _take(config, "sample", dict, default=None)
    if sample is not None:
        _no_extras(sample, {"length", "start", "seed"}, "config.sample")
        length = _take(sample, "length", int, path="config.sample",
                       at_least=1)
        start = _start_vector(sample, matrix.n_states, "config.sample")
        if start is None:
            start = np.full(matrix.n_states, 1.0 / matrix.n_states)
        traj = sample_trajectory(
            matrix, start, length,
            seed=_take(sample, "seed", int, default=seed,
                       path="config.sample"))
    _write_json(out / "matrix.json", config, seed, {
        "matrix": matrix.to_payload(),
        "meta": matrix.meta,
    })
    if sample is not None:
        body = "step,state\n" + "".join(
            f"{k},{s}\n" for k, s in enumerate(traj.states))
        _write_csv(out / "trajectory.csv", config, seed, body)
    print(f"generated {matrix.n_states}-state chain "
          f"({matrix.meta.get('kind', 'unknown')})")
    return 0


_ESTIMATOR_KINDS = ("frequentist", "ngram", "exact", "remote")


def _estimator_from_config(cfg, matrix, path="config.estimator"):
    kind = _take(cfg, "kind", str, path=path)
    d = matrix.n_states
    if kind == "frequentist":
        _no_extras(cfg, {"kind"}, path)
        return FrequentistEstimator(d), False
    if kind == "ngram":
        _no_extras(cfg, {"kind", "order", "alpha"}, path)
        return NgramEstimator(
            order=_take(cfg, "order", int, default=1, path=path, at_least=1),
            alpha=_take(cfg, "alpha", _NUMBER, default=1.0, path=path),
            n_symbols=d), False
    if kind == "exact":
        _no_extras(cfg, {"kind"}, path)
        return ChainOracle(matrix, name="exact"), False
    if kind == "remote":
        return RemoteOracle(_remote_config(cfg, d, path)), True
    raise ConfigError(f"{path}.kind: unknown kind {kind!r}, expected one of "
                      f"{', '.join(_ESTIMATOR_KINDS)}")


def cmd_estimate(config, out: Path, jobs: int) -> int:
    _no_extras(config, {"chain", "estimator", "n_list", "reps", "metric",
                        "start", "seed"})
    seed = config.get("seed", 0)
    matrix = _generator_chain(config)
    predictor, is_remote = _estimator_from_config(
        _take(config, "estimator", dict), matrix)
    n_list = _list_of(config, "n_list", "a number")
    reps = _take(config, "reps", int, default=5)
    metric = _take(config, "metric", str, default="tv")
    start = _start_vector(config, matrix.n_states)
    # a remote session cannot cross process boundaries
    curve_jobs = 1 if is_remote else jobs
    try:
        curve = icl_risk_curve(matrix, predictor, n_list, reps, seed=seed,
                               metric=metric, start=start, jobs=curve_jobs)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    _write_csv(out / "risk.csv", config, seed, curve.csv_rows())
    try:
        fit = {"fit": json.loads(fit_power_law(curve).to_json())}
    except ValueError as exc:
        fit = {"fit": None, "reason": str(exc)}
    _write_json(out / "fit.json", config, seed, fit)
    slope = fit["fit"]["slope"] if fit["fit"] else None
    print(f"estimated {len(curve.points)} curve points "
          f"({curve.estimator}, {curve.metric}); slope="
          f"{slope if slope is None else repr(float(slope))}")
    return 0


class _CoinSampler:
    """Fair coin rows; picklable so mc_verify can fan out workers."""

    def __init__(self, n):
        self.n = n

    def __call__(self, rng, size):
        return rng.integers(0, 2, size=(size, self.n))


def _row_mean(block):
    return block.mean(axis=1)


_CARD_FIELDS = {"name": str, "n_train": int, "n_tokens": int, "embed_dim": int}


def cmd_bounds(config, out: Path, jobs: int) -> int:
    _no_extras(config, {"predictor", "cards", "sample_complexity", "mc",
                        "seed"})
    seed = config.get("seed", 0)
    pred_cfg = _take(config, "predictor", dict, default={})
    pred = "config.predictor"
    _no_extras(pred_cfg, {"temperature", "delta"}, pred)
    temperature = _take(pred_cfg, "temperature", _NUMBER, default=1.0,
                        path=pred)
    delta = _take(pred_cfg, "delta", _NUMBER, default=0.05, path=pred)

    cards_cfg = _take(config, "cards", list, default=None)
    cards = None
    if cards_cfg is not None:
        cards = []
        for i, row in enumerate(cards_cfg):
            card = f"config.cards[{i}]"
            if not isinstance(row, dict):
                raise ConfigError(f"{card}: expected an object")
            _no_extras(row, _CARD_FIELDS, card)
            try:
                cards.append(ModelCard(**{
                    key: _take(row, key, kinds, path=card)
                    for key, kinds in _CARD_FIELDS.items()}))
            except ValueError as exc:
                raise ConfigError(f"{card}: {exc}") from exc
    try:
        rows = predictor_table(cards, temperature=temperature, delta=delta)
    except ValueError as exc:
        raise ConfigError(f"{pred}: {exc}") from exc

    payload = {}
    sc_cfg = _take(config, "sample_complexity", dict, default=None)
    if sc_cfg is not None:
        sc = "config.sample_complexity"
        _no_extras(sc_cfg, {"constant", "epsilon", "delta"}, sc)
        constant = _take(sc_cfg, "constant", _NUMBER, path=sc)
        epsilon = _take(sc_cfg, "epsilon", _NUMBER, path=sc)
        sc_delta = _take(sc_cfg, "delta", _NUMBER, default=delta, path=sc)
        try:
            n_star = sample_complexity(constant, epsilon, sc_delta)
            gap = generalization_gap(constant, n_star, sc_delta)
        except ValueError as exc:
            raise ConfigError(f"{sc}: {exc}") from exc
        payload["sample_complexity"] = {
            "constant": float(constant),
            "epsilon": float(epsilon),
            "delta": float(sc_delta),
            "n_star": n_star,
            "gap_at_n_star": gap,
            "half_epsilon": epsilon / 2.0,
            "ok": gap <= epsilon / 2.0 * (1.0 + 1e-12),
        }

    mc_cfg = _take(config, "mc", (dict, type(None)), default={})
    if mc_cfg is not None:
        mc = "config.mc"
        _no_extras(mc_cfg, {"n", "n_samples", "u_grid", "t_min", "seed"}, mc)
        n = _take(mc_cfg, "n", int, default=100, path=mc)
        n_samples = _take(mc_cfg, "n_samples", int, default=100_000, path=mc)
        u_grid = _list_of(mc_cfg, "u_grid", "a number", path=mc,
                          default=[0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
        t_min = _take(mc_cfg, "t_min", _NUMBER, default=None, path=mc)
        try:
            report = mc_verify(
                _CoinSampler(n), _row_mean, np.full(n, 1.0 / n), n_samples,
                u_grid, t_min=t_min, mean=0.5, jobs=jobs,
                seed=_take(mc_cfg, "seed", int, default=seed, path=mc))
        except ValueError as exc:
            raise ConfigError(f"{mc}: {exc}") from exc
        payload["mc"] = {
            "n": n,
            "n_samples": report.n_samples,
            "t_min": t_min,
            "center": report.center,
            "ok": report.ok,
            "checks": [{
                "u": c.u, "bound": c.bound, "empirical": c.empirical,
                "stderr": c.stderr, "ok": c.ok} for c in report.checks],
        }

    _write_csv(out / "predictor.csv", config, seed, predictor_csv(rows))
    _write_json(out / "bounds.json", config, seed, payload)
    print(f"wrote {len(rows)} predictor rows"
          + (f"; mc ok={payload['mc']['ok']}" if "mc" in payload else ""))
    return 0


def cmd_train_toy(config, out: Path, jobs: int) -> int:
    _no_extras(config, {"n_digits", "context_length", "embedding_dim",
                        "learning_rate", "epochs", "seed", "temperature",
                        "tol", "max_iter"})
    seed = config.get("seed", 0)
    context_length = _take(config, "context_length", int, default=3)
    spec = _checked_spec(2, context_length, "config.context_length")
    tol, max_iter = _solver_settings(config)
    model, dataset = _toy_model(config, context_length, seed, "config")
    matrix = build_qf(model, spec)
    report = validate_structure(matrix, spec)
    _require_ok(report)
    stat = stationary(matrix, tol, max_iter)

    space = enumerate_states(spec)
    seen = {context for context, _ in dataset}
    pi_full = stat.pi[space.n_transient:]
    is_seen = np.zeros(pi_full.size, dtype=bool)
    is_seen[[space.index(c) - space.n_transient for c in seen]] = True
    # one addition at a time in ascending index order (sum() compensates
    # float rounding from Python 3.12 on)
    seen_mass = reduce(operator.add, pi_full[is_seen].tolist(), 0.0)
    unseen_mass = reduce(operator.add, pi_full[~is_seen].tolist(), 0.0)
    ratio = math.inf if unseen_mass == 0.0 else seen_mass / unseen_mass

    _write_json(out / "model.json", config, seed,
                {"model": json.loads(model.to_json())})
    _write_json(out / "matrix.json", config, seed,
                {"matrix": matrix.to_payload()})
    _write_json(out / "structure.json", config, seed,
                {"structure": _structure_payload(report)})
    loss_body = "epoch,loss\n" + "".join(
        f"{e},{float(loss)!r}\n" for e, loss in enumerate(model.loss_history))
    _write_csv(out / "loss.csv", config, seed, loss_body)
    _write_json(out / "parity.json", config, seed, {"parity": {
        "n_states": spec.state_count,
        "n_examples": len(dataset),
        "seen_contexts": sorted("".join(map(str, c)) for c in seen),
        "seen_mass": seen_mass,
        "unseen_mass": unseen_mass,
        "ratio": _render(ratio),
        "structure_ok": bool(report.ok),
    }})
    print(f"trained on {len(dataset)} examples over {spec.state_count} "
          f"states; seen/unseen stationary mass ratio "
          f"{_render(ratio)!r}")
    return 0


def cmd_mock_serve(config, out: Path, jobs: int) -> int:
    _no_extras(config, {"seed", "port"})
    server = MockOracleServer(seed=config.get("seed", 0),
                              port=_take(config, "port", int, default=0))
    print(f"serving oracle protocol on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


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

_HELP = {
    "build": "build a sequence-state transition matrix from an oracle",
    "analyze": "stationary distribution, classification, envelope, mixing",
    "sweep-temperature": "epsilon and convergence steps across temperatures",
    "generate": "materialize a reference chain, optionally sample it",
    "estimate": "risk curves and power-law fit for an estimator",
    "bounds": "deviation constants, predictor table, tail verification",
    "train-toy": "parity pipeline: dataset, training, chain extraction",
    "mock-serve": "run the bundled oracle-protocol mock server",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenchain",
        description="Markov-chain tooling for next-token models.")
    parser.add_argument("--version", action="version",
                        version=f"tokenchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in _HELP.items():
        cmd = sub.add_parser(name, help=descr)
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="JSON config file")
        cmd.add_argument("--seed", metavar="U64", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", metavar="DIR", default=".",
                         help="output directory (created if missing)")
        cmd.add_argument("--jobs", metavar="N", type=int, default=1,
                         help="worker processes for batched work")
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
        seed = _take(config, "seed", int, default=0)
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"config.seed: must fit in u64, got {seed}")
        if args.jobs < 1:
            raise ConfigError(f"config.jobs: must be >= 1, got {args.jobs}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out, args.jobs)
    except ConfigError as exc:
        print(f"tokenchain: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"tokenchain: invalid chain structure: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"tokenchain: oracle failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
