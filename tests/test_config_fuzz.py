"""Malformed config values end in exit 0, 2 or 3, never in a traceback.

Each base config is small and valid: one per command, and one per oracle,
estimator and chain kind.  Every key of it at every depth (list items
included), or of its kind's section alone, is replaced in turn by each
value of BAD_VALUES, and the command must exit 0, 2 or 3 with no
traceback on stderr.
"""

import json
import math

import pytest

from tokenchain.cli import main
from tokenchain.remote import MockOracleServer

BAD_VALUES = [None, "x", [], {}, True, 1.5, -1, 0, math.inf, math.nan,
              5e-324, 1e308]

ENDPOINT = "<endpoint>"
CHAIN = {"kind": "random", "d": 3, "p_min": 0.05, "seed": 1}
TOY = {"n_digits": 8, "embedding_dim": 2, "learning_rate": 0.1, "epochs": 2,
       "seed": 1, "temperature": 1.0}
REMOTE = {"kind": "remote", "endpoint": ENDPOINT, "alphabet": ["a", "b"],
          "timeout_ms": 2000, "max_inflight": 2}


def _build(oracle):
    return {"n_tokens": 2, "context_window": 2, "oracle": oracle, "seed": 1}


def _estimate(estimator, chain=CHAIN):
    return {"chain": chain, "estimator": estimator, "n_list": [10, 20],
            "reps": 2, "metric": "tv", "start": [0.5, 0.25, 0.25], "seed": 1}


def _generate(chain):
    return {"chain": chain, "sample": {"length": 5, "start": 0, "seed": 1},
            "seed": 1}


# name -> (command, config, the section to fuzz, or None for all of it)
BASES = {
    "build-uniform": ("build", _build({"kind": "uniform"}), None),
    "build-random_logits": ("build", _build(
        {"kind": "random_logits", "seed": 1, "temperature": 1.0,
         "scale": 1.0}), "oracle"),
    # seed 0 at K=3 draws a |z| of 2.33, so a scale of 1e308 overflows;
    # seed 1 at K=2 above draws none above 1.31
    "build-random_logits-k3": ("build", dict(_build(
        {"kind": "random_logits", "seed": 0, "temperature": 1.0,
         "scale": 1.0}), context_window=3), "oracle"),
    "build-matrix": ("build", _build(
        {"kind": "matrix", "rows": [[0.5, 0.5], [0.25, 0.75]]}), "oracle"),
    "build-parity_toy": ("build", _build(dict(TOY, kind="parity_toy")),
                         "oracle"),
    "build-remote": ("build", _build(REMOTE), "oracle"),
    "analyze-oracle": ("analyze", dict(
        _build({"kind": "uniform"}), tol=1e-9, max_iter=1000, n_max=4,
        t_cap=20, grid=[0.1, 0.5]), None),
    "analyze-chain": ("analyze", {"chain": CHAIN, "n_max": 4, "t_cap": 20},
                      None),
    "sweep-temperature": ("sweep-temperature", {
        "n_tokens": 2, "context_window": 2,
        "oracle": {"kind": "random_logits", "seed": 1},
        "temperatures": [0.5, 1.0], "tol": 1e-9, "max_iter": 1000,
        "seed": 1}, None),
    "sweep-parity_toy": ("sweep-temperature", {
        "n_tokens": 2, "context_window": 2,
        "oracle": dict(TOY, kind="parity_toy"), "temperatures": [1.0]},
        "oracle"),
    "generate-random": ("generate", _generate(CHAIN), None),
    "generate-constrained_walk": ("generate", _generate(
        {"kind": "constrained_walk", "d": 3}), "chain"),
    "generate-polygonal_walk": ("generate", _generate(
        {"kind": "polygonal_walk", "d": 3}), "chain"),
    "generate-clique_rim": ("generate", _generate(
        {"kind": "clique_rim", "d": 6, "eta": 0.1, "tau": [1, 0],
         "rim_eps": 0.125}), "chain"),
    "generate-discretized_process": ("generate", _generate(
        {"kind": "discretized_process", "d": 3, "seed": 1, "n_samples": 50,
         "process": {"kind": "gbm", "s0": 1.0, "mu": 0.0, "sigma": 0.2,
                     "dt": 1.0}}), "chain"),
    "estimate-frequentist": ("estimate", _estimate({"kind": "frequentist"}),
                             None),
    "estimate-ngram": ("estimate", _estimate(
        {"kind": "ngram", "order": 2, "alpha": 1.0}), "estimator"),
    "estimate-exact": ("estimate", _estimate({"kind": "exact"}), "estimator"),
    "estimate-remote": ("estimate", dict(_estimate(
        dict(REMOTE, alphabet=["a", "b", "c"])), n_list=[2, 3]), "estimator"),
    "bounds": ("bounds", {
        "predictor": {"temperature": 1.0, "delta": 0.05},
        "cards": [{"name": "tiny", "n_train": 1000, "n_tokens": 10,
                   "embed_dim": 4}],
        "sample_complexity": {"constant": 3.0, "epsilon": 0.1,
                              "delta": 0.05},
        "mc": {"n": 4, "n_samples": 200, "u_grid": [0.1, 0.2],
               "t_min": 2.0, "seed": 1},
        "seed": 1}, None),
    "train-toy": ("train-toy", dict(TOY, context_length=2, tol=1e-9,
                                    max_iter=1000), None),
    "mock-serve": ("mock-serve", {"port": 0, "seed": 1}, None),
}


def _paths(node, prefix=()):
    """The path of every key and list item under ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _replaced(node, path, value):
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


def _with_endpoint(node, url):
    return json.loads(json.dumps(node).replace(ENDPOINT, url))


@pytest.fixture(scope="module")
def endpoint():
    with MockOracleServer(seed=0) as server:
        yield server.url


@pytest.fixture
def no_foreground_server(monkeypatch):
    # mock-serve would block in serve_forever; close the socket instead
    monkeypatch.setattr(MockOracleServer, "serve_forever",
                        lambda self: self._server.server_close())


@pytest.mark.parametrize("base", sorted(BASES))
def test_malformed_values_never_exit_1(tmp_path, capsys, endpoint,
                                       no_foreground_server, base):
    command, config, section = BASES[base]
    config = _with_endpoint(config, endpoint)
    cfg_path = tmp_path / "config.json"
    out = tmp_path / "out"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()

    faults = []
    paths = _paths(config) if section is None else \
        [(section,), *_paths(config[section], (section,))]
    for path in paths:
        for value in BAD_VALUES:
            cfg_path.write_text(json.dumps(_replaced(config, path, value)))
            try:
                code = main([command, "--config", str(cfg_path),
                             "--out", str(out)])
            except Exception as exc:  # noqa: BLE001 - every escape is a fault
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if code not in (0, 2, 3) or "Traceback" in err:
                faults.append(f"{'.'.join(map(str, path))}={value!r}: {code}")
    assert not faults, "\n".join(faults)
