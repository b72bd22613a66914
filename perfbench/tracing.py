"""Span recorder for the benchmark's traced run.

`Tracer.install()` wraps, from outside the package, every public function
and method of each `tokenchain` module (the layers), and repoints every
module-level reference to them (names re-imported into `tokenchain.cli`
and sibling modules, and module-level dispatch tables) at the wrappers.
Each call records a span: name, parent span, job id, start, end, and
whether it raised.  Spans stay in memory as flat arrays until `write()`.

`layer_metrics()` reduces the spans to the per-layer metrics.  A `*_s`
metric is the wall time inside the named calls, children included; a
`*self_s` metric is span time minus the time its child spans cover.
Times and counts are per closed-loop round; the remote latency
percentiles and their sample count are over every traced call.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

LAYERS = ("states", "oracles", "chains", "spectral", "generators",
          "estimation", "bounds", "remote", "cli")

# per-layer metric -> (span names or a predicate over them, how it is
# reduced, the end-to-end metric it should move and on which workload)
_BUILD = "build_states_per_s on build, sweep_points_per_s a little on longrun"
_LONGRUN = "sweep_points_per_s, train_toy_s and failed_ratio on longrun"
_ANALYZE = "analyze_s on longrun"
_RISK = "estimate_*_steps_per_s on risk"
_BOUNDS = "bounds_samples_per_s on risk"
_REMOTE = "remote_*_per_s on remote"


def _is_query(layer):
    return lambda name: name.startswith(layer + ".") and name.endswith(".query")


LAYER_METRICS = {
    "states.enumerate_s": (["states.enumerate_states"], "time", _BUILD),
    "states.index_calls": (["states.StateSpace.index"], "count", _BUILD),
    "oracles.query_calls": (_is_query("oracles"), "count", _BUILD),
    "oracles.query_s": (_is_query("oracles"), "time", _BUILD),
    "chains.build_qf_s": (["chains.build_qf"], "time", _BUILD),
    "chains.validate_s": (["chains.validate_structure"], "time", _BUILD),
    "chains.to_json_s": (["chains.TransitionMatrix.to_json"], "time", _BUILD),
    "cli.self_s": (lambda name: name.startswith("cli."), "self", _BUILD),
    "cli.output_bytes": (None, "counter", _BUILD),
    "oracles.train_s": (["oracles.train_toy"], "time", "train_toy_s on longrun"),
    "spectral.stationary_s": (["spectral.stationary"], "time", _LONGRUN),
    "spectral.stationary_iterations": (None, "counter", _LONGRUN),
    "spectral.stationary_unconverged": (None, "counter", _LONGRUN),
    "spectral.sweep_self_s": (["spectral.sweep_temperature"], "self", _LONGRUN),
    "spectral.classify_s": (["spectral.classify_states"], "time", _ANALYZE),
    "spectral.doeblin_s": (["spectral.doeblin_epsilon"], "time", _ANALYZE),
    "spectral.profile_s": (["spectral.convergence_profile"], "time", _ANALYZE),
    "spectral.mixing_s": (["spectral.mixing_report"], "time", _ANALYZE),
    "generators.build_chain_s": (["generators.build_chain"], "time", _RISK),
    "estimation.sample_s": (["estimation.sample_trajectory"], "time", _RISK),
    "estimation.sample_steps": (None, "counter", _RISK),
    "estimation.estimate_s": (["estimation.FrequentistEstimator.fit",
                               "estimation.NgramEstimator.fit"], "time", _RISK),
    "estimation.risk_s": (["estimation.tv_risk", "estimation.kl_risk"],
                          "time", _RISK),
    "estimation.curve_self_s": (["estimation.icl_risk_curve"], "self", _RISK),
    "estimation.power_fit_s": (["estimation.fit_power_law"], "time", _RISK),
    "oracles.fit_ngram_s": (["oracles.fit_ngram"], "time", _RISK),
    "bounds.mc_verify_s": (["bounds.mc_verify"], "time", _BOUNDS),
    "bounds.mc_samples": (None, "counter", _BOUNDS),
    "bounds.predictor_table_s": (["bounds.predictor_table"], "time", _BOUNDS),
    "remote.requests": (None, "counter", _REMOTE),
    "remote.request_bytes": (None, "counter", _REMOTE),
    "remote.failures": (lambda name: name.startswith("remote."), "errors",
                        _REMOTE),
    "remote.server_busy_s": (None, "counter", _REMOTE),
    "remote.transport_s": (None, "counter", _REMOTE),
    "remote.query_p50_ms": (None, "counter", _REMOTE),
    "remote.query_p99_ms": (None, "counter", _REMOTE),
    "remote.query_samples": (None, "counter", _REMOTE),
    "trace.spans": (None, "counter", "none: cost of tracing itself"),
    "trace.overhead_pct": (None, "counter", "none: cost of tracing itself"),
}


def _stationary_counts(result, counters):
    counters["spectral.stationary_iterations"] += result.iterations
    counters["spectral.stationary_unconverged"] += int(not result.converged)


def _sample_counts(result, counters):
    counters["estimation.sample_steps"] += len(result)


def _mc_counts(result, counters):
    counters["bounds.mc_samples"] += result.n_samples


# counters read off the return value of a traced call
_RESULT_HOOKS = {
    "spectral.stationary": _stationary_counts,
    "estimation.sample_trajectory": _sample_counts,
    "bounds.mc_verify": _mc_counts,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.current_job = 0
        self.counters = collections.Counter()
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        hook = _RESULT_HOOKS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.current_job)
            self.end.append(0)
            self.error.append(0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(result, self.counters)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the public callables of every layer module."""
        package = importlib.import_module("tokenchain")
        modules = [importlib.import_module(f"tokenchain.{layer}")
                   for layer in LAYERS]
        wrapped = {}   # id(original function) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for module in [package, *modules]:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrapped:
                    self._undo.append(functools.partial(
                        namespace.__setitem__, attr, obj))
                    namespace[attr] = wrapped[id(obj)]
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._undo.append(functools.partial(
                                obj.__setitem__, key, value))
                            obj[key] = wrapped[id(value)]

    def _wrap_class(self, cls, prefix):
        for attr in dir(cls):
            if attr.startswith("_"):
                continue
            raw = inspect.getattr_static(cls, attr)
            binder = type(raw) if isinstance(
                raw, (staticmethod, classmethod)) else None
            # a base class may already carry a wrapper: wrap what it wraps
            fn = inspect.unwrap(raw.__func__ if binder else raw)
            if not inspect.isfunction(fn) or \
                    not fn.__module__.startswith("tokenchain."):
                continue
            if attr in vars(cls):
                self._undo.append(functools.partial(setattr, cls, attr, raw))
            else:
                self._undo.append(functools.partial(delattr, cls, attr))
            traced = self._wrap(fn, f"{prefix}.{attr}")
            setattr(cls, attr, binder(traced) if binder else traced)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- reduction -----------------------------------------------------------

    def _arrays(self):
        n = len(self.end)
        dur = (np.frombuffer(self.end, dtype=np.int64)[:n]
               - np.frombuffer(self.start, dtype=np.int64)[:n]) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        names = np.frombuffer(self.name_id, dtype=np.int64)[:n]
        errors = np.frombuffer(self.error, dtype=np.int8)[:n].astype(bool)
        return dur, dur - covered, names, errors

    def _mask(self, names, selector):
        if callable(selector):
            pick = [selector(name) for name in self.names]
        else:
            pick = [name in selector for name in self.names]
        return np.asarray(pick, dtype=bool)[names]

    def layer_metrics(self, rounds, output_bytes, endpoint_stats,
                      overhead_pct):
        """Every LAYER_METRICS entry, per round of the traced part."""
        dur, self_time, names, errors = self._arrays()
        out = {}
        for metric, (selector, reduce, _) in LAYER_METRICS.items():
            if reduce == "counter":
                continue
            mask = self._mask(names, selector)
            if reduce == "time":
                value = float(dur[mask].sum())
            elif reduce == "self":
                value = float(self_time[mask].sum())
            elif reduce == "count":
                value = float(mask.sum())
            else:  # errors
                value = float((mask & errors).sum())
            out[metric] = value / rounds
        for metric in ("spectral.stationary_iterations",
                       "spectral.stationary_unconverged",
                       "estimation.sample_steps", "bounds.mc_samples"):
            out[metric] = self.counters[metric] / rounds
        out["cli.output_bytes"] = output_bytes / rounds

        remote = dur[self._mask(names, _is_query("remote"))]
        out["remote.requests"] = endpoint_stats["requests"] / rounds
        out["remote.request_bytes"] = endpoint_stats["bytes_received"] / rounds
        out["remote.server_busy_s"] = endpoint_stats["busy_s"] / rounds
        out["remote.transport_s"] = (float(remote.sum())
                                     - endpoint_stats["busy_s"]) / rounds
        p50, p99 = (np.percentile(remote, [50, 99]) * 1e3 if remote.size
                    else (0.0, 0.0))
        out["remote.query_p50_ms"] = float(p50)
        out["remote.query_p99_ms"] = float(p99)
        out["remote.query_samples"] = float(remote.size)
        out["trace.spans"] = len(dur) / rounds
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write(self, path):
        """All spans as JSON lines: id, parent, job, name, start/end ns, error."""
        with open(path, "w") as fh:
            for sid in range(len(self.end)):
                fh.write(json.dumps({
                    "id": sid, "parent": self.parent[sid],
                    "job": self.job[sid],
                    "name": self.names[self.name_id[sid]],
                    "start_ns": self.start[sid], "end_ns": self.end[sid],
                    "error": bool(self.error[sid])}) + "\n")
