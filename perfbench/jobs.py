"""The benchmark's workloads: the commands of one closed-loop round each.

Every job is one `tokenchain` CLI command with a config derived from the
workload seed and the round number, plus the check that validates its
outputs and the amount of work it represents (states, sweep points,
trajectory steps, Monte Carlo samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("build", "longrun", "risk", "remote")

# Every command is kept to about a second or two, so that a run holds
# several package/copy pairs of each (run.py): one pair of a long command
# per run left the time ratios spread too wide on a host whose speed
# flips every few seconds.  Curves use half-decade steps.
FREQ_N_LIST = [100, 316, 1000, 3162, 10000]
NGRAM_N_LIST = [100, 316, 1000, 3162, 10000]
# a remote query costs about the same whatever its context length, so the
# remote estimate's cost is the number of steps: kept to about a second
REMOTE_N_LIST = [10, 32, 100]
SWEEP_TEMPERATURES = [0.1, 0.5, 1, 2]
MAX_ITER = 30_000
# train-toy's default is 500 epochs (about 10 s); at 50 the seen/unseen
# stationary mass ratio is still in the thousands
TOY_EPOCHS = 50
# The sweep's cost is set by its logits (a point that does not converge
# runs all MAX_ITER power steps), so its table is fixed rather than drawn
# from the workload seed.  At this seed the tau=0.1 point needs more than
# 1e6 power steps.
SWEEP_LOGIT_SEED = 0
MC_SAMPLES = 10**6
REMOTE_MAX_INFLIGHT = 2


@dataclass
class Job:
    name: str            # what the job's timings are reported under
    command: str         # tokenchain subcommand
    config: dict
    work: int            # units of work, for the per-second rates
    check: Callable


def derive(seed, *parts) -> int:
    """A 32-bit seed drawn from the workload seed and a job's position."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def _states(T, K):
    return T * (T**K - 1) // (T - 1)


def _build(name, T, K, oracle):
    return Job(name, "build", {"n_tokens": T, "context_window": K,
                               "oracle": oracle},
               _states(T, K), checks.check_build)


def _random_chain(seed):
    return {"kind": "random", "d": 3, "p_min": 0.05, "seed": seed}


def round_jobs(workload, seed, index, endpoint=None) -> list:
    """The commands of round `index` of a workload, in run order."""
    def s(k):
        return derive(seed, index, k)

    if workload == "build":
        return [
            _build("build_t8k4", 8, 4, {"kind": "random_logits", "seed": s(0)}),
            _build("build_t2k9", 2, 9, {"kind": "random_logits", "seed": s(1)}),
        ]
    if workload == "longrun":
        sweep = {"n_tokens": 2, "context_window": 6,
                 "oracle": {"kind": "random_logits", "seed": SWEEP_LOGIT_SEED,
                            "scale": 2.0},
                 "temperatures": SWEEP_TEMPERATURES, "max_iter": MAX_ITER}
        return [
            Job("analyze", "analyze",
                {"n_tokens": 2, "context_window": 6,
                 "oracle": {"kind": "random_logits", "seed": s(0)}},
                1, checks.check_analyze),
            Job("sweep", "sweep-temperature", sweep, len(SWEEP_TEMPERATURES),
                checks.check_sweep),
            Job("train_toy", "train-toy", {"epochs": TOY_EPOCHS}, 1,
                checks.check_train_toy),
        ]
    if workload == "risk":
        return [
            Job("estimate_freq", "estimate",
                {"chain": _random_chain(s(0)),
                 "estimator": {"kind": "frequentist"},
                 "n_list": FREQ_N_LIST, "reps": 20, "seed": s(1)},
                20 * sum(FREQ_N_LIST), checks.check_frequentist),
            Job("estimate_ngram", "estimate",
                {"chain": _random_chain(s(2)),
                 "estimator": {"kind": "ngram", "order": 2},
                 "n_list": NGRAM_N_LIST, "reps": 5, "seed": s(3)},
                5 * sum(NGRAM_N_LIST), checks.check_estimate),
            Job("bounds", "bounds",
                {"mc": {"n_samples": MC_SAMPLES}, "seed": s(4)},
                MC_SAMPLES, checks.check_bounds),
        ]
    if workload == "remote":
        remote = {"kind": "remote", "endpoint": endpoint,
                  "max_inflight": REMOTE_MAX_INFLIGHT}
        return [
            Job("remote_estimate", "estimate",
                {"chain": _random_chain(s(0)), "estimator": remote,
                 "n_list": REMOTE_N_LIST, "reps": 2, "seed": s(1)},
                2 * sum(REMOTE_N_LIST), checks.check_estimate),
            # 120 states, one query each: short contexts, several pairs a run
            _build("remote_build", 3, 4, remote),
        ]
    raise ValueError(f"unknown workload {workload!r}")
