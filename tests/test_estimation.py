import itertools
import math
import os
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from tokenchain import cli, estimation
from tokenchain.estimation import (
    FrequentistEstimator, NgramEstimator, RiskCurve, RiskPoint, Trajectory,
    fit_power_law, frequentist_estimate, icl_risk_curve, kl_divergence,
    kl_risk, sample_trajectory, tv_distance, tv_risk,
)
from tokenchain.generators import random_chain
from tokenchain.oracles import ChainOracle, Oracle, UniformOracle

from test_cli import ESTIMATE_CFG, read_csv, read_json, run

TWO_CYCLE = np.array([[0.0, 1.0], [1.0, 0.0]])
# start vectors over two states that are not distributions
BAD_STARTS = ([-1.0, 2.0], [0.2, 0.2], [float("nan"), 1.0])


# ---------------------------------------------------------------------------
# sampling and counting
# ---------------------------------------------------------------------------

def test_deterministic_cycle_alternates():
    traj = sample_trajectory(TWO_CYCLE, start=0, n=9, seed=0)
    npt.assert_array_equal(traj.states, [0, 1, 0, 1, 0, 1, 0, 1, 0])


def test_absorbing_state_gives_constant_tail():
    P = np.array([[1.0, 0.0], [0.5, 0.5]])
    traj = sample_trajectory(P, start=1, n=200, seed=4)
    hits = np.flatnonzero(traj.states == 0)
    assert hits.size > 0
    npt.assert_array_equal(traj.states[hits[0]:], 0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        sample_trajectory(TWO_CYCLE, start=0, n=0)
    with pytest.raises(ValueError):
        sample_trajectory(TWO_CYCLE, start=5, n=3)
    with pytest.raises(ValueError):
        Trajectory(states=[])
    for start in BAD_STARTS:
        with pytest.raises(ValueError, match="need 2 probabilities"):
            sample_trajectory(TWO_CYCLE, start=start, n=3)


@pytest.mark.parametrize("rows", [
    [[1.5, -0.5], [0.5, 0.5]],              # sums to 1, one entry negative
    [[float("nan"), 0.5], [0.5, 0.5]],
    [[float("inf"), 0.0], [0.5, 0.5]],
    [[0.5, 0.5], [0.5, 0.5 + 1e-8]],        # row sum off by 1e-8
])
def test_sampler_refuses_rows_that_are_not_distributions(rows):
    with pytest.raises(ValueError, match="every row must be a distribution"):
        sample_trajectory(rows, start=0, n=12)


@pytest.mark.parametrize("d,order,n", [(3, 1, 50), (3, 4, 200), (5, 3, 40),
                                       (4, 6, 5)])
def test_ngram_fit_bytes_bound_the_count_rows(d, order, n):
    estimator = NgramEstimator(order, n_symbols=d)
    traj = sample_trajectory(np.full((d, d), 1 / d), start=0, n=n, seed=d)
    rows = len(estimator.fit(traj).counts)
    assert 8 * d * rows <= estimator.fit_bytes(n)
    widths = range(1, min(order, n - 1) + 1)
    assert estimator.fit_bytes(n) == 8 * d * sum(min(n - 1, d ** w)
                                                 for w in widths)


def _traced_peak(fn):
    """fn's tracemalloc peak, after an untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d,n", [
    *itertools.product((3, 16, 48, 64, 65, 200), (300, 3_000, 30_000)),
    (3, 10 ** 6), (48, 10 ** 6)])
def test_sampler_and_replicate_peaks_within_their_counts(d, n):
    """Each path of the sampler (the rank table at d <= 48 on long paths,
    list rows up to 64 states, numpy rows above) and one frequentist
    replicate stay within the bytes the CLI admits them by; at 10^6 steps
    the sampler alone, as a replicate's count has 80 bytes a step spare."""
    rows = random_chain(d, seed=d).dense()
    sample = _traced_peak(lambda: sample_trajectory(rows, None, n, seed=1))
    assert sample <= estimation.sample_bytes(d, n)
    if n < 10 ** 6:
        replicate = _traced_peak(lambda: estimation._one_replicate(
            (rows, FrequentistEstimator(d), n, [1, 0, 0], "tv", None)))
        assert replicate <= estimation.replicate_bytes(d, n)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
def test_ngram_estimator_refuses_bad_alpha_at_construction(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        NgramEstimator(1, alpha=alpha, n_symbols=2)


def test_sampler_takes_row_sums_within_tolerance():
    rows = [[0.5, 0.5], [0.5, 0.5 + 5e-10]]
    assert len(sample_trajectory(rows, start=0, n=12)) == 12


def test_empirical_frequencies_match_the_chain():
    Q = random_chain(3, seed=13)
    traj = sample_trajectory(Q, start=0, n=1_000_000, seed=13)
    fitted = frequentist_estimate(traj, 3)
    assert np.abs(fitted.dense() - Q.dense()).max() < 0.01


def test_frequentist_counting_examples():
    npt.assert_array_equal(frequentist_estimate(Trajectory([0, 1, 0, 1, 0])).dense(),
                           TWO_CYCLE)
    npt.assert_array_equal(frequentist_estimate(Trajectory([0, 0, 1, 0])).dense(),
                           [[0.5, 0.5], [1.0, 0.0]])


def test_frequentist_flags_unvisited_rows():
    Q = frequentist_estimate(Trajectory([0, 0, 0]), d=3)
    npt.assert_array_equal(Q.dense()[1], [1 / 3, 1 / 3, 1 / 3])
    npt.assert_array_equal(Q.dense()[2], [1 / 3, 1 / 3, 1 / 3])
    assert Q.meta["uniform_rows"] == [1, 2]
    with pytest.raises(ValueError):
        frequentist_estimate(Trajectory([0]))


def test_frequentist_refuses_a_state_outside_d():
    with pytest.raises(ValueError, match=r"^state 3 outside \[0, 3\)$"):
        frequentist_estimate([0, 3, 1], d=3)


def test_frequentist_refuses_a_negative_state_id():
    with pytest.raises(ValueError, match="negative state id"):
        frequentist_estimate([0, -1, 1], d=3)


BAD_FLOAT_PATHS = [[0.0, 1.5], [0.0, float("nan")], [0.0, math.inf],
                   [0.0, 1e300]]


@pytest.mark.parametrize("states", BAD_FLOAT_PATHS)
def test_float_state_ids_must_be_whole(states):
    for call in (Trajectory, lambda s: frequentist_estimate(s, d=3)):
        with pytest.raises(ValueError, match="non-integral or non-finite"):
            call(states)


def test_whole_float_state_ids_are_accepted():
    np.testing.assert_array_equal(Trajectory([0.0, 1.0, 2.0]).states,
                                  [0, 1, 2])
    assert (frequentist_estimate([0.0, 1.0, 0.0], d=2).dense()
            == frequentist_estimate([0, 1, 0], d=2).dense()).all()


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def test_tv_equals_sup_over_events():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4):
        for _ in range(40):
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            sup = max(abs(p[list(s)].sum() - q[list(s)].sum())
                      for r in range(d + 1)
                      for s in itertools.combinations(range(d), r))
            assert tv_distance(p, q) == pytest.approx(sup, abs=1e-12)


def test_kl_examples():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_ground_truth_predictor_has_zero_risk():
    Q = random_chain(4, seed=2)
    traj = sample_trajectory(Q, start=0, n=500, seed=2)
    oracle = ChainOracle(Q)
    assert tv_risk(Q, oracle, traj) == 0.0
    assert kl_risk(Q, oracle, traj) == 0.0


def test_uniform_predictor_against_cycle_risks_half():
    traj = sample_trajectory(TWO_CYCLE, start=0, n=64, seed=0)
    assert tv_risk(TWO_CYCLE, UniformOracle(2), traj) == 0.5


def test_kl_risk_reports_infinity():
    wrong = ChainOracle(np.array([[1.0, 0.0], [1.0, 0.0]]))
    truth = np.array([[0.5, 0.5], [0.5, 0.5]])
    traj = sample_trajectory(truth, start=0, n=32, seed=1)
    assert kl_risk(truth, wrong, traj) == math.inf


class RecordingOracle(Oracle):
    def __init__(self, n_symbols, cap):
        self.n_symbols = n_symbols
        self.context_cap = cap
        self.seen = []

    def _distribution(self, context):
        self.seen.append(tuple(int(t) for t in context))
        return np.full(self.n_symbols, 1.0 / self.n_symbols)


def test_risk_contexts_are_growing_prefixes_truncated_to_cap():
    probe = RecordingOracle(3, cap=2)
    traj = Trajectory([0, 1, 2, 0, 1])
    tv_risk(np.eye(3), probe, traj)
    assert probe.seen == [(0,), (0, 1), (1, 2), (2, 0)]


def test_single_state_fast_path_matches_the_loop():
    Q = random_chain(3, seed=6)
    traj = sample_trajectory(Q, start=0, n=300, seed=6)
    oracle = ChainOracle(random_chain(3, seed=7))
    rows = Q.dense()
    slow = np.mean([tv_distance(rows[traj.states[k]],
                                oracle.query(tuple(traj.states[:k + 1])))
                    for k in range(len(traj))])
    assert tv_risk(Q, oracle, traj) == pytest.approx(slow, abs=1e-15)


# ---------------------------------------------------------------------------
# exact (marginal-weighted) risk
# ---------------------------------------------------------------------------

def expected_tv_risk(rows, predictor, n_steps, start):
    """The TV risk's expectation over ``n_steps`` steps from the ``start``
    distribution, for a predictor that reads one state: each step's TV
    weighted by the state marginal, propagated exactly."""
    tv = np.array([tv_distance(row, predictor.query((i,)))
                   for i, row in enumerate(rows)])
    dist, total = np.asarray(start, dtype=float), 0.0
    for _ in range(n_steps):
        total += float(dist @ tv)
        dist = dist @ rows
    return total / n_steps


def test_expected_risk_of_uniform_predictor_on_cycle():
    # every step's TV is 1/2, so each sampled path's risk is the expectation
    for start in (0, 1):
        traj = sample_trajectory(TWO_CYCLE, start, 17, seed=0)
        assert tv_risk(TWO_CYCLE, UniformOracle(2), traj) == 0.5


def test_expected_risk_close_to_sampled_risk():
    Q = random_chain(3, seed=3)
    oracle = UniformOracle(3)
    exact = expected_tv_risk(Q.dense(), oracle, 200, np.full(3, 1 / 3))
    sampled = np.mean([tv_risk(Q, oracle,
                               sample_trajectory(Q, np.full(3, 1 / 3), 200,
                                                 seed=[3, r]))
                       for r in range(50)])
    assert abs(exact - sampled) < 0.02


# ---------------------------------------------------------------------------
# risk curves
# ---------------------------------------------------------------------------

def test_curve_of_ground_truth_oracle_is_flat_zero():
    Q = random_chain(3, seed=1)
    curve = icl_risk_curve(Q, ChainOracle(Q), [10, 50, 100], reps=3, seed=0)
    for p in curve.points:
        assert p.mean == p.lo == p.hi == 0.0
        assert p.finite and p.reps == 3


def test_frequentist_risk_decreases_with_context():
    Q = random_chain(3, seed=0)
    curve = icl_risk_curve(Q, FrequentistEstimator(3),
                           [100, 1000, 10_000], reps=20, seed=0)
    means = [p.mean for p in curve.points]
    assert means[0] > means[1] > means[2]
    for p in curve.points:
        assert p.lo <= p.mean <= p.hi
    assert curve.estimator == "frequentist"
    assert curve.metric == "tv"


def test_curves_are_bit_reproducible():
    Q = random_chain(4, seed=5)
    a = icl_risk_curve(Q, FrequentistEstimator(4), [50, 150], reps=4, seed=9)
    b = icl_risk_curve(Q, FrequentistEstimator(4), [50, 150], reps=4, seed=9)
    assert [(p.n_icl, p.mean, p.lo, p.hi) for p in a.points] == \
           [(p.n_icl, p.mean, p.lo, p.hi) for p in b.points]


def test_parallel_curve_matches_serial():
    Q = random_chain(3, seed=8)
    kw = dict(n_list=[40, 80], reps=3, seed=2)
    serial = icl_risk_curve(Q, FrequentistEstimator(3), jobs=1, **kw)
    parallel = icl_risk_curve(Q, FrequentistEstimator(3), jobs=2, **kw)
    assert [(p.mean, p.lo, p.hi) for p in serial.points] == \
           [(p.mean, p.lo, p.hi) for p in parallel.points]


class RecordingPool:
    """ProcessPoolExecutor's stand-in: records its worker count and maps
    in this process."""
    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def pools(monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(RecordingPool, "workers", [])
    return RecordingPool.workers


def test_map_jobs_starts_no_more_workers_than_items(pools):
    def stripe(args):
        return args[0], list(args[1])

    assert estimation.map_jobs(stripe, ("a",), 2, 16) == [("a", [0]),
                                                          ("a", [1])]
    assert estimation.map_jobs(stripe, ("b",), 5, 2) == [("b", [0, 2, 4]),
                                                         ("b", [1, 3])]
    assert estimation.map_jobs(stripe, ("c",), 1, 16) == [("c", [0])]
    assert pools == [2, 2]


def test_curve_stripes_match_serial_at_every_job_count(pools):
    Q = random_chain(3, seed=8)
    kw = dict(n_list=[40, 80], reps=3, seed=2)
    serial = icl_risk_curve(Q, FrequentistEstimator(3), jobs=1, **kw)
    for jobs in (2, 4, 6, 16):
        striped = icl_risk_curve(Q, FrequentistEstimator(3), jobs=jobs, **kw)
        assert striped.points == serial.points
    assert pools == [2, 4, 6, 6]


def test_cli_jobs_are_bounded_by_the_cpu_count(tmp_path, monkeypatch, pools):
    """--jobs 100000 starts one worker a CPU, and writes what --jobs 1
    does; the recording pool starts no process."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = dict(ESTIMATE_CFG, n_list=[50, 100, 200, 400, 800], reps=4)
    assert run(tmp_path, "estimate", cfg, out="one", jobs=1) == 0
    assert run(tmp_path, "estimate", cfg, out="many", jobs=100_000) == 0
    assert pools == [3]
    for name in ("risk.csv", "fit.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "many" / name).read_bytes()
    # no CPU count known: one job, no pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(tmp_path, "estimate", cfg, out="none", jobs=100_000) == 0
    assert pools == [3]



def test_curve_peak_within_its_count():
    """No task is built per replicate: the risks are the curve's only
    per-replicate storage."""
    Q = random_chain(3, seed=1)
    peak = _traced_peak(lambda: icl_risk_curve(
        Q, FrequentistEstimator(3), [2, 3], reps=2_000))
    assert peak <= estimation.curve_bytes(2, 2_000) \
        + estimation.replicate_bytes(3, 3)


@pytest.mark.parametrize("n", [100.5, math.inf, math.nan, 1])
def test_curve_refuses_context_lengths_that_are_not_integers_from_2(n):
    Q = random_chain(3, seed=1)
    with pytest.raises(ValueError, match=f"got {n!r}"):
        icl_risk_curve(Q, FrequentistEstimator(3), [50, n, 500], reps=2)


def test_curve_takes_integral_float_context_lengths():
    Q = random_chain(3, seed=1)
    a = icl_risk_curve(Q, FrequentistEstimator(3), [100, 316.0], reps=2)
    b = icl_risk_curve(Q, FrequentistEstimator(3), [100, 316], reps=2)
    assert [p.n_icl for p in a.points] == [100, 316]
    assert [(p.n_icl, p.mean) for p in a.points] == \
           [(p.n_icl, p.mean) for p in b.points]


def test_kl_curve_flags_infinite_points():
    truth = np.array([[0.5, 0.5], [0.5, 0.5]])
    wrong = ChainOracle(np.array([[1.0, 0.0], [1.0, 0.0]]))
    curve = icl_risk_curve(truth, wrong, [10, 20], reps=2, seed=0, metric="kl")
    assert all(not p.finite and p.mean == math.inf for p in curve.points)


def test_ngram_estimator_on_deterministic_cycle():
    curve = icl_risk_curve(TWO_CYCLE, NgramEstimator(1, alpha=0.0, n_symbols=2),
                           [16, 64], reps=2, seed=0, metric="kl")
    assert all(p.finite and p.mean == 0.0 for p in curve.points)


def test_curve_validation():
    Q = random_chain(3, seed=0)
    with pytest.raises(ValueError):
        icl_risk_curve(Q, UniformOracle(3), [100, 100], reps=3)
    with pytest.raises(ValueError):
        icl_risk_curve(Q, UniformOracle(3), [], reps=3)
    with pytest.raises(ValueError):
        icl_risk_curve(Q, UniformOracle(3), [10, 20], reps=1)
    with pytest.raises(ValueError):
        icl_risk_curve(Q, UniformOracle(3), [10, 20], reps=3, metric="wasserstein")


def test_risk_curve_csv(tmp_path, monkeypatch):
    curve = RiskCurve([RiskPoint(10, 0.5, 0.4, 0.6, 3),
                       RiskPoint(20, math.inf, math.inf, math.inf, 3, finite=False)],
                      metric="kl", estimator="demo")
    monkeypatch.setattr(cli, "icl_risk_curve", lambda *args, **kw: curve)
    assert run(tmp_path, "estimate", ESTIMATE_CFG) == 0
    _, lines = read_csv(tmp_path, "out", "risk.csv")
    assert lines[0] == "N,mean,lo,hi,reps,metric,estimator"
    assert lines[1] == "10,0.5,0.4,0.6,3,kl,demo"
    assert lines[2] == "20,+inf,+inf,+inf,3,kl,demo"


# ---------------------------------------------------------------------------
# power-law fits
# ---------------------------------------------------------------------------

def make_curve(pairs):
    return RiskCurve([RiskPoint(n, m, m, m, 2, finite=math.isfinite(m))
                      for n, m in pairs], metric="tv", estimator="demo")


def test_fit_recovers_exact_square_root_law():
    fit = fit_power_law(make_curve([(100, 3 / 10), (400, 3 / 20), (1600, 3 / 40)]))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.n_points == 3


def test_fit_constant_curve_is_flat():
    fit = fit_power_law(make_curve([(10, 0.25), (100, 0.25), (1000, 0.25)]))
    assert fit.slope == 0.0
    assert fit.r2 == 1.0


def test_fit_skips_infinite_points():
    fit = fit_power_law(make_curve([(10, 0.4), (100, math.inf),
                                    (1000, 0.2), (10000, 0.1)]))
    assert fit.n_points == 3


def test_fit_is_written_to_fit_json(tmp_path, monkeypatch):
    fit = fit_power_law(make_curve([(100, 0.3), (400, 0.15), (1600, 0.075)]))
    monkeypatch.setattr(cli, "fit_power_law", lambda curve: fit)
    assert run(tmp_path, "estimate", ESTIMATE_CFG) == 0
    blob = read_json(tmp_path, "out", "fit.json")["fit"]
    assert set(blob) == {"slope", "intercept", "stderr", "r2", "n_points"}
    assert blob == {"slope": fit.slope, "intercept": fit.intercept,
                    "stderr": fit.slope_stderr, "r2": fit.r2,
                    "n_points": fit.n_points}


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_power_law(make_curve([(10, 0.5), (100, 0.0), (1000, 0.1)]))
    with pytest.raises(ValueError):
        fit_power_law(make_curve([(10, 0.5), (100, 0.4)]))
