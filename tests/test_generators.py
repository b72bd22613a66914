import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from tokenchain.generators import (
    ChainSpec, build_chain, clique_rim, constrained_walk, discretize,
    polygonal_walk, process_bytes, random_chain, simulate_process,
)
from tokenchain.spectral import classify_states


def assert_stochastic(P):
    assert np.all(P >= 0)
    npt.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# walk chains
# ---------------------------------------------------------------------------

def test_constrained_walk_three_states():
    npt.assert_array_equal(constrained_walk(3).dense(),
                           [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])


def test_constrained_walk_two_states_swaps():
    npt.assert_array_equal(constrained_walk(2).dense(), [[0, 1], [1, 0]])


def test_constrained_walk_structure():
    P = constrained_walk(10).dense()
    assert_stochastic(P)
    assert all(np.count_nonzero(row) <= 2 for row in P)
    with pytest.raises(ValueError):
        constrained_walk(1)


def test_polygonal_walk_four_states():
    P = polygonal_walk(4).dense()
    assert_stochastic(P)
    for i in range(4):
        assert P[i, (i + 1) % 4] == 0.5
        assert P[i, (i - 1) % 4] == 0.5
    assert np.count_nonzero(P) == 8


def test_polygonal_walk_triangle():
    P = polygonal_walk(3).dense()
    npt.assert_array_equal(P, [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
    with pytest.raises(ValueError):
        polygonal_walk(2)


@pytest.mark.parametrize("d", [4, 6])
def test_even_polygonal_walk_has_period_two(d):
    assert classify_states(polygonal_walk(d)).period == 2


def test_odd_polygonal_walk_is_aperiodic_after_two_cycles():
    # odd cycles mix: gcd of cycle lengths d and 2 is 1
    assert classify_states(polygonal_walk(5)).period == 1


# ---------------------------------------------------------------------------
# clique + rim
# ---------------------------------------------------------------------------

def test_clique_rim_matches_reported_values():
    P = clique_rim(9, eta=0.02, tau=(0, 0, 0)).dense()
    assert_stochastic(P)
    for i in range(3):
        assert P[i, i] == pytest.approx(0.73)
        for j in range(3):
            if j != i:
                assert P[i, j] == pytest.approx(0.01)


def test_clique_rim_row_algebra():
    P = clique_rim(9, eta=0.1, tau=(1, 0, 1), rim_eps=0.125).dense()
    assert_stochastic(P)
    bump = 4 * 0.125
    # biased spoke 0: rim pair is states (3, 4)
    assert P[0, 3] == pytest.approx((1 + bump) / 8)
    assert P[0, 4] == pytest.approx((1 - bump) / 8)
    assert P[3, 0] == pytest.approx((1 + bump) / 8)
    assert P[3, 3] == pytest.approx((7 - bump) / 8)
    assert P[4, 4] == pytest.approx((7 + bump) / 8)
    # unbiased spoke 1 stays flat
    assert P[1, 5] == P[1, 6] == pytest.approx(1 / 8)
    assert P[5, 5] == P[6, 6] == pytest.approx(7 / 8)


def test_flipping_one_tau_touches_six_entries():
    base = clique_rim(9, eta=0.1, tau=(0, 0, 0)).dense()
    for i in range(3):
        tau = [0, 0, 0]
        tau[i] = 1
        flipped = clique_rim(9, eta=0.1, tau=tau).dense()
        assert int(np.count_nonzero(base != flipped)) == 6


def test_clique_rim_validation():
    with pytest.raises(ValueError):
        clique_rim(8, 0.1, (0, 0))                 # not a multiple of 3
    with pytest.raises(ValueError):
        clique_rim(9, 0.75, (0, 0, 0))             # eta at the open end
    with pytest.raises(ValueError):
        clique_rim(9, -0.1, (0, 0, 0))
    with pytest.raises(ValueError):
        clique_rim(9, 0.1, (0, 0))                 # tau length
    with pytest.raises(ValueError):
        clique_rim(9, 0.1, (0, 2, 0))              # tau entries
    with pytest.raises(ValueError):
        clique_rim(9, 0.1, (0, 0, 0), rim_eps=0.3)
    with pytest.raises(ValueError):
        clique_rim(3, 0.1, (0,))                   # nowhere to spread eta


def test_single_spoke_clique_rim_needs_zero_eta():
    P = clique_rim(3, eta=0.0, tau=(1,)).dense()
    assert_stochastic(P)


# ---------------------------------------------------------------------------
# random chains
# ---------------------------------------------------------------------------

def test_random_chain_full_floor_is_deterministic():
    npt.assert_array_equal(random_chain(2, p_min=0.5).dense(),
                           [[0.5, 0.5], [0.5, 0.5]])


def test_random_chain_respects_floor():
    P = random_chain(3, p_min=0.1, seed=42).dense()
    assert_stochastic(P)
    assert P.min() >= 0.1


def test_random_chain_is_seeded():
    npt.assert_array_equal(random_chain(4, seed=7).dense(),
                           random_chain(4, seed=7).dense())
    assert not np.array_equal(random_chain(4, seed=7).dense(),
                              random_chain(4, seed=8).dense())


def test_random_chain_validation():
    with pytest.raises(ValueError):
        random_chain(3, p_min=0.4)
    with pytest.raises(ValueError):
        random_chain(3, p_min=-0.01)
    with pytest.raises(ValueError):
        random_chain(1)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def test_uniform_process_range_and_shape():
    x = simulate_process("uncorrelated_uniform", 1000, seed=1)
    assert x.shape == (1000,)
    assert np.all((0 <= x) & (x < 1))


def test_brownian_increment_variance():
    x = simulate_process("brownian", 100_000, seed=3, sigma=1.0)
    v = np.diff(x).var()
    assert abs(v - 1.0) < 0.05


def test_gbm_zero_volatility_is_constant():
    x = simulate_process("gbm", 50, seed=0, mu=0.0, sigma=0.0, s0=2.0)
    npt.assert_array_equal(x, np.full(50, 2.0))


def test_correlated_gaussian_is_autocorrelated():
    x = simulate_process("correlated_gaussian", 50_000, seed=5, rho=0.9)
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1 - 0.9) < 0.02


def test_process_validation():
    with pytest.raises(ValueError):
        simulate_process("brownian", 10, sigma=-1.0)
    with pytest.raises(ValueError):
        simulate_process("gbm", 10, s0=0.0)
    with pytest.raises(ValueError):
        simulate_process("gbm", 10, dt=0.0)
    with pytest.raises(ValueError):
        simulate_process("correlated_gaussian", 10, rho=1.5)
    with pytest.raises(ValueError):
        simulate_process("levy_flight", 10)
    with pytest.raises(ValueError):
        simulate_process("brownian", 0)


@pytest.mark.parametrize("kind", ["gbm", "brownian"])
@pytest.mark.parametrize("key,value,message", [
    ("sigma", math.inf, "volatility must be finite"),
    ("sigma", math.nan, "volatility must be finite"),
    ("dt", math.inf, "time step must be finite"),
    ("dt", math.nan, "time step must be finite"),
])
def test_non_finite_process_settings_are_refused(kind, key, value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            simulate_process(kind, 10, **{key: value})


@pytest.mark.parametrize("settings", [{"sigma": 1e200}, {"mu": 1e308}])
def test_overflowing_gbm_drift_is_refused_without_warning(settings):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="drift .* overflows float64"):
            simulate_process("gbm", 50, **settings)


def test_overflowing_gbm_path_is_refused_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"path overflows float64 within "
                           r"49 steps: s0=1.0, mu=20.0, sigma=0.2, dt=1.0"):
            simulate_process("gbm", 50, mu=20.0)


def test_processes_are_seeded():
    for kind in ["gbm", "correlated_gaussian", "uncorrelated_gaussian",
                 "uncorrelated_uniform", "brownian"]:
        npt.assert_array_equal(simulate_process(kind, 100, seed=11),
                               simulate_process(kind, 100, seed=11))


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_discretize_edge_goes_to_lower_bin():
    traj = discretize([0.0, 0.5, 1.0], 2)
    npt.assert_array_equal(traj.states, [0, 0, 1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_discretize_refuses_a_non_finite_series(bad):
    with pytest.raises(ValueError, match="^series must be finite$"):
        discretize([0.0, bad, 1.0], 3)


def test_discretize_monotone_hits_every_bin():
    traj = discretize(np.arange(10.0), 10)
    npt.assert_array_equal(traj.states, np.arange(10))


def test_discretize_uniform_series_balances_bins():
    x = simulate_process("uncorrelated_uniform", 100_000, seed=9)
    traj = discretize(x, 10)
    freq = np.bincount(traj.states, minlength=10) / len(traj)
    npt.assert_allclose(freq, 0.1, atol=0.01)


def test_discretize_validation():
    with pytest.raises(ValueError):
        discretize([1.0, 1.0, 1.0], 4)
    with pytest.raises(ValueError):
        discretize([0.0, 1.0], 1)
    with pytest.raises(ValueError):
        discretize([], 2)


# ---------------------------------------------------------------------------
# chain specs
# ---------------------------------------------------------------------------

def built(blob):
    """build_chain on the ChainSpec of a config dict."""
    return build_chain(ChainSpec.from_dict(blob))


def test_build_chain_from_dict():
    Q = built({"kind": "random", "d": 3, "p_min": 0.05, "seed": 1})
    assert Q.dense().shape == (3, 3)
    assert Q.dense().min() >= 0.05


def test_build_chain_clique_defaults_to_unbiased_tau():
    Q = built({"kind": "clique_rim", "d": 9, "eta": 0.02})
    assert Q.meta["tau"] == [0, 0, 0]


def test_build_chain_discretized_process():
    spec = ChainSpec(kind="discretized_process", d=5, seed=2,
                     process={"kind": "brownian", "sigma": 1.0},
                     n_samples=2000)
    Q = build_chain(spec)
    assert_stochastic(Q.dense())
    assert Q.meta["kind"] == "discretized_process"
    assert Q.meta["process"] == "brownian"


def test_build_chain_validation():
    with pytest.raises(ValueError):
        built({"kind": "moebius", "d": 3})
    with pytest.raises(ValueError):
        built({"kind": "random", "d": 3, "wheels": 4})
    with pytest.raises(ValueError):
        built({"d": 3})
    with pytest.raises(ValueError):
        built({"kind": "discretized_process", "d": 3, "process": {}})


@pytest.mark.parametrize("kind,n,d", [
    ("gbm", 200_000, 3), ("brownian", 200_000, 200),
    ("uncorrelated_gaussian", 100_000, 50), ("uncorrelated_uniform", 100_000, 3),
    ("correlated_gaussian", 20_000, 3),
])
def test_process_bytes_covers_a_discretized_build(kind, n, d):
    spec = ChainSpec(kind="discretized_process", d=d, n_samples=n,
                     process={"kind": kind})
    build_chain(ChainSpec(kind="discretized_process", d=d, n_samples=100,
                          process={"kind": kind}))
    tracemalloc.start()
    try:
        build_chain(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * n < peak <= process_bytes(d, n)
