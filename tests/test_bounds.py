import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from test_cli import read_csv, run

from tokenchain.bounds import (
    BoundOverflowError,
    DepthBoundParams,
    IclBoundParams,
    ModelCard,
    PretrainBoundParams,
    approximation_error,
    builtin_model_cards,
    default_unembed_bound,
    depth_constant,
    generalization_gap,
    icl_constant,
    icl_gap,
    layer_bound,
    log_ratio_checks,
    mc_verify,
    mcdiarmid_markov_tail,
    mcdiarmid_tail,
    predictor_table,
    pretrain_constant,
    sample_complexity,
)
from tokenchain.oracles import OracleError


def pretrain(**kw):
    base = dict(n_tokens=math.e, unembed_bound=0.0, temperature=1.0,
                ambiguity_floor=1.0, delta=0.05, n_train=1000)
    base.update(kw)
    return PretrainBoundParams(**base)


def icl(**kw):
    base = dict(n_states=3, unembed_bound=0.0, temperature=1.0,
                min_transition_prob=0.1, delta=0.05, n_icl=1000, t_min=4.0)
    base.update(kw)
    return IclBoundParams(**base)


def depth(**kw):
    base = dict(n_layers=2, n_heads=1, embed_dim=2, ffn_dim=2,
                mlp_in_bound=1.0, mlp_out_bound=1.0, attn_out_bound=1.0,
                value_bound=1.0, token_bound=1.0, unembed_bound=1.0,
                n_tokens=1000.0, temperature=1.0, ambiguity_floor=1.0,
                delta=0.05)
    base.update(kw)
    return DepthBoundParams(**base)


def test_pretrain_unit_plugin():
    assert pretrain_constant(pretrain()) == pytest.approx(2.0, rel=1e-15)


def test_pretrain_linear_in_mixing_norm():
    lo = pretrain_constant(pretrain(n_tokens=50, unembed_bound=3.0))
    hi = pretrain_constant(
        pretrain(n_tokens=50, unembed_bound=3.0, mixing_norm=2.0))
    assert hi == pytest.approx(2.0 * lo, rel=1e-15)


def test_pretrain_large_model_value():
    p = pretrain(n_tokens=32000, unembed_bound=32000 * 64.0,
                 ambiguity_floor=1e-6, n_train=10 ** 12)
    assert_allclose(pretrain_constant(p), 4047.720530615315, rtol=1e-12)


def test_pretrain_floor_takes_over():
    p = pretrain(n_tokens=2, ambiguity_floor=1e-9)
    assert_allclose(pretrain_constant(p), 2.0 * math.sqrt(math.log(1e9)),
                    rtol=1e-12)


def test_pretrain_rejects_bad_fields():
    with pytest.raises(ValueError):
        pretrain(n_tokens=0)
    with pytest.raises(ValueError):
        pretrain(unembed_bound=-1.0)
    with pytest.raises(ValueError):
        pretrain(temperature=0.0)
    with pytest.raises(ValueError):
        pretrain(ambiguity_floor=0.0)
    with pytest.raises(ValueError):
        pretrain(ambiguity_floor=1.5)
    with pytest.raises(ValueError):
        pretrain(delta=1.0)
    with pytest.raises(ValueError):
        pretrain(delta=2.0)
    with pytest.raises(ValueError):
        pretrain(n_train=0)
    with pytest.raises(ValueError):
        pretrain(mixing_norm=0.5)


def test_icl_constant_value():
    assert_allclose(icl_constant(icl()), 3.034854258770293, rtol=1e-12)


def test_icl_constant_alphabet_term_takes_over():
    p = icl(n_states=100, min_transition_prob=1.0)
    assert_allclose(icl_constant(p), 2.0 * math.sqrt(math.log(100)),
                    rtol=1e-12)


def test_icl_gap_formula_and_scaling():
    p = icl(n_icl=1000)
    expected = (icl_constant(p) * math.sqrt(4.0 / 1000)
                * math.sqrt(math.log(2 / 0.05)))
    assert_allclose(icl_gap(p), expected, rtol=1e-12)
    quadrupled = icl(n_icl=4000)
    assert icl_gap(p) == pytest.approx(2.0 * icl_gap(quadrupled), rel=1e-12)


def test_icl_gap_infinite_mixing_time():
    p = icl(t_min=math.inf)
    with pytest.raises(ValueError):
        icl_gap(p)


def test_icl_rejects_bad_fields():
    with pytest.raises(ValueError):
        icl(delta=2.0)
    with pytest.raises(ValueError):
        icl(min_transition_prob=0.0)
    with pytest.raises(ValueError):
        icl(min_transition_prob=1.1)
    with pytest.raises(ValueError):
        icl(n_states=0)
    with pytest.raises(ValueError):
        icl(t_min=0.0)


def test_layer_bound_collapses_to_one():
    p = depth(n_layers=1, mlp_in_bound=0.0, mlp_out_bound=0.0,
              attn_out_bound=0.0, value_bound=0.0)
    assert layer_bound(p) == pytest.approx(1.0, rel=1e-15)


def test_layer_bound_hand_value():
    assert layer_bound(depth()) == pytest.approx(45.0, rel=1e-15)


def test_depth_constant_monotone_in_layers():
    values = [depth_constant(depth(n_layers=L)) for L in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_depth_constant_matches_pretrain_at_same_cap():
    # with B_theta == 1 the powered factor is 1 for any depth
    p = depth(n_layers=3, mlp_in_bound=0.0, mlp_out_bound=0.0,
              attn_out_bound=0.0, value_bound=0.0)
    flat = pretrain(n_tokens=1000.0, unembed_bound=1.0, n_train=1000)
    assert depth_constant(p) == pytest.approx(pretrain_constant(flat),
                                              rel=1e-15)


def test_depth_overflow_carries_exponent():
    p = depth(n_layers=10_000)
    with pytest.raises(BoundOverflowError) as err:
        depth_constant(p)
    assert_allclose(err.value.log_power, 10_000 * math.log(45.0), rtol=1e-12)
    # a finite per-layer power whose 2 B / tau overflows
    with pytest.raises(BoundOverflowError) as err:
        depth_constant(depth(temperature=1e-320))
    assert_allclose(err.value.log_power, 2 * math.log(45.0), rtol=1e-12)


def test_depth_overflow_elsewhere_does_not_blame_the_layers():
    # layer_bound 0, so only the mixing norm can overflow the constant
    with pytest.raises(BoundOverflowError) as err:
        depth_constant(depth(token_bound=0.0, mixing_norm=1e308))
    assert err.value.log_power is None
    assert str(err.value) == "deviation constant exceeds float range"


def test_overflowing_constants_raise():
    # 2 B / tau overflows float64
    with pytest.raises(BoundOverflowError):
        pretrain_constant(pretrain(unembed_bound=1.0, temperature=1e-320))
    with pytest.raises(BoundOverflowError):
        icl_constant(icl(unembed_bound=1.0, temperature=1e-320))


def test_depth_zero_embedding_is_fine():
    p = depth(token_bound=0.0, ambiguity_floor=1e-9, n_tokens=2.0)
    assert_allclose(depth_constant(p), 2.0 * math.sqrt(math.log(1e9)),
                    rtol=1e-12)


def test_depth_warns_when_heads_do_not_divide():
    with pytest.warns(RuntimeWarning):
        depth(n_heads=3, embed_dim=4)


def test_sample_complexity_unit():
    assert sample_complexity(1.0, 1.0, 2 / math.e) == 4


def test_sample_complexity_quadruples():
    n1 = sample_complexity(1.0, 0.1, 0.05)
    n2 = sample_complexity(1.0, 0.05, 0.05)
    assert 4 * (n1 - 1) < n2 <= 4 * n1


def test_sample_complexity_fixed_case():
    constant = 3.034854258770293
    n_star = sample_complexity(constant, 0.1, 0.05)
    assert n_star == 13591
    assert generalization_gap(constant, n_star, 0.05) <= 0.05


def test_sample_complexity_roundtrip_fuzz():
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        constant = 10.0 ** rng.uniform(-1, 3)
        epsilon = 10.0 ** rng.uniform(-4, 1)
        delta = rng.uniform(0.001, 0.999)
        n_star = sample_complexity(constant, epsilon, delta)
        gap = generalization_gap(constant, n_star, delta)
        assert gap <= (epsilon / 2.0) * (1.0 + 1e-12)


def test_gap_and_error_relation():
    assert approximation_error(2.0, 400, 0.1) == pytest.approx(
        2.0 * generalization_gap(2.0, 400, 0.1), rel=1e-15)
    assert_allclose(generalization_gap(2.0, 400, 0.1),
                    2.0 * math.sqrt(math.log(20.0) / 400), rtol=1e-12)


def test_builtin_cards_table():
    cards = builtin_model_cards()
    assert len(cards) == 8
    names = [c.name for c in cards]
    assert names[0] == "Llama 7B" and names[-1] == "Gemma2 27B"
    small = {c.name: c for c in cards}["Llama3.2 3B"]
    assert (small.n_train, small.n_tokens, small.embed_dim) == (
        15_000_000_000_000, 128000, 3072)


def test_model_card_rejects_nonpositive():
    with pytest.raises(ValueError):
        ModelCard("x", 0, 10, 10)


def test_predictor_first_row():
    rows = predictor_table()
    assert rows[0].name == "Llama 7B"
    assert_allclose(rows[0].constant, 4047.720530615315, rtol=1e-12)
    assert_allclose(rows[0].epsilon, 0.0155484731137738, rtol=1e-12)


def test_predictor_all_epsilons():
    expected = [0.0155484731137738, 0.010994430775846168,
                0.008029189704680225, 0.007472003368665464,
                0.02135613843686279, 0.01671208065499855,
                0.015041731946029667, 0.012564848870165601]
    rows = predictor_table()
    assert_allclose([r.epsilon for r in rows], expected, rtol=1e-9)


def test_predictor_family_orderings():
    rows = {r.name: r for r in predictor_table()}
    gemma = [v.constant for k, v in rows.items() if k.startswith("Gemma")]
    llama = [v.constant for k, v in rows.items() if k.startswith("Llama")]
    assert min(gemma) > max(llama)
    assert rows["Llama2 7B"].epsilon < rows["Llama 7B"].epsilon


def test_predictor_monotone_in_train_size_and_alphabet():
    sizes = [ModelCard(f"n{i}", 10 ** (6 + i), 1000, 16) for i in range(4)]
    eps = [r.epsilon for r in predictor_table(sizes)]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    alphabets = [ModelCard(f"t{i}", 10 ** 9, 100 * 2 ** i, 16)
                 for i in range(4)]
    eps = [r.epsilon for r in predictor_table(alphabets)]
    assert all(a < b for a, b in zip(eps, eps[1:]))


def test_predictor_uses_norm_preset():
    assert default_unembed_bound(32000, 4096) == pytest.approx(32000 * 64.0)
    card = ModelCard("one", 10 ** 9, 50, 9)
    row = predictor_table([card], temperature=2.0)[0]
    manual = pretrain_constant(PretrainBoundParams(
        n_tokens=50, unembed_bound=50 * 3.0, temperature=2.0,
        ambiguity_floor=1.0, delta=0.05, n_train=10 ** 9))
    assert row.constant == pytest.approx(manual, rel=1e-15)


def test_predictor_csv_shape(tmp_path):
    assert run(tmp_path, "bounds", {"mc": None}) == 0
    _, lines = read_csv(tmp_path, "out", "predictor.csv")
    assert lines[0] == "name,n_train,n_tokens,embed_dim,constant,epsilon"
    assert len(lines) == 9
    assert lines[1].startswith("Llama 7B,1000000000000,32000,4096,")


def test_mcdiarmid_coin_tail():
    c = np.full(100, 0.01)
    assert_allclose(mcdiarmid_tail(0.2, c), 2.0 * math.exp(-8.0), rtol=1e-12)
    assert mcdiarmid_tail(0.0, c) == 2.0


def test_mcdiarmid_tail_validation():
    with pytest.raises(ValueError):
        mcdiarmid_tail(0.1, np.zeros(5))
    with pytest.raises(ValueError):
        mcdiarmid_tail(-0.1, np.full(5, 0.2))
    with pytest.raises(ValueError):
        mcdiarmid_tail(0.1, np.full(5, 0.2), mixing_norm=0.5)


def test_tail_refuses_a_matrix_of_constants():
    with pytest.raises(ValueError, match="^c must be a nonempty 1-D vector$"):
        mcdiarmid_tail(0.1, np.full((2, 2), 0.1))
    with pytest.raises(ValueError, match="^c must be a nonempty 1-D vector$"):
        mcdiarmid_markov_tail(0.1, [[0.1]], 4.0)


def test_mcdiarmid_markov_tail_values():
    c = np.full(100, 0.01)
    assert_allclose(mcdiarmid_markov_tail(0.2, c, 4.0),
                    0.2706705664732254, rtol=1e-12)
    assert mcdiarmid_markov_tail(0.2, c, math.inf) == 2.0
    with pytest.raises(ValueError):
        mcdiarmid_markov_tail(0.2, c, 0.0)
    # the chain variant is never tighter than the independent one
    for u in (0.05, 0.1, 0.2, 0.4):
        assert mcdiarmid_markov_tail(u, c, 4.0) >= mcdiarmid_tail(u, c)


def coin_rows(rng, size):
    return rng.integers(0, 2, size=(size, 100))


def row_mean(block):
    return block.mean(axis=1)


COIN_C = np.full(100, 0.01)
COIN_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


def test_mc_verify_coin_mean():
    report = mc_verify(coin_rows, row_mean, COIN_C, 20_000, COIN_GRID,
                       seed=7, mean=0.5)
    assert report.ok
    assert report.n_samples == 20_000
    assert [c.u for c in report.checks] == list(COIN_GRID)
    for check in report.checks:
        assert check.bound == pytest.approx(
            mcdiarmid_tail(check.u, COIN_C), rel=1e-15)
        assert 0.0 <= check.empirical <= 1.0


def test_mc_verify_markov_bound_selected():
    report = mc_verify(coin_rows, row_mean, COIN_C, 10_000, (0.2,), seed=1,
                       t_min=4.0, mean=0.5)
    assert report.checks[0].bound == pytest.approx(
        mcdiarmid_markov_tail(0.2, COIN_C, 4.0), rel=1e-15)


def test_mc_verify_jobs_match_serial():
    serial = mc_verify(coin_rows, row_mean, COIN_C, 25_000, COIN_GRID, seed=3,
                       mean=0.5)
    parallel = mc_verify(coin_rows, row_mean, COIN_C, 25_000, COIN_GRID,
                         seed=3, mean=0.5, jobs=2)
    assert serial.center == parallel.center
    for a, b in zip(serial.checks, parallel.checks):
        assert a.empirical == b.empirical


def test_mc_verify_validation():
    with pytest.raises(ValueError):
        mc_verify(coin_rows, row_mean, COIN_C, 20_000, (), mean=0.5)
    with pytest.raises(ValueError):
        mc_verify(coin_rows, row_mean, COIN_C, 1, (0.1,), mean=0.5)
    with pytest.raises(ValueError):
        mc_verify(coin_rows, lambda block: block, COIN_C, 100, (0.1,),
                  mean=0.5)


def test_log_ratio_hand_example():
    report = log_ratio_checks([0.9, 0.1], [0.5, 0.5])
    assert_allclose(report.log_ratio_bound, math.log(5.0), rtol=1e-12)
    assert_allclose(report.tv, 0.4, rtol=1e-12)
    assert_allclose(report.kl, 0.3680642071684971, rtol=1e-12)
    assert_allclose(report.hellinger_sq, 0.21114561800016823, rtol=1e-12)
    assert report.tv_ok and report.kl_ok and report.hellinger_ok
    assert report.ok


def test_log_ratio_identical_distributions():
    report = log_ratio_checks([0.25, 0.75], [0.25, 0.75])
    assert report.log_ratio_bound == 0.0
    assert report.tv == 0.0
    assert report.ok


def test_log_ratio_rejects_zeros_and_shape():
    with pytest.raises(ValueError):
        log_ratio_checks([1.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        log_ratio_checks([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        log_ratio_checks([0.5, 0.5], [0.2, 0.3, 0.5])


@pytest.mark.parametrize("p,q,message", [
    ([0.6, 0.6], [0.5, 0.5], "sum to 1.2"),
    ([0.5, 0.5], [0.5, 0.4], "sum to 0.9"),
    ([1.5, -0.5], [0.5, 0.5], "negative or NaN"),
    ([[0.5, 0.5]], [[0.5, 0.5]], "expected a vector")])
def test_log_ratio_refuses_what_is_no_distribution(p, q, message):
    with pytest.raises(OracleError, match=message):
        log_ratio_checks(p, q)


def test_log_ratio_fuzz_never_fails():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(d)) + 1e-12
        q = rng.dirichlet(np.ones(d)) + 1e-12
        report = log_ratio_checks(p / p.sum(), q / q.sum())
        assert report.ok


# Values and messages taken from the implementation before the deviation
# constants and their argument checks were shared.

def test_icl_and_depth_constants_are_pinned():
    p = icl(n_states=5, unembed_bound=1.5, temperature=0.7,
            min_transition_prob=0.01, t_min=12.0)
    assert icl_constant(p) == 4.855986902020386
    d = depth(n_heads=2, embed_dim=4, ffn_dim=8, mlp_in_bound=0.1,
              mlp_out_bound=0.2, attn_out_bound=0.05, value_bound=0.3,
              token_bound=1.1, unembed_bound=0.9, n_tokens=50,
              temperature=1.3, ambiguity_floor=0.02, mixing_norm=1.5)
    assert depth_constant(d) == 10.768673667073871


@pytest.mark.parametrize("make,key,value,message", [
    (pretrain, "ambiguity_floor", 0.0,
     "ambiguity_floor must lie in (0, 1], got 0.0"),
    (pretrain, "ambiguity_floor", 1.5,
     "ambiguity_floor must lie in (0, 1], got 1.5"),
    (icl, "min_transition_prob", 0,
     "min_transition_prob must lie in (0, 1], got 0"),
    (depth, "ambiguity_floor", 2.0,
     "ambiguity_floor must lie in (0, 1], got 2.0"),
    (pretrain, "unembed_bound", -1.0, "unembed_bound must be >= 0, got -1.0"),
    (icl, "unembed_bound", -2, "unembed_bound must be >= 0, got -2"),
    (depth, "value_bound", -0.5, "value_bound must be >= 0, got -0.5"),
    (depth, "token_bound", -1, "token_bound must be >= 0, got -1"),
    (pretrain, "mixing_norm", 0.5, "mixing_norm must be >= 1, got 0.5"),
    (depth, "mixing_norm", 0.9, "mixing_norm must be >= 1, got 0.9"),
])
def test_bound_checks_keep_their_messages(make, key, value, message):
    with pytest.raises(ValueError) as info:
        make(**{key: value})
    assert str(info.value) == message


def test_tail_checks_keep_their_messages():
    with pytest.raises(ValueError, match=r"^u must be >= 0, got -0\.1$"):
        mcdiarmid_tail(-0.1, [1.0])
    with pytest.raises(ValueError,
                       match=r"^mixing_norm must be >= 1, got 0\.5$"):
        mcdiarmid_tail(0.1, [1.0], mixing_norm=0.5)
