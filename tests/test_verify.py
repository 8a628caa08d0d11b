"""Verification suite: reports, CF match, independence, ONB fixture,
embedding bound, stationary increments."""

import math

import numpy as np
import pytest
import scipy.integrate as spi

import levyfield.verify as lv
from levyfield import (Characteristics, Density, Region, SamplerConfig,
                       preset, sample_field)
from levyfield.characteristics import (DiffusionComponent, DriftComponent,
                                       JumpComponent)
from levyfield.funcs import GaussianFunction, IndicatorFunction, ProductBump
from levyfield.kernels import (CompoundPoissonKernel, DiscreteJumps,
                               StableKernel, UniformJumps)
from levyfield.verify import (OnbCounterexampleSpec, VerificationReport,
                              _trig_coefficients,
                              cf_match_test, distance_covariance,
                              embedding_inequality_check, independence_test,
                              onb_counterexample, paired_evaluations,
                              stationary_increment_test, summary_table)

UNIT = Region.from_intervals([(0.0, 1.0)])


def report(**kw):
    base = dict(name="t", statistic=0.5, threshold=0.01, decision="pass",
                sample_size=10, seed=0, provenance="p")
    base.update(kw)
    return VerificationReport(**base)


def test_report_decisions_are_whitelisted():
    assert report().passed
    assert not report(decision="fail").passed
    with pytest.raises(ValueError):
        report(decision="maybe")
    d = report(notes=("a", "b")).to_dict()
    assert set(d) == {"name", "statistic", "threshold", "decision",
                      "sample_size", "seed", "provenance", "notes"}
    assert d["notes"] == ["a", "b"]


def test_summary_table_one_line_per_report():
    txt = summary_table([report(name="alpha"), report(name="beta", decision="fail")])
    lines = txt.splitlines()
    assert len(lines) == 3 and "decision" in lines[0]
    assert "alpha" in lines[1] and "fail" in lines[2]


def test_distance_covariance_basics():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    y = rng.standard_normal(400)
    indep = distance_covariance(x, y)
    coupled = distance_covariance(x, x + 0.1 * y)
    assert distance_covariance(x, y) == distance_covariance(y, x)
    assert coupled > 10 * indep > 0.0


def test_independence_test_null_planted_degenerate():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    assert independence_test(x, y, seed=1).decision == "pass"
    planted = independence_test(x, x + 0.3 * y, seed=1)
    assert planted.decision == "fail" and planted.statistic <= 0.01
    assert independence_test(np.ones(500), y, seed=1).decision == "indeterminate"
    with pytest.raises(ValueError):
        independence_test(x[:50], y[:50])
    with pytest.raises(ValueError):
        independence_test(x, y[:400])


def test_cf_match_simple_function_null(monkeypatch):
    chars = preset("impulsive", rate=5.0)
    rep = cf_match_test(chars, IndicatorFunction(UNIT), 1.0,
                        [0.5, 1.0, 2.0], 2000, seed=3, eps=0.0)
    assert rep.decision == "pass"
    assert rep.statistic <= rep.threshold
    assert len(rep.notes) == 3


def test_cf_match_detects_inflated_sampler(monkeypatch):
    chars = preset("impulsive", rate=5.0)
    true_fn = lv.sample_marginals
    monkeypatch.setattr(lv, "sample_marginals",
                        lambda ch, cfg, region: 1.3 * true_fn(ch, cfg, region))
    rep = cf_match_test(chars, IndicatorFunction(UNIT), 1.0,
                        [0.5, 1.0, 2.0], 2000, seed=3, eps=0.0)
    assert rep.decision == "fail"
    with pytest.raises(ValueError):
        cf_match_test(chars, IndicatorFunction(UNIT), 1.0, [1.0], 500, seed=3)


def test_cf_match_path_route_for_smooth_integrand():
    chars = preset("impulsive", rate=4.0)
    f = ProductBump(center=(0.5,), radius=(0.4,))
    art = {}
    rep = cf_match_test(chars, f, 1.0, [0.5, 1.0], 1000, seed=11,
                        window=UNIT, eps=0.0, artifacts=art)
    assert rep.decision == "pass"
    assert art["per_u_pass"].all() and art["u"].shape == (2,)


def test_cf_match_path_route_with_white_noise():
    # drift, a Gaussian part and small stable jumps cut at eps: the path route
    # pairs the bump with the refined white-noise mesh on every replicate
    chars = Characteristics(1, gamma=DriftComponent(Density(0.2)),
                            sigma=DiffusionComponent(Density(1.0)),
                            nu=JumpComponent(StableKernel(1.5)))
    f = ProductBump(center=(0.0,), radius=(0.5,))
    art = {}
    rep = cf_match_test(chars, f, 1.0, [0.5, 1.0, 2.0], 1000, seed=11,
                        window=Region.from_intervals([(-1.0, 1.0)]), eps=0.01,
                        artifacts=art)
    assert rep.decision == "pass"
    assert art["per_u_pass"].all() and np.all(art["bias"] > 0.0)


def test_paired_evaluations_deterministic_and_additive():
    chars = preset("impulsive", rate=10.0)
    cfg = SamplerConfig(seed=5, window=UNIT, eps=0.0)
    a = Region.from_intervals([(0.0, 0.5)])
    b = Region.from_intervals([(0.5, 1.0)])
    va, vb = paired_evaluations(chars, cfg, a, b, 40)
    va2, vb2 = paired_evaluations(chars, cfg, a, b, 40)
    assert np.array_equal(va, va2) and np.array_equal(vb, vb2)
    real = sample_field(chars, cfg, replicate=7)
    assert va[7] + vb[7] == pytest.approx(real.evaluate(1.0, UNIT), abs=1e-12)


def test_onb_spec_validation():
    with pytest.raises(ValueError):
        OnbCounterexampleSpec(truncation=1)
    with pytest.raises(ValueError):
        OnbCounterexampleSpec(set_a=(0.0, 0.6), set_b=(0.5, 1.0))
    with pytest.raises(ValueError):
        OnbCounterexampleSpec(set_a=(0.2, 0.5), set_b=(0.2, 0.5))
    with pytest.raises(ValueError):
        OnbCounterexampleSpec(rate=0.0)


def test_trig_coefficients_match_inner_products():
    lo, hi = 0.2, 0.55
    coef = _trig_coefficients(lo, hi, 7)

    def basis(k):
        if k == 1:
            return lambda x: 1.0
        m, is_cos = k // 2, k % 2 == 0
        if is_cos:
            return lambda x: math.sqrt(2) * math.cos(2 * math.pi * m * x)
        return lambda x: math.sqrt(2) * math.sin(2 * math.pi * m * x)

    for k in range(1, 8):
        want, _ = spi.quad(basis(k), lo, hi)
        assert coef[k - 1] == pytest.approx(want, abs=1e-12)
    # orthonormality of the family itself
    for j in range(1, 5):
        for k in range(1, 5):
            ip, _ = spi.quad(lambda x: basis(j)(x) * basis(k)(x), 0.0, 1.0)
            assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)


def test_onb_shared_arm_fails_control_passes():
    shared = onb_counterexample(OnbCounterexampleSpec(rate=4.0), 4000, seed=0)
    assert shared.decision == "fail" and shared.name == "onb-counterexample"
    control = onb_counterexample(
        OnbCounterexampleSpec(rate=4.0, shared=False), 4000, seed=0)
    assert control.decision == "pass"


def test_abs_annulus_first_moment_branches():
    stable = StableKernel(1.3, 0.6, 0.4)
    c = np.array([0.5, 1.0, 2.0, 5.0])
    got = stable.abs_annulus_first_moment(c)
    assert got[0] == 0.0 and got[1] == 0.0
    for i in (2, 3):
        want, _ = spi.quad(lambda y: y * 1.3 * y ** -2.3, 1.0, c[i])
        assert got[i] == pytest.approx(want, rel=1e-10)
    disc = CompoundPoissonKernel(2.0, DiscreteJumps((0.5, 2.0, -3.0), (0.2, 0.5, 0.3)))
    got = disc.abs_annulus_first_moment(np.array([2.5, 3.0]))
    assert got[0] == pytest.approx(2.0 * 2.0 * 0.5, rel=1e-12)
    assert got[1] == pytest.approx(2.0 * (2.0 * 0.5 + 3.0 * 0.3), rel=1e-12)
    unif = CompoundPoissonKernel(3.0, UniformJumps(0.5, 3.0))
    got = unif.abs_annulus_first_moment(np.array([2.0]))
    want = 3.0 * (2.0 ** 2 - 1.0) / 2.0 / 2.5
    assert got[0] == pytest.approx(want, rel=1e-8)


def test_embedding_inequality_holds_on_stable_fixture():
    chars = preset("balan-stable", alpha=1.5, p=0.7, q=0.3)
    f = ProductBump(center=(0.3,), radius=(0.6,))
    rep = embedding_inequality_check(chars, f)
    assert rep.decision == "pass" and rep.statistic <= rep.threshold
    with pytest.raises(ValueError):
        embedding_inequality_check(chars, GaussianFunction(center=(0.0,), scale=1.0))


def test_stationary_increments_null_gaussian():
    chars = preset("gaussian-white-noise")
    rep = stationary_increment_test(chars, UNIT, [(0.4, 0.9)], 300, seed=2)
    assert rep.decision == "pass"
    assert rep.statistic > rep.threshold


def test_stationary_increments_catch_time_warp():
    chars = preset("gaussian-white-noise")

    class Warped:
        def __init__(self, real):
            self.real = real

        def evaluate(self, t, region, t0=0.0):
            return (1.0 + 2.0 * t) * self.real.evaluate(t, region, t0)

    def warped_sampler(ch, cfg, replicate=0):
        return Warped(sample_field(ch, cfg, replicate=replicate))

    rep = stationary_increment_test(chars, UNIT, [(0.4, 0.9)], 300, seed=2,
                                    path_sampler=warped_sampler)
    assert rep.decision == "fail"


def test_stationary_increments_indeterminate_when_a_subtest_is():
    # A drift-only field has constant increments: the dcov sub-test cannot
    # decide, and its NaN p-value must not let the report read "pass".
    chars = Characteristics(1, gamma=DriftComponent(Density(0.5)))
    rep = stationary_increment_test(chars, UNIT, [(0.4, 0.9)], 100, seed=0)
    assert rep.decision == "indeterminate"
    assert math.isnan(rep.statistic)
    assert "indep_p=nan" in rep.notes[0]


def test_stationary_increment_pair_validation():
    chars = preset("gaussian-white-noise")
    with pytest.raises(ValueError):
        stationary_increment_test(chars, UNIT, [], 100, seed=0)
    with pytest.raises(ValueError):
        stationary_increment_test(chars, UNIT, [(0.9, 0.4)], 100, seed=0)
