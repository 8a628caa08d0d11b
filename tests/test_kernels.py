"""Jump kernels: moments against quadrature, sampling against known laws."""

import math

import numpy as np
import pytest
import scipy.integrate as spi
import scipy.stats as sps

from levyfield import (CompoundPoissonKernel, DiscreteJumps, NormalJumps,
                       StableKernel, TabulatedKernel, TemperedStableKernel,
                       UniformJumps, kernel_from_config, stable_symbol_constant)


def stable_density(y, alpha, p, q, scale=1.0):
    out = np.where(y > 0, p, q) * alpha * np.abs(y) ** (-alpha - 1.0)
    return scale * out


# --------------------------------------------------------------------------
# symmetric-stable symbol constant
# --------------------------------------------------------------------------

def test_stable_symbol_constant_via_quadrature():
    # C_a = int (1 - cos y) a |y|^{-a-1} dy over R (symmetric, mass split 1/2+1/2);
    # split the oscillatory tail off and use the cos-weighted rule on it
    for a in (0.5, 0.8, 1.0, 1.3, 1.7):
        head, _ = spi.quad(lambda y: (1 - math.cos(y)) * a * y ** (-a - 1.0), 0, 1)
        tail = 1.0  # int_1^inf a y^{-a-1} dy
        osc, _ = spi.quad(lambda y: a * y ** (-a - 1.0), 1, np.inf,
                          weight="cos", wvar=1.0, limit=200)
        assert stable_symbol_constant(a) == pytest.approx(head + tail - osc, rel=1e-8)


def test_stable_symbol_constant_alpha_three_halves():
    assert stable_symbol_constant(1.5) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-14)


# --------------------------------------------------------------------------
# stable kernel
# --------------------------------------------------------------------------

def test_stable_tail_masses():
    k = StableKernel(1.2, 0.7, 0.3, scale=2.0)
    up, dn = k.tail_masses(0.5)
    assert up == pytest.approx(2.0 * 0.7 * 0.5 ** -1.2)
    assert dn == pytest.approx(2.0 * 0.3 * 0.5 ** -1.2)
    assert k.tail_mass(0.5) == pytest.approx(up + dn)


def test_stable_quad_mass_closed_form():
    for a in (0.4, 1.0, 1.5, 1.9):
        k = StableKernel(a, 0.5, 0.5)
        assert k.quad_mass() == pytest.approx(2.0 / (2.0 - a), rel=1e-12)


def test_stable_second_moment_below_vs_quad():
    k = StableKernel(1.5, 0.6, 0.4)
    want, _ = spi.quad(lambda y: y ** 2 * stable_density(y, 1.5, 0.6, 0.4), 0, 0.3)
    want2, _ = spi.quad(lambda y: y ** 2 * stable_density(y, 1.5, 0.6, 0.4), -0.3, 0)
    assert k.second_moment_below(0.3) == pytest.approx(want + want2, rel=1e-9)


def test_stable_annulus_first_moment_vs_quad():
    k = StableKernel(0.8, 0.7, 0.3)
    want = (spi.quad(lambda y: y * stable_density(y, 0.8, 0.7, 0.3), 0.1, 1.0)[0]
            + spi.quad(lambda y: y * stable_density(y, 0.8, 0.7, 0.3), -1.0, -0.1)[0])
    assert k.annulus_first_moment(0.1, 1.0) == pytest.approx(want, rel=1e-9)


def test_stable_compact_moment_vs_quad():
    k = StableKernel(1.3, 0.5, 0.5)
    for u in (0.3, 1.0, 4.0):
        want = 2 * spi.quad(
            lambda y: min(1.0, (u * y) ** 2) * stable_density(y, 1.3, 0.5, 0.5),
            0, np.inf, limit=400)[0]
        assert float(k.compact_moment(u)) == pytest.approx(want, rel=1e-8)


def test_stable_sample_tail_pareto_magnitudes():
    k = StableKernel(1.5, 0.5, 0.5)
    rng = np.random.default_rng(99)
    y = k.sample_tail(rng, 40000, 0.01)
    # conditioned on |y| > eps the magnitude is Pareto(alpha) at scale eps
    stat = sps.kstest(np.abs(y), lambda t: 1.0 - (0.01 / t) ** 1.5)
    assert stat.pvalue > 0.01
    # signs are fair coin flips
    npos = int((y > 0).sum())
    assert sps.binomtest(npos, len(y), 0.5).pvalue > 0.01


def test_stable_sample_tail_asymmetric_sign_split():
    k = StableKernel(0.9, 0.8, 0.2)
    rng = np.random.default_rng(3)
    y = k.sample_tail(rng, 30000, 0.05)
    npos = int((y > 0).sum())
    assert sps.binomtest(npos, len(y), 0.8).pvalue > 0.01


def test_stable_cf_integrand_zero_frequency():
    k = StableKernel(1.4, 0.6, 0.4)
    assert k.cf_integrand(0.0) == 0.0


def test_stable_scale_image_pushforward():
    k = StableKernel(1.1, 0.7, 0.3)
    km = k.scale_image(-2.0)
    # image of nu under y -> -2y: mass above c came from y < -c/2
    assert km.tail_masses(1.0)[0] == pytest.approx(k.tail_masses(0.5)[1])
    assert km.tail_masses(1.0)[1] == pytest.approx(k.tail_masses(0.5)[0])


# --------------------------------------------------------------------------
# jump-size distributions
# --------------------------------------------------------------------------

def test_discrete_jumps_moments():
    d = DiscreteJumps((2.0, -0.5, 0.3), (0.5, 0.3, 0.2))
    assert d.mean_annulus(0.0, np.inf) == pytest.approx(2 * .5 - .5 * .3 + .3 * .2)
    assert d.second_moment_below(1.0) == pytest.approx(.25 * .3 + .09 * .2)
    up, dn = d.prob_tails(0.4)
    assert up == pytest.approx(0.5)
    assert dn == pytest.approx(0.3)


def test_discrete_jumps_sampler_frequencies():
    d = DiscreteJumps((1.0, -1.0), (0.7, 0.3))
    rng = np.random.default_rng(12)
    x = d.sample(rng, 20000)
    assert set(np.unique(x)) <= {1.0, -1.0}
    assert sps.binomtest(int((x > 0).sum()), len(x), 0.7).pvalue > 0.01


def test_normal_jumps_mean_annulus_vs_quad():
    d = NormalJumps(0.3, 1.2)
    want = (spi.quad(lambda y: y * sps.norm.pdf(y, 0.3, 1.2), 0.5, 2.0)[0]
            + spi.quad(lambda y: y * sps.norm.pdf(y, 0.3, 1.2), -2.0, -0.5)[0])
    assert d.mean_annulus(0.5, 2.0) == pytest.approx(want, rel=1e-8)


def test_normal_second_moment_below_infinity_is_the_full_moment():
    d = NormalJumps(0.4, 0.9)
    assert d.second_moment_below(math.inf) == 0.4 ** 2 + 0.9 ** 2
    kern = CompoundPoissonKernel(1.7, d)
    with np.errstate(over="ignore"):  # 1/u overflows to inf by design here
        assert np.isfinite(kern.compact_moment(1e-310))
        assert np.all(np.isfinite(kern.compact_moment([1e-310, 1.0])))


def test_uniform_jumps_second_moment_vs_quad():
    d = UniformJumps(-1.0, 3.0)
    want = spi.quad(lambda y: y * y / 4.0, -1.0, 2.0)[0]
    assert d.second_moment_below(2.0) == pytest.approx(want, rel=1e-10)
    x = d.sample(np.random.default_rng(5), 1000)
    assert x.min() >= -1.0 and x.max() <= 3.0


def test_char_fn_matches_mc():
    d = NormalJumps(0.0, 1.0)
    # E e^{icY} for a standard normal is e^{-c^2/2}
    assert complex(d.char_fn(1.3)) == pytest.approx(math.exp(-1.3 ** 2 / 2), rel=1e-9)


# --------------------------------------------------------------------------
# compound Poisson kernel
# --------------------------------------------------------------------------

def test_compound_poisson_masses():
    k = CompoundPoissonKernel(4.0, DiscreteJumps((1.5, -0.2), (0.5, 0.5)))
    assert k.tail_mass(1.0) == pytest.approx(4.0 * 0.5)
    assert k.tail_mass(0.1) == pytest.approx(4.0)
    assert k.quad_mass() == pytest.approx(4.0 * (0.5 + 0.5 * 0.04))
    assert k.annulus_first_moment(0.0, np.inf) == pytest.approx(4.0 * (0.75 - 0.1))


def test_compound_poisson_symmetry_flag():
    sym = CompoundPoissonKernel(1.0, DiscreteJumps((1.0, -1.0), (0.5, 0.5)))
    asym = CompoundPoissonKernel(1.0, DiscreteJumps((1.0, -1.0), (0.6, 0.4)))
    assert sym.symmetric and not asym.symmetric


# --------------------------------------------------------------------------
# tempered stable kernel
# --------------------------------------------------------------------------

def test_tempered_stable_density_and_tail():
    k = TemperedStableKernel(0.7, cutoff=2.0, scale=1.3)
    y = np.array([0.4, -0.9])
    want = 1.3 * 0.7 * np.abs(y) ** -1.7 * np.exp(-2.0 * np.abs(y)) / 2.0
    np.testing.assert_allclose(k.density(y), want, rtol=1e-12)
    got = k.tail_mass(0.5)
    num = 2 * spi.quad(lambda t: 1.3 * 0.7 * t ** -1.7 * math.exp(-2 * t) / 2,
                       0.5, np.inf, limit=200)[0]
    assert got == pytest.approx(num, rel=1e-6)


def test_tempered_stable_finite_first_moment():
    k = TemperedStableKernel(1.5, cutoff=1.0)
    # exponential tempering makes int_{|y|>1} |y| nu finite
    assert np.isfinite(k.annulus_first_moment(1.0, np.inf))


# --------------------------------------------------------------------------
# tabulated kernel and config round-trips
# --------------------------------------------------------------------------

def test_tabulated_kernel_moments_vs_quad():
    # triangular density on [0.5, 2.5] peaking at 1.5
    grid = np.linspace(0.5, 2.5, 41)
    vals = np.maximum(0.0, 1.0 - np.abs(grid - 1.5))
    tab = TabulatedKernel(grid, vals)
    dens = lambda y: np.interp(y, grid, vals, left=0.0, right=0.0)
    assert tab.tail_mass(1.0) == pytest.approx(
        spi.quad(lambda y: dens(y), 1.0, 2.5)[0], rel=1e-6)
    assert tab.second_moment_below(1.2) == pytest.approx(
        spi.quad(lambda y: y * y * dens(y), 0.5, 1.2)[0], rel=1e-6)
    assert tab.annulus_first_moment(1.0, 2.0) == pytest.approx(
        spi.quad(lambda y: y * dens(y), 1.0, 2.0)[0], rel=1e-6)


def test_tabulated_kernel_sample_tail_distribution():
    grid = np.linspace(0.5, 2.5, 41)
    vals = np.maximum(0.0, 1.0 - np.abs(grid - 1.5))
    tab = TabulatedKernel(grid, vals)
    y = tab.sample_tail(np.random.default_rng(21), 20000, 0.0)
    dens = lambda t: np.interp(t, grid, vals, left=0.0, right=0.0)
    cdf = lambda t: np.array([spi.quad(dens, 0.5, ti)[0] for ti in np.atleast_1d(t)])
    stat = sps.kstest(y, lambda t: cdf(t))
    assert stat.pvalue > 0.01


@pytest.mark.parametrize("kern", [
    StableKernel(1.4, 0.6, 0.4, scale=0.7),
    CompoundPoissonKernel(3.0, DiscreteJumps((1.0, -2.0), (0.25, 0.75))),
    CompoundPoissonKernel(1.0, NormalJumps(0.1, 0.5)),
    CompoundPoissonKernel(2.0, UniformJumps(-1.0, 1.0)),
    TemperedStableKernel(0.9, cutoff=1.5, scale=2.0),
])
def test_kernel_config_round_trip(kern):
    back = kernel_from_config(kern.to_config())
    for c in (0.2, 1.0, 3.0):
        assert back.tail_mass(c) == pytest.approx(kern.tail_mass(c), rel=1e-12)
    assert back.quad_mass() == pytest.approx(kern.quad_mass(), rel=1e-9)
