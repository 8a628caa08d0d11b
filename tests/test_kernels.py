"""Jump kernels: moments against quadrature, sampling against known laws."""

import functools
import hashlib
import math
import threading
import warnings

import numpy as np
import pytest
import scipy.integrate as spi
import scipy.special
import scipy.stats as sps

from levyfield import (Characteristics, CompoundPoissonKernel, Density, DiscreteJumps,
                       IndicatorFunction, JumpComponent, NormalJumps, Region,
                       StableKernel, TabulatedKernel, TemperedStableKernel,
                       UniformJumps, kernel_from_config, stable_symbol_constant)
from levyfield import kernels
from levyfield.analysis import modular_integrand
from levyfield.characteristics import DriftComponent
from levyfield.kernels import upper_gamma
from levyfield.presets import preset


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
    assert stable_symbol_constant(1.5) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-15)


# --------------------------------------------------------------------------
# the scalar Gamma is math.gamma: the closed forms against scipy.special.gamma
# --------------------------------------------------------------------------

def _scipy_upper_gamma(s, x):
    """``upper_gamma`` with scipy's Gamma, and the sum of the absolute values of
    its recurrence's terms (the scale a rounding error in one term is seen at)."""
    if s > 0:
        v = scipy.special.gamma(s) * scipy.special.gammaincc(s, x)
        return v, v
    if s == 0:
        v = scipy.special.exp1(x)
        return v, v
    up, size = _scipy_upper_gamma(s + 1.0, x)
    return (up - x ** s * np.exp(-x)) / s, (size + x ** s * np.exp(-x)) / abs(s)


def test_stable_symbol_constant_matches_scipy_gamma():
    alphas = np.linspace(0.01, 1.99, 199)
    for a in alphas[alphas != 1.0]:
        want = scipy.special.gamma(2.0 - a) / (1.0 - a) * math.cos(math.pi * a / 2.0)
        assert stable_symbol_constant(a) == pytest.approx(want, rel=1e-14, abs=0.0), a


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("cutoff", [0.1, 1.0, 7.0])
def test_tempered_gamma_forms_match_scipy_gamma(alpha, cutoff):
    kern, scale = TemperedStableKernel(alpha, cutoff, scale=1.3), 1.3
    c = np.logspace(-3, 2, 26)
    a, th = alpha, cutoff
    want = (scale * a * th ** (a - 2.0) * scipy.special.gamma(2.0 - a)
            * scipy.special.gammainc(2.0 - a, th * c))
    assert kern.second_moment_below(c) == pytest.approx(want, rel=1e-14, abs=0.0)
    # the recurrence of upper_gamma, taken below th*c = 1 (the continued fraction beyond
    # is held to 50-digit mpmath below), measured against its terms
    up, size = _scipy_upper_gamma(-a, th * c)
    pos, neg = kern.tail_masses(c)
    assert np.array_equal(pos, neg)
    near = th * c < 1.0
    assert np.all(np.abs(pos - scale * 0.5 * a * th ** a * up)[near]
                  <= 1e-14 * scale * 0.5 * a * th ** a * size[near])


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


@pytest.mark.parametrize("p, sign", [(0.0, -1.0), (1.0, 1.0)])
def test_one_sided_stable_sample_tail_has_one_sign(p, sign):
    k = StableKernel(1.2, p, 1.0 - p)
    y = k.sample_tail(np.random.default_rng(5), 20000, 0.05)
    assert np.all(sign * y > 0.05)
    stat = sps.kstest(np.abs(y), lambda t: 1.0 - (0.05 / t) ** 1.2)
    assert stat.pvalue > 0.01


@pytest.mark.parametrize("p, sign", [(0.0, -1.0), (1.0, 1.0)])
def test_one_sided_stable_jump_at_u_equal_to_p_lands_where_the_mass_is(p, sign):
    # for p = 0, u = 0 is u = p: p - u is +0.0 there, and its sign once made
    # the jump +5.9e227 on the side without mass
    class Zeros:
        def random(self, out):
            out[:] = 0.0

    y = StableKernel(1.3, p, 1.0 - p).sample_tail(Zeros(), 5, 1e-3)
    assert np.all(sign * y >= 1e-3)


def _one_pass_sample_tail(k, rng, n, eps):
    """The stable inverse-CDF map over one ``rng.random(n)``; signs as u < p except at u == p."""
    u = rng.random(n)
    inv = -1.0 / k.alpha
    if k.symmetric:
        c, scale = u - 0.5, eps * 2.0 ** inv
        if k.alpha == 1.5:
            return np.copysign(scale / np.cbrt(np.maximum(c * c, 1e-300)), c)
        return np.copysign(np.maximum(np.abs(c), 1e-300) ** inv * scale, c)
    sgn = k.p - u
    v = np.where(sgn > 0.0, sgn / max(k.p, 1e-300), -sgn / max(k.q, 1e-300))
    return np.copysign(np.clip(v, 1e-300, 1.0) ** inv * eps, sgn)


_STABLE_MAPS = [StableKernel(1.5), StableKernel(0.8), StableKernel(1.2, 0.7, 0.3),
                StableKernel(1.3, 1.0, 0.0), StableKernel(1.3, 0.0, 1.0)]


@pytest.mark.parametrize("kern", _STABLE_MAPS)
def test_stable_blocked_transform_is_bit_identical_to_one_pass(kern):
    b = kernels._TRANSFORM_BLOCK
    for n in (0, 1, b - 1, b, b + 1, 3 * b + 7):
        got_rng, want_rng = np.random.default_rng(n + 11), np.random.default_rng(n + 11)
        got = kern.sample_tail(got_rng, n, 0.02)
        want = _one_pass_sample_tail(kern, want_rng, n, 0.02)
        assert got.shape == (n,) and got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("width", [1, 2, 3, 7])
@pytest.mark.parametrize("kern", _STABLE_MAPS)
def test_split_sample_tail_is_bit_identical_to_one_pass(kern, width, monkeypatch):
    # parts on helper threads draw from copies advanced to their offsets; the
    # jumps and the caller's generator (its buffered 32-bit half too) are one pass's
    monkeypatch.setattr(kernels, "_cpu_width", lambda: width)
    b, s = kernels._TRANSFORM_BLOCK, kernels._SPLIT_BLOCKS
    for n in (2 * s * b - 1, 2 * s * b, 2 * s * b + 1, 3 * s * b + 5, 7 * s * b + 12345):
        got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
        for r in (got_rng, want_rng):  # leaves a buffered 32-bit half
            r.integers(1 << 20, dtype=np.uint32)
        got = kern.sample_tail(got_rng, n, 0.02)
        want = _one_pass_sample_tail(kern, want_rng, n, 0.02)
        assert got.tobytes() == want.tobytes(), n
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("kern", [*_STABLE_MAPS, CompoundPoissonKernel(
    3.0, DiscreteJumps((2.0, -0.5, 0.3, -0.05), (0.4, 0.3, 0.2, 0.1)))])
def test_the_tail_map_of_uniforms_is_sample_tail(kern):
    b = kernels._TRANSFORM_BLOCK
    for n in (0, 1, b, 2 * b + 3):
        got_rng, want_rng = np.random.default_rng(n + 5), np.random.default_rng(n + 5)
        u = got_rng.random(n)
        kern.tail_map(0.1)(u)
        assert u.tobytes() == kern.sample_tail(want_rng, n, 0.1).tobytes()
        assert got_rng.random() == want_rng.random()


def test_rejection_samplers_have_no_tail_map():
    for kern in (TemperedStableKernel(1.2, 2.0),
                 TabulatedKernel([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]),
                 CompoundPoissonKernel(2.0, NormalJumps(0.0, 1.0)),
                 CompoundPoissonKernel(2.0, UniformJumps(-1.0, 2.0))):
        assert kern.tail_map(0.1) is None


def test_copy_rng_draws_what_the_generator_draws_after_k_draws():
    rng = np.random.default_rng(4)
    rng.integers(7, dtype=np.uint32)  # leaves a buffered 32-bit half
    ahead, same = kernels.copy_rng(rng, 1000), kernels.copy_rng(rng)
    assert same.bit_generator.state == rng.bit_generator.state
    drawn = rng.random(1500)
    assert ahead.random(500).tobytes() == drawn[1000:].tobytes()
    assert ahead.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("bits", [np.random.SFC64, np.random.Philox])
def test_sample_tail_on_a_generator_without_exact_advance_is_one_pass(bits, monkeypatch):
    # SFC64 cannot advance, and Philox advances by blocks of four draws
    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(kernels, "_cpu_width", lambda: 2)
    monkeypatch.setattr(kernels.threading, "Thread", no_thread)
    n = 2 * kernels._SPLIT_BLOCKS * kernels._TRANSFORM_BLOCK + 3
    kern = StableKernel(1.2, 0.7, 0.3)
    got_rng, want_rng = np.random.Generator(bits(9)), np.random.Generator(bits(9))
    got = kern.sample_tail(got_rng, n, 0.02)
    assert got.tobytes() == _one_pass_sample_tail(kern, want_rng, n, 0.02).tobytes()
    assert got_rng.random() == want_rng.random()


def test_a_failing_helper_thread_fails_sample_tail(monkeypatch):
    map_blocks = StableKernel._map_blocks

    def fail_off_the_caller(self, rng, out, eps):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper failed")
        map_blocks(self, rng, out, eps)

    monkeypatch.setattr(kernels, "_cpu_width", lambda: 3)
    monkeypatch.setattr(StableKernel, "_map_blocks", fail_off_the_caller)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper failed"):
        StableKernel(1.5).sample_tail(np.random.default_rng(0),
                                      3 * kernels._SPLIT_BLOCKS * kernels._TRANSFORM_BLOCK, 0.02)
    assert threading.active_count() == before


def test_stable_cf_integrand_zero_frequency():
    k = StableKernel(1.4, 0.6, 0.4)
    assert k.cf_integrand(0.0) == 0.0


def _stable_family_cf_exact(alpha, beta, cutoff, c, eps, scale=1.0):
    """``cf_integrand(c, eps)``, eps > 0, of the kernel ``scale alpha |y|^(-alpha-1)
    e^(-cutoff |y|)`` times (1 + beta)/2 on y > 0 and (1 - beta)/2 on y < 0, to 50 digits:
    with z = cutoff - ic the part beyond eps, per side ``P = alpha z^alpha Gamma(-alpha, z eps)``
    less the side's mass beyond eps, is ``scale (Re P + i beta Im P)``; below eps < 1 the
    compensator on (eps, 1] takes ``i c scale beta alpha/(1 - alpha) (1 - eps^(1 - alpha))``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, th, c, e = (mpmath.mpf(x) for x in (alpha, cutoff, c, eps))
        z = mpmath.mpc(th, -c)
        mass = a * th ** a * mpmath.gammainc(-a, th * e) if cutoff else e ** -a
        part = a * z ** a * mpmath.gammainc(-a, z * e) - mass
        val = mpmath.re(part) + 1j * beta * mpmath.im(part)
        if beta and eps < 1.0:
            val -= 1j * c * beta * a / (1 - a) * (1 - e ** (1 - a))
        return complex(scale * val)


@pytest.mark.parametrize("alpha, beta", [
    (a, b) for a in (0.7, 1.0, 1.5, 1.9) for b in (0.0, 0.6, 1.0)
    if a != 1.0 or b == 0.0])  # alpha = 1 is supported only symmetric
def test_stable_small_cf_part_matches_closed_form(alpha, beta):
    # the truncated stable CF integrand, which sets the truncation bias that
    # cf_match_test credits: the series inside 1/|c|, the continued fraction
    # beyond (at c = 1e6 that is 8e4 periods of (eps, 1]), no compensator at eps > 1
    kern = StableKernel(alpha, (1 + beta) / 2, (1 - beta) / 2)
    cs = np.array([1e-3, 0.3, 1.0, 2.0, 50.0, 1e6])
    cs = np.concatenate([cs, -cs])
    for eps in (1e-3, 1e-2, 0.5, 1.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kern.cf_integrand(cs, eps)
        assert kern.cf_integrand(cs[2], eps) == got[2]
        for c, g in zip(cs, got):
            want = _stable_family_cf_exact(alpha, beta, 0.0, c, eps)
            assert abs(g - want) <= 1e-13 * abs(want), (c, eps, g, want)


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.2, 1.5, 1.9])
@pytest.mark.parametrize("cutoff", [0.0, 0.1, 1.0, 7.0])
def test_cf_integrand_beyond_one_over_z_is_the_incomplete_gamma_form(alpha, cutoff):
    # where |cutoff - ic| eps > 1 the part beyond eps is computed directly, by
    # Legendre's continued fraction; cutoff 0 is the symmetric stable kernel
    kern = (TemperedStableKernel(alpha, cutoff, scale=1.3) if cutoff
            else StableKernel(alpha, scale=1.3))
    for eps in (1e-3, 1e-2, 0.1, 0.5):
        c = np.array([x for x in (3.0, 10.0, 50.0, 1e3, 1e5, 1e8)
                      if math.hypot(x, cutoff) * eps > 1.0])
        got = kern.cf_integrand(c, eps)
        for ci, g in zip(c, got):
            want = _stable_family_cf_exact(alpha, 0.0, cutoff, ci, eps, 1.3)
            assert g.imag == 0.0 and abs(g - want) <= 1e-13 * abs(want), (ci, eps, g, want)


# --------------------------------------------------------------------------
# jump-size distributions
# --------------------------------------------------------------------------

def test_discrete_jumps_moments():
    d = DiscreteJumps((2.0, -0.5, 0.3), (0.5, 0.3, 0.2))
    assert d.annulus_first_moment(0.0, np.inf) == pytest.approx(2 * .5 - .5 * .3 + .3 * .2)
    assert d.second_moment_below(1.0) == pytest.approx(.25 * .3 + .09 * .2)
    up, dn = d.tail_masses(0.4)
    assert up == pytest.approx(0.5)
    assert dn == pytest.approx(0.3)


def test_discrete_jumps_sampler_frequencies():
    d = DiscreteJumps((1.0, -1.0), (0.7, 0.3))
    rng = np.random.default_rng(12)
    x = d.sample(rng, 20000)
    assert set(np.unique(x)) <= {1.0, -1.0}
    assert sps.binomtest(int((x > 0).sum()), len(x), 0.7).pvalue > 0.01


@pytest.mark.parametrize("probs", [(0.3, 0.7), (0.2, 0.5, 0.3), (0.5, 1e-13, 0.5 - 1e-13),
                                   (0.05, 0.6, 1e-300, 0.15, 0.2),
                                   (1e-9, 0.25, 0.25, 0.25, 0.25 - 1e-9)])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_choice_indices_is_rng_choice(probs, n):
    # the same indices and the same generator state after: seeded draws do not move
    for seed in range(20):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = want_rng.choice(len(probs), size=n, p=probs)
        got = kernels.choice_indices(probs, got_rng.random(n))
        assert np.array_equal(got, want) and got.shape == (n,)
        assert got_rng.random() == want_rng.random()


def test_discrete_sample_tail_is_rng_choice_beyond_eps():
    d = DiscreteJumps((2.0, -0.5, 0.3, -0.05), (0.4, 0.3, 0.2, 0.1))
    v, p = np.asarray(d.values), np.asarray(d.probs)
    m = np.abs(v) > 0.1
    for seed in range(50):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = want_rng.choice(v[m], size=20, p=p[m] / p[m].sum())
        assert d.sample_tail(got_rng, 20, 0.1).tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()
    with pytest.raises(ValueError, match="no mass beyond 5"):
        d.sample_tail(np.random.default_rng(0), 3, 5.0)


def test_normal_jumps_mean_annulus_vs_quad():
    d = NormalJumps(0.3, 1.2)
    want = (spi.quad(lambda y: y * sps.norm.pdf(y, 0.3, 1.2), 0.5, 2.0)[0]
            + spi.quad(lambda y: y * sps.norm.pdf(y, 0.3, 1.2), -2.0, -0.5)[0])
    assert d.annulus_first_moment(0.5, 2.0) == pytest.approx(want, rel=1e-8)


def test_normal_second_moment_below_infinity_is_the_full_moment():
    d = NormalJumps(0.4, 0.9)
    assert d.second_moment_below(math.inf) == 0.4 ** 2 + 0.9 ** 2
    kern = CompoundPoissonKernel(1.7, d)
    assert np.isfinite(kern.compact_moment(1e-310))
    assert np.all(np.isfinite(kern.compact_moment([1e-310, 1.0])))


@pytest.mark.parametrize("kern", [CompoundPoissonKernel(1.7, NormalJumps(0.4, 0.9)),
                                  StableKernel(1.5, 0.8, 0.2),
                                  TemperedStableKernel(1.2, 2.0)])
def test_reciprocal_overflow_is_silent(kern):
    # 1/u overflows to inf below ~1e-308; the kernel methods take that inf as
    # the cutoff on purpose and must not warn on the way
    u = np.array([1e-310, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = [kern.compact_moment(u), kern.indicator_moment_diff(u),
                   kern.truncation_drift(u)]
    for m in moments:
        assert np.all(np.isfinite(m))
    assert moments[0][1] == kern.compact_moment(1.0)


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
    # an atom of probability 0 needs no mirror
    assert DiscreteJumps((1.0, -1.0, 2.0), (0.5, 0.5, 0.0)).symmetric


def test_a_merged_probability_is_its_mirror_s_within_rounding():
    # P(1) = 0.1 + 0.2 is 0.30000000000000004 and P(-1) = 0.3: symmetric within the
    # constructor's 1e-12, so the truncation drift vanishes
    law = DiscreteJumps((1, 1, -1, 2, -2), (0.1, 0.2, 0.3, 0.2, 0.2))
    assert law.symmetric
    assert CompoundPoissonKernel(1.0, law).truncation_drift(2.0) == 0.0


def test_repeated_atoms_are_read_as_their_merged_law():
    # P(1) = 0.5 + 0.25 however the atoms are written, so the law is not symmetric
    rep = CompoundPoissonKernel(2.0, DiscreteJumps((1.0, -1.0, 1.0), (0.5, 0.25, 0.25)))
    merged = CompoundPoissonKernel(2.0, DiscreteJumps((1.0, -1.0), (0.75, 0.25)))
    assert not rep.symmetric and not merged.symmetric
    c = np.array([-2.0, 0.3, 1.0, 4.0])
    for eps in (0.0, 0.5):
        assert rep.cf_integrand(c, eps) == pytest.approx(merged.cf_integrand(c, eps), rel=1e-14)
    v = np.array([0.5, 2.0])
    assert rep.truncation_drift(v) == pytest.approx([0.0, -2.0], abs=1e-15)
    assert merged.truncation_drift(v) == pytest.approx([0.0, -2.0], abs=1e-15)
    a0, mod, u = np.array([0.4, -0.2]), np.ones(2), np.array([1.5, 3.0])
    assert rep.drift_sup(a0, mod, u) == pytest.approx(merged.drift_sup(a0, mod, u), rel=1e-14)
    f = IndicatorFunction(Region.from_intervals([(0.0, 1.0)]))
    got, want = (Characteristics(1, nu=JumpComponent(k)).levy_symbol(f, 1.0).value
                 for k in (rep, merged))
    assert want.imag < -0.1 and got == pytest.approx(want, rel=1e-12)


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


TEMPERED_C = [1e-12, 1e-6, 1e-3, 0.1, 1.0, 5.0, 50.0, 1e4, 1e12]


def _tempered_cf_exact(alpha, cutoff, c, scale):
    """``scale alpha int_0^inf (cos cy - 1) y^(-alpha-1) e^(-cutoff y) dy`` to 50 digits:
    ``Gamma(-alpha) Re[(th - ic)^alpha - th^alpha]`` (its limit at alpha = 1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, th, c = mpmath.mpf(alpha), mpmath.mpf(cutoff), mpmath.mpf(c)
        if alpha == 1.0:
            return float(scale * (th / 2 * mpmath.log(1 + (c / th) ** 2)
                                  - abs(c) * mpmath.atan(abs(c) / th)))
        return float(scale * a * mpmath.gamma(-a) * mpmath.re(mpmath.mpc(th, -c) ** a - th ** a))


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.2, 1.5, 1.9])
@pytest.mark.parametrize("cutoff", [0.1, 1.0, 7.0])
def test_tempered_cf_integrand_is_the_closed_form(alpha, cutoff):
    kern = TemperedStableKernel(alpha, cutoff, scale=1.3)
    c = np.array(TEMPERED_C + [-x for x in TEMPERED_C])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kern.cf_integrand(c)
    assert np.all(got.imag == 0.0)
    for ci, g in zip(c, got.real):
        assert g == pytest.approx(_tempered_cf_exact(alpha, cutoff, ci, 1.3),
                                  rel=1e-13, abs=0.0), ci
    assert kern.cf_integrand(0.0) == 0.0 and kern.cf_integrand(0.0, 0.1) == 0.0


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.2, 1.5, 1.9])
@pytest.mark.parametrize("cutoff", [0.1, 1.0, 7.0])
def test_tempered_cf_integrand_beyond_eps_is_the_incomplete_gamma_form(alpha, cutoff):
    # inside 1/|cutoff - ic| the full value less the series on (0, eps]; beyond, the
    # continued fraction, or where its two terms cancel (cutoff 7, eps 0.5, c 1e-6)
    # the series of the part beyond eps
    kern = TemperedStableKernel(alpha, cutoff, scale=1.3)
    c = np.array([1e-6, 1e-3, 0.3, 1.0, 5.0, 50.0])
    for eps in (1e-3, 1e-2, 0.1, 0.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kern.cf_integrand(c, eps)
        assert kern.cf_integrand(c[3], eps) == kern.cf_integrand(-c[3], eps) == got[3]
        for ci, g in zip(c, got):
            want = _stable_family_cf_exact(alpha, 0.0, cutoff, ci, eps, 1.3).real
            assert g.imag == 0.0
            assert abs(g.real - want) <= 1e-13 * abs(want), (ci, eps, g, want)


# sha256 of StableKernel.cf_integrand over the grid below, taken when the
# truncated CF became the series inside 1/|c| and the continued fraction beyond
# (within 2.8e-15 of 50-digit mpmath over the grid)
STABLE_CF_SHA256 = "4e1699e9c3691f0aea93def98b12ae77da757ab9a304d7332a06c69f5300d815"


def test_stable_cf_integrand_is_pinned():
    h = hashlib.sha256()
    c = np.logspace(-4, 2.5, 27)
    c = np.concatenate([-c[::-1], [0.0], c])
    for alpha in (0.4, 0.8, 1.0, 1.2, 1.5, 1.9):
        for beta in (-1.0, 0.0, 0.6, 1.0):
            if alpha == 1.0 and beta != 0.0:
                continue
            k = StableKernel(alpha, (1 + beta) / 2, (1 - beta) / 2, scale=1.3)
            for eps in (0.0, 1e-3, 0.01, 0.1, 0.5):
                h.update(k.cf_integrand(c, eps).tobytes())
                h.update(np.array([k.cf_integrand(x, eps) for x in c[::9]]).tobytes())
    assert h.hexdigest() == STABLE_CF_SHA256


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
    # cuts inside a segment (the grid step is 0.05)
    for c in (1.05, 1.07):
        assert tab.tail_mass(c) == pytest.approx(
            spi.quad(lambda y: dens(y), c, 2.5)[0], rel=1e-6)
    assert tab.second_moment_below(0.77) == pytest.approx(
        spi.quad(lambda y: y * y * dens(y), 0.5, 0.77)[0], rel=1e-6)
    assert tab.annulus_first_moment(0.77, 1.93) == pytest.approx(
        spi.quad(lambda y: y * dens(y), 0.77, 1.93)[0], rel=1e-6)


TAB = TabulatedKernel([-2.0, -0.5, 0.0, 0.3, 1.4], [0.2, 1.0, 2.0, 0.5, 0.1])


def _tab_integral(g, lo, hi):
    """``int_lo^hi g(y) f(y) dy`` for TAB's density: 64-point Gauss-Legendre
    on each piece between its grid points and ±1, where ``g f`` is smooth."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    cuts = np.union1d([lo, hi], [p for p in (*TAB.grid, -1.0, 1.0) if lo < p < hi])
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        y = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        dens = np.interp(y, TAB.grid, TAB.values, left=0.0, right=0.0)
        total += 0.5 * (b - a) * np.sum(weights * np.vectorize(g)(y) * dens)
    return total


@pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.3, 0.77, 1.0, 1.9, 3.0])
def test_tabulated_kernel_closed_forms_are_exact(c):
    pos, neg = TAB.tail_masses(c)
    assert pos == pytest.approx(_tab_integral(lambda y: 1.0, c, 1.4), rel=1e-12, abs=1e-15)
    assert neg == pytest.approx(_tab_integral(lambda y: 1.0, -2.0, -c), rel=1e-12, abs=1e-15)
    assert TAB.second_moment_below(c) == pytest.approx(
        _tab_integral(lambda y: y * y, -c, c), rel=1e-12, abs=1e-15)
    assert TAB.annulus_first_moment(c, c + 0.9) == pytest.approx(
        _tab_integral(lambda y: y, c, c + 0.9) + _tab_integral(lambda y: y, -c - 0.9, -c),
        rel=1e-12, abs=1e-15)
    cut = 1.0 + c
    assert TAB.abs_annulus_first_moment(np.array([cut]))[0] == pytest.approx(
        _tab_integral(abs, 1.0, cut) + _tab_integral(abs, -cut, -1.0), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("eps", [0.0, 0.2, 0.6])
def test_tabulated_cf_integrand_is_exact(eps):
    for c in (1e-3, 0.4, 3.0, -25.0):
        def part(trig):
            def g(y):
                small = 1.0 if abs(y) <= 1.0 else 0.0
                return trig(c * y) - (1.0 if trig is math.cos else c * y * small)
            return (_tab_integral(g, -2.0, -eps) if eps < 2.0 else 0.0) \
                + _tab_integral(g, eps, 1.4)
        got = TAB.cf_integrand(c, eps)
        assert got.real == pytest.approx(part(math.cos), rel=1e-9, abs=1e-14)
        assert got.imag == pytest.approx(part(math.sin), rel=1e-9, abs=1e-14)
    got = TAB.cf_integrand(np.array([[0.4, 3.0]]), eps)
    assert got.shape == (1, 2) and got[0, 1] == TAB.cf_integrand(3.0, eps)


def test_tabulated_tail_sampler_segment_masses():
    # only mass beyond eps is drawn, split over segments as the density says
    y = TAB.sample_tail(np.random.default_rng(4), 4000, 0.25)
    assert np.all(np.abs(y) > 0.25)
    share = TAB.tail_masses(0.25)[1] / TAB.tail_mass(0.25)
    assert sps.binomtest(int((y < 0).sum()), y.size, share).pvalue > 0.01


def _piecewise_linear_cdf(grid, vals):
    """CDF of the normalised piecewise-linear density through (grid, vals):
    on segment i, ``F_i + v_i s + (v_{i+1} - v_i) s^2 / (2 h_i)`` at offset s."""
    h = np.diff(grid)
    seg = 0.5 * h * (vals[:-1] + vals[1:])
    total = seg.sum()
    start = np.concatenate([[0.0], np.cumsum(seg)])

    def cdf(t):
        t = np.clip(np.asarray(t, dtype=float), grid[0], grid[-1])
        i = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, h.size - 1)
        s = t - grid[i]
        return (start[i] + vals[i] * s + (vals[i + 1] - vals[i]) * s * s / (2.0 * h[i])) / total
    return cdf


def test_tabulated_kernel_sample_tail_distribution():
    grid = np.linspace(0.5, 2.5, 41)
    vals = np.maximum(0.0, 1.0 - np.abs(grid - 1.5))
    tab = TabulatedKernel(grid, vals)
    y = tab.sample_tail(np.random.default_rng(21), 20000, 0.0)
    cdf = _piecewise_linear_cdf(grid, vals)
    assert cdf(1.5) == pytest.approx(0.5, abs=1e-15)
    assert cdf(2.5) == pytest.approx(1.0, abs=1e-15) and cdf(0.5) == 0.0
    stat = sps.kstest(y, cdf)
    assert stat.pvalue > 0.01


# sha256 of the jumps and the next two uniforms, taken when segments were picked
# by rng.choice: the pick through choice_indices draws the same uniforms
TAB_SAMPLE_TAIL_SHA256 = {
    (0, 0.0, 7): "eb2044b1c9f89e9520fb5fb97a645447aecee3622063f3818134ab8c9fb080cd",
    (3, 0.05, 1000): "85ac39f0d442e369645c2dec1cce42c6bf28be976867089ed0bf077cc53ef4d9",
    (11, 0.5, 1000): "915d5f13e1f6dcca1d162bdc69fe583aa86690d6bd4738fe19914138d6930f98",
    (5, 0.05, 1): "b1001d87bdd4885e93901d456e15e402a1bc52dfe523223e0b7a2ff9e3599a6b",
    (8, 0.5, 0): "9029c06d01afb47f15194e95cffa395be9d61070830086a73b7f751c6d7a4a9c",
}


@pytest.mark.parametrize("seed, eps, n", sorted(TAB_SAMPLE_TAIL_SHA256))
def test_tabulated_sample_tail_is_pinned(seed, eps, n):
    rng = np.random.default_rng(seed)
    y = TAB.sample_tail(rng, n, eps)
    got = hashlib.sha256(y.tobytes() + rng.random(2).tobytes()).hexdigest()
    assert got == TAB_SAMPLE_TAIL_SHA256[seed, eps, n]


@pytest.mark.parametrize("kern", [
    StableKernel(1.4, 0.6, 0.4, scale=0.7),
    CompoundPoissonKernel(3.0, DiscreteJumps((1.0, -2.0), (0.25, 0.75))),
    CompoundPoissonKernel(1.0, NormalJumps(0.1, 0.5)),
    CompoundPoissonKernel(2.0, UniformJumps(-1.0, 1.0)),
    TemperedStableKernel(0.9, cutoff=1.5, scale=2.0),
    TabulatedKernel([-1.0, 0.0, 2.0], [0.5, 1.0, 0.0]),
])
def test_kernel_config_round_trip(kern):
    back = kernel_from_config(kern.to_config())
    for c in (0.2, 1.0, 3.0):
        assert back.tail_mass(c) == pytest.approx(kern.tail_mass(c), rel=1e-12)
    assert back.quad_mass() == pytest.approx(kern.quad_mass(), rel=1e-9)


# --------------------------------------------------------------------------
# array-valued tails and moments: an array of cuts gives the scalar results
# --------------------------------------------------------------------------

ARRAY_KERNELS = [
    StableKernel(1.2, 0.7, 0.3, scale=2.0), StableKernel(1.2, 1.0, 0.0),
    StableKernel(0.8, 0.7, 0.3),
    CompoundPoissonKernel(1.3, DiscreteJumps((2.0, -0.5, 0.3), (0.5, 0.3, 0.2))),
    CompoundPoissonKernel(1.1, DiscreteJumps(tuple(np.linspace(-3.1, 2.9, 10)),
                                             tuple(np.full(10, 0.1)))),
    CompoundPoissonKernel(1.7, NormalJumps(0.4, 0.9)),
    CompoundPoissonKernel(2.3, UniformJumps(0.4, 1.9)),
    CompoundPoissonKernel(1.0, UniformJumps(-1.0, 3.0)),
    TemperedStableKernel(0.7, cutoff=2.0, scale=1.3), TemperedStableKernel(1.5, 1.0),
    TAB,
]
# the laws of the compound-Poisson kernels, each a kernel of mass one
LAWS = [DiscreteJumps((2.0, -0.5, 0.3, 0.5), (0.4, 0.3, 0.2, 0.1)), NormalJumps(0.4, 0.9),
        UniformJumps(0.4, 1.9), UniformJumps(-1.0, 3.0)]
CUTS = [0.0, 1e-310, 1e-3, 0.1, 0.5, 0.77, 1.0, 1.05, 1.5, 1.9, 2.0, 3.7, 10.0, math.inf]


def _same_bits(arr, scalars):
    return np.asarray(arr, dtype=float).tobytes() == np.array(scalars, dtype=float).tobytes()


@pytest.mark.parametrize("kern", ARRAY_KERNELS + LAWS, ids=lambda k: type(k).__name__)
def test_array_cuts_give_the_scalar_results_bit_for_bit(kern):
    c = np.array(CUTS)
    for name in ("tail_mass", "second_moment_below"):
        scalars = [getattr(kern, name)(x) for x in CUTS]
        assert all(type(x) is float for x in scalars), name
        assert _same_bits(getattr(kern, name)(c), scalars), name
    pos, neg = kern.tail_masses(c)
    assert _same_bits(pos, [kern.tail_masses(x)[0] for x in CUTS])
    assert _same_bits(neg, [kern.tail_masses(x)[1] for x in CUTS])
    r1 = c[1:-1]
    for r2 in (2.0, math.inf):
        if r2 == math.inf and isinstance(kern, StableKernel) and kern.alpha <= 1.0:
            continue
        want = [kern.annulus_first_moment(x, r2) if x < r2 else None for x in r1]
        got = kern.annulus_first_moment(r1, r2)
        assert _same_bits(got[r1 < r2], [w for w in want if w is not None])
    assert all(type(kern.annulus_first_moment(x, 2.0)) is float for x in CUTS[:3])
    assert _same_bits(kern.annulus_first_moment(1.0, r1[r1 > 1.0]),
                      [kern.annulus_first_moment(1.0, x) for x in r1[r1 > 1.0]])
    assert _same_bits(kern.annulus_first_moment(c[:-2], c[1:-1]),
                      [kern.annulus_first_moment(a, b) for a, b in zip(CUTS[:-2], CUTS[1:-1])])
    far = c[c >= 1.0]
    assert _same_bits(kern.abs_annulus_first_moment(far),
                      [kern.abs_annulus_first_moment(far[i:i + 1])[0] for i in range(far.size)])
    if isinstance(kern, (NormalJumps, UniformJumps)):
        y = np.array([-1.5, -1.0, 0.0, 0.4, 1.0, 1.9, 2.5])
        assert _same_bits(kern.density(y), [kern.density(x) for x in y])


def _rate_and_law(kern):
    """A compound-Poisson kernel's rate and law; a law is its own, at rate 1."""
    return getattr(kern, "rate", 1.0), getattr(kern, "jumps", kern)


@pytest.mark.parametrize("kern", [k for k in ARRAY_KERNELS if isinstance(k, CompoundPoissonKernel)],
                         ids=lambda k: type(k.jumps).__name__)
def test_a_compound_poisson_kernel_is_its_rate_times_its_law(kern):
    rate, law = _rate_and_law(kern)
    c, u = np.array(CUTS), np.array(CUTS[:-1])
    for got, want in zip(kern.tail_masses(c), law.tail_masses(c)):
        assert got.tobytes() == (rate * want).tobytes()
    for name, arg in (("second_moment_below", c), ("compact_moment", u)):
        assert getattr(kern, name)(arg).tobytes() == (rate * getattr(law, name)(arg)).tobytes()
    assert (kern.annulus_first_moment(c[:-2], c[1:-1]).tobytes()
            == (rate * law.annulus_first_moment(c[:-2], c[1:-1])).tobytes())
    freq = np.array([0.0, 1e-6, -1e-3, 0.3, -1.0, 5.0, 50.0])
    for eps in (0.0, 1e-3, 0.5, 1.5):
        want = rate * law.cf_integrand(freq, eps)
        assert kern.cf_integrand(freq, eps).tobytes() == want.tobytes()


@pytest.mark.parametrize("kern", [k for k in ARRAY_KERNELS if not isinstance(
    _rate_and_law(k)[1], (StableKernel, TemperedStableKernel, DiscreteJumps))],
    ids=lambda k: type(k).__name__)
def test_generic_moments_match_the_per_cut_formulas(kern):
    # compact_moment, indicator_moment_diff and the truncation drift are
    # single masked expressions; each element equals its own scalar formula.
    # A normal or uniform law takes them at unit rate (its kernel is rate times
    # it, test_a_compound_poisson_kernel_is_its_rate_times_its_law).
    kern = _rate_and_law(kern)[1]
    u = np.array([0.0, 1e-310, 0.05, 0.3, 0.77, 1.0, 1.3, 4.0])
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / u
    want = [0.0 if x == 0.0 else x * x * kern.second_moment_below(r) + kern.tail_mass(r)
            for x, r in zip(u, inv)]
    assert _same_bits(kern.compact_moment(u), want)
    v, inv = np.concatenate([-u[1:], u]), np.concatenate([inv[1:], inv])
    diff = [0.0 if a in (0.0, 1.0) else
            kern.annulus_first_moment(1.0, r) if a < 1.0 else -kern.annulus_first_moment(r, 1.0)
            for a, r in zip(np.abs(v), inv)]
    assert _same_bits(kern.indicator_moment_diff(v), diff)
    assert _same_bits(kern.truncation_drift(v), [x * d for x, d in zip(v, diff)])


def _kinks(kern):
    """Where a density has a kink or ends: a tabulated kernel's grid, a uniform law's ends,
    and as ends the normal's 40 sigma and the tempered stable's 80 e-folds (beyond 10, the
    largest finite cut, under e^-60 of the mass lies beyond)."""
    law = _rate_and_law(kern)[1]
    if isinstance(law, UniformJumps):
        return [law.a, law.b]
    if isinstance(law, NormalJumps):
        return [law.mu - 40.0 * law.sigma, law.mu + 40.0 * law.sigma]
    if isinstance(kern, TemperedStableKernel):
        return [-80.0 / kern.cutoff, 80.0 / kern.cutoff]
    return list(getattr(kern, "grid", []))


def _kernel_integral(kern, g, lo, hi, sides=(1.0, -1.0), **tol):
    """``int_{lo < |y| <= hi} g(y) k(dy)`` over the given sides of 0: a sum over the atoms,
    else ``quad`` of the density per side, cut at its kinks and support's end (``_kinks``).
    A (tempered) stable density, singular at 0, is integrated over ``log |y|`` from 1e-100
    up (``_out_of_reach`` names the integrals that this leaves out).  ``tol`` goes to ``quad``."""
    rate, law = _rate_and_law(kern)
    if isinstance(law, DiscreteJumps):
        y, p = np.array(law.values), np.array(law.probs)
        keep = (np.abs(y) > lo) & (np.abs(y) <= hi) & np.isin(np.sign(y), sides)
        return rate * float(np.sum(g(y[keep]) * p[keep]))
    singular, kinks = isinstance(kern, (StableKernel, TemperedStableKernel)), _kinks(kern)

    def integrand(t, side):   # 0 beyond |y| = e^300, where no kernel here has mass 1e-50
        y = side * math.exp(min(t, 300.0))
        return 0.0 if t > 300.0 else g(y) * kern.density(y) * abs(y)

    total, lo = 0.0, max(lo, 1e-100) if singular else lo
    for side in sides:
        ends = [abs(k) for k in kinks if k * side > 0.0]
        top = min(hi, max(ends, default=0.0)) if kinks else hi   # a bounded support's end
        if lo < top and singular:
            total += _quad(integrand, math.log(lo), math.log(top), args=(side,), **tol)
        elif lo < top:
            total += _quad(lambda y: g(side * y) * kern.density(side * y), lo, top,
                           points=[k for k in ends if lo < k < top] or None, **tol)
    return total


def _rajput_rosinski_drift(kern, gamma, mod, vs):
    """``U_RR(v) = v a_tau + m int (tau(v y) - v tau(y)) k(dy)`` at each v > 0, from
    the definition: clipped truncation ``tau(y) = y ^ sgn(y)``, with the drift
    ``a_tau = gamma + m int_{|y|>1} sgn(y) k`` that pairs with it."""
    a_tau = gamma + mod * _kernel_integral(kern, np.sign, 1.0, np.inf)
    out = []
    for v in vs:
        lo, hi = sorted((1.0, 1.0 / v))   # tau(v y) = v tau(y) for |y| <= lo

        def gap(y, v=v):
            return np.clip(v * y, -1.0, 1.0) - v * np.clip(y, -1.0, 1.0)

        out.append(v * a_tau + mod * (_kernel_integral(kern, gap, lo, hi)
                                      + _kernel_integral(kern, gap, hi, np.inf)))
    return np.array(out)


RR_TRIPLES = [preset("mytnik-positive", alpha=1.5), preset("mytnik-positive", alpha=1.2),
              preset("balan-stable", alpha=1.5, p=0.8, q=0.2),
              preset("balan-stable", alpha=0.8, p=0.9, q=0.1),
              preset("balan-stable", alpha=0.4, p=0.0, q=1.0),
              preset("impulsive", rate=3.0, jumps=DiscreteJumps((2.0, -0.5), (0.6, 0.4)))] + [
    Characteristics(1, gamma=DriftComponent(Density(1.0)), nu=JumpComponent(k))
    for k in ARRAY_KERNELS if not k.symmetric]


@pytest.mark.parametrize("chars", RR_TRIPLES, ids=lambda c: type(c.nu.kernel).__name__)
def test_modular_is_equivalent_to_rajput_rosinski_s(chars):
    # |U_RR(v) - U(v)| = m |int_{|v y| > 1} sgn(y) k| <= m k(|y| > 1/v), at most the
    # modular's own compact term, so Phi / Phi_RR lies in [1/2, 2] at every u
    x = np.array([[0.3]])
    kern = chars.nu.kernel
    gamma, mod = float(chars.drift_density(x)[0]), float(chars.jump_modulation(x)[0])
    us = np.logspace(-6.0, 3.0, 10)
    v = np.union1d(np.geomspace(1e-7, 1e3, 41), us)   # sup over [0, u] on this grid
    drift = np.abs(_rajput_rosinski_drift(kern, gamma, mod, v))
    for u in us:
        phi = modular_integrand(chars, lambda p, u=u: np.full(len(p), u))(x)[0]
        phi_rr = drift[v <= u].max() + mod * kern.compact_moment(u)
        assert 0.5 <= phi / phi_rr <= 2.0, u


# --------------------------------------------------------------------------
# the CF contract: every kernel's cf_integrand against its own density
# --------------------------------------------------------------------------

def _cos1(x):
    """``cos x - 1`` without cancellation."""
    return -2.0 * np.sin(0.5 * x) ** 2


def _sin1(x):
    """``sin x - x`` without cancellation: four Taylor terms below 0.1."""
    x2 = x * x
    head = -x * x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (1.0 - x2 / 72.0)))
    return np.where(np.abs(x) < 0.1, head, np.sin(x) - x)


def _quad(f, a, b, **kw):
    """``quad`` without its warnings (the comparison judges the value)."""
    return spi.quad(f, a, b, limit=400, full_output=1, **kw)[0] if a < b else 0.0


def _cf_reference(kern, c, eps):
    """``int_{|y| > eps} (e^{icy} - 1 - icy 1{|y| <= 1}) k(dy)`` from the kernel's atoms
    or density.  Per side, up to ``far = max(1, 1/|c|)`` the cancelling forms of
    ``cos - 1`` and ``sin - id`` are integrated (over ``log y`` where the density is
    singular at 0); beyond, the density with the cosine and sine weights, less its mass."""
    rate, law = _rate_and_law(kern)
    if isinstance(law, DiscreteJumps):
        y, p = np.array(law.values), np.array(law.probs)
        y, p = y[np.abs(y) > eps], p[np.abs(y) > eps]
        im = np.where(np.abs(y) <= 1.0, _sin1(c * y), np.sin(c * y))
        return rate * complex(np.sum(_cos1(c * y) * p), np.sum(im * p))
    singular = isinstance(kern, (StableKernel, TemperedStableKernel))
    dens, kinks = kern.density, _kinks(kern)
    re = im = 0.0
    for side in (1.0, -1.0):
        ends = [abs(k) for k in kinks if k * side > 0.0]
        top = max(ends, default=0.0) if kinks else math.inf   # a bounded support's end
        cuts = ends + [1.0]   # where the density or the integrand has a kink
        # below 1e-100 a stable integrand is under c^2 1e-50 (alpha <= 1.5 here)
        lo, far = max(eps, 1e-100), min(max(1.0, 1.0 / abs(c)), top)

        def near(g, a, b):
            """``int_a^b g(t) d(t) dt`` for the density d of this side."""
            if singular:
                return _quad(lambda s: g(math.exp(s)) * dens(side * math.exp(s)) * math.exp(s),
                             math.log(a), math.log(b), epsabs=0.0, epsrel=1e-12,
                             points=[math.log(k) for k in cuts if a < k < b] or None)
            return _quad(lambda t: g(t) * dens(side * t), a, b, epsabs=0.0, epsrel=1e-12,
                         points=[k for k in cuts if a < k < b] or None)

        re += near(lambda t: _cos1(c * t), lo, far)
        im += side * (near(lambda t: _sin1(c * t), lo, min(1.0, far))
                      + near(lambda t: math.sin(c * t), max(lo, 1.0), far))
        start = max(lo, far)
        mass = near(lambda t: 1.0, start, min(top, 1e300))
        if mass > 0.0:
            d = lambda t: dens(side * t)  # noqa: E731
            kw = dict(epsabs=1e-13 * mass) if top == math.inf else dict(epsabs=0.0, epsrel=1e-12)
            re += _quad(d, start, top, weight="cos", wvar=abs(c), **kw) - mass
            im += side * np.sign(c) * _quad(d, start, top, weight="sin", wvar=abs(c), **kw)
    return complex(re, im)


@pytest.mark.parametrize("kern", ARRAY_KERNELS + LAWS, ids=lambda k: type(k).__name__)
def test_cf_integrand_is_the_integral_of_the_density(kern):
    # finite activity computes rate (phi - mass): its rounding is an ulp of the mass
    finite = not isinstance(kern, (StableKernel, TemperedStableKernel))
    c = np.array([s * x for x in (1e-6, 1e-3, 0.3, 1.0, 5.0, 50.0) for s in (1.0, -1.0)])
    for eps in (0.0, 1e-3, 0.1, 0.5, 1.5):
        floor = 1e-14 * _kernel_integral(kern, np.ones_like, max(eps, 1e-300), np.inf) if finite else 0.0
        got = kern.cf_integrand(c, eps)
        for ci, g in zip(c, got):
            want = _cf_reference(kern, ci, eps)
            assert abs(g - want) <= 1e-9 * abs(want) + floor, (ci, eps, g, want)


def _out_of_reach(kern, power, lo, hi):
    """Whether ``_kernel_integral`` cannot give ``int_{lo < |y| <= hi} |y|^power k(dy)``: for a
    (tempered) stable density, like ``|y|^(-alpha-1)``, the integral is infinite or held
    below 1e-100 where ``power < alpha`` and ``lo < 1e-100``, and infinite (untempered)
    where ``power >= alpha`` and ``hi`` is infinite; below 1e-100 it is not reached at all."""
    if not isinstance(kern, (StableKernel, TemperedStableKernel)):
        return False
    a = kern.alpha
    return (hi < 1e-100 or (power < a and lo < 1e-100)
            or (isinstance(kern, StableKernel) and power >= a and hi == math.inf))


def _moment_cases(kern):
    """(method and argument, value, reference, lower cut) of the moment contract: every method
    at every argument built from ``CUTS`` that ``_kernel_integral`` reaches."""
    ref = functools.partial(_kernel_integral, kern, epsabs=0.0, epsrel=1e-12)
    one, square, first = np.ones_like, np.square, (lambda y: y)
    for c in CUTS:
        for i, side in enumerate((1.0, -1.0)):
            if not _out_of_reach(kern, 0, c, math.inf):
                yield (("tail_masses", i, c), kern.tail_masses(c)[i],
                       ref(one, c, math.inf, (side,)), c)
        if not _out_of_reach(kern, 2, 0.0, c):
            yield ("second_moment_below", c), kern.second_moment_below(c), ref(square, 0.0, c), 0.0
        if c >= 1.0 and not _out_of_reach(kern, 1, 1.0, c):
            yield (("abs_annulus_first_moment", c), kern.abs_annulus_first_moment(np.array([c]))[0],
                   ref(np.abs, 1.0, c), 1.0)
        for r2 in (1.0, 2.0, math.inf):
            if c < r2 and not _out_of_reach(kern, 1, c, r2):
                yield (("annulus_first_moment", c, r2), kern.annulus_first_moment(c, r2),
                       ref(first, c, r2), c)
    for u in CUTS[:-1]:
        r = 1.0 / u if u else math.inf
        if not (_out_of_reach(kern, 2, 0.0, r) or _out_of_reach(kern, 0, r, math.inf)):
            yield (("compact_moment", u), kern.compact_moment(u),
                   u * u * ref(square, 0.0, r) + ref(one, r, math.inf), 0.0)
    for v in (*CUTS[:-1], *(-x for x in CUTS[1:-1])):
        a = abs(v)
        lo, hi = sorted((1.0, 1.0 / a if a else math.inf))
        if not _out_of_reach(kern, 1, lo, hi):
            diff = 0.0 if a in (0.0, 1.0) else (1.0 if a < 1.0 else -1.0) * ref(first, lo, hi)
            yield ("indicator_moment_diff", v), kern.indicator_moment_diff(v), diff, lo
            yield ("truncation_drift", v), kern.truncation_drift(v), v * diff, lo


@pytest.mark.parametrize("kern", ARRAY_KERNELS + LAWS, ids=lambda k: type(k).__name__)
def test_moments_are_the_integrals_of_the_density(kern):
    # finite activity computes differences of whole-line quantities: an ulp of the mass
    finite = not isinstance(kern, (StableKernel, TemperedStableKernel))
    mass = functools.partial(_kernel_integral, kern, np.ones_like, hi=math.inf, epsabs=0.0,
                             epsrel=1e-12)
    for case, got, want, lo in _moment_cases(kern):
        floor = 1e-14 * mass(lo) if finite else 0.0
        assert abs(got - want) <= 1e-9 * abs(want) + floor, (case, got, want)


ROW_C = np.geomspace(1e-4, 1e4, 300)
ROW_C = np.concatenate([-ROW_C[::-1], ROW_C])


# the normal law is left out: its quad_vec adapts over the whole vector of frequencies
@pytest.mark.parametrize("kern", [k for k in ARRAY_KERNELS if not (
    isinstance(k, CompoundPoissonKernel) and isinstance(k.jumps, NormalJumps))],
    ids=lambda k: type(k).__name__)
def test_cf_integrand_of_a_frequency_does_not_depend_on_the_others(kern):
    # one-element arrays, not 0-d calls: numpy's 0-d power is not its array loop
    for eps in (0.0, 1e-3, 0.1, 0.5, 1.5):
        got = kern.cf_integrand(ROW_C, eps)
        alone = [kern.cf_integrand(ROW_C[i:i + 1], eps)[0] for i in range(ROW_C.size)]
        assert got.tobytes() == np.array(alone).tobytes(), eps


@pytest.mark.parametrize("kern", ARRAY_KERNELS, ids=lambda k: type(k).__name__)
def test_compact_moment_of_a_u_does_not_depend_on_the_others(kern):
    # the discrete law sums its atoms along each row: a matrix product did not
    got = kern.compact_moment(ROW_C)
    alone = [kern.compact_moment(ROW_C[i:i + 1])[0] for i in range(ROW_C.size)]
    assert got.tobytes() == np.array(alone).tobytes()


def test_a_lone_normal_frequency_is_its_value_inside_an_array():
    # alone, quad_vec's roundoff flag went up with an error estimate of 2.9e-14,
    # below the 1e-13 asked; the estimate is what is judged
    kern = CompoundPoissonKernel(1.7, NormalJumps(0.4, 0.9))
    c = 37.16529310953332
    alone = kern.cf_integrand(np.array([c]), 0.5)[0]
    inside = kern.cf_integrand(np.array([1e-3, 0.3, 1.0, 5.0, c, 50.0]), 0.5)[4]
    assert abs(alone - inside) <= 1e-11


def test_uniform_pdf_is_array_valued():
    law = UniformJumps(-1.0, 3.0)
    np.testing.assert_array_equal(law.density(np.array([[-2.0, -1.0], [3.0, 3.5]])),
                                  [[0.0, 0.25], [0.25, 0.0]])
    assert law.density(0.5) == 0.25 and type(law.density(0.5)) is float


def _uniform_tail_cf_exact(a, b, c, eps):
    """``(1/(b-a)) int e^{icy} dy`` over ``[a, b]`` less ``[-eps, eps]``, 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b, c, eps = (mpmath.mpf(x) for x in (a, b, c, eps))
        total = mpmath.mpf(0)
        for lo, hi in ((max(a, eps), b), (a, min(b, -eps))):
            if lo < hi:
                total += mpmath.quad(lambda y: mpmath.exp(1j * c * y), [lo, hi])
        return complex(total / (b - a))


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-1.0, 3.0), (0.4, 1.9), (-2.5, -0.2)])
def test_uniform_char_fn_tail_closed_form(a, b):
    law = UniformJumps(a, b)
    cs = np.array([0.0, 1e-6, 0.3, -2.0, 7.0, 150.0])
    for eps in (0.0, 0.01, 0.5, 5.0):
        got = law.char_fn_tail(cs, eps)
        for c, g in zip(cs, got):
            want = _uniform_tail_cf_exact(a, b, c, eps)
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want)), (c, eps)
        assert law.char_fn_tail(float(cs[3]), eps) == got[3]


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-1.0, 3.0), (0.4, 1.9), (-2.5, -0.2)])
def test_uniform_char_fn_has_no_small_frequency_cancellation(a, b):
    # (e^{icb} - e^{ica})/(icL) lost 1.3e-5 relative at c = 1e-6 on U(-2.5, -0.2)
    law = UniformJumps(a, b)
    for c in (1e-8, 1e-6, 1e-3, 1.0, 50.0):
        want = law.char_fn_tail(c, 0.0)
        assert abs(law.char_fn(c) - want) <= 1e-14 * abs(want), c
    assert law.char_fn(0.0) == 1
    cs = np.array([0.0, 1e-6, 50.0])
    np.testing.assert_array_equal(law.char_fn(cs), [law.char_fn(c) for c in cs])


@pytest.mark.parametrize("kernel, method, cut", [
    (StableKernel(1.2, 0.7, 0.3), "tail_mass", 1e-310),
    (StableKernel(0.8, 0.7, 0.3), "second_moment_below", 1e300)])
def test_stable_overflowing_cut_is_inf_for_every_cut_type(kernel, method, cut):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert getattr(kernel, method)(cut) == math.inf
        assert getattr(kernel, method)(np.float64(cut)) == math.inf
        np.testing.assert_array_equal(getattr(kernel, method)(np.array([cut])), [math.inf])


def test_one_sided_stable_tail_stays_empty_at_an_overflowing_cut():
    k = StableKernel(1.2, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cut in (1e-310, np.float64(1e-310), np.array([1e-310])):
            pos, neg = k.tail_masses(cut)
            assert np.all(pos == math.inf) and np.all(neg == 0.0)


def test_normal_char_fn_tail_vs_quad():
    law = NormalJumps(0.3, 1.2)
    cs = np.array([0.0, 0.3, -2.0, 7.0])
    for eps in (0.01, 0.5):
        got = law.char_fn_tail(cs, eps)
        for c, g in zip(cs, got):
            def part(trig):
                f = lambda y: trig(c * y) * sps.norm.pdf(y, 0.3, 1.2)
                return (spi.quad(f, eps, np.inf, epsabs=1e-14, epsrel=1e-12)[0]
                        + spi.quad(f, -np.inf, -eps, epsabs=1e-14, epsrel=1e-12)[0])
            assert abs(g - (part(np.cos) + 1j * part(np.sin))) <= 1e-10, (c, eps)


@pytest.mark.parametrize("s", [-0.3, -0.7, -1.0, -1.2, -1.5, -1.9])
def test_upper_gamma_of_a_negative_order_is_gammainc(s):
    # beyond x = 1 by Legendre's continued fraction, where the recurrence's two terms
    # cancelled (4.95e-12 off at s = -1.2, x = 30); below it the recurrence
    mpmath = pytest.importorskip("mpmath")
    for xs, tol in (([1.0, 1.01, 1.5, 2.0, 3.0, 5.0, 10.5, 30.0, 100.0, 300.0], 1e-14),
                    ([1e-3, 0.1, 0.5, 0.9, 0.999], 1e-13)):
        got = upper_gamma(s, np.array(xs))
        for x, g in zip(xs, got):
            with mpmath.workdps(50):
                want = float(mpmath.gammainc(s, x))
            assert abs(g - want) <= tol * want, (x, g, want)
            assert float(upper_gamma(s, x)) == g
    assert upper_gamma(s, np.array([math.inf]))[0] == 0.0


def test_tempered_stable_alpha_one_and_abs_annulus():
    # Gamma(0, x) is the exponential integral; the recurrence alone divides by 0
    assert upper_gamma(0.0, 0.7) == pytest.approx(
        spi.quad(lambda t: math.exp(-t) / t, 0.7, np.inf, epsabs=0, epsrel=1e-13)[0], rel=1e-12)
    k = TemperedStableKernel(1.0, cutoff=2.0, scale=1.3)
    dens = lambda t: 1.3 * 0.5 * t ** -2.0 * math.exp(-2.0 * t)
    assert k.tail_mass(0.5) == pytest.approx(
        2 * spi.quad(dens, 0.5, np.inf, epsabs=0, epsrel=1e-12)[0], rel=1e-10)
    for kern in (k, TemperedStableKernel(0.7, cutoff=2.0, scale=1.3),
                 TemperedStableKernel(1.5, 1.0)):
        c = np.array([1.0, 1.05, 2.0, 10.0, np.inf])
        got = kern.abs_annulus_first_moment(c)
        for ci, g in zip(c, got):
            want = 2 * spi.quad(lambda t: t * kern.density(np.array([t]))[0], 1.0, ci,
                                epsabs=0, epsrel=1e-12, limit=200)[0]
            assert g == pytest.approx(want, rel=1e-10, abs=1e-15)


def test_compound_poisson_abs_annulus_closed_forms():
    # uniform: rate/L (int over [a,b] n (1,c] of y - int over [a,b] n [-c,-1) of y)
    k = CompoundPoissonKernel(3.0, UniformJumps(-2.0, 3.0))
    c = np.array([1.0, 1.5, 2.5, 3.0, 4.0])
    want = [3.0 / 5.0 * (0.5 * (min(ci, 3.0) ** 2 - 1.0) + 0.5 * (min(ci, 2.0) ** 2 - 1.0))
            for ci in c]
    np.testing.assert_allclose(k.abs_annulus_first_moment(c), want, rtol=1e-15)
    n = CompoundPoissonKernel(1.7, NormalJumps(0.4, 0.9))
    got = n.abs_annulus_first_moment(np.array([1.5, np.inf]))
    for ci, g in zip((1.5, np.inf), got):
        want = sum(spi.quad(lambda y: abs(y) * sps.norm.pdf(y, 0.4, 0.9), lo, hi,
                            epsabs=0, epsrel=1e-13)[0]
                   for lo, hi in ((1.0, ci), (-ci, -1.0)))
        assert g == pytest.approx(1.7 * want, rel=1e-12)


def test_rejection_blocks_are_capped_and_the_rounds_bounded(monkeypatch):
    asked = []
    real_sample = NormalJumps.sample

    def recording(self, rng, n):
        asked.append(n)
        return real_sample(self, rng, n)

    monkeypatch.setattr(NormalJumps, "sample", recording)
    law = NormalJumps(0.0, 1.0)
    # below the cap the blocks are the old 1.3 n / P(|Y| > eps), draws unchanged
    y = law.sample_tail(np.random.default_rng(3), 200, 1.0)
    acc = law.tail_mass(1.0)
    assert asked[0] == int(1.3 * 200 / acc) and y.size == 200 and np.all(np.abs(y) > 1.0)
    # one jump beyond 5 sigma used to ask for 2.3e6 draws in one block (6.6e8 at 6)
    asked.clear()
    y = law.sample_tail(np.random.default_rng(3), 1, 5.0)
    assert abs(y[0]) > 5.0 and max(asked) == kernels._REJECTION_CAP
    # negligible tail mass: a stub that never lands beyond eps runs out of rounds
    asked.clear()
    monkeypatch.setattr(NormalJumps, "sample",
                        lambda self, rng, n: asked.append(n) or np.zeros(1))
    with pytest.raises(RuntimeError, match=r"eps=20\.0"):
        law.sample_tail(np.random.default_rng(3), 1, 20.0)
    assert len(asked) == 10_000 and max(asked) == kernels._REJECTION_CAP


def test_tabulated_rejection_caps_each_clipped_piece():
    # the piece beyond eps = 1.999 of f(y) = 2 - y: CDF 1 - ((2 - y)/(2 - eps))^2
    tab, eps = TabulatedKernel([0.0, 1.0, 2.0], [1.0, 1.0, 0.0]), 1.999
    y = tab.sample_tail(np.random.default_rng(8), 2000, eps)
    assert np.all((y > eps) & (y <= 2.0))
    width = 2.0 - eps
    assert sps.kstest(y, lambda v: 1.0 - ((2.0 - v) / width) ** 2).pvalue > 0.01


def test_tabulated_rejection_rounds_are_bounded():
    class NeverAccepts:
        def __init__(self):
            self.rng, self.rounds = np.random.default_rng(0), 0

        def uniform(self, lo, hi):
            self.rounds += 1
            return self.rng.uniform(lo, hi)

        def random(self, size):
            if not self.rounds:  # the segment pick
                return self.rng.random(size)
            return np.full(size, 2.0)  # twice the cap: no draw passes

    stub = NeverAccepts()
    with pytest.raises(RuntimeError, match=r"TabulatedKernel.*eps=0\.5"):
        TabulatedKernel([0.0, 1.0, 2.0], [1.0, 1.0, 0.0]).sample_tail(stub, 3, 0.5)
    assert stub.rounds == 10_000


def test_stable_indicator_moment_diff_closed_form():
    # s beta alpha/(1 - alpha) (|v|^(alpha - 1) - 1), the same on both annuli;
    # the annulus route forms 1/|v|, which is inf at a subnormal v
    kern = StableKernel(0.7, 0.3, 0.7, scale=1.4)
    got = kern.indicator_moment_diff(np.array([1e-300, 1e-320]))
    coef = 1.4 * (0.3 - 0.7) * 0.7 / 0.3
    assert got == pytest.approx(coef * (np.array([1e-300, 1e-320]) ** -0.3 - 1.0), rel=1e-13)
    assert kern.indicator_moment_diff(0.0) == 0.0
    symmetric = StableKernel(0.7).indicator_moment_diff(np.array([1e-320, 0.5, 3.0]))
    assert symmetric.tolist() == [0.0] * 3
    for kern in (StableKernel(0.7, 0.3, 0.7, scale=1.4), StableKernel(1.5, 0.9, 0.1),
                 StableKernel(0.4, 1.0, 0.0), StableKernel(1.9, 0.2, 0.8, scale=0.6)):
        for v in (-7.5, -1.0, -0.3, 1e-6, 0.2, 0.77, 1.0, 1.3, 40.0):
            a = abs(v)
            want = (0.0 if a == 1.0 else kern.annulus_first_moment(1.0, 1.0 / a) if a < 1.0
                    else -kern.annulus_first_moment(1.0 / a, 1.0))
            assert kern.indicator_moment_diff(v) == pytest.approx(want, rel=1e-13, abs=1e-300)
        v = np.array([-2.0, 0.0, 0.4])
        assert np.array_equal(kern.indicator_moment_diff(v),
                              [kern.indicator_moment_diff(x) for x in v])


def test_tempered_compact_moment_is_the_generic_one():
    # the tempered kernel's former closed form, written out: its own
    # second_moment_below and tail_mass inlined
    def former(kern, u):
        u = np.abs(np.asarray(u, dtype=float))
        safe = np.where(u > 0, u, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            r = 1.0 / safe
        a, th = kern.alpha, kern.cutoff
        small = (kern.scale * a * th ** (a - 2.0) * scipy.special.gamma(2.0 - a)
                 * scipy.special.gammainc(2.0 - a, th * r))
        tail = kern.scale * a * th ** a * upper_gamma(-a, th * r)
        return np.where(u > 0, safe * safe * small + tail, 0.0)

    u = np.concatenate([[0.0], np.logspace(-8, 8, 161)])
    for alpha in (0.3, 0.9, 1.0, 1.5, 1.9):
        for cutoff in (0.1, 1.0, 7.0):
            kern = TemperedStableKernel(alpha, cutoff, scale=1.3)
            got = kern.compact_moment(u)
            assert got == pytest.approx(former(kern, u), rel=1e-14, abs=0.0), (alpha, cutoff)
            assert kern.compact_moment(0.0) == 0.0


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.3, 1.2)])
def test_normal_law_is_scipy_stats_norm_bit_for_bit(mu, sigma):
    # the package computes the normal law without importing scipy.stats
    x = np.concatenate([np.linspace(-40.0, 40.0, 100_001), [0.0, np.inf, -np.inf]])
    law, ref = NormalJumps(mu, sigma), sps.norm(mu, sigma)
    assert law.density(x).tobytes() == ref.pdf(x).tobytes()
    pos, neg = law.tail_masses(x)
    assert pos.tobytes() == ref.sf(x).tobytes()
    assert neg.tobytes() == ref.cdf(-x).tobytes()
    # the standard forms inside the truncated moments
    assert kernels._phi(x).tobytes() == sps.norm.pdf(x).tobytes()
    assert kernels._ndtr(x).tobytes() == sps.norm.cdf(x).tobytes()
