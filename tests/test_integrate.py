"""Pathwise integrals, cylindrical characteristics, empirical CF."""

import importlib
import math

import numpy as np
import pytest
import scipy.integrate as spi

from levyfield import Region, SamplerConfig, interval, preset, sample_field, sample_fields
from levyfield.characteristics import (Characteristics, Density, DiffusionComponent,
                                       DriftComponent, JumpComponent)
from levyfield.funcs import (GaussianFunction, IndicatorFunction,
                             PolynomialDecay, ProductBump, SimpleFunction,
                             TestFunction)
from levyfield.integrate import (PAIRING_LEVELS, NotIntegrableError, _integrate_paths,
                                 cylindrical_characteristics,
                                 empirical_cf, integrate, integrate_simple)
from levyfield.kernels import StableKernel

WIN = Region.from_intervals([(0.0, 1.0)])
# the package exports the function ``integrate`` under the module's name
integrate_module = importlib.import_module("levyfield.integrate")


def realization(chars, seed, **kw):
    kw.setdefault("window", WIN)
    kw.setdefault("eps", 0.0)
    return sample_field(chars, SamplerConfig(seed=seed, **kw))


def test_integrate_simple_is_the_defining_sum():
    real = realization(preset("impulsive", rate=30.0), seed=11)
    a = Region.from_intervals([(0.0, 0.4)])
    b = Region.from_intervals([(0.6, 1.0)])
    f = SimpleFunction(((2.0, a), (-1.5, b)))
    got = integrate_simple(real, f, 0.7)
    want = 2.0 * real.evaluate(0.7, a) - 1.5 * real.evaluate(0.7, b)
    assert got == want
    # queries that meet nothing check their time span all the same
    beyond = Region.from_intervals([(2.0, 3.0)])
    with pytest.raises(ValueError, match="horizon"):
        integrate_simple(real, SimpleFunction(((1.0, beyond),)), 2.0)
    with pytest.raises(ValueError, match="horizon"):
        integrate(real, ProductBump(center=(2.5,), radius=(0.5,)), 2.0)


def test_integrate_indicator_matches_set_evaluation():
    # asymmetric stable: exercises drift, jump sum and compensator together
    chars = preset("balan-stable", alpha=1.5, p=0.7, q=0.3)
    real = realization(chars, seed=3, eps=1e-2)
    a = Region.from_intervals([(0.1, 0.8)])
    res = integrate(real, IndicatorFunction(a), 1.0)
    assert res.value == pytest.approx(real.evaluate(1.0, a), rel=1e-10)
    assert float(res) == res.value


def test_integrate_is_additive_over_disjoint_supports():
    chars = preset("balan-stable", alpha=1.5, p=0.5, q=0.5)
    real = realization(chars, seed=8, eps=1e-2,
                       small_jump_mode="gaussian-substitute")
    b1 = ProductBump(center=(0.25,), radius=(0.2,))
    b2 = ProductBump(center=(0.75,), radius=(0.2,))

    class Both(TestFunction):  # b1 + b2, supported on both boxes
        dim = 1
        support_region = Region(1, b1.support_region.boxes + b2.support_region.boxes)

        def __call__(self, x):
            return b1(x) + b2(x)

    both = Both()
    total = integrate(real, both, 1.0)
    parts = integrate(real, b1, 1.0).value + integrate(real, b2, 1.0).value
    assert total.value == pytest.approx(parts, rel=1e-10, abs=1e-12)


def test_integrate_splits_across_regions():
    # finite-activity pure-jump: region additivity is a finite re-grouping
    real = realization(preset("impulsive", rate=40.0), seed=21)
    f = GaussianFunction(center=(0.5,), scale=0.3)
    left = Region.from_intervals([(0.0, 0.5)])
    right = Region.from_intervals([(0.5, 1.0)])
    whole = integrate(real, f, 1.0).value
    split = integrate(real, f, 1.0, region=left).value \
        + integrate(real, f, 1.0, region=right).value
    assert whole == pytest.approx(split, rel=1e-12, abs=1e-14)


def test_membership_check_blocks_slowly_decaying_integrand():
    chars = preset("balan-stable", alpha=0.8)
    real = realization(chars, seed=5, eps=1e-2)
    f = PolynomialDecay(r=0.3, dim=1)
    with pytest.raises(NotIntegrableError):
        integrate(real, f, 1.0, check_membership=True)
    # without the gate the pathwise sum itself is still a finite number
    assert np.isfinite(integrate(real, f, 1.0).value)


def test_cylindrical_characteristics_gaussian_quadratic_form():
    chars = preset("gaussian-white-noise")
    f = GaussianFunction(center=(0.3,), scale=0.2)
    cyl = cylindrical_characteristics(chars, f)
    # <Qf, f> = int f(x)^2 dx = s * sqrt(pi)
    assert cyl.qf == pytest.approx(0.2 * math.sqrt(math.pi), rel=1e-8)
    assert cyl.a == 0.0
    assert cyl.pushforward.compact_mass() == 0.0


def test_a_pushforward_without_a_truncated_second_moment_is_refused():
    # (1 + x^2)^-0.3 decays too slowly for an alpha = 1.5 stable intensity
    with pytest.raises(ArithmeticError, match="truncated second moment"):
        cylindrical_characteristics(preset("balan-stable", alpha=1.5), PolynomialDecay(0.3))


def test_cylindrical_pushforward_of_simple_function():
    chars = preset("impulsive", rate=20.0)
    a = Region.from_intervals([(0.2, 0.5)])
    cyl = cylindrical_characteristics(chars, SimpleFunction(((2.0, a),)))
    push = cyl.pushforward
    # image measure: mass 0.3 * 20 on jump values {-2, +2}
    assert push.tail_mass(1.5) == pytest.approx(6.0, rel=1e-12)
    assert push.tail_mass(2.5) == 0.0
    assert push.compact_mass() == pytest.approx(6.0, rel=1e-12)
    assert cyl.qf == 0.0
    assert abs(cyl.a) < 1e-12


@pytest.mark.parametrize("modulation", [1.0, lambda x: 1.0 + x[:, 0] ** 2])
def test_cylindrical_drift_of_a_skewed_stable_kernel_below_alpha_one(modulation):
    # the bump is subnormal at nodes near its edge, where the annulus route
    # of the indicator moment formed 1/f = inf and raised
    kern = StableKernel(0.7, 0.3, 0.7, scale=1.4)
    chars = Characteristics(1, nu=JumpComponent(kern, Density(modulation)))
    bump = ProductBump((0.1,), (0.6,))
    cyl = cylindrical_characteristics(chars, bump)
    coef = 1.4 * (0.3 - 0.7) * 0.7 / 0.3   # f (s beta alpha/(1 - alpha)) (f^(alpha-1) - 1)
    m = Density(modulation)

    def integrand(x):
        fx = float(bump(np.array([[x]]))[0])
        return float(m(np.array([[x]]))[0]) * coef * (fx ** 0.7 - fx) if fx > 0.0 else 0.0

    want, _ = spi.quad(integrand, -0.5, 0.7, epsabs=0.0, epsrel=1e-12, limit=200)
    assert cyl.a == pytest.approx(want, rel=1e-8)


def test_cylindrical_pushforward_of_a_smooth_bump():
    rate = 12.0
    chars = preset("impulsive", rate=rate)
    bump = ProductBump(center=(0.5,), radius=(0.3,))
    push = cylindrical_characteristics(chars, bump).pushforward
    # level sets of exp(-1/(1-t^2)) have closed-form width; the tail integrand
    # is a step function of x, which the quadrature resolves to about 1e-2
    s = 0.1
    width = 2 * 0.3 * math.sqrt(1.0 - 1.0 / math.log(1.0 / s))
    assert push.tail_mass(s) == pytest.approx(rate * width, rel=0.03)
    # jumps +-1 and f <= 1/e: the compact moment is rate f^2
    moment, _ = spi.quad(lambda t: math.exp(-2.0 / (1.0 - t * t)), -1, 1,
                         epsabs=0.0, epsrel=1e-13)
    assert push.compact_mass() == pytest.approx(rate * 0.3 * moment, rel=1e-10)


def test_cylindrical_pushforward_of_a_gaussian_over_the_ladder():
    # k(|y| > c) = c^-alpha, so mu(|v| > s) = s^-alpha int f^alpha dx, and
    # int f^alpha dx = scale sqrt(2 pi/alpha) for f = exp(-x^2/(2 scale^2))
    alpha, scale = 1.3, 0.7
    chars = Characteristics(1, nu=JumpComponent(StableKernel(alpha)))
    push = cylindrical_characteristics(chars, GaussianFunction((0.2,), scale)).pushforward
    power = scale * math.sqrt(2.0 * math.pi / alpha)
    assert push.compact_mass() == pytest.approx(2.0 / (2.0 - alpha) * power, rel=1e-10)
    assert push.tail_mass(0.5) == pytest.approx(0.5 ** -alpha * power, rel=1e-10)


def test_cylindrical_pushforward_of_a_simple_function_is_the_mixture():
    kern = StableKernel(1.1, 0.7, 0.3, scale=1.5)
    chars = Characteristics(1, nu=JumpComponent(kern, Density(2.0)))
    pieces = (Region.from_intervals([(0.0, 0.4)]), Region.from_intervals([(0.5, 1.2)]),
              Region.from_intervals([(1.5, 2.0)]))
    coefs = (2.0, -0.5, 0.0)
    push = cylindrical_characteristics(chars, SimpleFunction(tuple(zip(coefs, pieces)))).pushforward
    live = [(2.0 * a.volume, abs(c)) for c, a in zip(coefs, pieces) if c != 0.0]
    for s in (1e-3, 0.3, 1.0, 7.0):
        want = sum(m * kern.tail_mass(s / c) for m, c in live)
        assert push.tail_mass(s) == pytest.approx(want, rel=1e-12)
    want = sum(m * kern.compact_moment(c) for m, c in live)
    assert push.compact_mass() == pytest.approx(want, rel=1e-12)


def test_empirical_cf_of_standard_normal():
    rng = np.random.default_rng(99)
    x = rng.standard_normal(20_000)
    u = np.array([0.5, 1.0, 2.0])
    ecf, radius = empirical_cf(x, u)
    assert radius == 2.0 / math.sqrt(20_000)
    assert np.all(np.abs(ecf - np.exp(-0.5 * u ** 2)) <= radius)
    with pytest.raises(ValueError):
        empirical_cf([1.0], u)


@pytest.mark.parametrize("dim", [1, 2])
def test_pairing_is_the_midpoint_sum_at_the_fixed_level(dim):
    window = Region.from_intervals([(0.0, 1.0)] * dim)
    chars = preset("gaussian-white-noise", dim=dim)
    f = ProductBump(center=(0.5,) * dim, radius=(0.4,) * dim)
    got = integrate(realization(chars, seed=21, window=window), f, 1.0)
    # reference: query every level 0..L in turn (the draw order), then pair
    # f with the cells of the last two levels at their midpoints
    field = realization(chars, seed=21, window=window).gaussian
    box = window.intersect(f.support_region).boxes[0]
    top = PAIRING_LEVELS[dim]
    sums = []
    for level in range(top + 1):
        edges = [np.linspace(lo, hi, 2 ** level + 1) for lo, hi in zip(box.lo, box.hi)]
        cells = field.grid_values(1.0, box, edges)
        mids = np.meshgrid(*[0.5 * (e[:-1] + e[1:]) for e in edges], indexing="ij")
        sums.append(float((f(np.stack(mids, axis=-1).reshape(-1, dim)) * cells.ravel()).sum()))
    assert got.value == sums[-1]
    assert got.error == abs(sums[-1] - sums[-2])


# --------------------------------------------------------------------------
# batched pairing: the white noises of many paths refined as one stack give
# each path the value a lone ``integrate`` call gives
# --------------------------------------------------------------------------

def _triple(dim, sigma_density=1.0):
    return Characteristics(dim, gamma=DriftComponent(Density(0.3)),
                           sigma=DiffusionComponent(Density(sigma_density)),
                           nu=JumpComponent(StableKernel(1.5, 0.7, 0.3)))


SYMMETRIC = Region.from_intervals([(-1.0, 1.0)])
BUMP = ProductBump(center=(0.0,), radius=(0.5,))


@pytest.mark.parametrize("chars, window, f, t, mode", [
    (_triple(1), SYMMETRIC, BUMP, 1.0, "drop-with-bound"),
    # a window of two parts, both cut by the support, and t below the horizon
    (_triple(1), Region(1, (interval(0.0, 1.0), interval(2.0, 3.0))),
     ProductBump(center=(1.5,), radius=(1.4,)), 0.6, "drop-with-bound"),
    (_triple(2), Region.from_intervals([(0.0, 1.0), (0.0, 1.0)]),
     ProductBump(center=(0.5, 0.5), radius=(0.4, 0.3)), 1.0, "drop-with-bound"),
    (_triple(1), SYMMETRIC, BUMP, 1.0, "gaussian-substitute"),
    # non-constant intensity: cell masses split by quadrature, cell by cell
    (_triple(1, lambda x: 1.0 + x[:, 0] ** 2), SYMMETRIC,
     ProductBump(center=(0.2,), radius=(0.5,)), 1.0, "drop-with-bound"),
])
def test_batched_paths_equal_one_integrate_per_path(chars, window, f, t, mode, monkeypatch):
    # stacks of 3 paths in 2-D, so 5 paths make two stacks
    monkeypatch.setattr(integrate_module, "_STACK_CELLS", 3 << 12)
    cfg = SamplerConfig(seed=8, window=window, horizon=1.0, eps=0.05, small_jump_mode=mode)
    n = 5
    want = [integrate(sample_field(chars, cfg, k), f, t) for k in range(n)]
    values, errors = _integrate_paths(chars, cfg, (sample_field(chars, cfg, k)
                                                   for k in range(n)), f, t)
    assert np.array_equal(values, [w.value for w in want])
    assert np.array_equal(errors, [w.error for w in want])
    assert len(set(values)) == n


def _in_batches(chars, cfg, n, size):
    return (sample_fields(chars, cfg, range(k, min(n, k + size))) for k in range(0, n, size))


def test_a_path_integrates_to_the_same_bits_in_any_batch():
    chars = _triple(1)
    cfg = SamplerConfig(seed=12, window=SYMMETRIC, horizon=1.0, eps=0.05)
    runs = [_integrate_paths(chars, cfg, _in_batches(chars, cfg, 200, size), BUMP, 1.0)
            for size in (1, 7, 200)]
    for values, errors in runs[1:]:
        assert np.array_equal(values, runs[0][0]) and np.array_equal(errors, runs[0][1])
    assert len(set(runs[0][0])) == 200


def test_white_noise_pairings_do_not_depend_on_the_stack_size(monkeypatch):
    chars = Characteristics(1, sigma=DiffusionComponent(Density(1.0)))
    cfg = SamplerConfig(seed=13, window=SYMMETRIC, horizon=1.0, eps=0.05)
    runs = []
    for stack in (1, 32, 128):
        monkeypatch.setattr(integrate_module, "_STACK_CELLS", stack << PAIRING_LEVELS[1])
        runs.append(_integrate_paths(chars, cfg, _in_batches(chars, cfg, 150, 150), BUMP, 1.0))
    for values, errors in runs[1:]:
        assert np.array_equal(values, runs[0][0]) and np.array_equal(errors, runs[0][1])
    assert np.all(runs[0][1] > 0.0) and len(set(runs[0][0])) == 150
