import math

import numpy as np
import pytest

from levyfield import (GaussianFunction, IndicatorFunction, PolynomialDecay,
                       ProductBump, Region, SimpleFunction, interval)
from levyfield.funcs import effective_domain


def fd_mixed_partial(f, x, h=1e-5):
    """Central-difference mixed partial d^d f/dx_1..dx_d at rows of x."""
    x = np.atleast_2d(x)
    n, d = x.shape
    out = np.zeros(n)
    for signs in np.ndindex(*(2,) * d):
        s = np.array(signs) * 2 - 1
        out += np.prod(s) * f(x + h * s)
    return out / (2 * h) ** d


def test_bump_support():
    b = ProductBump((0.0, 1.0), (0.5, 0.25))
    assert b.support_region.bounding_box().lo == (-0.5, 0.75)
    pts = np.array([[0.0, 1.0], [0.49, 1.0], [0.51, 1.0], [0.0, 1.3]])
    v = b(pts)
    assert v[0] > 0 and v[1] > 0
    assert v[2] == 0 and v[3] == 0


def test_bump_mixed_partial_matches_finite_differences():
    rng = np.random.default_rng(4)
    b = ProductBump((0.2, -0.1), (0.6, 0.8), smoothness=3)
    x = rng.uniform([-0.3, -0.8], [0.7, 0.6], size=(40, 2))
    np.testing.assert_allclose(b.mixed_partial(x), fd_mixed_partial(b, x),
                               rtol=1e-4, atol=1e-7)


def test_smooth_bump_mixed_partial_matches_finite_differences():
    b = ProductBump((0.0,), (1.0,))   # C-infinity profile
    x = np.linspace(-0.9, 0.9, 25)[:, None]
    np.testing.assert_allclose(b.mixed_partial(x), fd_mixed_partial(b, x),
                               rtol=1e-4, atol=1e-8)


def test_bump_rejects_bad_args():
    with pytest.raises(ValueError):
        ProductBump((0.0,), (0.0,))
    with pytest.raises(ValueError):
        ProductBump((0.0,), (1.0,), smoothness=0)


def test_gaussian_function_partial():
    g = GaussianFunction((0.5, -0.5), 0.7)
    assert g.support_region is None
    x = np.random.default_rng(8).normal(size=(30, 2))
    np.testing.assert_allclose(g.mixed_partial(x), fd_mixed_partial(g, x),
                               rtol=1e-4, atol=1e-8)


def test_polynomial_decay_partial():
    p = PolynomialDecay(1.25, dim=2)
    x = np.random.default_rng(2).normal(size=(30, 2)) * 2
    np.testing.assert_allclose(p.mixed_partial(x), fd_mixed_partial(p, x),
                               rtol=1e-4, atol=1e-8)


def test_indicator_has_no_partial():
    f = IndicatorFunction(Region.from_intervals([(0.0, 1.0)]))
    assert f(np.array([[0.5], [1.5]])).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError):
        f.mixed_partial(np.array([[0.5]]))


def test_wrong_dimension_rejected():
    b = ProductBump((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        b(np.zeros((3, 3)))


def test_simple_function_eval_and_scaling():
    f = SimpleFunction(((2.0, Region(1, (interval(0.0, 1.0),))),
                        (-3.0, Region(1, (interval(1.0, 2.0),)))))
    x = np.array([[0.5], [1.5], [2.5]])
    assert f(x).tolist() == [2.0, -3.0, 0.0]
    assert f.support_region.volume == pytest.approx(2.0)


def test_simple_function_rejects_overlap():
    with pytest.raises(ValueError):
        SimpleFunction(((1.0, Region(1, (interval(0.0, 1.0),))),
                        (2.0, Region(1, (interval(0.5, 1.5),)))))
    with pytest.raises(ValueError):
        SimpleFunction(())


def test_effective_domain_is_where_f_can_be_nonzero():
    bump = ProductBump(center=(0.0,), radius=(0.5,))
    window = Region.from_intervals([(0.2, 3.0)])
    assert effective_domain(bump) == bump.support_region
    assert effective_domain(bump, window) == Region.from_intervals([(0.2, 0.5)])
    gauss = GaussianFunction(center=(0.0,), scale=1.0)
    assert effective_domain(gauss) is None                # unbounded: all of R^d
    assert effective_domain(gauss, window) == window
    simple = SimpleFunction(((2.0, Region.from_intervals([(0.0, 1.0)])),
                             (-1.0, Region.from_intervals([(4.0, 5.0)]))))
    assert effective_domain(simple, window).boxes == (interval(0.2, 1.0),)
    assert effective_domain(simple, Region.from_intervals([(1.5, 3.5)])).is_empty


@pytest.mark.parametrize("d", range(1, 8))
def test_column_reductions_are_numpys_axis_reductions(d):
    # the test functions sum and multiply their d columns one by one; up to seven
    # columns that is bit for bit numpy's sum(axis=1) / prod(axis=1)
    rng = np.random.default_rng(d)
    x = rng.standard_normal((4000, d)) * np.exp(rng.uniform(-6.0, 6.0, (4000, d)))
    c, s = rng.uniform(-1.0, 1.0, d), 0.7
    bump = ProductBump(c, rng.uniform(0.5, 3.0, d), smoothness=2)
    inner = c + rng.uniform(-1.0, 1.0, (4000, d)) * bump.radius
    t = (inner - bump.center) / bump.radius
    assert np.array_equal(bump(inner), np.prod(bump._profile(t), axis=1))
    assert np.array_equal(bump.mixed_partial(inner),
                          np.prod(bump._profile_deriv(t) / bump.radius, axis=1))
    z = (x - c) / s
    gauss = GaussianFunction(c, s)
    assert np.array_equal(gauss(x), np.exp(-0.5 * (z * z).sum(axis=1)))
    assert np.array_equal(gauss.mixed_partial(x),
                          np.prod(np.exp(-0.5 * z * z) * (-z / s), axis=1))
    decay = PolynomialDecay(0.75, d)
    q = 1.0 + (x * x).sum(axis=1)
    assert np.array_equal(decay(x), q ** -0.75)
    rising = math.prod(0.75 + j for j in range(d))
    assert np.array_equal(decay.mixed_partial(x),
                          (-2.0) ** d * rising * np.prod(x, axis=1) * q ** (-0.75 - d))
