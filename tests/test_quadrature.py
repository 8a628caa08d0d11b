import numpy as np
import pytest

from levyfield.quadrature import box_integral, gauss_box, region_integral, shell_region
from levyfield.regions import Box, Region


def test_gauss_box_exact_on_polynomials():
    # an order-n rule integrates degree 2n-1 exactly
    f = lambda x: 3 * x[:, 0] ** 5 - x[:, 0] ** 2 + 2.0
    got = gauss_box(f, (0.0,), (2.0,), order=4)
    want = 3 * 2 ** 6 / 6 - 2 ** 3 / 3 + 4.0
    assert got == pytest.approx(want, rel=1e-14)


def test_gauss_box_2d_product():
    f = lambda x: x[:, 0] * x[:, 1] ** 2
    got = gauss_box(f, (0.0, -1.0), (1.0, 1.0), order=3)
    assert got == pytest.approx(0.5 * 2.0 / 3.0, rel=1e-14)


def test_box_integral_smooth_with_error():
    val, err = box_integral(lambda x: np.exp(-x[:, 0] ** 2), Box((0.0,), (1.0,)))
    assert val == pytest.approx(0.7468241328124271, abs=1e-10)
    assert err < 1e-8


def test_region_integral_adds_boxes():
    r = Region(1, (Box((0.0,), (1.0,)), Box((2.0,), (3.0,))))
    val, _ = region_integral(lambda x: x[:, 0], r)
    assert val == pytest.approx(0.5 + 2.5, rel=1e-12)


def test_shell_region_tiles_the_dyadic_annulus():
    for dim in (1, 2, 3):
        for k in (0, 3):
            shell = shell_region(dim, k)
            assert shell.volume == pytest.approx(2.0 ** ((k + 2) * dim)
                                                 - 2.0 ** ((k + 1) * dim))
            inside = np.full((1, dim), 2.0 ** k * 0.5)
            outside = np.full((1, dim), 2.0 ** (k + 1) * 1.5)
            edge = np.zeros((1, dim))
            edge[0, 0] = 1.5 * 2.0 ** k
            assert not shell.contains(inside)[0] and not shell.contains(outside)[0]
            assert shell.contains(edge)[0]
