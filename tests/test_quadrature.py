import numpy as np
import pytest

from levyfield.quadrature import (box_integral, gauss_box, ladder_integral, last_rung,
                                  region_integral, shell_region)
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


def test_the_ladder_partitions_r_d():
    # rung -1 is the core cube; with the shells it tiles R^d
    for dim in (1, 2):
        assert shell_region(dim, -1) == Region.from_box(Box((-1.0,) * dim, (1.0,) * dim))
        rungs = [shell_region(dim, k) for k in range(-1, 4)]
        assert sum(r.volume for r in rungs) == 2.0 ** (5 * dim)
        pts = np.random.default_rng(3).uniform(-16.0, 16.0, size=(2000, dim))
        assert (sum(r.contains(pts).astype(int) for r in rungs) == 1).all()


def test_ladder_integral_walks_until_the_increments_vanish():
    def gauss(region):
        return region_integral(lambda x: np.exp(-0.5 * (x * x).sum(axis=1)), region)

    val, err = ladder_integral(gauss, 2, 0.0)
    assert val == pytest.approx(2.0 * np.pi, rel=1e-9) and err < 1e-6
    # nothing on the first rungs: the walk stops at once unless told to reach on
    def bump_at_40(region):
        return (1.0, 0.0) if region.contains(np.array([[40.0]]))[0] else (0.0, 0.0)

    assert ladder_integral(bump_at_40, 1, 0.0) == (0.0, 0.0)
    assert ladder_integral(bump_at_40, 1, 40.0) == (1.0, 0.0)
    # -2^j lies in the rung past the one whose outer cube reaches 2^j
    for point in (-2.0, -8.0):
        def bump(region, point=point):
            return (1.0, 0.0) if region.contains(np.array([[point]]))[0] else (0.0, 0.0)

        assert ladder_integral(bump, 1, -point) == (1.0, 0.0)


def test_last_rung_holds_every_point_within_the_reach():
    assert [last_rung(r) for r in (0.0, 0.5, 1.0, 1.5, 2.0, 8.0, 9.0)] == [-1, -1, 0, 0, 1, 3, 3]
    for reach in (0.0, 0.3, 1.0, 2.0, 3.0, 8.0, 9.0, 1024.0):
        k = last_rung(reach)
        for dim in (1, 2):
            # -reach lies in rung k itself, +reach in rung k or below
            low, high = np.full((1, dim), -reach), np.full((1, dim), reach)
            assert shell_region(dim, k).contains(low)[0]
            assert any(shell_region(dim, j).contains(high)[0] for j in range(-1, k + 1))
