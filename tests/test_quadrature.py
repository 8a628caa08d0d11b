import numpy as np
import pytest

from levyfield import SimpleFunction, quadrature
from levyfield.analysis import modular_integrand
from levyfield.characteristics import (Characteristics, Density, DiffusionComponent,
                                       DriftComponent, JumpComponent)
from levyfield.kernels import CompoundPoissonKernel, UniformJumps
from levyfield.quadrature import (box_integral, ladder_integral, last_rung,
                                  region_integral, region_integrals, shell_region)
from levyfield.regions import Box, Region


def test_one_box_region_exact_on_polynomials():
    # an order-n rule integrates degree 2n-1 exactly; escalation starts at 8 nodes
    f = lambda x: 3 * x[:, 0] ** 5 - x[:, 0] ** 2 + 2.0
    got, _ = region_integral(f, Region.from_box(Box((0.0,), (2.0,))))
    want = 3 * 2 ** 6 / 6 - 2 ** 3 / 3 + 4.0
    assert got == pytest.approx(want, rel=1e-14)


def test_one_box_region_2d_product():
    f = lambda x: x[:, 0] * x[:, 1] ** 2
    got, _ = region_integral(f, Region.from_box(Box((0.0, -1.0), (1.0, 1.0))))
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


# --------------------------------------------------------------------------
# batched regions: every unsettled box of a region in one integrand call per
# order, with the values and errors of integrating box by box
# --------------------------------------------------------------------------

def _lone_box_sum(f, lo, hi, order):
    """One box's tensor Gauss-Legendre sum, its nodes built and reduced on their own."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    axes_pts = [0.5 * (a + b) + 0.5 * (b - a) * nodes for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes_pts, indexing="ij")
    vals = np.asarray(f(np.stack([m.ravel() for m in mesh], axis=-1)),
                      dtype=float).reshape([order] * len(lo))
    for a, b in reversed(list(zip(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))):
        vals = vals @ (0.5 * (b - a) * weights)
    return float(vals)


def _serial(f, region, settled_at=None):
    """Box by box: each box escalates 8, 16, 32, 64, 96 on its own; the sum in box order."""
    total = err = 0.0
    for box in region.boxes:
        prev = _lone_box_sum(f, box.lo, box.hi, 8)
        for order in (16, 32, 64, 96):
            cur = _lone_box_sum(f, box.lo, box.hi, order)
            e = abs(cur - prev)
            if not np.isfinite(cur):
                raise ArithmeticError("integral is not finite")
            if e <= max(quadrature.ABS_TOL, quadrature.REL_TOL * abs(cur)):
                break
            prev = cur
        else:
            cur = prev
            order = None
        if settled_at is not None:
            settled_at.append(order)
        total += cur
        err += e
    return total, err


def _counted(f, sizes):
    def g(x):
        sizes.append(len(x))
        return f(x)
    return g


def gauss_bell(x):
    return np.exp(-0.5 * (x * x).sum(axis=1))


def test_region_integral_equals_the_box_by_box_sum():
    two = Region(1, (Box((0.0,), (1.0,)), Box((2.0,), (3.5,))))
    for f, region in [(lambda x: np.exp(-x[:, 0] ** 2), two),
                      (lambda x: np.cos(3.0 * x[:, 0]) / (1.0 + x[:, 0] ** 2), two),
                      (gauss_bell, shell_region(2, 1)),
                      (lambda x: np.sin(x[:, 0] * x[:, 1]) + x[:, 1] ** 2, shell_region(2, 0)),
                      (lambda x: np.exp(x[:, 0] - x[:, 1] ** 2) * np.cos(2.0 * x[:, 2]),
                       Region.from_box(Box((-0.5, 0.0, 1.0), (1.0, 0.75, 3.0))))]:
        assert region_integral(f, region) == _serial(f, region)


def test_region_integrals_are_each_regions_integral():
    # the boxes of all the regions escalate together; each region keeps its own sum
    regions = [shell_region(2, k) for k in range(-1, 4)] + [Region(2, ())]
    sizes = []
    got = region_integrals(_counted(gauss_bell, sizes), regions)
    assert got == [_serial(gauss_bell, r) for r in regions]
    assert got == [region_integral(gauss_bell, r) for r in regions]
    assert got[-1] == (0.0, 0.0) and len(sizes) <= len(quadrature.ORDERS)
    assert sizes[0] == 17 * 8 ** 2
    assert region_integrals(gauss_bell, []) == []


@pytest.mark.parametrize("dim", [1, 2])
def test_a_modular_integrand_integrates_as_box_by_box(dim):
    # piecewise constant |f| against a skewed uniform-jump law: the drift sup of
    # the stacked nodes takes the generic route, refined row by row
    chars = Characteristics(dim, gamma=DriftComponent(Density(0.4)),
                            sigma=DiffusionComponent(Density(0.6)),
                            nu=JumpComponent(CompoundPoissonKernel(0.75, UniformJumps(0.26, 1.77))))
    cuts = (-0.92, -0.43, -0.25, 0.73)
    pieces = [Region.from_intervals([(a, b)] * dim) for a, b in zip(cuts, cuts[1:])]
    f = SimpleFunction(tuple(zip((1.08, 1.95, 1.25), pieces)))
    region = Region(dim, tuple(p.boxes[0] for p in pieces))
    g = modular_integrand(chars, f)
    assert region_integral(g, region) == _serial(g, region)


def test_boxes_that_settle_at_different_orders():
    # a cubic and a tail settle at once, a bump at order 96; its box goes on alone
    region = Region(1, (Box((0.0,), (1.0,)), Box((1.0,), (3.0,)), Box((3.0,), (4.0,))))

    def f(x):
        t = x[:, 0]
        return np.where(t <= 1.0, t ** 3, 1.0 / (1.0 + 25.0 * (t - 2.0) ** 2))

    orders = []
    want = _serial(f, region, orders)
    assert orders == [16, 96, 16]
    sizes = []
    assert region_integral(_counted(f, sizes), region) == want
    assert sizes == [3 * 8, 3 * 16, 32, 64, 96]


def test_a_box_that_never_settles_keeps_its_last_two_orders():
    f = lambda x: 1.0 / np.sqrt(x[:, 0])   # x^(-1/2) at 0: Gauss-Legendre crawls
    region = Region(1, (Box((0.0,), (1.0,)), Box((1.0,), (2.0,))))
    orders = []
    want = _serial(f, region, orders)
    assert orders == [None, 16]
    val, err = region_integral(f, region)
    assert (val, err) == want
    s96, s64 = _lone_box_sum(f, (0.0,), (1.0,), 96), _lone_box_sum(f, (0.0,), (1.0,), 64)
    assert box_integral(f, region.boxes[0]) == (s96, abs(s96 - s64))
    assert err > quadrature.REL_TOL * abs(val)


def test_a_non_finite_box_raises():
    region = Region(1, (Box((0.0,), (1.0,)), Box((2.0,), (3.0,))))
    for bad in (np.inf, np.nan):
        f = lambda x, bad=bad: np.where(x[:, 0] > 2.5, bad, 1.0)
        for integral in (region_integral, _serial):
            with pytest.raises(ArithmeticError, match="not finite"):
                integral(f, region)


def test_a_shell_takes_one_integrand_call_per_order():
    sizes = []
    shell = shell_region(2, 1)
    assert len(shell.boxes) == 4
    assert region_integral(_counted(gauss_bell, sizes), shell) == _serial(gauss_bell, shell)
    assert 2 <= len(sizes) <= len(quadrature.ORDERS)
    assert sizes[0] == 4 * 8 ** 2


@pytest.mark.parametrize("cap, calls", [
    (None, [6 * 8 ** 3, 6 * 16 ** 3] + [2 * 32 ** 3] * 3),   # 2^16 points: two boxes at 32
    (2000, [3 * 8 ** 3] * 2 + [16 ** 3] * 6 + [32 ** 3] * 6),
])
def test_no_call_holds_more_points_than_the_cap_or_one_box(monkeypatch, cap, calls):
    if cap is not None:
        monkeypatch.setattr(quadrature, "MAX_POINTS", cap)
    shell = shell_region(3, 0)
    assert len(shell.boxes) == 6
    f = lambda x: np.cos(6.0 * x[:, 0]) * np.exp(-x[:, 1] ** 2) + x[:, 2] ** 2
    orders, sizes = [], []
    want = _serial(f, shell, orders)
    assert orders == [32] * 6
    assert region_integral(_counted(f, sizes), shell) == want
    assert sizes == calls
    assert all(any(n % o ** 3 == 0 and n <= max(quadrature.MAX_POINTS, o ** 3)
                   for o in quadrature.ORDERS) for n in sizes)


def test_one_box_helpers_are_the_batched_routine():
    f = lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1])
    box = Box((0.0, -1.0), (1.0, 0.5))
    assert box_integral(f, box) == _serial(f, Region.from_box(box))
    assert region_integral(f, Region(2, ())) == (0.0, 0.0)


def test_shell_regions_are_built_once():
    assert shell_region(2, 3) is shell_region(2, 3)
    assert shell_region(1, -1) is not shell_region(2, -1)


# --------------------------------------------------------------------------
# k-row integrands: shape (k, n), each row escalating and settling on its own
# --------------------------------------------------------------------------

def _bump_rows(x):
    t = x[:, 0]
    return np.where(t <= 1.0, t ** 3, 1.0 / (1.0 + 25.0 * (t - 2.0) ** 2))


def _rsqrt(x):
    return 1.0 / np.sqrt(x[:, 0])


def test_each_row_is_its_own_region_integral():
    # a row settling at orders 16 / 96 / 16 by box, one that never settles on box 0, a cubic
    region = Region(1, (Box((0.0,), (1.0,)), Box((1.0,), (3.0,)), Box((3.0,), (4.0,))))
    rows = (_bump_rows, _rsqrt, lambda x: x[:, 0] ** 3)
    sizes = []
    got = region_integral(_counted(lambda x: np.stack([g(x) for g in rows]), sizes), region)
    assert got == [region_integral(g, region) for g in rows]
    assert got[0] == _serial(_bump_rows, region)
    # the 1/sqrt row keeps box 0 at every order; box 1 goes on for the bump
    assert sizes == [3 * 8, 3 * 16, 2 * 32, 2 * 64, 2 * 96]
    got = region_integrals(lambda x: np.stack([g(x) for g in rows]), [region, Region(1, ())])
    assert got[1] == [(0.0, 0.0)] * 3
    assert box_integral(lambda x: np.stack([g(x) for g in rows]), region.boxes[1]) \
        == [box_integral(g, region.boxes[1]) for g in rows]


def test_a_non_finite_live_row_raises():
    region = Region(1, (Box((0.0,), (1.0,)), Box((2.0,), (3.0,))))
    for bad in (np.inf, np.nan):
        f = lambda x, bad=bad: np.stack([x[:, 0], np.where(x[:, 0] > 2.5, bad, 1.0)])
        with pytest.raises(ArithmeticError, match="not finite"):
            region_integral(f, region)


def test_a_row_non_finite_only_after_it_settled_does_not_raise():
    # row 0 settles at order 16 on box 0, which row 1 keeps live to order 96;
    # row 0 is inf at every node of orders 32 and up, but those sums are never read
    box = Box((0.0,), (1.0,))
    late = lambda x: np.full(len(x), np.inf) if len(x) >= 32 else x[:, 0] ** 2
    sizes = []
    got = box_integral(_counted(lambda x: np.stack([late(x), _rsqrt(x)]), sizes), box)
    assert got == [box_integral(lambda x: x[:, 0] ** 2, box), box_integral(_rsqrt, box)]
    assert sizes == [8, 16, 32, 64, 96]


def test_a_k_row_integrand_takes_one_call_per_order():
    shell = shell_region(2, 1)
    sizes = []
    rows = (gauss_bell, lambda x: np.cos(x[:, 0]) * gauss_bell(x))
    got = region_integral(_counted(lambda x: np.stack([g(x) for g in rows]), sizes), shell)
    assert got == [_serial(g, shell) for g in rows]
    assert 2 <= len(sizes) <= len(quadrature.ORDERS) and sizes[0] == 4 * 8 ** 2
