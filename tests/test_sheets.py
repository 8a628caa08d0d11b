"""Sheet view: corner boxes, jump sides, box increments, duality."""

import math
from collections import Counter

import numpy as np
import pytest

from levyfield import (Characteristics, Density, JumpComponent, Region,
                       SamplerConfig, preset, sample_field)
from levyfield.characteristics import Atom, DiffusionComponent, DriftComponent
from levyfield.funcs import GaussianFunction, ProductBump
from levyfield.gaussian import WhiteNoiseField
from levyfield.integrate import integrate
from levyfield.kernels import CompoundPoissonKernel, DiscreteJumps, StableKernel
from levyfield.regions import Box
from levyfield.sampler import FieldRealization, OutOfWindowError, PathBatch
from levyfield.sheets import SheetRealization, box_increment, duality_check

WIN2 = Region.from_intervals([(-1.0, 1.0), (-1.0, 1.0)])


def planar(seed=4, rate=25.0, **kw):
    kw.setdefault("window", WIN2)
    kw.setdefault("eps", 0.0)
    real = sample_field(preset("impulsive", rate=rate, dim=2),
                        SamplerConfig(seed=seed, **kw))
    return real, SheetRealization(real)


def test_sheet_vanishes_on_the_axes():
    _, sheet = planar()
    assert sheet.value(1.0, [0.0, 0.5]) == 0.0
    assert sheet.value(0.3, [-0.7, 0.0]) == 0.0
    with pytest.raises(ValueError):
        sheet.value(2.0, [0.0, 0.5])  # past the horizon, degenerate or not
    with pytest.raises(ValueError):
        sheet.value(1.0, [0.5])


def test_orthant_signs_against_raw_jump_records():
    real, sheet = planar(seed=9)
    t = 0.8
    n = int(np.searchsorted(real.jump_times, t, side="right"))
    g1, g2 = real.jump_locations[:n, 0], real.jump_locations[:n, 1]
    sizes = real.jump_sizes[:n]

    def hand(x1, x2):
        f1 = np.where((g1 > 0) & (g1 <= x1), 1.0, 0.0) if x1 > 0 \
            else np.where((g1 >= x1) & (g1 < 0), -1.0, 0.0)
        f2 = np.where((g2 > 0) & (g2 <= x2), 1.0, 0.0) if x2 > 0 \
            else np.where((g2 >= x2) & (g2 < 0), -1.0, 0.0)
        return float((sizes * f1 * f2).sum())

    for corner in ((0.6, 0.7), (-0.6, 0.7), (0.6, -0.7), (-0.6, -0.7)):
        assert sheet.value(t, corner) == pytest.approx(hand(*corner), abs=1e-12)


def test_sheet_agrees_with_measure_of_corner_box():
    real, sheet = planar(seed=13)
    region = Region.from_box(Box((0.0, 0.0), (0.5, 0.9)))
    assert sheet.value(1.0, [0.5, 0.9]) == pytest.approx(
        real.evaluate(1.0, region), abs=1e-12)


def test_box_increment_round_trip():
    real, sheet = planar(seed=2)
    a, b = (0.1, -0.5), (0.6, 0.2)
    inc = box_increment(sheet, 1.0, a, b)
    want = real.evaluate(1.0, Region.from_box(Box(a, b)))
    assert inc.value == pytest.approx(want, abs=1e-9)
    assert float(inc) == inc.value


def test_box_increment_degenerate_and_invalid():
    _, sheet = planar()
    assert box_increment(sheet, 1.0, (0.2, -0.3), (0.2, 0.4)).value == 0.0
    noise = SheetRealization(sample_field(preset("gaussian-white-noise", dim=2),
                                          SamplerConfig(seed=3, window=WIN2)))
    assert box_increment(noise, 1.0, (0.2, -0.3), (0.2, 0.4)).value == 0.0
    with pytest.raises(ValueError, match="horizon"):  # the time span is checked all the same
        box_increment(sheet, 2.0, (0.2, -0.3), (0.2, 0.4))
    with pytest.raises(ValueError):
        box_increment(sheet, 1.0, (0.5, 0.0), (0.2, 0.4))
    with pytest.raises(ValueError):
        box_increment(sheet, 1.0, (0.1,), (0.2, 0.4))


def test_box_increment_splits_at_a_plane():
    _, sheet = planar(seed=6)
    whole = box_increment(sheet, 1.0, (-0.4, -0.2), (0.8, 0.7)).value
    left = box_increment(sheet, 1.0, (-0.4, -0.2), (0.3, 0.7)).value
    right = box_increment(sheet, 1.0, (0.3, -0.2), (0.8, 0.7)).value
    assert whole == pytest.approx(left + right, abs=1e-9)


class CornerBox(Box):
    """The corner box of a point x with no zero coordinate, as the signed corner
    factors count it: ``(0, x_i]`` where x_i > 0 and ``[x_i, 0)`` where x_i < 0."""

    def contains(self, p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return np.all(np.where(hi == 0.0, (p >= lo) & (p < hi), (p > lo) & (p <= hi)), axis=1)


def corner_measure(real, t, x):
    """``M((0, t] x corner box of x)`` with its orientation sign, by ``evaluate``."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        return 0.0
    box = CornerBox(tuple(np.minimum(x, 0.0)), tuple(np.maximum(x, 0.0)))
    return (-1.0) ** int(np.sum(x < 0.0)) * real.evaluate(t, Region.from_box(box))


LINE = Region.from_intervals([(-1.0, 1.0)])
AXIS = np.linspace(-0.9, 0.9, 16)


def lattice_case(kind):
    """(realization, axes) of one field kind for the lattice-versus-points check."""
    if kind == "pure-jump":  # constant drift and compensator densities
        return sample_field(preset("balan-stable", alpha=1.5, p=0.7, q=0.3, dim=2),
                            SamplerConfig(seed=10, window=WIN2, eps=2e-2)), \
            [np.linspace(-0.9, 0.9, 7), np.linspace(-0.8, 0.8, 5)]
    if kind == "paths-triple":  # the benchmark's triple: constant Sigma
        chars = Characteristics(1, gamma=DriftComponent(0.3),
                                sigma=DiffusionComponent(1.0),
                                nu=JumpComponent(StableKernel(1.5, 0.5, 0.5)))
        return sample_field(chars, SamplerConfig(seed=41, window=LINE, eps=1e-2)), [AXIS]
    if kind == "gaussian-substitute":
        return sample_field(preset("balan-stable", alpha=1.5, p=0.7, q=0.3),
                            SamplerConfig(seed=2, window=LINE, eps=2e-2,
                                          small_jump_mode="gaussian-substitute")), [AXIS]
    if kind == "varying-drift-and-modulation":
        chars = Characteristics(
            1, gamma=DriftComponent(Density(lambda x: 1.0 + x[:, 0] ** 2),
                                    (Atom((0.35,), 0.5), Atom((-0.6,), -0.25))),
            nu=JumpComponent(StableKernel(1.5, 0.8, 0.2),
                             Density(lambda x: 1.0 + 0.5 * x[:, 0])))
        return sample_field(chars, SamplerConfig(seed=7, window=LINE, eps=5e-2)), \
            [np.append(AXIS, [0.35, -0.6])]
    if kind == "varying-sigma":
        chars = Characteristics(
            1, sigma=DiffusionComponent(Density(lambda x: 1.0 + x[:, 0] ** 2),
                                        (Atom((-0.4,), 0.3),)))
        return sample_field(chars, SamplerConfig(seed=5, window=LINE)), \
            [np.append(AXIS, -0.4)]
    if kind == "two-part-window":
        window = Region(1, (Box((-1.0,), (0.2,)), Box((0.2,), (1.0,))))
        return sample_field(preset("balan-stable", alpha=1.5, p=0.7, q=0.3),
                            SamplerConfig(seed=3, window=window, eps=2e-2,
                                          small_jump_mode="gaussian-substitute")), [AXIS]
    if kind == "planar-sigma":
        return sample_field(preset("gaussian-white-noise", dim=2),
                            SamplerConfig(seed=8, window=WIN2)), \
            [np.linspace(-0.9, 0.9, 7), np.linspace(-0.8, 0.8, 5)]
    assert kind == "unsorted-axis"  # a repeat and a 0
    real = sample_field(preset("gaussian-white-noise"), SamplerConfig(seed=9, window=LINE))
    return real, [np.array([0.5, -0.3, 0.0, 0.5, -0.9, 0.2, -0.3])]


@pytest.mark.parametrize("kind", [
    "pure-jump", "paths-triple", "gaussian-substitute", "varying-drift-and-modulation",
    "varying-sigma", "two-part-window", "planar-sigma", "unsorted-axis"])
def test_corner_grid_matches_point_queries(kind):
    real, axes = lattice_case(kind)
    sheet = SheetRealization(real)
    grid = sheet.corner_grid(0.8, axes)
    assert grid.shape == tuple(a.size for a in axes)
    for idx in np.ndindex(grid.shape):
        x = [a[k] for a, k in zip(axes, idx)]
        want = corner_measure(real, 0.8, x)
        assert grid[idx] == pytest.approx(want, rel=1e-12, abs=1e-12), x
        assert sheet.value(0.8, x) == pytest.approx(want, rel=1e-12, abs=1e-12), x
    with pytest.raises(ValueError):
        sheet.corner_grid(0.8, axes + axes)


def test_corner_grid_stays_inside_the_window():
    for dim, axes in ((1, [[0.5, 1.5, 3.0]]), (2, [[0.5], [1.5]])):
        real = sample_field(preset("balan-stable", alpha=1.5, p=0.7, q=0.3, dim=dim),
                            SamplerConfig(seed=10, window=WIN2 if dim == 2 else LINE,
                                          eps=2e-2))
        sheet = SheetRealization(real)
        with pytest.raises(OutOfWindowError):
            sheet.corner_grid(1.0, axes)
        with pytest.raises(OutOfWindowError):
            sheet.value(1.0, [a[-1] for a in axes])
        # an axis of zeros spans no box: the sheet is 0 wherever the other lies
        assert not sheet.corner_grid(1.0, [[0.0]] + [[5.0]] * (dim - 1)).any()


def test_a_lattice_reads_each_noise_stack_once_per_window_part(monkeypatch):
    chars = Characteristics(1, sigma=DiffusionComponent(1.0),
                            nu=JumpComponent(StableKernel(1.5, 0.7, 0.3)))
    window = Region(1, (Box((-1.0,), (0.2,)), Box((0.2,), (1.0,))))
    real = sample_field(chars, SamplerConfig(seed=4, window=window, eps=2e-2,
                                             small_jump_mode="gaussian-substitute"))
    refines, queries = Counter(), Counter()
    original = WhiteNoiseField._refine

    def refine(stack, steps):
        refines[id(stack)] += 1
        return original(stack, steps)

    def no_query(name):
        def fail(*args, **kwargs):
            queries[name] += 1
        return fail

    monkeypatch.setattr(WhiteNoiseField, "_refine", refine)
    for cls in (PathBatch, FieldRealization):
        for name in ("evaluate", "components"):
            monkeypatch.setattr(cls, name, no_query(f"{cls.__name__}.{name}"))
    grid = SheetRealization(real).corner_grid(1.0, [np.linspace(-0.9, 0.9, 10)])
    assert np.isfinite(grid).all()
    assert queries == Counter()
    assert sorted(refines.values()) == [2, 2]  # Sigma and the substitute, two parts each


def test_corner_grid_fallback_with_varying_drift():
    chars = Characteristics(
        1, gamma=DriftComponent(Density(lambda x: 1.0 + x[:, 0] ** 2)),
        nu=JumpComponent(CompoundPoissonKernel(
            8.0, DiscreteJumps((1.0, -1.0), (0.5, 0.5)))))
    real = sample_field(chars, SamplerConfig(
        seed=3, window=Region.from_intervals([(-1.0, 1.0)]), eps=0.0))
    sheet = SheetRealization(real)
    x = 0.6
    n = int(np.searchsorted(real.jump_times, 1.0, side="right"))
    locs = real.jump_locations[:n, 0]
    jumps = float(real.jump_sizes[:n][(locs > 0) & (locs <= x)].sum())
    want = (x + x ** 3 / 3.0) + jumps  # t = 1 times the drift integral
    assert sheet.corner_grid(1.0, [np.array([x])])[0] == pytest.approx(want, rel=1e-10)


def signed_count(real, t, x):
    """Jumps of (0, t] times their signed corner factors: ``1{0 < g_i <= x_i}``
    for ``x_i > 0``, ``-1{x_i <= g_i < 0}`` for ``x_i < 0``, 0 for ``x_i = 0``."""
    n = int(np.searchsorted(real.jump_times, t, side="right"))
    factor = np.ones(n)
    for g, c in zip(real.jump_locations[:n].T, x):
        factor *= ((0.0 < g) & (g <= c)).astype(float) - ((c <= g) & (g < 0.0))
    return float(real.jump_sizes[:n] @ factor)


def jump_side_misses(sheet, real, t, grid):
    """(side, point, sheet value minus ``signed_count``) wherever they differ, at
    each jump's own coordinates and at the nearest lattice points above and below
    it.  The symmetric impulsive preset has no drift and no compensator."""
    n = int(np.searchsorted(real.jump_times, t, side="right"))
    misses = []
    for g in real.jump_locations[:n]:
        k = np.searchsorted(grid, g)
        assert np.all((k > 0) & (k < grid.size))
        for side, x in (("at", g), ("upper", grid[k]), ("lower", grid[k - 1])):
            delta = sheet.value(t, x) - signed_count(real, t, x)
            if abs(delta) > 1e-12:
                misses.append((side, tuple(x), delta))
    return misses


GRID = np.linspace(-1.0, 1.0, 21)


class WrongSide(SheetRealization):
    # miscount jumps sitting exactly on the query coordinates
    def value(self, t, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return super().value(t, x - 1e-9 * np.sign(x))


def test_sheet_counts_each_jump_on_its_own_side():
    real, sheet = planar(seed=17, rate=30.0)
    assert real.jump_times.size > 20
    assert jump_side_misses(sheet, real, 1.0, GRID) == []


def test_the_jump_side_check_fails_a_wrong_sided_sheet():
    real, _ = planar(seed=17, rate=30.0)
    misses = jump_side_misses(WrongSide(real), real, 1.0, GRID)
    assert {side for side, _, _ in misses} == {"at"}
    assert min(abs(delta) for _, _, delta in misses) > 0.5


def line_field(seed=5, rate=10.0):
    return sample_field(
        preset("impulsive", rate=rate),
        SamplerConfig(seed=seed, window=Region.from_intervals([(-1.0, 1.0)]),
                      eps=0.0))


def test_duality_error_shrinks_at_second_order():
    real = line_field()
    f = ProductBump(center=(0.0,), radius=(0.5,))
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    errs = np.array([duality_check(real, f, 1.0, h).error for h in hs])
    assert np.all(np.diff(errs) < 0.0)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope > 1.5
    res = duality_check(real, f, 1.0, 0.025)
    assert res.rhs == pytest.approx(integrate(real, f, 1.0).value, rel=1e-12)
    assert res.quad_estimate > 0.0 and res.cells > 0


def test_duality_in_the_plane():
    real, _ = planar(seed=8, rate=6.0)
    f = ProductBump(center=(0.0, 0.0), radius=(0.4, 0.4))
    coarse = duality_check(real, f, 1.0, 0.1).error
    fine = duality_check(real, f, 1.0, 0.05).error
    assert fine < coarse


def test_duality_guards():
    real = line_field()
    f = ProductBump(center=(0.0,), radius=(0.5,))
    with pytest.raises(ValueError):
        duality_check(real, f, 1.0, 0.0)
    with pytest.raises(ValueError):
        duality_check(real, GaussianFunction(center=(0.0,), scale=0.2), 1.0, 0.1)
    with pytest.raises(ValueError):
        duality_check(real, ProductBump(center=(0.0,), radius=(1.0,)), 1.0, 0.1)
    soft = sample_field(
        preset("balan-stable", alpha=1.5),
        SamplerConfig(seed=1, window=Region.from_intervals([(-1.0, 1.0)]),
                      eps=1e-2, small_jump_mode="gaussian-substitute"))
    with pytest.raises(ValueError):
        duality_check(soft, f, 1.0, 0.1)
