"""White-noise component: exact additivity under refinement, correct law."""

import numpy as np
import pytest
import scipy.stats as sps

from levyfield import Density, DiffusionComponent, Region
from levyfield.characteristics import Atom
from levyfield.gaussian import WhiteNoiseField
from levyfield.regions import Box, interval

WIN = Region.from_intervals([(0.0, 1.0)])


def make_field(seed, window=WIN, horizon=1.0, density=1.0):
    return WhiteNoiseField(DiffusionComponent(Density(density)), window, horizon,
                           np.random.SeedSequence((seed, 7)))


def test_marginal_law():
    vals = np.array([make_field(s).value(1.0, WIN) for s in range(4000)])
    # W((0,1] x (0,1]) ~ N(0, 1)
    assert abs(vals.mean()) < 4 / np.sqrt(len(vals))
    assert sps.kstest(vals, "norm").pvalue > 0.01


def test_split_additivity_is_exact():
    w = make_field(3)
    whole = w.value(1.0, WIN)
    left = w.value(1.0, Region.from_intervals([(0.0, 0.37)]))
    right = w.value(1.0, Region.from_intervals([(0.37, 1.0)]))
    assert left + right == whole  # exact by construction, not approx
    # further refinement preserves already-queried totals up to re-summation
    # order (each split stores v_left and v - v_left, so only the float
    # reassociation of the n-cell sum can move the result, by ulps)
    for cut in (0.1, 0.2, 0.8, 0.93):
        w.value(1.0, Region.from_intervals([(0.0, cut)]))
    assert w.value(1.0, WIN) == pytest.approx(whole, rel=1e-14)
    assert w.value(1.0, Region.from_intervals([(0.0, 0.37)])) == pytest.approx(left, rel=1e-14)


def test_time_increment_additivity():
    w = make_field(5)
    a = w.value(0.4, WIN)
    b = w.value(1.0, WIN, t0=0.4)
    assert a + b == w.value(1.0, WIN)


def test_determinism_and_seed_sensitivity():
    a = make_field(10).value(1.0, Region.from_intervals([(0.2, 0.9)]))
    b = make_field(10).value(1.0, Region.from_intervals([(0.2, 0.9)]))
    c = make_field(11).value(1.0, Region.from_intervals([(0.2, 0.9)]))
    assert a == b
    assert a != c


def test_disjoint_values_uncorrelated():
    left = Region.from_intervals([(0.0, 0.5)])
    right = Region.from_intervals([(0.5, 1.0)])
    pairs = np.array([[ (w := make_field(s)).value(1.0, left),
                        w.value(1.0, right)] for s in range(2500)])
    r = np.corrcoef(pairs.T)[0, 1]
    # each marginal has variance 1/2; null sd of r is ~ 1/sqrt(n)
    assert abs(r) < 4 / np.sqrt(len(pairs))


def test_conditional_split_variance():
    # querying the sub-cell (0, 1/4] of a unit cell: marginal variance 1/4
    vals = np.array([make_field(s).value(1.0, Region.from_intervals([(0.0, 0.25)]))
                     for s in range(4000)])
    assert sps.kstest(vals, "norm", args=(0.0, 0.5)).pvalue > 0.01


def test_nonconstant_density_mass():
    dens = Density(lambda x: 2.0 * x[:, 0] if x.ndim > 1 else 2.0 * x)
    w = WhiteNoiseField(DiffusionComponent(dens), WIN, 1.0,
                        np.random.SeedSequence(0))
    vals = np.array([
        WhiteNoiseField(DiffusionComponent(dens), WIN, 1.0,
                        np.random.SeedSequence((s, 1))).value(
            1.0, Region.from_intervals([(0.5, 1.0)]))
        for s in range(3000)])
    # mass over (1/2, 1] is int 2x dx = 3/4
    assert sps.kstest(vals, "norm", args=(0.0, np.sqrt(0.75))).pvalue > 0.01


def test_two_dim_box_additivity():
    win = Region.from_intervals([(0.0, 1.0), (0.0, 1.0)])
    w = WhiteNoiseField(DiffusionComponent(Density(1.0)), win, 1.0,
                        np.random.SeedSequence(42))
    q11 = w.value(1.0, Region(2, (Box((0.0, 0.0), (0.5, 0.5)),)))
    q12 = w.value(1.0, Region(2, (Box((0.0, 0.5), (0.5, 1.0)),)))
    q21 = w.value(1.0, Region(2, (Box((0.5, 0.0), (1.0, 0.5)),)))
    q22 = w.value(1.0, Region(2, (Box((0.5, 0.5), (1.0, 1.0)),)))
    assert q11 + q12 + q21 + q22 == w.value(1.0, win)


def test_grid_values_consistent_with_point_queries():
    w = make_field(77)
    edges = [np.array([0.0, 0.3, 0.7, 1.0])]
    cells = w.grid_values(1.0, WIN.boxes[0], edges)
    assert cells.shape == (3,)
    for k, (a, b) in enumerate(zip(edges[0][:-1], edges[0][1:])):
        assert cells[k] == w.value(1.0, Region(1, (interval(float(a), float(b)),)))


def test_none_sigma_is_zero():
    w = WhiteNoiseField(None, WIN, 1.0, np.random.SeedSequence(1))
    assert w.value(1.0, WIN) == 0.0


# --------------------------------------------------------------------------
# batched refinement: adding many planes in one query splits and draws
# exactly as adding them one query at a time
# --------------------------------------------------------------------------

def _state(w):
    return ([([a.tobytes() for a in p["axes"]], p["values"].tobytes(),
              p["smass"].tobytes()) for p in w._patches],
            w._rng.bit_generator.state)


def _one_plane_per_query(w, box, axis, coords, t=1.0):
    # W((0, t] x box cut at c along the space axis): one new plane per query
    for c in coords:
        hi = list(box.hi)
        hi[axis] = float(c)
        w.value(t, Box(box.lo, tuple(hi)))


def _twins(window, density=1.0, atoms=(), horizon=1.0, seed=4):
    sigma = DiffusionComponent(Density(density), atoms)
    return [WhiteNoiseField(sigma, window, horizon, np.random.SeedSequence(seed))
            for _ in range(2)]


@pytest.mark.parametrize("density, atoms", [
    (1.0, ()),
    (lambda x: 2.0 * x[:, 0] if x.ndim > 1 else 2.0 * x, (Atom((0.45,), 0.3),)),
])
def test_batched_planes_match_one_per_query_1d(density, atoms):
    a, b = _twins(WIN, density, atoms)
    box = WIN.boxes[0]
    edges = np.linspace(0.0, 1.0, 9)
    _one_plane_per_query(a, box, 0, edges[1:-1])
    b.grid_values(1.0, box, [edges])
    assert _state(a) == _state(b)
    # a non-nested mesh: up to three new planes inside one old cell
    thirds = np.linspace(0.0, 1.0, 4)
    a2, b2 = _twins(WIN, density, atoms, seed=5)
    _one_plane_per_query(a2, box, 0, thirds[1:-1])
    _one_plane_per_query(a2, box, 0, [c for c in np.linspace(0.0, 1.0, 11)[1:-1]
                                      if c not in thirds])
    b2.grid_values(1.0, box, [thirds])
    b2.grid_values(1.0, box, [np.linspace(0.0, 1.0, 11)])
    assert _state(a2) == _state(b2)
    assert a2.value(1.0, interval(0.25, 0.65)) == b2.value(1.0, interval(0.25, 0.65))


def test_batched_planes_match_one_per_query_two_boxes_and_time():
    win = Region(1, (Box((0.0,), (1.0,)), Box((2.0,), (3.0,))))
    a, b = _twins(win, horizon=2.0)
    # two time planes in one old cell [0, 2], cut in both window parts
    a.value(0.5, win)
    a.value(1.2, win)
    b.value(1.2, win, t0=0.5)
    assert _state(a) == _state(b)
    for box in win.boxes:
        edges = np.linspace(box.lo[0], box.hi[0], 6)
        _one_plane_per_query(a, box, 0, edges[1:-1], t=2.0)
        b.grid_values(2.0, box, [edges])
    assert _state(a) == _state(b)


def test_batched_planes_match_one_per_query_2d_two_boxes():
    # the x planes cut both window parts, which share the x range [0, 1]
    win = Region(2, (Box((0.0, 0.0), (1.0, 1.0)), Box((0.0, 1.0), (1.0, 2.0))))
    a, b = _twins(win, density=0.7)
    box = win.boxes[0]
    xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4)
    _one_plane_per_query(a, box, 0, xs[1:-1])
    _one_plane_per_query(a, box, 1, ys[1:-1])
    b.grid_values(1.0, box, [xs, ys])
    assert _state(a) == _state(b)
    fine = np.linspace(0.0, 1.0, 8)
    _one_plane_per_query(a, box, 0, [c for c in fine[1:-1] if c not in xs])
    b.grid_values(1.0, box, [fine, ys])
    assert _state(a) == _state(b)
    assert len(b._patches[1]["axes"][1]) == len(set(xs) | set(fine))
