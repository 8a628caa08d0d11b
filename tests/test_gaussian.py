"""White-noise component: exact additivity under refinement, correct law."""

import numpy as np
import pytest
import scipy.stats as sps

from levyfield import Density, DiffusionComponent, Region
from levyfield.characteristics import Atom
from levyfield.funcs import ProductBump
from levyfield.gaussian import WhiteNoiseField
from levyfield.integrate import PAIRING_LEVELS, _pairing
from levyfield.regions import Box, interval

WIN = Region.from_intervals([(0.0, 1.0)])


def make_stack(seeds, window=WIN, horizon=1.0, density=1.0):
    return WhiteNoiseField(DiffusionComponent(Density(density)), window, horizon,
                           [np.random.SeedSequence((seed, 7)) for seed in seeds])


def make_field(seed, window=WIN, horizon=1.0, density=1.0):
    """A lone field: a stack of one, answering arrays of one value."""
    return make_stack((seed,), window, horizon, density)


def test_marginal_law():
    vals = np.array([make_field(s).value(1.0, WIN)[0] for s in range(4000)])
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
    # a cut at 0.4 splits the time cell; W((0, 1] x .) keeps its value
    w = make_field(5)
    whole = w.value(1.0, WIN)
    assert w.value(0.4, WIN) != whole
    assert w.value(1.0, WIN) == pytest.approx(whole, rel=1e-14)


def test_determinism_and_seed_sensitivity():
    a = make_field(10).value(1.0, Region.from_intervals([(0.2, 0.9)]))
    b = make_field(10).value(1.0, Region.from_intervals([(0.2, 0.9)]))
    c = make_field(11).value(1.0, Region.from_intervals([(0.2, 0.9)]))
    assert a == b
    assert a != c


def test_disjoint_values_uncorrelated():
    left = Region.from_intervals([(0.0, 0.5)])
    right = Region.from_intervals([(0.5, 1.0)])
    pairs = np.array([[ (w := make_field(s)).value(1.0, left)[0],
                        w.value(1.0, right)[0]] for s in range(2500)])
    r = np.corrcoef(pairs.T)[0, 1]
    # each marginal has variance 1/2; null sd of r is ~ 1/sqrt(n)
    assert abs(r) < 4 / np.sqrt(len(pairs))


def test_conditional_split_variance():
    # querying the sub-cell (0, 1/4] of a unit cell: marginal variance 1/4
    vals = np.array([make_field(s).value(1.0, Region.from_intervals([(0.0, 0.25)]))[0]
                     for s in range(4000)])
    assert sps.kstest(vals, "norm", args=(0.0, 0.5)).pvalue > 0.01


def test_nonconstant_density_mass():
    dens = Density(lambda x: 2.0 * x[:, 0] if x.ndim > 1 else 2.0 * x)
    vals = np.array([
        WhiteNoiseField(DiffusionComponent(dens), WIN, 1.0,
                        [np.random.SeedSequence((s, 1))]).value(
            1.0, Region.from_intervals([(0.5, 1.0)]))[0]
        for s in range(3000)])
    # mass over (1/2, 1] is int 2x dx = 3/4
    assert sps.kstest(vals, "norm", args=(0.0, np.sqrt(0.75))).pvalue > 0.01


def test_two_dim_box_additivity():
    win = Region.from_intervals([(0.0, 1.0), (0.0, 1.0)])
    w = WhiteNoiseField(DiffusionComponent(Density(1.0)), win, 1.0,
                        [np.random.SeedSequence(42)])
    q11 = w.value(1.0, Region(2, (Box((0.0, 0.0), (0.5, 0.5)),)))
    q12 = w.value(1.0, Region(2, (Box((0.0, 0.5), (0.5, 1.0)),)))
    q21 = w.value(1.0, Region(2, (Box((0.5, 0.0), (1.0, 0.5)),)))
    q22 = w.value(1.0, Region(2, (Box((0.5, 0.5), (1.0, 1.0)),)))
    assert q11 + q12 + q21 + q22 == w.value(1.0, win)


def test_grid_values_consistent_with_point_queries():
    w = make_field(77)
    edges = [np.array([0.0, 0.3, 0.7, 1.0])]
    cells = w.grid_values(1.0, WIN.boxes[0], edges)
    assert cells.shape == (1, 3)
    for k, (a, b) in enumerate(zip(edges[0][:-1], edges[0][1:])):
        assert cells[0, k] == w.value(1.0, Region(1, (interval(float(a), float(b)),)))[0]


@pytest.mark.parametrize("lo, hi", [(2.0, 3.0), (0.5, 1.5)], ids=["outside", "half-outside"])
def test_grid_values_needs_a_box_inside_one_window_part(lo, hi):
    w = make_field(77)
    with pytest.raises(ValueError, match="within a single window part"):
        w.grid_values(1.0, Box((lo,), (hi,)), [np.linspace(lo, hi, 3)])


@pytest.mark.parametrize("lo, hi", [(2.0, 3.0), (0.5, 1.5)], ids=["outside", "half-outside"])
def test_grid_values_checks_the_box_without_sigma_or_time(lo, hi):
    # a field that reads zeros still refuses a box outside its window parts
    silent = WhiteNoiseField(None, WIN, 1.0, [np.random.SeedSequence(1)])
    for w, t in ((silent, 1.0), (make_field(77), 0.0)):
        with pytest.raises(ValueError, match="within a single window part"):
            w.grid_values(t, Box((lo,), (hi,)), [np.linspace(lo, hi, 3)])
        assert np.array_equal(w.grid_values(t, WIN.boxes[0], [np.linspace(0.0, 1.0, 3)]),
                              np.zeros((1, 2)))


def test_none_sigma_is_zero():
    w = WhiteNoiseField(None, WIN, 1.0, [np.random.SeedSequence(1)])
    assert w.value(1.0, WIN)[0] == 0.0


# --------------------------------------------------------------------------
# batched refinement: adding many planes in one query splits and draws
# exactly as adding them one query at a time
# --------------------------------------------------------------------------

def _state(w, k=0):
    """Planes, cell values and masses, and generator state of field k of a stack."""
    return ([([a.tobytes() for a in p["axes"]], p["values"][k].tobytes(),
              p["smass"].tobytes()) for p in w._patches],
            w._rngs[k].bit_generator.state)


def _one_plane_per_query(w, box, axis, coords, t=1.0):
    # W((0, t] x box cut at c along the space axis): one new plane per query
    for c in coords:
        hi = list(box.hi)
        hi[axis] = float(c)
        w.value(t, Box(box.lo, tuple(hi)))


def _twins(window, density=1.0, atoms=(), horizon=1.0, seed=4):
    sigma = DiffusionComponent(Density(density), atoms)
    return [WhiteNoiseField(sigma, window, horizon, [np.random.SeedSequence(seed)])
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
    # a time plane cut in both window parts, then space planes per part: one
    # query each in ``a``, one mesh query per part (the first cuts time) in ``b``
    a.value(1.2, win)
    for box in win.boxes:
        edges = np.linspace(box.lo[0], box.hi[0], 6)
        _one_plane_per_query(a, box, 0, edges[1:-1], t=1.2)
        b.grid_values(1.2, box, [edges])
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


# --------------------------------------------------------------------------
# stacks: one plane layout, a generator per field
# --------------------------------------------------------------------------

def _queries(w):
    """A fixed query sequence over both query kinds; its answers, in order."""
    return [w.grid_values(1.0, WIN.boxes[0], [np.linspace(0.0, 1.0, 6)]),
            w.value(0.6, interval(0.15, 0.7)),
            w.grid_values(0.3, interval(0.2, 0.8), [np.linspace(0.2, 0.8, 7)]),
            w.value(1.0, WIN)]


def test_a_stack_refines_each_field_as_alone():
    seeds = (1, 2, 3)
    fields = [make_field(s) for s in seeds]
    alone = [_queries(w) for w in fields]
    stack = make_stack(seeds)
    for got, *want in zip(_queries(stack), *alone):
        assert np.array_equal(got, np.concatenate(want))
    assert [_state(stack, k) for k in range(3)] == [_state(w) for w in fields]


def test_rows_leave_their_source_unchanged():
    stack = make_stack((1, 2, 3, 4))
    stack.value(0.5, interval(0.0, 0.3))
    before = [_state(stack, k) for k in range(4)]
    rows = stack.rows(1, 3)
    assert len(rows) == 2
    got = _queries(rows)
    assert [_state(stack, k) for k in range(4)] == before
    for k, seed in enumerate((2, 3)):
        w = make_field(seed)
        w.value(0.5, interval(0.0, 0.3))
        assert all(np.array_equal(a[k], b[0]) for a, b in zip(got, _queries(w)))
        assert _state(rows, k) == _state(w)
    # and the source goes on as before, as its fields alone
    got = _queries(stack)
    w = make_field(4)
    w.value(0.5, interval(0.0, 0.3))
    assert all(np.array_equal(a[3], b[0]) for a, b in zip(got, _queries(w)))


def test_copied_rows_draw_as_the_batch_and_apart_from_it():
    stack = make_stack((5, 6, 7))
    stack.value(0.4, interval(0.1, 0.6))
    rows = stack.rows(0, 2)
    source = [stack._rngs[k].bit_generator.state for k in range(3)]
    got = _queries(rows)
    # the rows drew on generators of their own: the batch's did not advance
    assert [stack._rngs[k].bit_generator.state for k in range(3)] == source
    copied = [rows._rngs[k].bit_generator.state for k in range(2)]
    want = _queries(stack)
    assert [rows._rngs[k].bit_generator.state for k in range(2)] == copied
    assert all(np.array_equal(a, b[:2]) for a, b in zip(got, want))
    assert [_state(rows, k) for k in range(2)] == [_state(stack, k) for k in range(2)]


def test_fresh_stacks_join_and_refined_ones_do_not():
    sigma = DiffusionComponent(Density(1.0))

    def stack(*seeds):  # the stacks of one config share its intensity
        return WhiteNoiseField(sigma, WIN, 1.0, [np.random.SeedSequence((s, 7)) for s in seeds])

    joined = WhiteNoiseField.join([stack(1, 2), stack(3)])
    assert len(joined) == 3
    want = _queries(make_stack((1, 2, 3)))
    assert all(np.array_equal(a, b) for a, b in zip(_queries(joined), want))
    refined = stack(2)
    refined.value(1.0, interval(0.0, 0.3))
    with pytest.raises(ValueError, match="fresh"):
        WhiteNoiseField.join([stack(1), refined])
    with pytest.raises(ValueError, match="fresh"):  # another intensity
        WhiteNoiseField.join([stack(1), make_field(2, density=2.0)])
    assert WhiteNoiseField.join([refined]) is refined


# --------------------------------------------------------------------------
# one query, many steps: ``through`` refines as the meshes queried in turn,
# and each field fills the normals of a whole query in one draw
# --------------------------------------------------------------------------

def _stack_state(w):
    return [_state(w, k) for k in range(len(w))]


def _dyadic(box, levels):
    return [[np.linspace(lo, hi, 2 ** level + 1) for lo, hi in zip(box.lo, box.hi)]
            for level in levels]


def _through_twins(window, density=1.0, atoms=(), horizon=1.0):
    sigma = DiffusionComponent(Density(density), atoms)
    seeds = [np.random.SeedSequence((s, 3)) for s in range(3)]
    return [WhiteNoiseField(sigma, window, horizon, seeds) for _ in range(2)]


@pytest.mark.parametrize("window, density, atoms, horizon, t, levels", [
    # a time plane, and two window boxes refined one after the other
    (Region(1, (Box((0.0,), (1.0,)), Box((2.0,), (3.0,)))), 1.0, (), 2.0, 1.2, range(5)),
    (Region(2, (Box((0.0, 0.0), (1.0, 1.0)), Box((0.0, 1.0), (1.0, 2.0)))), 0.7, (), 1.0,
     1.0, range(4)),
    # a varying density with an atom: the split that integrates the cell masses
    (WIN, lambda x: 1.0 + x[:, 0] if x.ndim > 1 else 1.0 + x, (Atom((0.45,), 0.3),), 1.0,
     0.8, (0, 1, 3)),
])
def test_through_refines_as_the_meshes_queried_in_turn(window, density, atoms, horizon, t,
                                                       levels):
    a, b = _through_twins(window, density, atoms, horizon)
    for box in window.boxes:
        *coarse, last = _dyadic(box, levels)
        for mesh in coarse:
            a.grid_values(t, box, mesh)
        want = a.grid_values(t, box, last)
        got = b.grid_values(t, box, last, through=coarse)
        assert got.tobytes() == want.tobytes()
        assert _stack_state(a) == _stack_state(b)


class _CountingRng:
    """A generator that counts its normal draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return self.rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("window", [WIN, Region(2, (Box((0.0, 0.0), (1.0, 1.0)),))])
def test_a_query_draws_once_per_field(window):
    box = window.boxes[0]
    stack = make_stack((1, 2, 3, 4), window=window, horizon=2.0)
    stack._rngs = [_CountingRng(rng) for rng in stack._rngs]
    *coarse, last = _dyadic(box, range(3))
    stack.grid_values(1.5, box, last, through=coarse)  # a time plane and three meshes
    assert [rng.draws for rng in stack._rngs] == [1, 1, 1, 1]
    stack.value(1.5, window)  # nothing new: no draw
    assert [rng.draws for rng in stack._rngs] == [1, 1, 1, 1]
    # a pairing reads two levels, so it makes two queries, not one per level
    stack = make_stack((1, 2, 3, 4), window=window, horizon=2.0)
    stack._rngs = [_CountingRng(rng) for rng in stack._rngs]
    _pairing(stack, ProductBump((0.5,) * box.dim, 0.4), 1.5, box)
    assert PAIRING_LEVELS[box.dim] > 1
    assert [rng.draws for rng in stack._rngs] == [2, 2, 2, 2]
