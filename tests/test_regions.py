"""Half-open boxes and disjoint-union regions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfield import Box, Region, interval


def test_interval_is_left_open():
    b = interval(0.0, 1.0)
    pts = np.array([[0.0], [1e-12], [0.5], [1.0], [1.0 + 1e-12]])
    assert b.contains(pts).tolist() == [False, True, True, True, False]


def test_volume():
    assert interval(2.0, 5.0).volume == 3.0
    assert Box((0.0, -1.0), (2.0, 1.0)).volume == 4.0


def test_intersect():
    a = Box((0.0, 0.0), (2.0, 2.0))
    b = Box((1.0, -1.0), (3.0, 1.0))
    c = a.intersect(b)
    assert c.lo == (1.0, 0.0) and c.hi == (2.0, 1.0)
    assert a.intersect(Box((5.0, 5.0), (6.0, 6.0))) is None


def test_subtract_partitions_volume():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lo = rng.uniform(-2, 1, 2)
        a = Box(tuple(lo), tuple(lo + rng.uniform(0.1, 2, 2)))
        lo2 = rng.uniform(-2, 1, 2)
        b = Box(tuple(lo2), tuple(lo2 + rng.uniform(0.1, 2, 2)))
        pieces = a.subtract(b)
        inter = a.intersect(b)
        got = sum(p.volume for p in pieces)
        want = a.volume - (inter.volume if inter is not None else 0.0)
        assert got == pytest.approx(want, abs=1e-12)
        # pieces stay inside a and miss b
        pts = rng.uniform(-2.5, 3.5, size=(200, 2))
        inside = np.zeros(len(pts), dtype=bool)
        for p in pieces:
            hit = p.contains(pts)
            assert not np.any(hit & ~a.contains(pts))
            assert not np.any(hit & b.contains(pts))
            assert not np.any(hit & inside), "subtract produced overlapping pieces"
            inside |= hit


def test_region_rejects_overlapping_boxes():
    with pytest.raises(ValueError):
        Region(1, (interval(0.0, 1.0), interval(0.5, 2.0)))


def test_region_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        Region(2, (interval(0.0, 1.0),))


def test_from_intervals():
    r = Region.from_intervals([(0.0, 1.0), (-1.0, 1.0)])
    assert r.dim == 2
    assert r.volume == pytest.approx(2.0)


def test_union_region_contains_and_volume():
    r = Region(1, (interval(0.0, 1.0), interval(2.0, 3.0)))
    assert r.volume == pytest.approx(2.0)
    pts = np.array([[0.5], [1.5], [2.5], [3.0]])
    assert r.contains(pts).tolist() == [True, False, True, True]


def test_covers_is_measure_sense():
    # two halves cover the whole interval even though the shared edge point
    # belongs to only one of them
    r = Region(1, (interval(0.0, 0.5), interval(0.5, 1.0)))
    assert r.covers(interval(0.0, 1.0))
    assert not r.covers(interval(0.0, 1.1))


def test_covers_region():
    big = Region.from_intervals([(0.0, 2.0)])
    small = Region(1, (interval(0.1, 0.4), interval(1.0, 1.9)))
    assert big.covers_region(small)
    assert not small.covers_region(big)


def test_bounding_box():
    r = Region(2, (Box((0.0, 0.0), (1.0, 1.0)), Box((2.0, -1.0), (3.0, 0.5))))
    bb = r.bounding_box()
    assert bb.lo == (0.0, -1.0) and bb.hi == (3.0, 1.0)


def test_intersect_region():
    a = Region(1, (interval(0.0, 1.0), interval(2.0, 3.0)))
    b = Region.from_intervals([(0.5, 2.5)])
    c = a.intersect(b)
    assert c.volume == pytest.approx(1.0)


coords = st.floats(-5, 5, allow_nan=False, width=32).map(float)


@settings(max_examples=60, deadline=None)
@given(st.tuples(coords, coords, coords, coords).filter(
    lambda t: t[0] < t[1] and t[2] < t[3]))
def test_subtract_never_overcounts_1d(t):
    a_lo, a_hi, b_lo, b_hi = t
    a, b = Box((a_lo,), (a_hi,)), Box((b_lo,), (b_hi,))
    pieces = a.subtract(b)
    inter = a.intersect(b)
    got = sum(p.volume for p in pieces)
    assert got == pytest.approx(
        a.volume - (inter.volume if inter else 0.0), abs=1e-6)
