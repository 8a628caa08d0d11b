"""Shared deterministic quadrature helpers.

Tensor Gauss-Legendre over boxes with order escalation; the returned error
estimate is the last escalation difference.  Escalation stops once that
difference is within ``max(ABS_TOL, REL_TOL * |value|)``: the tolerances are
module constants, the same for every caller.  ``region_integrals`` integrates
several regions at once: per order, the nodes of every unsettled box of them all,
built axis-major, go to the integrand as one (n, d) view (at most ``MAX_POINTS``
of them, or one box's), and one ``np.matmul`` per axis reduces all their sums
with the same BLAS calls as a lone box's.  An integrand may return k rows, shape
(k, n): every (row, box) escalates, stops and is checked for finiteness on its
own, and a box's nodes are evaluated until all its rows have settled.  So where
the integrand's value at a point does not depend on the other points of the call,
each region's (and row's) value and error are bit for bit those of integrating its
boxes one by one.  Outside this module only ``Density.integral`` (through
``region_integral``, the one-region case) and ``modular_integrals`` call it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .regions import Box, Region

ABS_TOL = 1e-9
REL_TOL = 1e-7
ORDERS = (8, 16, 32, 64, 96)
MAX_POINTS = 2 ** 16   # integrand points per call, unless one box has more

_rule_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int):
    if order not in _rule_cache:
        _rule_cache[order] = np.polynomial.legendre.leggauss(order)
    return _rule_cache[order]


def _tensor_sums(f, mid: np.ndarray, half: np.ndarray, order: int) -> np.ndarray:
    """Tensor Gauss-Legendre sums, shape (rows, boxes), of ``f`` (n values, or k rows of
    them) over the boxes ``mid[i] +- half[i]`` (arrays of shape (boxes, d)).  ``f`` sees
    as many boxes' nodes at once as ``MAX_POINTS`` allows, as an (n, d) view of axis-major
    nodes: axis j's ``mid[:, j] + half[:, j] * node``, broadcast over the grid (C order).
    One ``np.matmul`` per axis, last first, makes a lone box's BLAS calls for all boxes."""
    d = mid.shape[1]
    nodes, weights = _rule(order)
    per = max(1, MAX_POINTS // order ** d)
    parts = []
    for start in range(0, len(mid), per):
        m, h = mid[start:start + per], half[start:start + per]
        b = len(m)
        pts = np.empty((d, b) + (order,) * d)
        for j in range(d):
            pts[j] = (m[:, j, None] + h[:, j, None] * nodes).reshape(
                (b,) + (1,) * j + (order,) + (1,) * (d - 1 - j))
        vals = np.asarray(f(pts.reshape(d, -1).T), dtype=float).reshape((-1, b) + (order,) * d)
        w = h[:, ::-1, None] * weights   # per box, the axes' weights, last axis first
        for t in range(d - 1):
            vals = np.matmul(vals, w[:, t].reshape((b,) + (1,) * (d - 2 - t) + (order, 1)))[..., 0]
        parts.append(np.matmul(vals[..., None, :], w[:, d - 1, :, None])[..., 0, 0])
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _box_integrals(f, boxes) -> list[list[tuple[float, float]]]:
    """Adaptive-order (value, error) per box and row: each (row, box) escalates through
    ``ORDERS`` until it settles, on its own; a box's nodes go to every call until all
    its rows have settled, and a settled row's later sums are never read."""
    lo, hi = np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    prev = _tensor_sums(f, mid, half, ORDERS[0]).T.tolist()
    out: list = [[None] * len(p) for p in prev]
    live = [(i, range(len(p))) for i, p in enumerate(prev)]
    for order in ORDERS[1:]:
        if not live:
            break
        idx = [i for i, _ in live]
        part = (mid, half) if len(idx) == len(mid) else (mid[idx], half[idx])
        still = []
        for (i, rows), sums in zip(live, _tensor_sums(f, *part, order).T.tolist()):
            left = []
            for r in rows:
                cur = sums[r]
                err = abs(cur - prev[i][r])
                if not math.isfinite(cur):
                    raise ArithmeticError("integral is not finite")
                out[i][r] = (cur, err)   # final once it settles, or after the last order
                if not err <= max(ABS_TOL, REL_TOL * abs(cur)):
                    prev[i][r] = cur
                    left.append(r)
            if left:
                still.append((i, left))
        live = still
    return out


def box_integral(f, box: Box):
    """Adaptive-order integral over a box; returns (value, error estimate)."""
    return region_integral(f, Region.from_box(box))


def region_integrals(f, regions) -> list:
    """Per region, the sum over its boxes, in box order, of each box's adaptive-order
    integral: (value, error), or one such pair per row of a k-row integrand.  The boxes
    of all the regions escalate together; a call without any box gives (0.0, 0.0)."""
    boxes = [b for region in regions for b in region.boxes]
    per_box = _box_integrals(f, boxes) if boxes else [[(0.0, 0.0)]]
    results, k = iter(per_box), len(per_box[0])
    out = []
    for region in regions:
        sums = [(0.0, 0.0)] * k
        for _ in region.boxes:
            sums = [(v + bv, e + be) for (v, e), (bv, be) in zip(sums, next(results))]
        out.append(sums[0] if k == 1 else sums)
    return out


def region_integral(f, region: Region):
    """``region_integrals`` of one region."""
    return region_integrals(f, (region,))[0]


@functools.lru_cache(maxsize=None)
def shell_region(dim: int, k: int) -> Region:
    """The dyadic sup-norm shell ``2^k < |x|_inf <= 2^(k+1)`` as a region; k = -1 is
    the core cube ``(-1, 1]^d``, so rungs -1, 0, 1, ... partition R^d."""
    outer = Box((-2.0 ** (k + 1),) * dim, (2.0 ** (k + 1),) * dim)
    if k < 0:
        return Region.from_box(outer)
    inner = Box((-2.0 ** k,) * dim, (2.0 ** k,) * dim)
    return Region(dim, tuple(outer.subtract(inner)))


def last_rung(reach: float) -> int:
    """The last rung that can hold a point of sup-norm ``<= reach``: the least k >= -1 with
    ``2^(k+1) > reach``, since rungs are half-open and ``-2^(k+1)`` lies in rung k + 1."""
    return max(int(np.frexp(reach)[1]) - 1, -1)


def ladder_integral(integral, dim: int, reach: float) -> tuple[float, float]:
    """Sum of ``integral(region) -> (value, error)`` over the core cube and the shells,
    up to the first negligible shell past ``reach`` (at most 30), for decaying integrands."""
    val = err = 0.0
    for k in range(-1, 30):
        inc, e = integral(shell_region(dim, k))
        err += e
        val += inc
        if k >= max(last_rung(reach), 0) and abs(inc) <= max(1e-10, 1e-8 * abs(val)):
            return val, err
    raise ArithmeticError("integral over R^d did not converge on expanding cubes")
