"""Shared deterministic quadrature helpers.

Tensor Gauss-Legendre over boxes with order escalation; the returned error
estimate is the last escalation difference.  Escalation stops once that
difference is within ``max(ABS_TOL, REL_TOL * |value|)``: the tolerances are
module constants, the same for every caller.  ``region_integrals`` integrates
several regions at once: per order, the nodes of every unsettled box of them all,
built axis by axis, go to the integrand as one (n, d) array (at most
``MAX_POINTS`` of them, or one box's).  Each box still escalates, stops and is
reduced on its own, so where the integrand's value at a point does not depend on
the other points of the call, each region's value and error are bit for bit those
of integrating its boxes one by one.  Outside this module only ``Density.integral``
(through ``region_integral``, the one-region case) and ``modular_integrals`` call it.
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


def _tensor_sums(f, mid: np.ndarray, half: np.ndarray, order: int) -> list[float]:
    """Tensor Gauss-Legendre sums of ``f`` over the boxes ``mid[i] +- half[i]`` (arrays
    of shape (boxes, d)), evaluating ``f`` on the nodes of as many boxes at once as
    ``MAX_POINTS`` allows; each sum is reduced axis by axis as for a lone box.  Axis
    j's nodes ``mid[:, j] + half[:, j] * node`` are broadcast over the grid (C order)."""
    d = mid.shape[1]
    nodes, weights = _rule(order)
    per = max(1, MAX_POINTS // order ** d)
    sums = []
    for start in range(0, len(mid), per):
        m, h = mid[start:start + per], half[start:start + per]
        pts = np.empty((len(m),) + (order,) * d + (d,))
        for j in range(d):
            pts[..., j] = (m[:, j, None] + h[:, j, None] * nodes).reshape(
                (len(m),) + (1,) * j + (order,) + (1,) * (d - 1 - j))
        vals = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape(pts.shape[:-1])
        for v, axis_weights in zip(vals, h[:, ::-1, None] * weights):
            for w in axis_weights:
                v = v @ w
            sums.append(float(v))
    return sums


def _box_integrals(f, boxes) -> list[tuple[float, float]]:
    """Adaptive-order (value, error) per box: every box escalates through
    ``ORDERS`` until it settles, and the boxes still unsettled share each call."""
    lo, hi = np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    prev = _tensor_sums(f, mid, half, ORDERS[0])
    out: list = [None] * len(prev)
    live = list(range(len(prev)))
    for order in ORDERS[1:]:
        if not live:
            break
        part = (mid, half) if len(live) == len(mid) else (mid[live], half[live])
        still = []
        for i, cur in zip(live, _tensor_sums(f, *part, order)):
            err = abs(cur - prev[i])
            if not math.isfinite(cur):
                raise ArithmeticError("integral is not finite")
            out[i] = (cur, err)   # final once it settles, or after the last order
            if not err <= max(ABS_TOL, REL_TOL * abs(cur)):
                prev[i] = cur
                still.append(i)
        live = still
    return out


def box_integral(f, box: Box) -> tuple[float, float]:
    """Adaptive-order integral over a box; returns (value, error estimate)."""
    return _box_integrals(f, (box,))[0]


def region_integrals(f, regions) -> list[tuple[float, float]]:
    """Per region, the sum over its boxes, in box order, of each box's adaptive-order
    integral: (value, error).  The boxes of all the regions escalate together."""
    boxes = [b for region in regions for b in region.boxes]
    results = iter(_box_integrals(f, boxes) if boxes else ())
    out = []
    for region in regions:
        total, err = 0.0, 0.0
        for _ in region.boxes:
            v, e = next(results)
            total += v
            err += e
        out.append((total, err))
    return out


def region_integral(f, region: Region) -> tuple[float, float]:
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
