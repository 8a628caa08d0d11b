"""Shared deterministic quadrature helpers.

Tensor Gauss-Legendre over boxes with order escalation; the returned error
estimate is the last escalation difference.  Escalation stops once that
difference is within ``max(ABS_TOL, REL_TOL * |value|)``: the tolerances are
module constants, the same for every caller.  All evaluation points are fed to
the integrand as a single (n, d) array, so vectorized integrands stay fast.
Outside this module only ``Density.integral`` and ``modular_integral`` call it.
"""

from __future__ import annotations

import numpy as np

from .regions import Box, Region

ABS_TOL = 1e-9
REL_TOL = 1e-7

_rule_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int):
    if order not in _rule_cache:
        _rule_cache[order] = np.polynomial.legendre.leggauss(order)
    return _rule_cache[order]


def gauss_box(f, lo, hi, order: int) -> float:
    """Tensor Gauss-Legendre of ``f`` over the box [lo, hi] at a fixed order."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    nodes, weights = _rule(order)
    axes_pts = [0.5 * (a + b) + 0.5 * (b - a) * nodes for a, b in zip(lo, hi)]
    axes_wts = [0.5 * (b - a) * weights for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.asarray(f(pts), dtype=float).reshape([len(nodes)] * d)
    for w in reversed(axes_wts):
        vals = vals @ w
    return float(vals)


def box_integral(f, box: Box) -> tuple[float, float]:
    """Adaptive-order integral over a box; returns (value, error estimate)."""
    prev = gauss_box(f, box.lo, box.hi, 8)
    for order in (16, 32, 64, 96):
        cur = gauss_box(f, box.lo, box.hi, order)
        err = abs(cur - prev)
        if not np.isfinite(cur):
            raise ArithmeticError("integral is not finite")
        if err <= max(ABS_TOL, REL_TOL * abs(cur)):
            return cur, err
        prev = cur
    return prev, err


def region_integral(f, region: Region) -> tuple[float, float]:
    """Sum of ``box_integral`` over the region's boxes: (value, error)."""
    total, err = 0.0, 0.0
    for b in region.boxes:
        v, e = box_integral(f, b)
        total += v
        err += e
    return total, err


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
