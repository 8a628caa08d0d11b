"""Deterministic integrands: smooth test functions and simple functions.

Test functions know their own mixed partial ``d^d f / dx_1 ... dx_d`` in
closed form (the quantity the integration-by-parts identity needs) and their
support.  Simple functions are finite linear combinations of indicators of
disjoint regions; they are what the pathwise integral is defined on first.
``effective_domain`` is the one reader of their support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions import Box, Region


class TestFunction:
    """Callable on point arrays of shape (n, d); knows dim, support, partials.

    Sums and products over the d coordinates run column by column: for d <= 7
    that is numpy's ``axis=1`` reduction bit for bit, and far faster for small d.
    """

    dim: int
    support_region: Region | None = None  # None means unbounded support

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mixed_partial(self, x: np.ndarray) -> np.ndarray:
        """``d^d f / dx_1 ... dx_d`` evaluated at the points."""
        raise NotImplementedError

    def _coerce(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError(f"points have dimension {x.shape[1]}, expected {self.dim}")
        return x


class ProductBump(TestFunction):
    """Tensor bump ``prod_i phi((x_i - c_i)/R_i)`` supported on a box.

    ``smoothness=None`` gives the C-infinity profile ``exp(-1/(1-t^2))``;
    an integer k >= 1 gives the spline profile ``(1-t^2)^k`` (C^{k-1}).
    """

    def __init__(self, center, radius, smoothness: int | None = None):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        radius = np.broadcast_to(np.asarray(radius, dtype=float), self.center.shape)
        if np.any(radius <= 0):
            raise ValueError("radius must be positive")
        self.radius = radius.copy()
        if smoothness is not None and (int(smoothness) != smoothness or smoothness < 1):
            raise ValueError("smoothness must be None or an integer >= 1")
        self.smoothness = None if smoothness is None else int(smoothness)
        self.dim = self.center.size
        self.support_region = Region.from_box(
            Box(tuple(self.center - self.radius), tuple(self.center + self.radius)))

    def _profile(self, t):
        inside = np.abs(t) < 1.0
        ts = np.where(inside, t, 0.0)
        if self.smoothness is None:
            return np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - ts * ts, 1.0)), 0.0)
        return np.where(inside, (1.0 - ts * ts) ** self.smoothness, 0.0)

    def _profile_deriv(self, t):
        inside = np.abs(t) < 1.0
        ts = np.where(inside, t, 0.0)
        om = np.where(inside, 1.0 - ts * ts, 1.0)
        if self.smoothness is None:
            return np.where(inside, np.exp(-1.0 / om) * (-2.0 * ts) / om ** 2, 0.0)
        return np.where(inside, -2.0 * self.smoothness * ts * om ** (self.smoothness - 1), 0.0)

    def __call__(self, x):
        x = self._coerce(x)
        t = (x - self.center) / self.radius
        return math.prod(self._profile(t).T)

    def mixed_partial(self, x):
        x = self._coerce(x)
        t = (x - self.center) / self.radius
        return math.prod((self._profile_deriv(t) / self.radius).T)


class GaussianFunction(TestFunction):
    """``exp(-|x - c|^2 / (2 s^2))`` — smooth, unbounded support."""

    def __init__(self, center, scale: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)
        self.dim = self.center.size
        self.support_region = None

    def __call__(self, x):
        x = self._coerce(x)
        z = (x - self.center) / self.scale
        return np.exp(-0.5 * sum(c * c for c in z.T))

    def mixed_partial(self, x):
        x = self._coerce(x)
        z = (x - self.center) / self.scale
        g = np.exp(-0.5 * z * z)
        return math.prod((g * (-z / self.scale)).T)


class PolynomialDecay(TestFunction):
    """``(1 + |x|^2)^(-r)`` on R^d; integrable modular iff r is large enough."""

    def __init__(self, r: float, dim: int = 1):
        if r <= 0:
            raise ValueError("decay exponent must be positive")
        self.r = float(r)
        self.dim = int(dim)
        self.support_region = None

    def __call__(self, x):
        x = self._coerce(x)
        s = sum(c * c for c in x.T)
        s += 1.0
        s **= -self.r
        return s

    def mixed_partial(self, x):
        # d applications of d/dx_i give (-2)^d r(r+1)...(r+d-1) x_1...x_d (1+|x|^2)^{-r-d}
        x = self._coerce(x)
        rising = math.prod(self.r + j for j in range(self.dim))
        s = 1.0 + sum(c * c for c in x.T)
        return (-2.0) ** self.dim * rising * math.prod(x.T) * s ** (-self.r - self.dim)


class IndicatorFunction(TestFunction):
    """Indicator of a region; no classical mixed partial."""

    def __init__(self, region: Region):
        self.region = region
        self.dim = region.dim
        self.support_region = region

    def __call__(self, x):
        return self.region.contains(self._coerce(x)).astype(float)

    def mixed_partial(self, x):
        raise ValueError("indicator functions have no classical mixed partial")


@dataclass(frozen=True)
class SimpleFunction:
    """``sum_k coef_k 1_{A_k}`` with pairwise disjoint regions A_k."""

    terms: tuple[tuple[float, Region], ...]

    def __post_init__(self):
        terms = tuple((float(c), r) for c, r in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("a simple function needs at least one term")
        dims = {r.dim for _, r in terms}
        if len(dims) != 1:
            raise ValueError("all regions must share a dimension")
        boxes = [b for _, r in terms for b in r.boxes]
        Region(terms[0][1].dim, tuple(boxes))  # raises when overlapping

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    @property
    def support_region(self) -> Region:
        boxes = tuple(b for _, r in self.terms for b in r.boxes)
        return Region(self.dim, boxes)

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for coef, region in self.terms:
            out += coef * region.contains(x)
        return out


def effective_domain(f, region: Region | None = None) -> Region | None:
    """The part of ``region`` (None: R^d) where f can be nonzero; None if unbounded."""
    support = getattr(f, "support_region", None)
    if support is None:
        return region
    return support if region is None else region.intersect(support)
