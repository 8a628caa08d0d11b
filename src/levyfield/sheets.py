"""Multiparameter sheet view of a sampled field realization.

A realization of the random measure induces a sheet ``X(t, x)`` equal to the
measure of the signed corner box spanned by the origin and ``x``: the factor
along axis ``i`` is ``(0, x_i]`` when ``x_i > 0`` and ``[x_i, 0)`` when
``x_i < 0``, and each negative factor contributes a sign flip.  The sheet is
zero whenever some coordinate of ``x`` vanishes, and box increments of the
sheet recover the measure of the box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .funcs import TestFunction, effective_domain
from .integrate import integrate
from .regions import Box, Region
from .sampler import FieldRealization

_CACHE_LIMIT = 1 << 16


def _corner_box(x: np.ndarray) -> tuple[Box | None, int]:
    """Signed corner box of ``x`` and its orientation sign.

    Returns ``(None, 1)`` when some coordinate vanishes (degenerate box).
    """
    if np.any(x == 0.0):
        return None, 1
    lo = tuple(min(c, 0.0) for c in x)
    hi = tuple(max(c, 0.0) for c in x)
    closed = tuple(c < 0.0 for c in x)
    sign = -1 if int(np.sum(x < 0.0)) % 2 else 1
    return Box(lo, hi, closed), sign


class SheetRealization:
    """Sheet evaluator backed by one :class:`FieldRealization`."""

    def __init__(self, source: FieldRealization):
        self.source = source
        self._cache: dict[tuple, float] = {}

    @property
    def dim(self) -> int:
        return self.source.chars.dim

    def value(self, t: float, x) -> float:
        """``X(t, x)`` — the field over (0, t] x the signed corner box of x."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError(f"point has dimension {x.size}, sheet has {self.dim}")
        key = (float(t), tuple(x))
        if key in self._cache:
            return self._cache[key]
        box, sign = _corner_box(x)
        if box is None:
            self.source.config.check_times(t)
            out = 0.0
        else:
            out = sign * self.source.evaluate(t, Region.from_box(box))
        if len(self._cache) >= _CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = out
        return out

    def corner_grid(self, t: float, axes) -> np.ndarray:
        """Sheet values on the tensor lattice ``axes[0] x ... x axes[d-1]``.

        Uses a vectorized evaluation when the realization is pure-jump with
        constant drift and modulation densities; otherwise falls back to
        point-by-point evaluation.
        """
        axes = [np.asarray(a, dtype=float).reshape(-1) for a in axes]
        if len(axes) != self.dim:
            raise ValueError("need one coordinate array per axis")
        fast = _fast_grid(self.source, t, axes)
        if fast is not None:
            return fast
        shape = tuple(a.size for a in axes)
        out = np.empty(shape)
        for idx in np.ndindex(shape):
            out[idx] = self.value(t, [axes[i][idx[i]] for i in range(self.dim)])
        return out


# --------------------------------------------------------------------------
# Box increments
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxIncrement:
    a: tuple[float, ...]
    b: tuple[float, ...]
    value: float

    def __float__(self) -> float:
        return self.value


def box_increment(sheet: SheetRealization, t: float, a, b) -> BoxIncrement:
    """Alternating 2^d corner sum of the sheet over the box (a, b].

    Degenerate boxes (``a_j == b_j`` on some axis) give exactly zero; the sum
    telescopes corner values with sign ``(-1)^{#a-coordinates}``.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    d = sheet.dim
    if a.size != d or b.size != d:
        raise ValueError("corner dimension mismatch")
    if np.any(a > b):
        raise ValueError("need a <= b componentwise")
    if np.any(a == b):
        sheet.source.config.check_times(t)
        return BoxIncrement(tuple(a), tuple(b), 0.0)
    terms = []
    for bits in itertools.product((0, 1), repeat=d):
        corner = np.where(np.asarray(bits, dtype=bool), b, a)
        sign = -1.0 if (d - sum(bits)) % 2 else 1.0
        terms.append(sign * sheet.value(t, corner))
    return BoxIncrement(tuple(a), tuple(b), math.fsum(terms))


# --------------------------------------------------------------------------
# Fast lattice evaluation (pure-jump, constant densities)
# --------------------------------------------------------------------------

def _fast_grid(real: FieldRealization, t: float, axes: list[np.ndarray]) -> np.ndarray | None:
    """Vectorized corner-grid evaluation, or None when inapplicable.

    Applies when the deterministic part of M(t, .), drift minus the
    compensator of the retained jumps, has a spatially constant density.
    """
    chars = real.chars
    if chars.sigma is not None or real.substitute is not None:
        return None
    gamma, nu = chars.gamma, chars.nu
    if (gamma is not None and not gamma.density.is_constant
            or nu is not None and not nu.modulation.is_constant):
        return None
    real.config.check_times(t)
    rate = 0.0 if gamma is None else gamma.density.const
    if nu is not None:
        rate -= nu.modulation.const * real.spec.compensator_rate
    d = len(axes)
    i1 = int(np.searchsorted(real.jump_times, t, side="right"))
    locs = real.jump_locations[:i1]
    sizes = real.jump_sizes[:i1]

    out = t * rate * reduce(np.multiply.outer, axes)
    if chars.gamma is not None:
        for atom in chars.gamma.atoms:
            factors = [_axis_indicator_matrix(np.array([atom.point[i]]), axes[i])[0]
                       for i in range(d)]
            out += t * atom.weight * reduce(np.multiply.outer, factors)
    if sizes.size:
        mats = [_axis_indicator_matrix(locs[:, i], axes[i]) for i in range(d)]
        if d == 1:
            out += sizes @ mats[0]
        elif d == 2:
            out += (mats[0] * sizes[:, None]).T @ mats[1]
        else:
            letters = "abcdefgh"[:d]
            sub = "j," + ",".join("j" + c for c in letters) + "->" + letters
            out += np.einsum(sub, sizes, *mats)
    return out


def _axis_indicator_matrix(gs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Signed corner factors ``S[j, k] = 1{0 < g_j <= x_k} - 1{x_k <= g_j < 0}``.

    The product of one axis's factors over all axes counts a point ``g``
    inside the signed corner box of ``x``, sign included.
    """
    pos = (gs[:, None] > 0.0) & (gs[:, None] <= xs[None, :])
    neg = (gs[:, None] < 0.0) & (gs[:, None] >= xs[None, :])
    return pos.astype(float) - neg.astype(float)


# --------------------------------------------------------------------------
# Weak-derivative duality
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityResult:
    """Pairing of the sheet against the mixed derivative of a test function.

    ``lhs`` is the tensor-midpoint quadrature of ``(-1)^d fdot * X`` at
    resolution ``h``; ``rhs`` the direct integral of ``f`` against the
    realization; ``quad_estimate`` the shift observed against one coarser
    mesh (a resolution-limit indicator, not a bound).
    """

    lhs: float
    rhs: float
    error: float
    h: float
    cells: int
    quad_estimate: float


def duality_check(real: FieldRealization, f: TestFunction, t: float,
                  h: float) -> DualityResult:
    """Compare ``(-1)^d int fdot(x) X(t,x) dx`` with ``int f dM(t, .)``.

    The quadrature splits each axis at retained-jump coordinates so midpoint
    cells never straddle a discontinuity of the sheet, then subdivides to
    width at most ``h``.  Requires a finite-activity realization (no Gaussian
    part, no small-jump surrogate) and ``f`` compactly supported strictly
    inside the window.
    """
    if h <= 0.0:
        raise ValueError("resolution h must be positive")
    chars = real.chars
    if chars.sigma is not None or real.substitute is not None:
        raise ValueError("duality quadrature needs a finite-activity realization")
    sup = effective_domain(f)
    if sup is None:
        raise ValueError("duality needs a compactly supported test function")
    bbox = sup.bounding_box()
    pad = tuple(1e-9 * (1.0 + hi - lo) for lo, hi in zip(bbox.lo, bbox.hi))
    grown = Box(tuple(lo - p for lo, p in zip(bbox.lo, pad)),
                tuple(hi + p for hi, p in zip(bbox.hi, pad)))
    if not real.config.window.covers(grown):
        raise ValueError("test-function support touches the window boundary")

    sheet = SheetRealization(real)
    lhs, cells = _pair_mixed(real, sheet, f, t, bbox, h)
    coarse, _ = _pair_mixed(real, sheet, f, t, bbox, 2.0 * h)
    rhs = integrate(real, f, t).value
    return DualityResult(lhs=lhs, rhs=rhs, error=abs(lhs - rhs), h=h,
                         cells=cells, quad_estimate=abs(lhs - coarse))


def _pair_mixed(real: FieldRealization, sheet: SheetRealization,
                f: TestFunction, t: float, bbox: Box, h: float) -> tuple[float, int]:
    d = bbox.dim
    i1 = int(np.searchsorted(real.jump_times, t, side="right"))
    mids, widths = [], []
    for i in range(d):
        lo, hi = bbox.lo[i], bbox.hi[i]
        cuts = [real.jump_locations[:i1, i]]
        if real.chars.gamma is not None:
            cuts.append(np.asarray([a.point[i] for a in real.chars.gamma.atoms]))
        cuts.append(np.asarray([0.0]))
        inner = np.concatenate(cuts) if cuts else np.empty(0)
        inner = inner[(inner > lo + 1e-13) & (inner < hi - 1e-13)]
        edges = np.unique(np.concatenate([[lo, hi], inner]))
        edges = edges[np.concatenate([[True], np.diff(edges) > 1e-13])]
        m_parts, w_parts = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            n = max(1, int(np.ceil((b - a) / h)))
            sub = np.linspace(a, b, n + 1)
            m_parts.append(0.5 * (sub[:-1] + sub[1:]))
            w_parts.append(np.diff(sub))
        mids.append(np.concatenate(m_parts))
        widths.append(np.concatenate(w_parts))

    values = sheet.corner_grid(t, mids)
    grids = np.meshgrid(*mids, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    fdot = np.asarray(f.mixed_partial(points)).reshape(values.shape)
    weight = reduce(np.multiply.outer, widths)
    sign = -1.0 if d % 2 else 1.0
    total = sign * math.fsum((fdot * values * weight).ravel())
    return total, int(values.size)
