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
from .sampler import FieldRealization, OutOfWindowError

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

    def corner_region(self, x) -> tuple[Region | None, int]:
        """Signed corner region of ``x`` with its orientation sign."""
        box, sign = _corner_box(np.asarray(x, dtype=float).reshape(-1))
        if box is None:
            return None, sign
        return Region.from_box(box), sign

    def value(self, t: float, x, t0: float = 0.0) -> float:
        """``X(t, x)`` — the field evaluated on the signed corner box of x."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError(f"point has dimension {x.size}, sheet has {self.dim}")
        key = (float(t), float(t0), tuple(x))
        if key in self._cache:
            return self._cache[key]
        region, sign = self.corner_region(x)
        if region is None:
            self.source.config.check_times(t, t0)
            out = 0.0
        else:
            out = sign * self.source.evaluate(t, region, t0)
        if len(self._cache) >= _CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = out
        return out

    def corner_grid(self, t: float, axes, t0: float = 0.0) -> np.ndarray:
        """Sheet values on the tensor lattice ``axes[0] x ... x axes[d-1]``.

        Uses a vectorized evaluation when the realization is pure-jump with
        constant drift and modulation densities; otherwise falls back to
        point-by-point evaluation.
        """
        axes = [np.asarray(a, dtype=float).reshape(-1) for a in axes]
        if len(axes) != self.dim:
            raise ValueError("need one coordinate array per axis")
        fast = _fast_grid(self.source, t, axes, t0)
        if fast is not None:
            return fast
        shape = tuple(a.size for a in axes)
        out = np.empty(shape)
        for idx in np.ndindex(shape):
            out[idx] = self.value(t, [axes[i][idx[i]] for i in range(self.dim)], t0)
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


def box_increment(sheet: SheetRealization, t: float, a, b,
                  t0: float = 0.0) -> BoxIncrement:
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
        return BoxIncrement(tuple(a), tuple(b), 0.0)
    terms = []
    for bits in itertools.product((0, 1), repeat=d):
        corner = np.where(np.asarray(bits, dtype=bool), b, a)
        sign = -1.0 if (d - sum(bits)) % 2 else 1.0
        terms.append(sign * sheet.value(t, corner, t0))
    return BoxIncrement(tuple(a), tuple(b), math.fsum(terms))


# --------------------------------------------------------------------------
# Fast lattice evaluation (pure-jump, constant densities)
# --------------------------------------------------------------------------

def _fast_grid(real: FieldRealization, t: float, axes: list[np.ndarray],
               t0: float) -> np.ndarray | None:
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
    real.config.check_times(t, t0)
    rate = 0.0 if gamma is None else gamma.density.const
    if nu is not None:
        rate -= nu.modulation.const * real.spec.compensator_rate
    d = len(axes)
    i0 = int(np.searchsorted(real.jump_times, t0, side="right"))
    i1 = int(np.searchsorted(real.jump_times, t, side="right"))
    locs = real.jump_locations[i0:i1]
    sizes = real.jump_sizes[i0:i1]

    out = (t - t0) * rate * reduce(np.multiply.outer, axes)
    if chars.gamma is not None:
        for atom in chars.gamma.atoms:
            factors = [_axis_indicator_matrix(np.array([atom.point[i]]), axes[i])[0]
                       for i in range(d)]
            out += (t - t0) * atom.weight * reduce(np.multiply.outer, factors)
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


# --------------------------------------------------------------------------
# Grid-resolution continuity report
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LampViolation:
    jump_index: int
    side: str  # 'at', 'upper', or 'lower'
    point: tuple[float, ...]
    delta: float


@dataclass(frozen=True)
class LampReport:
    checked: int
    skipped: int
    violations: tuple[LampViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def lamp_grid_check(sheet: SheetRealization, t: float, grid) -> LampReport:
    """Grid-resolution check of the sheet's one-sided limit conventions.

    For every retained jump, the sheet value at the jump location, at the
    nearest lattice point in the upper-right orthant, and at the nearest
    strictly-lower lattice point are each reconciled against the exact
    decomposition (deterministic part + signed jump count).  A jump counted
    on the wrong side of its own coordinate shows up as a violation of size
    about the jump height.  Jumps with no admissible neighbor on the grid
    are skipped, so a one-point grid passes vacuously.
    """
    grid = [np.sort(np.asarray(g, dtype=float).reshape(-1)) for g in grid]
    if len(grid) != sheet.dim:
        raise ValueError("need one coordinate array per axis")
    src = sheet.source
    i1 = int(np.searchsorted(src.jump_times, t, side="right"))
    checked = skipped = 0
    violations = []
    for j in range(i1):
        g = src.jump_locations[j]
        upper, lower = [], []
        ok = True
        for i in range(sheet.dim):
            k = int(np.searchsorted(grid[i], g[i], side="left"))
            if k == grid[i].size or k == 0:
                ok = False
                break
            upper.append(grid[i][k])
            lower.append(grid[i][k - 1])
        if not ok or np.any(g == 0.0):
            skipped += 1
            continue
        checked += 1
        for side, point in (("at", tuple(g)), ("upper", tuple(upper)),
                            ("lower", tuple(lower))):
            delta = _decomposition_residual(sheet, t, np.asarray(point))
            if delta is None:
                skipped += 1
                continue
            if abs(delta) > 1e-9 * (1.0 + float(np.abs(src.jump_sizes[:i1]).sum())):
                violations.append(LampViolation(j, side, point, delta))
    return LampReport(checked, skipped, tuple(violations))


def _decomposition_residual(sheet: SheetRealization, t: float,
                            x: np.ndarray) -> float | None:
    """Sheet value minus its exact decomposition at one point.

    The jump part is recomputed from the signed-indicator formula, the
    deterministic and diffuse parts from the component accessors, so a
    closure mismatch in the region-based evaluator cannot cancel out.
    """
    src = sheet.source
    region, sign = sheet.corner_region(x)
    if region is None:
        return sheet.value(t, x)
    try:
        comps = src.components(t, region)
    except OutOfWindowError:
        return None
    i1 = int(np.searchsorted(src.jump_times, t, side="right"))
    factors = np.ones(i1)
    for i in range(sheet.dim):
        factors *= _axis_indicator_matrix(src.jump_locations[:i1, i], x[i:i + 1])[:, 0]
    formula_jumps = float(src.jump_sizes[:i1] @ factors)
    rest = sign * (comps["drift"] - comps["compensator"] + comps["gaussian"]
                   + comps["substitute"])
    return sheet.value(t, x) - rest - formula_jumps
