"""Multiparameter sheet view of a sampled field realization.

A realization of the random measure induces a sheet ``X(t, x)`` equal to the
measure of the signed corner box spanned by the origin and ``x``: the factor
along axis ``i`` is ``(0, x_i]`` when ``x_i > 0`` and ``[x_i, 0)`` when
``x_i < 0``, and each negative factor contributes a sign flip.  The sheet is
zero whenever some coordinate of ``x`` vanishes, and box increments of the
sheet recover the measure of the box.

Every sheet query is one tensor lattice (``SheetRealization.corner_grid``),
which contracts each part of the path against the signed corner factors of
``_axis_indicator_matrix``: a point is a lattice of one point, and a box
increment the two-point lattice of its corners, differenced axis by axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .characteristics import Density
from .funcs import TestFunction, effective_domain
from .integrate import integrate
from .regions import Box, Region
from .sampler import FieldRealization, OutOfWindowError

_CACHE_LIMIT = 1 << 16


class SheetRealization:
    """Sheet evaluator backed by one :class:`FieldRealization`."""

    def __init__(self, source: FieldRealization):
        self.source = source
        self._cache: dict[tuple, float] = {}

    @property
    def dim(self) -> int:
        return self.source.chars.dim

    def value(self, t: float, x) -> float:
        """``X(t, x)``: the field over (0, t] x the signed corner box of x, as
        the one-point lattice of ``corner_grid``; answers are kept."""
        x = np.asarray(x, dtype=float).reshape(-1)
        key = (float(t), tuple(x))
        if key not in self._cache:
            if len(self._cache) >= _CACHE_LIMIT:
                self._cache.clear()
            self._cache[key] = self.corner_grid(t, x[:, None]).item()
        return self._cache[key]

    def corner_grid(self, t: float, axes) -> np.ndarray:
        """Sheet values on the tensor lattice ``axes[0] x ... x axes[d-1]``.

        Zero when some axis holds only 0; otherwise the window must cover the
        hull box ``prod_i [min(0, axes[i]), max(0, axes[i])]``.  Jumps and gamma
        atoms count by the signed corner factors at their points, constant
        drift and compensator densities as ``t rate prod_i x_i``.  White noises
        (one ``grid_values`` read per window part) and varying densities (one
        ``Density.integral`` per cell) are read on the hull's cells cut at the
        lattice coordinates, 0 and the parts, and contracted at the cell
        midpoints, axis by axis.  Axes may be unsorted and repeat values.
        """
        real, chars = self.source, self.source.chars
        axes = [np.asarray(a, dtype=float).reshape(-1) for a in axes]
        if len(axes) != self.dim:
            raise ValueError("need one coordinate array per axis")
        real.config.check_times(t)
        if not all(np.any(a) for a in axes):
            return np.zeros(tuple(a.size for a in axes))
        hull = Box(tuple(min(0.0, a.min()) for a in axes), tuple(max(0.0, a.max()) for a in axes))
        if not real.config.window.covers(hull):
            raise OutOfWindowError("sheet lattice leaves the sampled window")

        # deterministic part: constant densities in closed form, the rest per cell
        gamma, nu, comp = chars.gamma, chars.nu, real.spec.compensator_rate
        rate, varying = 0.0, []  # varying: (factor, density)
        if gamma is not None:
            if gamma.density.is_constant:
                rate = gamma.density.const
            else:
                varying.append((1.0, gamma.density))
        if nu is not None:
            if nu.modulation.is_constant:
                rate -= nu.modulation.const * comp
            elif comp:
                varying.append((-comp, nu.modulation))
        density = Density(lambda p: sum(c * g(p) for c, g in varying)) if varying else None
        i1 = int(np.searchsorted(real.jump_times, t, side="right"))
        locs, sizes, d = real.jump_locations[:i1], real.jump_sizes[:i1], len(axes)

        out = t * rate * reduce(np.multiply.outer, axes)
        if gamma is not None:
            for atom in gamma.atoms:
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
        stacks = [s for s in (real.gaussian, real.substitute) if s is not None]
        if not (stacks or density):  # pure jumps, constant densities: no cells to read
            return out
        for part in real.config.window.boxes:
            box = hull.intersect(part)
            if box is None:
                continue
            edges = [np.unique(np.clip(np.concatenate([a, [0.0, lo, hi]]), lo, hi))
                     for a, lo, hi in zip(axes, box.lo, box.hi)]
            cells = np.zeros(tuple(e.size - 1 for e in edges))
            for stack in stacks:
                cells += stack.grid_values(t, box, edges)[0]
            if density is not None:
                for idx in np.ndindex(cells.shape):
                    cell = Box(*zip(*((e[k], e[k + 1]) for e, k in zip(edges, idx))))
                    cells[idx] += t * density.integral(Region.from_box(cell))[0]
            for e, a in zip(edges, axes):
                cells = np.tensordot(cells, _axis_indicator_matrix(0.5 * (e[:-1] + e[1:]), a),
                                     axes=(0, 0))
            out += cells
        return out


def _axis_indicator_matrix(gs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Signed corner factors ``S[j, k] = 1{0 < g_j <= x_k} - 1{x_k <= g_j < 0}``.

    The product of one axis's factors over all axes counts a point ``g``
    inside the signed corner box of ``x``, sign included.
    """
    pos = (gs[:, None] > 0.0) & (gs[:, None] <= xs[None, :])
    neg = (gs[:, None] < 0.0) & (gs[:, None] >= xs[None, :])
    return np.subtract(pos, neg, dtype=float)


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
    """The sheet's increment over the box (a, b]: the two-point lattice
    ``{a_i, b_i}`` per axis, differenced one axis at a time.  A degenerate box
    (``a_j == b_j`` on some axis) differences two equal values: exactly 0."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size != sheet.dim or b.size != sheet.dim:
        raise ValueError("corner dimension mismatch")
    if np.any(a > b):
        raise ValueError("need a <= b componentwise")
    grid = sheet.corner_grid(t, np.stack([a, b], axis=1))
    for _ in range(sheet.dim):
        grid = grid[1] - grid[0]
    return BoxIncrement(tuple(a), tuple(b), float(grid))


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
