"""White-noise Gaussian component of a field realization.

Values live on a tensor grid of (time x space) cells per window box.  Each
root cell value is N(0, mass); query boundaries that fall inside a cell
trigger a conditional split: the left share of a cell with value v and
sub-masses (m_l, m_r) is drawn from N(v m_l/m, m_l m_r/m) and the right share
is defined as v minus the left share.  Additivity over the grid is therefore
exact by construction, no matter how often the grid is refined.

Refinement draws come from the realization's dedicated stream.  A query
inserts its new planes one axis at a time, and per axis the draw order is
ascending planes, coordinate-major over patches: for each new plane, the
patches it is new to in window order, each filling its cells in C order.
That order is the same whether the planes arrive one per query or all at
once, so identical query sequences replay bit-identically.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristics import DiffusionComponent
from .quadrature import box_integral
from .regions import Box, Region


class WhiteNoiseField:
    """Gaussian part ``W((t0, t1] x A)`` of a sampled field."""

    def __init__(self, sigma: DiffusionComponent | None, window: Region,
                 horizon: float, seed_seq: np.random.SeedSequence):
        self._sigma = sigma
        self._window = window
        self._horizon = float(horizon)
        self._rng = np.random.default_rng(seed_seq)
        self._patches: list[dict] = []
        if sigma is None:
            return
        for box in window.boxes:
            smass = np.array(self._space_mass(box)).reshape((1,) * box.dim)
            mass = self._horizon * float(smass.ravel()[0])
            value = self._rng.normal(0.0, math.sqrt(mass)) if mass > 0.0 else 0.0
            self._patches.append({
                "box": box,
                "axes": [np.array([0.0, self._horizon])]
                        + [np.array([lo, hi]) for lo, hi in zip(box.lo, box.hi)],
                "values": np.full((1,) * (1 + box.dim), value),
                "smass": smass,
            })

    # -- masses ----------------------------------------------------------
    def _space_mass(self, box: Box) -> float:
        dens = self._sigma.density
        if dens.is_constant:
            m = dens.const * box.volume
        else:
            m, _ = box_integral(dens, box)
        for a in self._sigma.atoms:
            if box.contains(np.asarray(a.point)[None, :])[0]:
                m += a.weight
        if m < -1e-12:
            raise ValueError("gaussian intensity integrated to a negative mass")
        return max(m, 0.0)

    # -- refinement ------------------------------------------------------
    def _refine(self, axis: int, coords) -> None:
        """Insert the planes ``coords`` along ``axis`` (0 is time) in every patch.

        The normals come from one draw, ordered as inserting the planes one
        at a time in ascending order would consume them (see the module
        docstring).  Several new planes in one old cell split it in rounds,
        the r-th new plane of every cell in round r, so each cell is still
        split left to right.
        """
        coords = np.unique(np.asarray(coords, dtype=float))
        fresh, per = [], []
        for patch in self._patches:
            planes = patch["axes"][axis]
            new = (coords > planes[0]) & (coords < planes[-1])
            new[new] = planes[np.searchsorted(planes, coords[new])] != coords[new]
            fresh.append(new)
            per.append(patch["values"].size // patch["values"].shape[axis])
        counts = (np.array(fresh, dtype=int).T * per).ravel()  # coordinate-major
        if not counts.any():
            return
        draws = self._rng.standard_normal(int(counts.sum()))
        starts = (np.cumsum(counts) - counts).reshape(coords.size, -1)
        at, k = (slice(None),) * axis, axis - 1
        closed_form = self._sigma.density.is_constant and not self._sigma.atoms
        for n, (patch, mask) in enumerate(zip(self._patches, fresh)):
            if not mask.any():
                continue
            planes, values, smass = patch["axes"][axis], patch["values"], patch["smass"]
            z = draws[starts[mask, n][:, None] + np.arange(per[n])]
            new = coords[mask]
            j = np.searchsorted(planes, new)       # new[q] cuts old cell j[q] - 1
            pos = j + np.arange(new.size)          # its index among the merged planes
            merged = np.insert(planes, j, new)
            rank = np.arange(new.size) - np.searchsorted(j, j)
            lo, hi = merged[pos - 1], planes[j]    # the cell it cuts, after earlier rounds
            grow = np.bincount(j - 1, minlength=planes.size - 1) + 1
            rest = values.shape[:axis] + values.shape[axis + 1:]
            z = np.moveaxis(z.reshape((new.size,) + rest), 0, axis)
            values = np.repeat(values, grow, axis=axis)
            if axis:
                smass = np.repeat(smass, grow, axis=k)
                dt = np.diff(patch["axes"][0]).reshape((-1,) + (1,) * (values.ndim - 1))
            for r in range(int(rank.max()) + 1):
                sel = np.flatnonzero(rank == r)
                c, cl, ch, p = new[sel], lo[sel], hi[sel], pos[sel]
                v = values[at + (p - 1,)]
                if axis == 0:
                    along = (-1,) + (1,) * smass.ndim
                    ratio = ((c - cl) / (ch - cl)).reshape(along)
                    var = smass[None, ...] * ((c - cl) * (ch - c) / (ch - cl)).reshape(along)
                else:
                    sm = smass[at[1:] + (p - 1,)]
                    if closed_form:
                        sm_l = sm * ((c - cl) / (ch - cl)).reshape((-1,) + (1,) * (sm.ndim - axis))
                    else:
                        sm_l = np.empty_like(sm)
                        for idx in np.ndindex(sm.shape):
                            cell = [(ax[i], ax[i + 1]) for ax, i in zip(patch["axes"][1:], idx)]
                            cell[k] = (cl[idx[k]], c[idx[k]])
                            sm_l[idx] = self._space_mass(Box(*zip(*cell)))
                    sm_r = sm - sm_l
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratio = np.where(sm > 0.0, sm_l / sm, 0.0)[None, ...]
                        var = np.where(sm > 0.0, sm_l * sm_r / sm, 0.0)[None, ...]
                    var = np.maximum(var, 0.0) * dt
                    smass[at[1:] + (p - 1,)], smass[at[1:] + (p,)] = sm_l, sm_r
                left = v * ratio + np.sqrt(var) * z[at + (sel,)]
                values[at + (p - 1,)], values[at + (p,)] = left, v - left
            patch["axes"][axis], patch["values"], patch["smass"] = merged, values, smass

    def _ensure_planes(self, t0: float, t1: float, boxes) -> None:
        # box by box, so a query over several boxes keeps its draw order
        self._refine(0, (t0, t1))
        for b in boxes:
            for i in range(b.dim):
                self._refine(i + 1, (b.lo[i], b.hi[i]))

    # -- queries ---------------------------------------------------------
    def value(self, t1: float, region: Region | Box, t0: float = 0.0) -> float:
        """``W((t0, t1] x region)``, exact over the refined grid."""
        if self._sigma is None or t1 <= t0:
            return 0.0
        boxes = region.boxes if isinstance(region, Region) else (region,)
        self._ensure_planes(t0, t1, boxes)
        total = 0.0
        for patch in self._patches:
            for b in boxes:
                piece = patch["box"].intersect(b)
                if piece is None:
                    continue
                idx = [_span(patch["axes"][0], t0, t1)]
                idx += [_span(patch["axes"][i + 1], piece.lo[i], piece.hi[i])
                        for i in range(piece.dim)]
                total += float(patch["values"][tuple(idx)].sum())
        return total

    def grid_values(self, t1: float, box: Box, edges: list[np.ndarray],
                    t0: float = 0.0) -> np.ndarray:
        """Cell values of ``W((t0,t1] x .)`` over a tensor mesh inside one box.

        ``edges[i]`` are the mesh edge coordinates along space axis i
        (including both endpoints).  The box must lie inside a single window
        part.
        """
        shape = tuple(len(e) - 1 for e in edges)
        if self._sigma is None or t1 <= t0:
            return np.zeros(shape)
        self._ensure_planes(t0, t1, (box,))
        for i, e in enumerate(edges):
            self._refine(i + 1, e)
        for patch in self._patches:
            if patch["box"].intersect(box) is None:
                continue
            if not all(patch["box"].lo[i] <= box.lo[i] and box.hi[i] <= patch["box"].hi[i]
                       for i in range(box.dim)):
                raise ValueError("mesh box must lie within a single window part")
            arr = patch["values"][_span(patch["axes"][0], t0, t1)].sum(axis=0)
            for i, e in enumerate(edges):
                planes = patch["axes"][i + 1]
                lo = int(np.searchsorted(planes, e[0]))
                starts = np.searchsorted(planes, e[:-1]) - lo
                arr = np.add.reduceat(
                    arr[(slice(None),) * i + (slice(lo, int(np.searchsorted(planes, e[-1]))),)],
                    starts, axis=i)
            return arr
        return np.zeros(shape)


def _span(planes: np.ndarray, lo: float, hi: float) -> slice:
    return slice(int(np.searchsorted(planes, lo)), int(np.searchsorted(planes, hi)))

