"""White-noise Gaussian component of field realizations.

Values live on a tensor grid of (time x space) cells per window box.  Each
root cell value is N(0, mass); query boundaries that fall inside a cell
trigger a conditional split: the left share of a cell with value v and
sub-masses (m_l, m_r) is drawn from N(v m_l/m, m_l m_r/m) and the right share
is defined as v minus the left share.  Additivity over the grid is therefore
exact by construction, no matter how often the grid is refined.

A ``WhiteNoiseField`` is a stack of such fields of one intensity over one
window (the white noises of a batch of paths): it holds the plane layout
once per window box, its cell values carry a leading field axis, and field
k draws from its own stream.  A query inserts its new planes one axis at a
time, and per axis the draw order is ascending planes, coordinate-major
over patches: for each new plane, the patches it is new to in window order,
each filling its cells in C order.  That order is the same whether the
planes arrive one per query or all at once, and a field draws the same
count in a stack of any size, so identical query sequences replay
bit-identically and a field answers in a stack as it does alone.

A query's steps (its time plane, its box bounds, then its mesh axes) are
planned together, and each field fills the normals of all of them with one
draw: consecutive normal draws of a generator concatenate bit for bit, so
the values are those of the steps drawn one by one.  ``grid_values(...,
through=meshes)`` refines through coarser meshes first, in order, as if
each had been queried alone, and reads only the last mesh.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .characteristics import DiffusionComponent
from .kernels import copy_rng
from .regions import Box, Region


class WhiteNoiseField:
    """Gaussian parts ``W((0, t] x A)`` of a stack of sampled fields,
    field k drawing from ``default_rng(seeds[k])``; queries answer per field."""

    def __init__(self, sigma: DiffusionComponent | None, window: Region, horizon: float,
                 seeds, masses: tuple | None = None):
        """``masses``: ``root_masses(sigma, window)``, if computed once for a window."""
        masses = root_masses(sigma, window) if masses is None else masses
        self._sigma, self._window, self._horizon = sigma, window, float(horizon)
        self._rngs = [np.random.default_rng(s) for s in seeds]
        self._patches: list[dict] = []
        for box, smass in zip(window.boxes, masses):
            mass = self._horizon * smass
            roots = [rng.normal(0.0, math.sqrt(mass)) if mass > 0.0 else 0.0 for rng in self._rngs]
            self._patches.append({
                "box": box,
                "axes": [np.array([0.0, self._horizon])]
                        + [np.array([lo, hi]) for lo, hi in zip(box.lo, box.hi)],
                "values": np.reshape(roots, (-1,) + (1,) * (1 + box.dim)),
                "smass": np.full((1,) * box.dim, smass),
            })

    def __len__(self) -> int:
        return len(self._rngs)

    # -- stacks ----------------------------------------------------------
    @staticmethod
    def join(stacks) -> WhiteNoiseField:
        """The fields of fresh (never queried) ``stacks`` of one intensity,
        window and horizon as one stack, which takes over their generators."""
        first, *rest = stacks
        if not rest:
            return first
        if any((s._sigma, s._window, s._horizon) != (first._sigma, first._window, first._horizon)
               or any(a.size > 2 for p in s._patches for a in p["axes"]) for s in stacks):
            raise ValueError("only fresh stacks of one intensity, window and horizon join")
        joined = copy.copy(first)
        joined._rngs = [rng for s in stacks for rng in s._rngs]
        joined._patches = [dict(p, axes=list(p["axes"]),
                                values=np.concatenate([s._patches[n]["values"] for s in stacks]))
                           for n, p in enumerate(first._patches)]
        return joined

    def rows(self, lo: int, hi: int) -> WhiteNoiseField:
        """Fields lo..hi-1 as a stack of their own, with copies of their
        generators: from here on the two stacks are queried independently."""
        part = copy.copy(self)
        part._rngs = [copy_rng(rng) for rng in self._rngs[lo:hi]]
        part._patches = [dict(p, axes=list(p["axes"]), values=p["values"][lo:hi].copy())
                         for p in self._patches]
        return part

    # -- queries ---------------------------------------------------------
    def value(self, t: float, region: Region | Box) -> np.ndarray:
        """``W((0, t] x region)`` per field, exact over the refined grid."""
        boxes = region.boxes if isinstance(region, Region) else (region,)
        total = np.zeros(len(self))
        if self._sigma is None or t <= 0.0 or not boxes:  # a plane draws
            return total
        self._refine(_bounds(t, boxes))
        for patch in self._patches:
            for b in boxes:
                piece = patch["box"].intersect(b)
                if piece is None:
                    continue
                idx = (slice(None), _span(patch["axes"][0], 0.0, t)) + tuple(
                    _span(patch["axes"][i + 1], piece.lo[i], piece.hi[i]) for i in range(piece.dim))
                total += patch["values"][idx].reshape(len(self), -1).sum(axis=1)
        return total

    def grid_values(self, t: float, box: Box, edges: list[np.ndarray], *,
                    through=()) -> np.ndarray:
        """Cell values of ``W((0, t] x .)`` per field over a tensor mesh
        inside one box, shape (fields, cells per axis...).

        ``edges[i]`` are the mesh edge coordinates along space axis i
        (including both endpoints).  The box must lie inside a single window
        part: a ``ValueError`` otherwise.  The meshes ``through`` (edge lists
        like ``edges``) refine the grid first, in order, as if each had been
        queried alone; only the last mesh is read.
        """
        # the first window part the box meets must hold it, whatever sigma and t
        part = next((n for n, b in enumerate(self._window.boxes) if b.overlaps(box)), None)
        if part is None or self._window.boxes[part].intersect(box) != box:
            raise ValueError("mesh box must lie within a single window part")
        if self._sigma is None or t <= 0.0:
            return np.zeros((len(self),) + tuple(len(e) - 1 for e in edges))
        # the bounds of a later mesh are planes already: no step of its own
        self._refine(_bounds(t, (box,)) + [(i, e) for mesh in (*through, edges)
                                           for i, e in enumerate(mesh, 1)])
        patch = self._patches[part]
        arr = patch["values"][:, _span(patch["axes"][0], 0.0, t)].sum(axis=1)
        for i, e in enumerate(edges):
            planes = patch["axes"][i + 1]
            lo = int(np.searchsorted(planes, e[0]))
            starts = np.searchsorted(planes, e[:-1]) - lo
            arr = np.add.reduceat(
                arr[(slice(None),) * (i + 1) + (slice(lo, int(np.searchsorted(planes, e[-1]))),)],
                starts, axis=i + 1)
        return arr

    # -- refinement ------------------------------------------------------
    def _refine(self, steps) -> None:
        """Insert the planes of each step ``(axis, coords)`` (axis 0 is time)
        in every patch, step after step.

        The steps are planned first, against the layout the earlier ones
        leave, so that each field fills the normals of all of them in one
        draw: consecutive draws of a generator concatenate bit for bit, and
        the draws are those of the steps made one by one.
        """
        layout = [list(p["axes"]) for p in self._patches]
        plan, total = [], 0
        for axis, coords in steps:
            coords = np.unique(np.asarray(coords, dtype=float))
            fresh, per = [], []
            for axes in layout:
                planes = axes[axis]
                new = (coords > planes[0]) & (coords < planes[-1])
                new[new] = planes[np.searchsorted(planes, coords[new])] != coords[new]
                fresh.append(new)
                per.append(math.prod(a.size - 1 for i, a in enumerate(axes) if i != axis))
                if new.any():
                    cut = coords[new]
                    axes[axis] = np.insert(planes, np.searchsorted(planes, cut), cut)
            counts = (np.array(fresh, dtype=int).T * per).ravel()  # coordinate-major
            if not counts.any():
                continue
            starts = (total + np.cumsum(counts) - counts).reshape(coords.size, -1)
            total += int(counts.sum())
            plan.append((axis, coords, fresh, per, starts, [axes[axis] for axes in layout]))
        if not plan:
            return
        draws = np.empty((len(self), total))
        for rng, row in zip(self._rngs, draws):
            rng.standard_normal(out=row)
        for step in plan:
            self._split(draws, *step)

    def _split(self, draws, axis: int, coords, fresh, per, starts, after) -> None:
        """Split the cells cut by the fresh planes ``coords`` along ``axis``,
        patch n taking its normals from ``draws`` at ``starts[:, n]``; its
        planes along ``axis`` are then ``after[n]``.

        Several new planes in one old cell split it in rounds, the r-th new
        plane of every cell in round r, so each cell is still split left to
        right.
        """
        at, k = (slice(None),) * (axis + 1), axis - 1  # behind the field axis
        closed_form = self._sigma.density.is_constant and not self._sigma.atoms
        for n, (patch, mask, merged) in enumerate(zip(self._patches, fresh, after)):
            if not mask.any():
                continue
            planes, smass, values = patch["axes"][axis], patch["smass"], patch["values"]
            z = draws[:, starts[mask, n][:, None] + np.arange(per[n])]
            new = coords[mask]
            j = np.searchsorted(planes, new)       # new[q] cuts old cell j[q] - 1
            pos = j + np.arange(new.size)          # its index among the merged planes
            rank = np.arange(new.size) - np.searchsorted(j, j)
            lo, hi = merged[pos - 1], planes[j]    # the cell it cuts, after earlier rounds
            grow = np.bincount(j - 1, minlength=planes.size - 1) + 1
            rest = values.shape[1:axis + 1] + values.shape[axis + 2:]
            z = np.moveaxis(z.reshape((len(self), new.size) + rest), 1, axis + 1)
            values = np.repeat(values, grow, axis=axis + 1)
            if axis:
                smass = np.repeat(smass, grow, axis=k)
                dt = np.diff(patch["axes"][0]).reshape((-1,) + (1,) * smass.ndim)
            for r in range(int(rank.max()) + 1):
                sel = np.flatnonzero(rank == r)
                c, cl, ch, p = new[sel], lo[sel], hi[sel], pos[sel]
                v = values[at + (p - 1,)]
                if axis == 0:
                    along = (-1,) + (1,) * smass.ndim
                    ratio = ((c - cl) / (ch - cl)).reshape(along)
                    var = smass[None, ...] * ((c - cl) * (ch - c) / (ch - cl)).reshape(along)
                else:
                    sm = smass[at[2:] + (p - 1,)]
                    if closed_form:
                        sm_l = sm * ((c - cl) / (ch - cl)).reshape((-1,) + (1,) * (sm.ndim - axis))
                    else:
                        sm_l = np.empty_like(sm)
                        for idx in np.ndindex(sm.shape):
                            cell = [(ax[i], ax[i + 1]) for ax, i in zip(patch["axes"][1:], idx)]
                            cell[k] = (cl[idx[k]], c[idx[k]])
                            sm_l[idx] = _space_mass(self._sigma, Box(*zip(*cell)))
                    sm_r = sm - sm_l
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratio = np.where(sm > 0.0, sm_l / sm, 0.0)[None, ...]
                        var = np.where(sm > 0.0, sm_l * sm_r / sm, 0.0)[None, ...]
                    var = np.maximum(var, 0.0) * dt
                    smass[at[2:] + (p - 1,)], smass[at[2:] + (p,)] = sm_l, sm_r
                left = v * ratio + np.sqrt(var) * z[at + (sel,)]
                values[at + (p - 1,)], values[at + (p,)] = left, v - left
            patch["axes"][axis] = merged
            patch.update(smass=smass, values=values)


def _space_mass(sigma: DiffusionComponent, box: Box) -> float:
    m = sigma.integral(Region.from_box(box))[0]
    if m < -1e-12:
        raise ValueError("gaussian intensity integrated to a negative mass")
    return max(m, 0.0)


def root_masses(sigma: DiffusionComponent | None, window: Region) -> tuple:
    """``Sigma(box)`` per window box: the root cells of every field over the window."""
    return () if sigma is None else tuple(_space_mass(sigma, box) for box in window.boxes)


def _bounds(t: float, boxes) -> list:
    """Refinement steps of a query's time plane and box bounds, box by box,
    so a query over several boxes keeps its draw order."""
    return [(0, (t,))] + [(i + 1, (b.lo[i], b.hi[i])) for b in boxes for i in range(b.dim)]


def _span(planes: np.ndarray, lo: float, hi: float) -> slice:
    return slice(int(np.searchsorted(planes, lo)), int(np.searchsorted(planes, hi)))
