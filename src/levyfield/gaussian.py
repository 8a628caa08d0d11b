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

Fields with one plane layout and intensity (the white noises of many paths
over one window) refine and answer queries as one stack, values with a
leading field axis; each still draws from its own stream, the same count in
the same order, and a field gives the same values alone or in a stack.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristics import DiffusionComponent
from .regions import Box, Region


class WhiteNoiseField:
    """Gaussian part ``W((t0, t1] x A)`` of a sampled field."""

    def __init__(self, sigma: DiffusionComponent | None, window: Region, horizon: float,
                 seed_seq: np.random.SeedSequence, masses: tuple | None = None):
        """``masses``: ``root_masses(sigma, window)``, if computed once for a window."""
        masses = root_masses(sigma, window) if masses is None else masses
        self._sigma = sigma
        self._horizon = float(horizon)
        self._rng = None if sigma is None else np.random.default_rng(seed_seq)
        self._patches: list[dict] = []
        for box, smass in zip(window.boxes, masses):
            mass = self._horizon * smass
            value = self._rng.normal(0.0, math.sqrt(mass)) if mass > 0.0 else 0.0
            self._patches.append({
                "box": box,
                "axes": [np.array([0.0, self._horizon])]
                        + [np.array([lo, hi]) for lo, hi in zip(box.lo, box.hi)],
                "values": np.full((1,) * (1 + box.dim), value),
                "smass": np.full((1,) * box.dim, smass),
            })

    # -- queries ---------------------------------------------------------
    def value(self, t1: float, region: Region | Box, t0: float = 0.0) -> float:
        """``W((t0, t1] x region)``, exact over the refined grid."""
        return float(_stack_values([self], t1, region, t0)[0])

    def grid_values(self, t1: float, box: Box, edges: list[np.ndarray],
                    t0: float = 0.0) -> np.ndarray:
        """Cell values of ``W((t0,t1] x .)`` over a tensor mesh inside one box.

        ``edges[i]`` are the mesh edge coordinates along space axis i
        (including both endpoints).  The box must lie inside a single window
        part.
        """
        if self._sigma is None or t1 <= t0:
            return np.zeros(tuple(len(e) - 1 for e in edges))
        _ensure_planes([self], t0, t1, (box,))
        for i, e in enumerate(edges):
            _refine([self], i + 1, e)
        return _mesh_cells([self], t1, box, edges, t0)[0]


def _stack_values(fields, t1: float, region: Region | Box, t0: float = 0.0) -> np.ndarray:
    """``value`` of each field of a stack: stacked if they share one plane
    layout, else (a field was queried on its own) one field at a time."""
    boxes = region.boxes if isinstance(region, Region) else (region,)
    total = np.zeros(len(fields))
    if getattr(fields[0], "_sigma", None) is None or t1 <= t0 or not boxes:  # a plane draws
        return total
    if not _one_layout(fields):
        return np.array([_stack_values([field], t1, region, t0)[0] for field in fields])
    _ensure_planes(fields, t0, t1, boxes)
    for n, patch in enumerate(fields[0]._patches):
        for b in boxes:
            piece = patch["box"].intersect(b)
            if piece is None:
                continue
            idx = (_span(patch["axes"][0], t0, t1),) + tuple(
                _span(patch["axes"][i + 1], piece.lo[i], piece.hi[i]) for i in range(piece.dim))
            cells = np.stack([field._patches[n]["values"][idx] for field in fields])
            total += cells.reshape(len(fields), -1).sum(axis=1)
    return total


def _refine(fields, axis: int, coords) -> None:
    """Insert the planes ``coords`` along ``axis`` (0 is time) in every patch.

    Each field of the stack draws its normals from its own stream, ordered
    as inserting the planes one at a time in ascending order would consume
    them (see the module docstring).  Several new planes in one old cell
    split it in rounds, the r-th new plane of every cell in round r, so each
    cell is still split left to right.
    """
    if not _one_layout(fields):
        raise ValueError("a stack of white-noise fields must share one plane layout")
    layout = fields[0]._patches
    coords = np.unique(np.asarray(coords, dtype=float))
    fresh, per = [], []
    for patch in layout:
        planes = patch["axes"][axis]
        new = (coords > planes[0]) & (coords < planes[-1])
        new[new] = planes[np.searchsorted(planes, coords[new])] != coords[new]
        fresh.append(new)
        per.append(patch["values"].size // patch["values"].shape[axis])
    counts = (np.array(fresh, dtype=int).T * per).ravel()  # coordinate-major
    if not counts.any():
        return
    draws = np.stack([field._rng.standard_normal(int(counts.sum())) for field in fields])
    starts = (np.cumsum(counts) - counts).reshape(coords.size, -1)
    at, k = (slice(None),) * (axis + 1), axis - 1  # behind the field axis
    closed_form = fields[0]._sigma.density.is_constant and not fields[0]._sigma.atoms
    for n, (patch, mask) in enumerate(zip(layout, fresh)):
        if not mask.any():
            continue
        planes, smass = patch["axes"][axis], patch["smass"]
        values = np.stack([field._patches[n]["values"] for field in fields])
        z = draws[:, starts[mask, n][:, None] + np.arange(per[n])]
        new = coords[mask]
        j = np.searchsorted(planes, new)       # new[q] cuts old cell j[q] - 1
        pos = j + np.arange(new.size)          # its index among the merged planes
        merged = np.insert(planes, j, new)
        rank = np.arange(new.size) - np.searchsorted(j, j)
        lo, hi = merged[pos - 1], planes[j]    # the cell it cuts, after earlier rounds
        grow = np.bincount(j - 1, minlength=planes.size - 1) + 1
        rest = values.shape[1:axis + 1] + values.shape[axis + 2:]
        z = np.moveaxis(z.reshape((len(fields), new.size) + rest), 1, axis + 1)
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
                        sm_l[idx] = _space_mass(fields[0]._sigma, Box(*zip(*cell)))
                sm_r = sm - sm_l
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(sm > 0.0, sm_l / sm, 0.0)[None, ...]
                    var = np.where(sm > 0.0, sm_l * sm_r / sm, 0.0)[None, ...]
                var = np.maximum(var, 0.0) * dt
                smass[at[2:] + (p - 1,)], smass[at[2:] + (p,)] = sm_l, sm_r
            left = v * ratio + np.sqrt(var) * z[at + (sel,)]
            values[at + (p - 1,)], values[at + (p,)] = left, v - left
        patch["axes"][axis] = merged
        for field, row in zip(fields, values):
            field._patches[n].update(axes=list(patch["axes"]), smass=smass, values=row)


def _one_layout(fields) -> bool:
    """Whether the fields share their planes and cell masses."""
    shared, *rest = ([a for patch in field._patches for a in patch["axes"] + [patch["smass"]]]
                     for field in fields)
    return all(len(mine) == len(shared) and all(a is b or np.array_equal(a, b)
                                                for a, b in zip(mine, shared)) for mine in rest)


def _ensure_planes(fields, t0: float, t1: float, boxes) -> None:
    # box by box, so a query over several boxes keeps its draw order
    _refine(fields, 0, (t0, t1))
    for b in boxes:
        for i in range(b.dim):
            _refine(fields, i + 1, (b.lo[i], b.hi[i]))


def _space_mass(sigma: DiffusionComponent, box: Box) -> float:
    m = sigma.integral(Region.from_box(box))[0]
    if m < -1e-12:
        raise ValueError("gaussian intensity integrated to a negative mass")
    return max(m, 0.0)


def root_masses(sigma: DiffusionComponent | None, window: Region) -> tuple:
    """``Sigma(box)`` per window box: the root cells of every field over the window."""
    return () if sigma is None else tuple(_space_mass(sigma, box) for box in window.boxes)


def _mesh_cells(fields, t1: float, box: Box, edges: list[np.ndarray],
                t0: float = 0.0) -> np.ndarray:
    """``grid_values`` of a stack of fields, one row per field, on a mesh
    whose edges are already planes of their shared layout."""
    for n, patch in enumerate(fields[0]._patches):
        if patch["box"].intersect(box) is None:
            continue
        if not all(patch["box"].lo[i] <= box.lo[i] and box.hi[i] <= patch["box"].hi[i]
                   for i in range(box.dim)):
            raise ValueError("mesh box must lie within a single window part")
        span = _span(patch["axes"][0], t0, t1)
        arr = np.stack([field._patches[n]["values"][span] for field in fields]).sum(axis=1)
        for i, e in enumerate(edges):
            planes = patch["axes"][i + 1]
            lo = int(np.searchsorted(planes, e[0]))
            starts = np.searchsorted(planes, e[:-1]) - lo
            arr = np.add.reduceat(
                arr[(slice(None),) * (i + 1) + (slice(lo, int(np.searchsorted(planes, e[-1]))),)],
                starts, axis=i + 1)
        return arr
    return np.zeros((len(fields),) + tuple(len(e) - 1 for e in edges))


def _span(planes: np.ndarray, lo: float, hi: float) -> slice:
    return slice(int(np.searchsorted(planes, lo)), int(np.searchsorted(planes, hi)))

