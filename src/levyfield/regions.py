"""Bounded rectangular regions of R^d.

A :class:`Box` is a product of one-dimensional intervals, half-open on the
left (``(lo_i, hi_i]`` per axis).  A :class:`Region` is a finite union of
pairwise disjoint boxes of a common dimension.

Only point membership sees the boundaries; volumes and Lebesgue integrals
do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``prod_i (lo_i, hi_i]``."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(a) for a in self.lo)
        hi = tuple(float(b) for b in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box needs matching, nonempty lo/hi tuples")
        for a, b in zip(lo, hi):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError("box corners must be finite")
            if not a < b:
                raise ValueError(f"degenerate box: need lo < hi, got ({a}, {b})")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Vectorized membership for points of shape (n, d) or (d,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError(f"points have dimension {x.shape[1]}, box has {self.dim}")
        ok = np.ones(x.shape[0], dtype=bool)
        for i, (a, b) in enumerate(zip(self.lo, self.hi)):
            ok &= (x[:, i] > a) & (x[:, i] <= b)
        return ok

    def intersect(self, other: "Box") -> "Box | None":
        """Geometric intersection, or None if the interiors do not meet."""
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def overlaps(self, other: "Box") -> bool:
        """True when the open interiors intersect (shared faces do not count)."""
        return all(a < d and c < b for a, b, c, d in
                   zip(self.lo, self.hi, other.lo, other.hi))

    def subtract(self, other: "Box") -> list["Box"]:
        """Split ``self`` minus ``other`` into disjoint boxes (measure sense)."""
        if not self.overlaps(other):
            return [self]
        pieces = []
        lo, hi = list(self.lo), list(self.hi)
        for i in range(self.dim):
            if other.lo[i] > lo[i]:
                piece_hi = hi.copy()
                piece_hi[i] = other.lo[i]
                pieces.append(Box(tuple(lo), tuple(piece_hi)))
                lo[i] = other.lo[i]
            if other.hi[i] < hi[i]:
                piece_lo = lo.copy()
                piece_lo[i] = other.hi[i]
                pieces.append(Box(tuple(piece_lo), tuple(hi)))
                hi[i] = other.hi[i]
        return pieces


def interval(a: float, b: float) -> Box:
    """One-dimensional box (a, b]."""
    return Box((a,), (b,))


@dataclass(frozen=True)
class Region:
    """Finite union of pairwise disjoint boxes in a fixed dimension.

    The empty region (no boxes) is legal and has volume zero.
    """

    dim: int
    boxes: tuple[Box, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        for b in self.boxes:
            if b.dim != self.dim:
                raise ValueError("all boxes must share the region dimension")
        for i, a in enumerate(self.boxes):
            for b in self.boxes[i + 1:]:
                if a.overlaps(b):
                    raise ValueError(f"region boxes overlap: {a} and {b}")

    @classmethod
    def from_box(cls, box: Box) -> "Region":
        return cls(box.dim, (box,))

    @classmethod
    def from_intervals(cls, spans) -> "Region":
        """Region made of a single box from [(lo_1, hi_1), ..., (lo_d, hi_d)]."""
        lo = tuple(s[0] for s in spans)
        hi = tuple(s[1] for s in spans)
        return cls.from_box(Box(lo, hi))

    @property
    def volume(self) -> float:
        return float(sum(b.volume for b in self.boxes))

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ok = np.zeros(x.shape[0], dtype=bool)
        for b in self.boxes:
            ok |= b.contains(x)
        return ok

    def intersect(self, other: "Region") -> "Region":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        parts = []
        for a in self.boxes:
            for b in other.boxes:
                c = a.intersect(b)
                if c is not None:
                    parts.append(c)
        return Region(self.dim, tuple(parts))

    def covers(self, box: Box) -> bool:
        """True when ``box`` lies inside this region up to a null set."""
        remaining = [box]
        for cover in self.boxes:
            nxt = []
            for piece in remaining:
                nxt.extend(piece.subtract(cover))
            remaining = nxt
            if not remaining:
                return True
        return not remaining

    def covers_region(self, other: "Region") -> bool:
        return all(self.covers(b) for b in other.boxes)

    def bounding_box(self) -> Box:
        if self.is_empty:
            raise ValueError("empty region has no bounding box")
        lo = tuple(min(b.lo[i] for b in self.boxes) for i in range(self.dim))
        hi = tuple(max(b.hi[i] for b in self.boxes) for i in range(self.dim))
        return Box(lo, hi)
