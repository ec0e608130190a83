"""Partitions: mappings from colors to (possibly overlapping) index subsets.

Partitions follow Legion semantics (paper §III-A): a partition of an index
space assigns to each *color* a subset of the space.  Subsets may overlap
(aliased partitions — e.g. the preimage in Fig. 6b colors some indices with
multiple colors) and need not cover the space.  Regions are distributed by
partitioning their index space and placing each sub-region in a different
memory.
"""
from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .index_space import (
    EMPTY,
    ArraySubset,
    IndexSpace,
    IndexSubset,
    Rect,
    RectSubset,
    _once,
    intersect_subsets,
    rect_subsets,
    union_subsets,
)

__all__ = ["Coloring", "Partition", "equal_partition", "equal_partition_nd"]

Color = Hashable


class Coloring:
    """A staging map from colors to coordinate/position bounds.

    This is the object the generated partitioning code builds up entry by
    entry (``C[color] = bounds`` in Table I) before it is finalized into a
    :class:`Partition`.
    """

    def __init__(self):
        self.entries: Dict[Color, Tuple[int, int]] = {}

    def __setitem__(self, color: Color, bounds: Tuple[int, int]) -> None:
        lo, hi = int(bounds[0]), int(bounds[1])
        self.entries[color] = (lo, hi)

    def __getitem__(self, color: Color) -> Tuple[int, int]:
        return self.entries[color]

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return self.entries.items()

    def colors(self) -> List[Color]:
        return list(self.entries.keys())


class Partition:
    """A partition of ``parent`` into per-color subsets.

    A partition whose pieces are all rects also has them as arrays:
    :attr:`bounds` is ``(lo, hi)``, ``(colors × ndim)`` int64 in color order,
    an empty color a row ``(0, -1)`` on every axis.  The dependent
    partitioning operations compute those arrays in one pass and build the
    pieces from them (:meth:`from_bounds`); a partition built from pieces
    derives them on first read.
    """

    def __init__(
        self,
        parent: IndexSpace,
        subsets: Dict[Color, IndexSubset],
        *,
        name: str = "",
    ):
        self.parent = parent
        self.subsets = dict(subsets)
        self.name = name or f"part_of_{parent.name}"

    @classmethod
    def from_bounds(cls, parent: IndexSpace, colors: Sequence[Color], lo: np.ndarray,
                    hi: np.ndarray, *, name: str = "") -> "Partition":
        """Color ``colors[k]`` gets the rect ``[lo[k], hi[k]]`` (``EMPTY``
        where any ``hi < lo``)."""
        volumes = np.maximum(hi - lo + 1, 0).prod(axis=1)
        if not volumes.all():
            live = volumes[:, None] > 0
            lo, hi = np.where(live, lo, 0), np.where(live, hi, -1)
        part = cls(parent, dict(zip(colors, rect_subsets(lo, hi, volumes))), name=name)
        part.__dict__["bounds"] = lo, hi
        return part

    @_once
    def bounds(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(lo, hi)`` of every color's rect, or None when a piece is an
        index list (:class:`ArraySubset`).  Kept once read or built; a
        pickle taken before then carries none and derives it on load."""
        return _bounds_of(self.parent.ndim, self.subsets.values())

    # -- access ----------------------------------------------------------
    def __getitem__(self, color: Color) -> IndexSubset:
        return self.subsets.get(color, EMPTY)

    def colors(self) -> List[Color]:
        return list(self.subsets.keys())

    @property
    def n_colors(self) -> int:
        return len(self.subsets)

    def items(self):
        return self.subsets.items()

    # -- structural properties -------------------------------------------
    def is_disjoint(self) -> bool:
        """True when no index is assigned to two colors."""
        subsets = [s for s in self.subsets.values() if not s.empty]
        if all(isinstance(s, RectSubset) for s in subsets):
            rects = sorted((s.rect for s in subsets), key=lambda r: r.lo)
            # Rects sharing their trailing extents (1-D ones, row blocks) can
            # only meet on the leading axis: compare neighbours.
            if len({(r.lo[1:], r.hi[1:]) for r in rects}) <= 1:
                return all(a.hi[0] < b.lo[0] for a, b in zip(rects, rects[1:]))
            # N-D windows: pairwise check (small color counts in practice)
            return not any(a.overlaps(b) for i, a in enumerate(rects) for b in rects[i + 1 :])
        total = sum(s.volume for s in subsets)
        merged = union_subsets(subsets)
        return merged.volume == total

    def is_complete(self) -> bool:
        """True when the subsets cover every index of the parent space."""
        subsets = [s for s in self.subsets.values() if not s.empty]
        if any(isinstance(s, RectSubset) and s.rect.ndim > 1 for s in subsets):
            # N-D partitions produced here are disjoint rect tilings, so
            # coverage reduces to a volume count.
            if self.is_disjoint():
                return sum(s.volume for s in subsets) == self.parent.volume
            raise NotImplementedError("completeness of aliased N-D partitions")
        merged = union_subsets(subsets)
        return merged.volume == self.parent.volume

    def color_of_point(self, p) -> List[Color]:
        return [c for c, s in self.subsets.items() if s.contains_point(p)]

    # -- derived partitions ------------------------------------------------
    def restrict(self, colors: Iterable[Color]) -> "Partition":
        return Partition(
            self.parent, {c: self.subsets.get(c, EMPTY) for c in colors}, name=self.name
        )

    def compose_intersection(self, other: "Partition") -> "Partition":
        """Per-color intersection (both partitions of the same space)."""
        if other.parent is not self.parent:
            raise ValueError("intersection requires partitions of the same space")
        out = {
            c: intersect_subsets(self[c], other[c])
            for c in set(self.colors()) | set(other.colors())
        }
        return Partition(self.parent, out, name=f"({self.name}&{other.name})")

    def volumes(self) -> Dict[Color, int]:
        return {c: s.volume for c, s in self.subsets.items()}

    def copy(self, name: Optional[str] = None,
             parent: Optional[IndexSpace] = None) -> "Partition":
        """The same pieces under another name (and index space)."""
        out = Partition(parent or self.parent, self.subsets, name=name or self.name)
        if "bounds" in self.__dict__:
            out.__dict__["bounds"] = self.bounds
        return out

    def scale_dense(self, width: int) -> "Partition":
        """Expand each 1-D subset by a dense inner level of ``width`` entries.

        Used when a Dense level sits below another level: positions of the
        lower level are ``parent_position * width + [0, width)``.
        """
        new_parent = IndexSpace(self.parent.volume * width, name=f"{self.parent.name}x{width}")
        name = f"{self.name}*{width}"
        if self.bounds is not None:
            lo, hi = self.bounds
            return Partition.from_bounds(new_parent, self.colors(), lo * width,
                                         (hi + 1) * width - 1, name=name)
        out: Dict[Color, IndexSubset] = {}
        for c, s in self.subsets.items():
            if s.empty:
                out[c] = EMPTY
            elif isinstance(s, RectSubset):
                out[c] = RectSubset(
                    Rect(s.rect.lo[0] * width, (s.rect.hi[0] + 1) * width - 1)
                )
            else:
                idx = s.indices()
                expanded = (idx[:, None] * width + np.arange(width, dtype=np.int64)).ravel()
                out[c] = ArraySubset(expanded, assume_sorted_unique=True)
        return Partition(new_parent, out, name=name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Partition({self.name}, colors={self.n_colors})"


def _bounds_of(ndim: int, subsets) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:attr:`Partition.bounds` of ``subsets``: None unless every one is a
    rect of the space's rank or :data:`EMPTY`."""
    lo, hi = [], []
    for s in subsets:
        if type(s) is not RectSubset:
            return None
        if s.rect.empty:
            if s != EMPTY:  # an empty rect other than EMPTY is a piece of its own
                return None
            lo.append((0,) * ndim)
            hi.append((-1,) * ndim)
        elif s.rect.ndim != ndim:
            return None
        else:
            lo.append(s.rect.lo)
            hi.append(s.rect.hi)
    return (np.array(lo, dtype=np.int64).reshape(-1, ndim),
            np.array(hi, dtype=np.int64).reshape(-1, ndim))


def equal_partition(ispace: IndexSpace, pieces: int, *, name: str = "") -> Partition:
    """Split a 1-D index space into ``pieces`` near-equal contiguous blocks.

    Block ``c`` covers ``[c*ceil(n/p), min((c+1)*ceil(n/p), n)-1]`` — the
    convention used by the generated code in the paper (Fig. 9b), which may
    leave trailing colors empty when ``pieces`` does not divide ``n``.
    """
    if ispace.ndim != 1:
        raise ValueError("equal_partition requires a 1-D index space")
    n = ispace.volume
    lo0 = ispace.bounds.lo[0]
    chunk = -(-n // pieces) if n else 0
    subsets: Dict[Color, IndexSubset] = {}
    for c in range(pieces):
        lo = lo0 + c * chunk
        hi = min(lo0 + (c + 1) * chunk, lo0 + n) - 1
        subsets[c] = RectSubset(Rect(lo, hi)) if hi >= lo else EMPTY
    return Partition(ispace, subsets, name=name or f"equal({ispace.name},{pieces})")


def equal_partition_nd(ispace: IndexSpace, grid: Sequence[int], *, name: str = "") -> Partition:
    """Block an N-D index space by an N-D processor grid (dense TDN mapping)."""
    grid = tuple(int(g) for g in grid)
    if len(grid) != ispace.ndim:
        raise ValueError(f"grid rank {len(grid)} != space rank {ispace.ndim}")
    shape = ispace.shape()
    chunks = [-(-s // g) if s else 0 for s, g in zip(shape, grid)]
    subsets: Dict[Color, IndexSubset] = {}
    for color in np.ndindex(*grid):
        lo = tuple(
            ispace.bounds.lo[d] + color[d] * chunks[d] for d in range(len(grid))
        )
        hi = tuple(
            min(ispace.bounds.lo[d] + (color[d] + 1) * chunks[d], ispace.bounds.lo[d] + shape[d])
            - 1
            for d in range(len(grid))
        )
        r = Rect(lo, hi)
        key: Color = color if len(grid) > 1 else color[0]
        subsets[key] = EMPTY if r.empty else RectSubset(r)
    return Partition(ispace, subsets, name=name or f"equal_nd({ispace.name},{grid})")
