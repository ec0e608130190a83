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
    intersect_subsets,
    subsets_overlap,
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
    """A partition of ``parent`` into per-color subsets."""

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
        rects = [s for s in subsets if isinstance(s, RectSubset)]
        if len(rects) == len(subsets):
            ordered = sorted(rects, key=lambda s: s.rect.lo)
            for a, b in zip(ordered, ordered[1:]):
                if a.rect.ndim == 1 and b.rect.lo[0] <= a.rect.hi[0]:
                    return False
                if a.rect.ndim > 1 and subsets_overlap(a, b):
                    return False
            if all(r.rect.ndim == 1 for r in rects):
                return True
            # N-D: pairwise check (small color counts in practice)
            for i, a in enumerate(rects):
                for b in rects[i + 1 :]:
                    if subsets_overlap(a, b):
                        return False
            return True
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

    def copy(self, name: Optional[str] = None) -> "Partition":
        return Partition(self.parent, dict(self.subsets), name=name or self.name)

    def scale_dense(self, width: int) -> "Partition":
        """Expand each 1-D subset by a dense inner level of ``width`` entries.

        Used when a Dense level sits below another level: positions of the
        lower level are ``parent_position * width + [0, width)``.
        """
        out: Dict[Color, IndexSubset] = {}
        new_parent = IndexSpace(self.parent.volume * width, name=f"{self.parent.name}x{width}")
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
        return Partition(new_parent, out, name=f"{self.name}*{width}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Partition({self.name}, colors={self.n_colors})"


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
