"""Dependent partitioning operations (Treichler et al., OOPSLA'16).

These are the four operations SpDISTAL's generated code uses to partition
sparse tensor level arrays (paper Table I and §IV):

* :func:`partition_by_bounds` — color contiguous index ranges directly,
* :func:`partition_by_value_ranges` — bucket a coordinate array's *values*
  into per-color coordinate ranges (universe partitions of Compressed
  levels),
* :func:`image` — push a partition forward through a rect-valued region:
  destinations of ranges get their source's color (Fig. 6a),
* :func:`preimage` — pull a partition backward: sources whose range touches
  a colored destination get that color (Fig. 6b; may alias).

All four are vectorized over the region data; none require gathering data
to a central location, mirroring Legion's distributed implementations.
"""
from __future__ import annotations

from typing import Dict, Union

import numpy as np

from .index_space import (
    EMPTY,
    ArraySubset,
    IndexSpace,
    IndexSubset,
    Rect,
    RectSubset,
    subset_from_indices,
    union_subsets,
)
from .partition import Coloring, Partition
from .region import RectRegion, Region

__all__ = [
    "partition_by_bounds",
    "partition_by_value_ranges",
    "image",
    "preimage",
]


def partition_by_bounds(
    ispace: IndexSpace, coloring: Union[Coloring, Dict], *, name: str = ""
) -> Partition:
    """Partition a 1-D index space by explicit inclusive bounds per color.

    Bounds are clamped to the space, so the generated code can hand the
    symbolic ``[c*chunk, (c+1)*chunk - 1]`` bounds straight in.
    """
    if ispace.ndim != 1:
        raise ValueError("partition_by_bounds requires a 1-D index space")
    b_lo, b_hi = ispace.bounds.lo[0], ispace.bounds.hi[0]
    subsets: Dict = {}
    for color, (lo, hi) in coloring.items():
        lo, hi = max(lo, b_lo), min(hi, b_hi)
        subsets[color] = RectSubset(Rect(lo, hi)) if hi >= lo else EMPTY
    return Partition(ispace, subsets, name=name or f"byBounds({ispace.name})")


def partition_by_value_ranges(
    crd: Region, coloring: Union[Coloring, Dict], *, name: str = ""
) -> Partition:
    """Partition a coordinate region by bucketing its *values* into ranges.

    Color ``c`` receives every position ``i`` with ``lo_c <= crd[i] <= hi_c``.
    This realizes the universe partition of a Compressed level: positions
    whose stored coordinate falls in the color's slice of the universe.
    """
    values = crd.data
    subsets: Dict = {}
    for color, (lo, hi) in coloring.items():
        mask = (values >= lo) & (values <= hi)
        subsets[color] = subset_from_indices(np.nonzero(mask)[0])
    return Partition(crd.ispace, subsets, name=name or f"byValues({crd.name})")


def image(
    src: RectRegion, src_partition: Partition, dst: Union[Region, IndexSpace], *, name: str = ""
) -> Partition:
    """Partition ``dst`` so each color covers the ranges its sources point at.

    ``image(S, P_S, D)[c] = union of S[i] for i in P_S[c]`` (paper §III-A).
    """
    dst_ispace = dst.ispace if isinstance(dst, Region) else dst
    subsets: Dict = {}
    for color, subset in src_partition.items():
        if subset.empty:
            subsets[color] = EMPTY
            continue
        dest = src.destination_subset(subset)
        subsets[color] = dest
    return Partition(dst_ispace, subsets, name=name or f"image({src.name})")


def preimage(
    src: RectRegion,
    dst_partition: Partition,
    dst: Union[Region, IndexSpace, None] = None,
    *,
    name: str = "",
) -> Partition:
    """Partition ``src`` so each color holds the sources touching its targets.

    ``preimage(S, P_D, D)[c] = { i : S[i] ∩ P_D[c] ≠ ∅ }``.  The result may
    alias (Fig. 6b): a source whose range straddles two colors appears in
    both, and the runtime keeps the shared copies coherent.
    """
    lo, hi = src.lo, src.hi
    nonempty = hi >= lo
    subsets: Dict = {}
    for color, subset in dst_partition.items():
        if subset.empty:
            subsets[color] = EMPTY
            continue
        if isinstance(subset, RectSubset):
            a, b = subset.rect.lo[0], subset.rect.hi[0]
            mask = nonempty & (lo <= b) & (hi >= a)
        else:
            targets = subset.indices()
            left = np.searchsorted(targets, lo, side="left")
            right = np.searchsorted(targets, hi, side="right")
            mask = nonempty & (right > left)
        subsets[color] = subset_from_indices(np.nonzero(mask)[0])
    return Partition(src.ispace, subsets, name=name or f"preimage({src.name})")
