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

Like Legion's, each computes every color's subregion in one operation over
the region's data: a partition whose pieces are rects comes out of one NumPy
pass as its bounds arrays (:meth:`Partition.from_bounds`).  Irregular inputs
— a piece that is an index list, a ``pos`` that is not packed, a colour
whose rows hold an empty one, overlapping value ranges — take one pass per
colour instead.
"""
from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from .index_space import EMPTY, IndexSpace, RectSubset, _from_sorted_unique
from .partition import Coloring, Partition
from .region import RectRegion, Region

__all__ = [
    "partition_by_bounds",
    "partition_by_value_ranges",
    "image",
    "preimage",
]


def _coloring(coloring: Union[Coloring, Dict]) -> Tuple[list, np.ndarray]:
    """A coloring's colors and its ``(colors × 2)`` inclusive bounds."""
    coloring = Coloring.of(coloring)
    return coloring.colors(), coloring.bounds


def partition_by_bounds(
    ispace: IndexSpace, coloring: Union[Coloring, Dict], *, name: str = ""
) -> Partition:
    """Partition a 1-D index space by explicit inclusive bounds per color.

    Bounds are clamped to the space, so the generated code can hand the
    symbolic ``[c*chunk, (c+1)*chunk - 1]`` bounds straight in.
    """
    if ispace.ndim != 1:
        raise ValueError("partition_by_bounds requires a 1-D index space")
    colors, b = _coloring(coloring)
    lo = np.maximum(b[:, :1], ispace.bounds.lo[0])
    hi = np.minimum(b[:, 1:], ispace.bounds.hi[0])
    return Partition.from_bounds(ispace, colors, lo, hi,
                                 name=name or f"byBounds({ispace.name})")


def partition_by_value_ranges(
    crd: Region, coloring: Union[Coloring, Dict], *, name: str = ""
) -> Partition:
    """Partition a coordinate region by bucketing its *values* into ranges.

    Color ``c`` receives every position ``i`` with ``lo_c <= crd[i] <= hi_c``.
    This realizes the universe partition of a Compressed level: positions
    whose stored coordinate falls in the color's slice of the universe.
    Disjoint ranges bucket every position in one pass — a stable sort by
    bucket keeps each color's positions ascending; overlapping ones take
    one mask per color.
    """
    values = crd.data
    name = name or f"byValues({crd.name})"
    colors, b = _coloring(coloring)
    live = np.flatnonzero(b[:, 1] >= b[:, 0])
    order = live[np.argsort(b[live, 0], kind="stable")]
    los, his = b[order, 0], b[order, 1]
    subsets: Dict = dict.fromkeys(colors, EMPTY)
    if (his[:-1] >= los[1:]).any():
        for color, (lo, hi) in zip(colors, b.tolist()):
            mask = (values >= lo) & (values <= hi)
            subsets[color] = _from_sorted_unique(np.flatnonzero(mask))
        return Partition(crd.ispace, subsets, name=name)
    # bucket k holds the values in [los[k], his[k]]; the rest go to len(los)
    k = np.searchsorted(los, values, side="right") - 1
    inside = k >= 0
    inside[inside] = values[inside] <= his[k[inside]]
    bucket = np.where(inside, k, len(los))
    counts = np.bincount(bucket, minlength=len(los) + 1)[:-1]
    positions = np.argsort(bucket, kind="stable")
    ends = np.cumsum(counts)
    full = counts > 0
    first, last = positions[(ends - counts)[full]], positions[ends[full] - 1]
    if (last - first + 1 == counts[full]).all():  # every colour a run
        lo, hi = np.zeros((len(colors), 1), np.int64), np.full((len(colors), 1), -1, np.int64)
        lo[order[full], 0], hi[order[full], 0] = first, last
        return Partition.from_bounds(crd.ispace, colors, lo, hi, name=name)
    for at, end, n in zip(order.tolist(), ends.tolist(), counts.tolist()):
        subsets[colors[at]] = _from_sorted_unique(positions[end - n:end])
    return Partition(crd.ispace, subsets, name=name)


def _packed(src: RectRegion) -> bool:
    """Every row of ``src`` ends where the next starts and none has
    negative length, as any packed ``pos`` (so any run of its rows)."""
    lo, hi = src.lo, src.hi
    ends = hi + 1
    return bool((ends[:-1] == lo[1:]).all() and (ends >= lo).all())


def _rows_in(part: Partition, src: RectRegion):
    """``part``'s leading bounds when every piece is a rect of ``src``'s
    rows (an empty one is ``(0, -1)``) and ``src`` is packed, else None."""
    if part.bounds is None or not _packed(src):
        return None
    a, b = part.bounds[0][:, 0], part.bounds[1][:, 0]
    return (a, b) if (a >= 0).all() and (b < len(src.lo)).all() else None


def image(
    src: RectRegion, src_partition: Partition, dst: Union[Region, IndexSpace], *, name: str = ""
) -> Partition:
    """Partition ``dst`` so each color covers the ranges its sources point at.

    ``image(S, P_S, D)[c] = union of S[i] for i in P_S[c]`` (paper §III-A).
    Reads ``S`` only.  Over a packed ``pos`` a colour's rows ``[a, b]``
    cover ``[S[a].lo, S[b].hi]``: one fancy index for every colour.  Other
    inputs union each colour's ranges
    (:meth:`~repro.legion.region.RectRegion.destination_subset`).
    """
    dst_ispace = dst.ispace if isinstance(dst, Region) else dst
    name = name or f"image({src.name})"
    rows = _rows_in(src_partition, src)
    if rows is not None:
        a, b = rows
        if len(src.lo):
            lo, hi = src.lo[a], np.where(b >= a, src.hi[b], -1)
        else:  # no rows: every colour is (0, -1)
            lo, hi = a, b
        return Partition.from_bounds(dst_ispace, src_partition.colors(), lo[:, None],
                                     hi[:, None], name=name)
    subsets: Dict = {}
    for color, subset in src_partition.items():
        subsets[color] = EMPTY if subset.empty else src.destination_subset(subset)
    return Partition(dst_ispace, subsets, name=name)


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
    both, and the runtime keeps the shared copies coherent.  Reads ``S``
    (plus an irregular colour's index list).  Over a packed ``pos`` — whose
    starts and ends both ascend — a rect colour ``[a, b]`` is the rows from
    the first ending at or after ``a`` to the last starting at or before
    ``b``: two ``searchsorted`` for every colour.  A colour whose rows hold
    an empty one, and every colour of other inputs, is one mask over ``S``'s
    entries, whose ascending non-zeros need no sort.
    """
    lo, hi = src.lo, src.hi
    name = name or f"preimage({src.name})"
    colors = dst_partition.colors()
    nonempty = hi >= lo
    masked = colors
    bounds = dst_partition.bounds
    if bounds is not None and _packed(src):
        a, b = bounds[0][:, 0], bounds[1][:, 0]
        first = np.searchsorted(hi, a, side="left")
        last = np.searchsorted(lo, b, side="right") - 1
        holes = np.concatenate(([0], np.cumsum(~nonempty)))  # empty rows before each
        run = (b >= a) & (last >= first)
        gapped = run & (holes[last + 1] > holes[first])
        part = Partition.from_bounds(src.ispace, colors, first[:, None],
                                     np.where(run & ~gapped, last, -1)[:, None], name=name)
        if not gapped.any():
            return part
        subsets, masked = part.subsets, [colors[k] for k in np.flatnonzero(gapped).tolist()]
    else:
        subsets = dict.fromkeys(colors, EMPTY)
    for color in masked:
        subset = dst_partition[color]
        if subset.empty:
            continue
        if isinstance(subset, RectSubset):
            a, b = subset.rect.lo[0], subset.rect.hi[0]
            mask = nonempty & (lo <= b) & (hi >= a)
        else:
            targets = subset.indices()  # nnz: ok an index-list colour's own array, no copy
            left = np.searchsorted(targets, lo, side="left")
            right = np.searchsorted(targets, hi, side="right")
            mask = nonempty & (right > left)
        subsets[color] = _from_sorted_unique(np.flatnonzero(mask))
    return Partition(src.ispace, subsets, name=name)
