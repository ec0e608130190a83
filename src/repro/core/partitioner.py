"""Coordinate-tree partitioning (paper §IV-A/§IV-C).

Given an initial partition of one coordinate-tree level — universe
(coordinate bounds) or non-zero (position bounds) per color — derive
partitions of every level above and below it:

* levels **below** the initial level via ``partitionFromParent`` (children
  inherit their parent's color),
* levels **above** via ``partitionFromChild`` (parents are colored with all
  of their children's colors, so the result may alias, Fig. 8b).

The result is a :class:`TensorPartition`: one positions-partition per level
(plus the ``pos``-region partitions of compressed levels) and the values
partition, ready to be turned into Legion region requirements.

Partitions are memoized per ``(tensor pattern version, level, kind,
bounds)`` in :mod:`repro.core.cache`: re-deriving the same coordinate-tree
partition for the same data (a recompile, or another statement splitting
the same tensor the same way) returns the cached object and replays the
recorded plan statements.  Mutating a tensor's values does not bump its
pattern version and therefore does not invalidate these entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CompileError
from ..legion.index_space import EMPTY, Rect, RectSubset
from ..legion.partition import Partition
from ..legion.runtime import Privilege, RegionReq
from ..taco.tensor import Tensor
from . import cache as _cache
from .levels import LevelFunctions
from .plan import PartitioningPlan

__all__ = [
    "TensorPartition",
    "partition_tensor",
    "partition_dense_tensor",
    "replicated_partition",
]

Color = Hashable
Bounds = Tuple[int, int]


@dataclass
class TensorPartition:
    """A full coordinate-tree partition of one tensor."""

    tensor: Tensor
    level_positions: List[Optional[Partition]]  # per level, positions partition
    level_pos_parts: List[Optional[Partition]]  # per level, pos-region partition
    vals_part: Partition
    colors: List[Color]
    replicated: bool = False

    def region_reqs(self, privilege: Privilege) -> List[RegionReq]:
        """Region requirements describing this tensor's per-color footprint.

        Metadata (``pos``/``crd``) is always read-only; only ``vals`` takes
        the requested privilege.
        """
        reqs: List[RegionReq] = []
        for lvl, positions, pos_part in zip(
            self.tensor.levels, self.level_positions, self.level_pos_parts
        ):
            for region, part in lvl.piece_regions(pos_part, positions):
                # No partition: the whole region when replicated, else none of it.
                if part is not None or self.replicated:
                    reqs.append(RegionReq(region, part, Privilege.READ_ONLY))
        vals_part = None if self.replicated else self.vals_part
        reqs.append(RegionReq(self.tensor.vals, vals_part, privilege))
        return reqs

    def vals_subset(self, color: Color):
        return self.vals_part[color] if not self.replicated else self.tensor.vals.ispace.full_subset()

    def is_output_aliased(self) -> bool:
        """True when the values partition overlaps (requires reduction)."""
        return not self.vals_part.is_disjoint()

    def top_level_bounds(self) -> Dict[Color, Bounds]:
        """Per-color [lo, hi] coordinate bounds at the root level.

        Used by ``partitionRemainingCoordinateTrees`` to derive universe
        partitions of the other tensors in the statement.
        """
        out: Dict[Color, Bounds] = {}
        coord_of = self.tensor.levels[0].coord_of
        for c, s in self.level_positions[0].items():
            if s.empty:
                out[c] = (0, -1)
                continue
            if isinstance(s, RectSubset):
                lo, hi = s.rect.lo[0], s.rect.hi[0]
            else:
                idx = s.indices()
                lo, hi = idx[0], idx[-1]
            out[c] = (int(coord_of(lo)), int(coord_of(hi)))
        return out

    def nbytes_for(self, color: Color) -> int:
        total = 0
        for req in self.region_reqs(Privilege.READ_ONLY):
            total += req.region.subset_nbytes(req.subset_for(color))
        return total


def partition_tensor(
    tensor: Tensor,
    initial_level: int,
    kind: str,  # "universe" | "nonzero"
    bounds: Dict[Color, Bounds],
    plan: Optional[PartitioningPlan] = None,
) -> TensorPartition:
    """Run the Table I level functions to partition one tensor's tree.

    Memoized: a repeat call over the same pattern version, level, kind and
    bounds returns the cached :class:`TensorPartition` (shared, read-only)
    and re-emits the originally recorded plan statements into ``plan``.
    """
    if plan is None:
        plan = PartitioningPlan(f"partition_{tensor.name}")
    if tensor.format.is_all_dense():
        raise CompileError("use partition_dense_tensor for all-dense tensors")
    nlevels = len(tensor.levels)
    if not (0 <= initial_level < nlevels):
        raise CompileError(f"initial level {initial_level} out of range")
    key = _cache.partition_cache_key(tensor, initial_level, kind, bounds)
    hit = _cache.lookup_partition(key)
    if hit is not None:
        part, stmts = hit
        plan.stmts.extend(stmts)
        return part
    emitted_from = len(plan.stmts)
    sites = [LevelFunctions(tensor, l, plan) for l in range(nlevels)]
    site = sites[initial_level]
    if kind == "universe":
        init, entry, finalize = (site.init_universe_partition,
                                 site.create_universe_partition_entry,
                                 site.finalize_universe_partition)
    elif kind == "nonzero":
        init, entry, finalize = (site.init_nonzero_partition,
                                 site.create_nonzero_partition_entry,
                                 site.finalize_nonzero_partition)
    else:
        raise CompileError(f"unknown partition kind {kind!r}")
    colors = list(bounds.keys())
    coloring = init()
    for c in colors:
        entry(coloring, c, bounds[c])
    up, down = finalize(coloring)

    positions: List[Optional[Partition]] = [None] * nlevels
    positions[initial_level] = down
    # Downward: children inherit their parent's colors.
    for l in range(initial_level + 1, nlevels):
        down = positions[l] = sites[l].partition_from_parent(down)
    # Upward: parents take the union of their children's colors.
    for l in range(initial_level - 1, -1, -1):
        positions[l] = up
        up = sites[l].partition_from_child(up)

    vals_src = positions[nlevels - 1]
    vals_part = Partition(tensor.vals.ispace, dict(vals_src.subsets),
                          name=f"{tensor.name}ValsPart")
    result = TensorPartition(
        tensor,
        level_positions=positions,
        level_pos_parts=[s.pos_part for s in sites],
        vals_part=vals_part,
        colors=colors,
    )
    _cache.store_partition(key, result, plan.stmts[emitted_from:])
    return result


def partition_dense_tensor(
    tensor: Tensor,
    mode_bounds: Dict[Color, Dict[int, Bounds]],
    plan: Optional[PartitioningPlan] = None,
) -> TensorPartition:
    """Partition an all-dense tensor by per-mode coordinate bounds.

    ``mode_bounds[color]`` maps tensor modes to inclusive coordinate ranges;
    unmentioned modes span their full extent (this is DISTAL's dense tensor
    distribution).  The partition is over the tensor's N-D values region.
    """
    if plan is None:
        plan = PartitioningPlan(f"partition_{tensor.name}")
    if not tensor.format.is_all_dense():
        raise CompileError("partition_dense_tensor requires an all-dense tensor")
    key = _cache.dense_partition_cache_key(tensor, mode_bounds)
    hit = _cache.lookup_partition(key)
    if hit is not None:
        part, stmts = hit
        plan.stmts.extend(stmts)
        return part
    emitted_from = len(plan.stmts)
    subsets = {}
    stored_modes = tensor.format.mode_ordering
    for color, per_mode in mode_bounds.items():
        lo, hi = [], []
        for level, mode in enumerate(stored_modes):
            size = tensor.shape[mode]
            b = per_mode.get(mode, (0, size - 1))
            lo.append(max(0, b[0]))
            hi.append(min(size - 1, b[1]))
        r = Rect(tuple(lo), tuple(hi))
        subsets[color] = EMPTY if r.empty else RectSubset(r)
    plan.emit(
        "partitionByBounds",
        f"{tensor.name}ValsPart = partitionByBounds(C_{tensor.name}, {tensor.name}.dom)",
        tensor=tensor.name,
        level=0,
    )
    part = Partition(tensor.vals.ispace, subsets, name=f"{tensor.name}ValsPart")
    nlevels = len(tensor.levels)
    result = TensorPartition(
        tensor,
        level_positions=[None] * nlevels,
        level_pos_parts=[None] * nlevels,
        vals_part=part,
        colors=list(mode_bounds.keys()),
    )
    _cache.store_partition(key, result, plan.stmts[emitted_from:])
    return result


def replicated_partition(tensor: Tensor, colors: Sequence[Color]) -> TensorPartition:
    """Every color sees the whole tensor (e.g. the replicated SpMV vector)."""
    full = tensor.vals.ispace.full_subset()
    part = Partition(
        tensor.vals.ispace, {c: full for c in colors}, name=f"{tensor.name}Repl"
    )
    nlevels = len(tensor.levels)
    return TensorPartition(
        tensor,
        level_positions=[None] * nlevels,
        level_pos_parts=[None] * nlevels,
        vals_part=part,
        colors=list(colors),
        replicated=True,
    )
