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

Nothing here is memoized: each compile derives its own partitions and
emits its own plan statements, and the compiled kernel keeps them (the
kernel cache in :mod:`repro.core.cache` is what a recompile reuses).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CompileError
from ..legion.partition import Coloring, Partition
from ..legion.runtime import Privilege, RegionReq
from ..taco.tensor import Tensor
from .levels import LevelFunctions
from .plan import PartitioningPlan

__all__ = [
    "TensorPartition",
    "partition_tensor",
    "dense_partition",
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

    def top_level_bounds(self) -> Coloring:
        """Per-color [lo, hi] coordinate bounds at the root level.

        Used by ``partitionRemainingCoordinateTrees`` to derive universe
        partitions of the other tensors in the statement.
        """
        part, coord_of = self.level_positions[0], self.tensor.levels[0].coord_of
        lo, hi = np.zeros(part.n_colors, np.int64), np.full(part.n_colors, -1, np.int64)
        if part.bounds is not None:
            a, b = part.bounds[0][:, 0], part.bounds[1][:, 0]
            live = b >= a
            lo[live], hi[live] = coord_of(a[live]), coord_of(b[live])
        else:
            for k, s in enumerate(part.subsets.values()):
                if not s.empty:
                    idx = s.indices()  # nnz: ok an ArraySubset's own array, no copy
                    lo[k], hi[k] = coord_of(idx[0]), coord_of(idx[-1])
        return Coloring(part.colors(), np.stack([lo, hi], axis=1))

    def nbytes_for(self, color: Color) -> int:
        total = 0
        for req in self.region_reqs(Privilege.READ_ONLY):
            total += req.region.subset_nbytes(req.subset_for(color))
        return total


def partition_tensor(
    tensor: Tensor,
    initial_level: int,
    kind: str,  # "universe" | "nonzero"
    bounds: Union[Coloring, Dict[Color, Bounds]],
    plan: Optional[PartitioningPlan] = None,
) -> TensorPartition:
    """Run the Table I level functions to partition one tensor's tree.

    ``bounds`` gives each color's initial ``(lo, hi)``: a :class:`Coloring`
    (columns) or a ``{color: (lo, hi)}`` mapping, read in its order.
    """
    bounds = Coloring.of(bounds)
    if plan is None:
        plan = PartitioningPlan(f"partition_{tensor.name}")
    if tensor.format.is_all_dense():
        raise CompileError("use dense_partition for all-dense tensors")
    nlevels = len(tensor.levels)
    if not (0 <= initial_level < nlevels):
        raise CompileError(f"initial level {initial_level} out of range")
    sites = [LevelFunctions(tensor, l, plan) for l in range(nlevels)]
    site, level = sites[initial_level], tensor.levels[initial_level]
    if kind == "universe":
        init, entry, finalize = (level.init_universe_partition,
                                 level.create_universe_partition_entry,
                                 level.finalize_universe_partition)
    elif kind == "nonzero":
        init, entry, finalize = (level.init_nonzero_partition,
                                 level.create_nonzero_partition_entry,
                                 level.finalize_nonzero_partition)
    else:
        raise CompileError(f"unknown partition kind {kind!r}")
    colors = bounds.colors()
    coloring = init(site)
    entry(site, coloring, colors, bounds.bounds)
    up, down = finalize(site, coloring)

    positions: List[Optional[Partition]] = [None] * nlevels
    positions[initial_level] = down
    # Downward: children inherit their parent's colors.
    for l in range(initial_level + 1, nlevels):
        down = positions[l] = tensor.levels[l].partition_from_parent(sites[l], down)
    # Upward: parents take the union of their children's colors.
    for l in range(initial_level - 1, -1, -1):
        positions[l] = up
        up = tensor.levels[l].partition_from_child(sites[l], up)

    vals_part = positions[nlevels - 1].copy(f"{tensor.name}ValsPart", tensor.vals.ispace)
    return TensorPartition(
        tensor,
        level_positions=positions,
        level_pos_parts=[s.pos_part for s in sites],
        vals_part=vals_part,
        colors=colors,
    )


def dense_partition(
    tensor: Tensor,
    colors: Sequence[Color],
    per_mode: Dict[int, Tuple[np.ndarray, np.ndarray]],
    plan: Optional[PartitioningPlan] = None,
) -> TensorPartition:
    """Partition an all-dense tensor by per-mode coordinate bounds.

    ``per_mode[mode]`` is ``(lo, hi)``, inclusive coordinate ranges as
    arrays over ``colors``, clamped to the mode's extent; unmentioned modes
    span their full extent (this is DISTAL's dense tensor distribution).
    The partition is over the tensor's N-D values region, built in one
    pass."""
    if plan is None:
        plan = PartitioningPlan(f"partition_{tensor.name}")
    if not tensor.format.is_all_dense():
        raise CompileError("dense_partition requires an all-dense tensor")
    stored_modes = tensor.format.mode_ordering
    lo = np.zeros((len(colors), len(stored_modes)), dtype=np.int64)
    hi = np.empty_like(lo)
    for level, mode in enumerate(stored_modes):
        size = tensor.shape[mode]
        hi[:, level] = size - 1
        if mode in per_mode:
            np.maximum(per_mode[mode][0], 0, out=lo[:, level])
            np.minimum(per_mode[mode][1], size - 1, out=hi[:, level])
    plan.emit(
        "partitionByBounds",
        f"{tensor.name}ValsPart = partitionByBounds(C_{tensor.name}, {tensor.name}.dom)",
        tensor=tensor.name,
        level=0,
    )
    part = Partition.from_bounds(tensor.vals.ispace, colors, lo, hi,
                                 name=f"{tensor.name}ValsPart")
    nlevels = len(tensor.levels)
    return TensorPartition(
        tensor,
        level_positions=[None] * nlevels,
        level_pos_parts=[None] * nlevels,
        vals_part=part,
        colors=list(colors),
    )


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
