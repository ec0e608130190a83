"""Applying tensor distribution notation to tensors (paper §V-C).

DISTAL translates a TDN statement into a scheduled TIN statement that uses
``divide`` + ``distribute`` to partition the tensor; SpDISTAL extends this
with ``fuse`` (coordinate fusion) and the non-zero variant of ``divide``.
This module performs the equivalent translation directly onto the level
functions: a TDN statement becomes an initial level partition (universe or
non-zero) plus derived coordinate tree partitions, and the sub-tensors are
placed onto the machine's memories.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..errors import CompileError, FormatError
from ..kernels.segment import piece_range
from ..legion.machine import Machine
from ..legion.runtime import Privilege, Runtime
from ..taco.tensor import Tensor
from ..core.partitioner import (
    TensorPartition,
    dense_partition,
    partition_tensor,
    replicated_partition,
)
from ..core.plan import PartitioningPlan
from .tdn import TDN, parse_tdn

__all__ = ["TensorDistribution", "partition_for_tdn", "place_tensor", "distribute"]

Color = Hashable


@dataclass
class TensorDistribution:
    """The result of applying a TDN statement to a tensor on a machine."""

    tensor: Tensor
    tdn: TDN
    machine: Machine
    partition: TensorPartition
    plan: PartitioningPlan

    def nbytes_per_piece(self) -> Dict[Color, int]:
        return {c: self.partition.nbytes_for(c) for c in self.partition.colors}

    def load_balance(self) -> float:
        """max/mean stored values per piece (1.0 = perfectly balanced)."""
        vols = [
            self.partition.vals_subset(c).volume for c in self.partition.colors
        ]
        mean = sum(vols) / len(vols) if vols else 0
        return (max(vols) / mean) if mean else 1.0


def _grid_colors(machine: Machine) -> List[Color]:
    if machine.grid.ndim == 1:
        return list(range(machine.grid.dims[0]))
    return [tuple(p) for p in machine.grid.points()]


def _component(color: Color, g: int, ndim: int) -> int:
    if ndim == 1:
        return int(color)
    return int(color[g])


def partition_for_tdn(
    tensor: Tensor, tdn: TDN, machine: Machine
) -> Tuple[TensorPartition, PartitioningPlan]:
    """Build the coordinate-tree partition a TDN statement describes."""
    if len(tdn.tensor_dims) != tensor.order:
        raise FormatError(
            f"TDN names {len(tdn.tensor_dims)} dims but {tensor.name} has order "
            f"{tensor.order}"
        )
    if len(tdn.machine_dims) != machine.grid.ndim:
        raise FormatError(
            f"TDN names {len(tdn.machine_dims)} machine dims but the machine "
            f"grid has rank {machine.grid.ndim}"
        )
    plan = PartitioningPlan(f"tdn_{tensor.name}")
    colors = _grid_colors(machine)
    ndim = machine.grid.ndim
    matched = tdn.matched_dims()

    if not matched:
        return replicated_partition(tensor, colors), plan

    if tensor.format.is_all_dense():
        nz_free = [m for m in matched if not m[1].nonzero]
        if len(nz_free) != len(matched):
            # Non-zero partitions of dense tensors fall back to universe
            # partitions (every coordinate is stored).
            nz_free = matched
        per_mode: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for g, ref, modes in nz_free:
            if len(modes) != 1:
                raise CompileError(
                    "fused distributions of dense tensors are not supported"
                )
            b = np.array([piece_range(tensor.shape[modes[0]], machine.grid.dims[g],
                                      _component(c, g, ndim)) for c in colors],
                         dtype=np.int64).reshape(-1, 2)
            per_mode[modes[0]] = b[:, 0], b[:, 1]
        return dense_partition(tensor, colors, per_mode, plan), plan

    if len(matched) > 1:
        raise CompileError(
            "sparse tensors can be partitioned along one machine dimension"
        )
    g, ref, modes = matched[0]
    pieces = machine.grid.dims[g]
    if ref.nonzero:
        # Non-zero partition of the level storing the innermost covered mode.
        level = max(tensor.format.level_of_mode(m) for m in modes)
        npos = tensor.levels[level].num_positions
        bounds = {
            c: piece_range(npos, pieces, _component(c, g, ndim)) for c in colors
        }
        part = partition_tensor(tensor, level, "nonzero", bounds, plan)
    else:
        if len(modes) != 1:
            raise CompileError(
                "universe partitions of fused dimensions are not supported; "
                "use ~ for fused dimensions"
            )
        mode = modes[0]
        level = tensor.format.level_of_mode(mode)
        size = tensor.shape[mode]
        bounds = {
            c: piece_range(size, pieces, _component(c, g, ndim)) for c in colors
        }
        part = partition_tensor(tensor, level, "universe", bounds, plan)
    return part, plan


def place_tensor(
    tensor: Tensor, tdn: TDN, machine: Machine, runtime: Runtime
) -> TensorDistribution:
    """Partition per the TDN statement and place sub-tensors on the machine."""
    part, plan = partition_for_tdn(tensor, tdn, machine)

    for req in part.region_reqs(Privilege.READ_ONLY):
        if req.partition is None:
            runtime.place_replicated(req.region)
        else:
            runtime.place(req.region, req.partition, machine.proc_of_color)
        runtime.declared.add(req.region.uid)  # no kernel re-places it here
    return TensorDistribution(tensor, tdn, machine, part, plan)


def distribute(
    tensor: Tensor, statement: str, machine: Machine, runtime: Optional[Runtime] = None
) -> TensorDistribution:
    """Convenience: parse a textual TDN statement and apply it.

    With no runtime, only the partition is computed (no placement).
    """
    tdn = parse_tdn(statement)
    if runtime is None:
        part, plan = partition_for_tdn(tensor, tdn, machine)
        return TensorDistribution(tensor, tdn, machine, part, plan)
    return place_tensor(tensor, tdn, machine, runtime)
