"""The site a level's partitioning functions run at (paper §IV-B, Table I).

The Table I functions themselves live on the level classes
(:mod:`repro.taco.levels`), one class per format.  They *execute* their
partitioning operation against the Legion substrate and record the IR
statement the paper's compiler would have emitted; :class:`LevelFunctions`
is what they record through: it binds one level of a packed tensor to a
:class:`~repro.core.plan.PartitioningPlan`, names the level in the emitted
text, and keeps the partition of the level's ``pos`` region for
:class:`~repro.core.partitioner.TensorPartition`.
"""
from __future__ import annotations

from typing import Optional

from ..legion.partition import Partition
from ..taco.tensor import Tensor
from .plan import PartitioningPlan

__all__ = ["LevelFunctions", "level_functions_for"]


class LevelFunctions:
    """Level ``level_index`` of ``tensor`` bound to ``plan``: call a Table I
    function on it without the ``site`` argument."""

    def __init__(self, tensor: Tensor, level_index: int, plan: PartitioningPlan):
        self.tensor = tensor
        self.level_index = level_index
        self.level = tensor.levels[level_index]
        self.plan = plan
        self.tag = f"{tensor.name}{level_index + 1}"  # B2: a partition's name
        self.ref = f"{tensor.name}[{level_index}]"  # B[1]: the level's regions
        #: Partition of the level's ``pos`` region, set by the functions of
        #: a level that stores one.
        self.pos_part: Optional[Partition] = None

    def emit(self, op: str, text: str) -> None:
        self.plan.emit(op, text, tensor=self.tensor.name, level=self.level_index)

    def init_universe_partition(self):
        return self.level.init_universe_partition(self)

    def create_universe_partition_entry(self, coloring, colors, bounds) -> None:
        self.level.create_universe_partition_entry(self, coloring, colors, bounds)

    def finalize_universe_partition(self, coloring):
        return self.level.finalize_universe_partition(self, coloring)

    def init_nonzero_partition(self):
        return self.level.init_nonzero_partition(self)

    def create_nonzero_partition_entry(self, coloring, colors, bounds) -> None:
        self.level.create_nonzero_partition_entry(self, coloring, colors, bounds)

    def finalize_nonzero_partition(self, coloring):
        return self.level.finalize_nonzero_partition(self, coloring)

    def partition_from_parent(self, parent_part: Partition) -> Partition:
        return self.level.partition_from_parent(self, parent_part)

    def partition_from_child(self, child_part: Partition) -> Partition:
        return self.level.partition_from_child(self, child_part)


def level_functions_for(
    tensor: Tensor, level_index: int, plan: PartitioningPlan
) -> LevelFunctions:
    return LevelFunctions(tensor, level_index, plan)
