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

__all__ = ["LevelFunctions"]


class LevelFunctions:
    """Level ``level_index`` of ``tensor`` bound to ``plan``: the ``site``
    argument of each Table I function on ``tensor.levels[level_index]``."""

    def __init__(self, tensor: Tensor, level_index: int, plan: PartitioningPlan):
        self.tensor = tensor
        self.level_index = level_index
        self.plan = plan
        self.tag = f"{tensor.name}{level_index + 1}"  # B2: a partition's name
        self.ref = f"{tensor.name}[{level_index}]"  # B[1]: the level's regions
        #: Partition of the level's ``pos`` region, set by the functions of
        #: a level that stores one.
        self.pos_part: Optional[Partition] = None

    def emit(self, op: str, text: str) -> None:
        self.plan.emit(op, text, tensor=self.tensor.name, level=self.level_index)
