"""A Python model of the Legion distributed runtime (Bauer et al., SC'12).

SpDISTAL targets Legion; this subpackage reproduces the parts of Legion's
data model the paper relies on: index spaces, regions (including
rect-valued ``pos`` regions), partitions, dependent partitioning
(image/preimage), machines, and index task launches with region
requirements, privileges and communication/compute accounting.
"""
from .index_space import (
    EMPTY,
    ArraySubset,
    IndexSpace,
    IndexSubset,
    Rect,
    RectSubset,
    intersect_subsets,
    subset_from_indices,
    union_subsets,
)
from .region import Region, RectRegion, make_pos_region
from .partition import Coloring, Partition, equal_partition, equal_partition_nd
from .dependent import image, partition_by_bounds, partition_by_value_ranges, preimage
from .machine import Grid, Machine, NodeSpec, ProcKind, Processor, Work, Works
from .network import Network
from .metrics import CommEvent, ExecutionMetrics, StepMetrics
from .runtime import MappingTrace, Privilege, RegionReq, Runtime

__all__ = [
    "EMPTY",
    "ArraySubset",
    "IndexSpace",
    "IndexSubset",
    "Rect",
    "RectSubset",
    "intersect_subsets",
    "subset_from_indices",
    "union_subsets",
    "Region",
    "RectRegion",
    "make_pos_region",
    "Coloring",
    "Partition",
    "equal_partition",
    "equal_partition_nd",
    "image",
    "partition_by_bounds",
    "partition_by_value_ranges",
    "preimage",
    "Grid",
    "Machine",
    "NodeSpec",
    "ProcKind",
    "Processor",
    "Work",
    "Works",
    "Network",
    "CommEvent",
    "ExecutionMetrics",
    "StepMetrics",
    "MappingTrace",
    "Privilege",
    "RegionReq",
    "Runtime",
]
