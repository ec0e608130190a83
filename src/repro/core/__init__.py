"""SpDISTAL core: compiling distributed sparse tensor computations.

The paper's contribution: format abstractions for sparse tensor
partitioning (Table I), the coordinate-tree partitioning algorithm
(§IV-A), the code generation algorithm (Fig. 9a) and sparse output
assembly (§V-B).
"""
from .plan import PartitioningPlan, PlanStmt
from .cache import (
    cache_budgets,
    cache_stats,
    caches_disabled,
    caches_enabled,
    clear_caches,
    invalidate_tensor,
    kernel_fingerprint,
    set_cache_budget,
)
from .levels import LevelFunctions
from .partitioner import (
    TensorPartition,
    dense_partition,
    partition_tensor,
    replicated_partition,
)
from .assembly import adopt_pattern, install_assembled_output, pattern_source, scan_counts
from .compiler import (
    CompiledKernel,
    ExecutionResult,
    Piece,
    compile_kernel,
    compile_statement,
)
from .kernelspec import SPECS, KernelClass, KernelSpec, classify
from .program import CompiledProgram, ProgramResult, compile_program
from .store import (
    PackedArtifact,
    load_packed,
    read_manifest,
    save_packed,
    stable_fingerprint,
)
from .store_index import ArtifactStore, GCStats, fingerprint_key, gc_artifacts

__all__ = [
    "PartitioningPlan", "PlanStmt",
    "cache_budgets", "cache_stats", "caches_disabled", "caches_enabled",
    "clear_caches", "invalidate_tensor", "kernel_fingerprint",
    "set_cache_budget",
    "LevelFunctions",
    "TensorPartition", "dense_partition", "partition_tensor",
    "replicated_partition",
    "adopt_pattern", "install_assembled_output", "pattern_source", "scan_counts",
    "CompiledKernel", "ExecutionResult", "KernelClass", "Piece",
    "classify", "compile_kernel", "compile_statement",
    "SPECS", "KernelSpec",
    "CompiledProgram", "ProgramResult", "compile_program",
    "PackedArtifact", "load_packed", "read_manifest", "save_packed",
    "stable_fingerprint",
    "ArtifactStore", "GCStats", "fingerprint_key", "gc_artifacts",
]
