"""Sparse output tensors (paper §V-B).

Two cases, exactly as the prototype supports:

* **pattern-preserving** statements (SDDMM, SpTTV, ...) where the output's
  sparsity equals an input's — the compiler copies the coordinate metadata
  from the input into the output and the leaves write only values;
* **unknown pattern** (SpAdd3) — the two-phase parallel assembly of
  Chou et al.: a symbolic pass counts each piece's output non-zeros, an
  exclusive scan sizes the result, and a fill pass writes coordinates and
  values with no synchronization.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import CompileError
from ..legion.index_space import IndexSpace
from ..legion.region import Region, make_pos_region
from ..taco.expr import Access, Assignment, Mul
from ..taco.tensor import CompressedLevel, DenseLevel, Tensor

__all__ = [
    "pattern_source",
    "adopt_pattern",
    "scan_counts",
    "install_assembled_output",
]


def pattern_source(assignment: Assignment) -> Optional[Access]:
    """The sparse input whose pattern the output provably preserves.

    A multiplicative statement preserves the pattern of a sparse operand
    that is indexed by exactly the LHS variables in the same order and
    whose remaining (reduction-variable) dimensions only shrink the value,
    never the structure — e.g. ``A(i,j) = B(i,j)*C(i,k)*D(k,j)`` (SDDMM)
    and ``A(i,j) = B(i,j,k)*c(k)`` (SpTTV).
    """
    lhs = assignment.lhs
    if lhs.tensor.format.is_all_dense():
        return None
    rhs = assignment.rhs
    operands = rhs.operands if isinstance(rhs, Mul) else [rhs]
    lhs_vars = lhs.indices
    for op in operands:
        if not isinstance(op, Access) or op.tensor.format.is_all_dense():
            continue
        if op.indices[: len(lhs_vars)] == lhs_vars:
            return op
    return None


def adopt_pattern(out: Tensor, src: Tensor, keep_levels: int) -> None:
    """Give ``out`` the first ``keep_levels`` levels of ``src``'s structure.

    The coordinate metadata regions are shared (the paper copies them; for
    a simulation sharing is equivalent and cheaper), and a fresh zeroed
    values region is allocated over the kept prefix's position space.
    """
    if keep_levels > len(src.levels):
        raise CompileError("cannot adopt more levels than the source stores")
    out.levels = list(src.levels[:keep_levels])
    last = out.levels[-1]
    out.vals = Region(
        IndexSpace(last.num_positions, name=f"{out.name}_vals"),
        out.dtype,
        name=f"{out.name}.vals",
    )
    out._bump_pattern_version()


def scan_counts(counts: np.ndarray, name: str = "pos"):
    """Exclusive scan of per-row counts into a rect ``pos`` region."""
    return make_pos_region(counts, name=name)


def install_assembled_output(
    out: Tensor, counts: np.ndarray, ncols: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase-1 result of two-phase assembly: size and install the output.

    Returns ``(pos, crd, vals)`` arrays for the fill phase to write into.

    Bumps the output's ``pattern_version`` (consumers of ``out`` must see
    the structural change) *and* its ``assembly_version``.  Kernel
    fingerprints of assembled statements exclude the LHS pattern version
    (see :func:`repro.core.cache.is_assembled_output`), so re-executing the
    same SpAdd statement hits the kernel cache and replays its mapping
    traces instead of re-recording every iteration.
    """
    nrows = counts.size
    pos = scan_counts(counts, name=f"{out.name}.pos1")
    total = int(np.maximum(counts, 0).sum())
    crd = Region(
        IndexSpace(total, name=f"{out.name}_crd1"), np.int64, name=f"{out.name}.crd1"
    )
    # A two-level output keeps its root; any other is built as CSR from scratch.
    root = out.levels[0] if len(out.levels) == 2 else DenseLevel(nrows, nrows)
    out.levels = [root, CompressedLevel(pos, crd)]
    out.vals = Region(
        IndexSpace(total, name=f"{out.name}_vals"), out.dtype, name=f"{out.name}.vals"
    )
    out._bump_pattern_version()
    out._bump_assembly_version()
    lvl = out.levels[1]
    return lvl.pos.data, lvl.crd.data, out.vals.data
