"""Sparse output tensors (paper §V-B).

Two cases, exactly as the prototype supports:

* **pattern-preserving** statements (SDDMM, SpTTV, ...) where the output's
  sparsity equals an input's — the compiler copies the coordinate metadata
  from the input into the output and the leaves write only values;
* **unknown pattern** (SpAdd3) — the two-phase parallel assembly of
  Chou et al.: a symbolic pass counts each piece's output non-zeros, an
  exclusive scan sizes the result, and a fill pass writes values with no
  synchronization.  The symbolic result is an :class:`AssemblyPlan`, merged
  once per operand pattern; the output's regions and ``pattern_version``
  change only when the plan's pattern differs from the one it holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from .. import kernels as K
from ..errors import CompileError
from ..legion.index_space import IndexSpace
from ..legion.region import Region, make_pos_region
from ..taco.expr import Access, Assignment, Mul
from ..taco.tensor import CompressedLevel, Tensor

__all__ = [
    "pattern_source",
    "adopt_pattern",
    "scan_counts",
    "AssemblyPlan",
    "merge_operands",
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


@dataclass
class AssemblyPlan:
    """The structural half of one SpAdd statement (the symbolic result of
    Chou et al.'s two-phase assembly): a function of the operand *patterns*
    alone, so it is merged once per pattern and every later execute only
    fills values.  Holds index arrays and sizes — never a tensor or an
    operand's values."""

    #: the operands' ``pattern_version``s the plan was merged from.
    versions: Tuple[int, ...]
    #: launch color -> that piece's merge (``counts`` / ``crd`` are views of
    #: :attr:`counts` / :attr:`crd`).
    pieces: Dict[Hashable, K.PiecePlan]
    #: launch color -> the piece's slice of the output's ``crd`` / ``vals``.
    spans: Dict[Hashable, slice]
    #: merged entries per output row, and their column coordinates.
    counts: np.ndarray
    crd: np.ndarray
    #: the output's ``pattern_version`` when it was last seen to hold
    #: (``counts``, ``crd``); None until the first install.
    installed: Optional[int] = None


def merge_operands(tensors: Sequence[Tensor], pieces, shape) -> AssemblyPlan:
    """Build the plan of ``out = sum(tensors)`` over the launch ``pieces``
    (disjoint row ranges tiling the rows): one linear
    :func:`~repro.kernels.spadd3_plan` over every row, cut into the
    pieces' views by :func:`~repro.kernels.spadd3_pieces`.  A hand-built
    operand whose row is not strictly ascending raises
    :class:`~repro.errors.FormatError` naming it and the row."""
    nrows, ncols = shape
    versions = tuple(t.pattern_version for t in tensors)
    metas = [t.csr_arrays()[:2] for t in tensors]
    whole = K.spadd3_plan(metas, ncols, 0, nrows - 1, [t.name for t in tensors])
    merged, spans = {}, {}
    for p, (piece, span) in zip(pieces, K.spadd3_pieces(whole, metas, [p.rows for p in pieces])):
        merged[p.color], spans[p.color] = piece, span
    return AssemblyPlan(versions, merged, spans, whole.counts, whole.crd)


def install_assembled_output(out: Tensor, counts: np.ndarray, crd: np.ndarray) -> bool:
    """Phase-1 result of two-phase assembly: make ``out`` hold the pattern
    (``counts`` per row, coordinates ``crd``); True when it had to change.

    The output's identity changes only when its pattern does.  When ``out``
    already holds exactly this pattern its ``pos`` / ``crd`` / ``vals``
    regions are kept and no version moves, so kernels, partitions, bound
    leaves and mapping traces *consuming* ``out`` stay hot.  Otherwise fresh
    regions are installed and ``pattern_version`` (consumers must see the
    structural change) *and* ``assembly_version`` are bumped.  Kernel
    fingerprints of assembled statements exclude the LHS pattern version
    either way (see :func:`repro.core.cache.is_assembled_output`), so
    re-executing the same SpAdd statement hits the kernel cache and replays
    its mapping traces.
    """
    held = out.levels[1]
    if (
        not held.is_dense
        and out.vals.data.shape == crd.shape
        and np.array_equal(held.counts(), counts)
        and np.array_equal(held.crd.data, crd)
    ):
        out.vals.promote()  # a kept region may still be a read-only map
        return False
    crd_region = Region(
        IndexSpace(crd.size, name=f"{out.name}_crd1"), data=crd.copy(),
        name=f"{out.name}.crd1",
    )
    pos = scan_counts(counts, name=f"{out.name}.pos1")
    out.levels = [out.levels[0], CompressedLevel(pos, crd_region)]
    out.vals = Region(
        IndexSpace(crd.size, name=f"{out.name}_vals"), out.dtype, name=f"{out.name}.vals"
    )
    out._bump_pattern_version()
    out._bump_assembly_version()
    return True
