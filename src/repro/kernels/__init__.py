"""Leaf kernels executed by the pieces of a distributed computation.

Each kernel has a vectorized implementation (the analogue of the
generated C++/CUDA or vendor-library leaf in the paper) plus, for the core
kernels, a straight loop-nest reference used for cross-validation.  A leaf
is written per *iteration shape*, not per statement or format, and every
leaf that reduces does so through the one compiled segment-reduce
primitive of :mod:`.segment`: the
segmented dot (:mod:`.spmv`) serves SpMV over rows and SpTTV over fibers,
and the one SpMTTKRP body takes its ``(i, j, k)`` from the level functions
of whatever stack stores B.  Beside each reference kernel sits its *bind
function* (``segdot_bind``, ``spmm_bind``, …): the same body bound once
per compiled kernel into flat per-piece thunks.  The kernel table
(:mod:`repro.core.kernelspec`) decides which statements a leaf can serve;
the generic COO engine covers every tensor algebra expression — and every
level stack — the specialized kernels do not.
"""
from .segment import (
    check_packed,
    piece_range,
    row_of_positions,
    segment_dot,
    segment_matmul,
    segment_sum_matrix,
)
from .spmv import segdot_bind, spmv_nonzeros, spmv_rows, spmv_rows_reference
from .spmm import spmm_bind, spmm_nonzeros, spmm_rows, spmm_rows_reference
from .sddmm import (
    fused_sddmm_spmm_bind, sddmm_nonzeros, sddmm_nonzeros_bind, sddmm_reference,
    sddmm_rows, sddmm_rows_bind,
)
from .spadd import PiecePlan, spadd3_fill, spadd3_plan, spadd3_symbolic
from .spmttkrp import spmttkrp, spmttkrp_bind, spmttkrp_reference
from .generic_coo import CooData, coo_of_access, evaluate_generic, fits_int64, lex_ranks

__all__ = [
    "check_packed", "piece_range", "row_of_positions", "segment_dot",
    "segment_matmul", "segment_sum_matrix",
    "segdot_bind", "spmv_nonzeros", "spmv_rows", "spmv_rows_reference",
    "spmm_bind", "spmm_nonzeros", "spmm_rows", "spmm_rows_reference",
    "fused_sddmm_spmm_bind", "sddmm_nonzeros", "sddmm_nonzeros_bind",
    "sddmm_reference", "sddmm_rows", "sddmm_rows_bind",
    "PiecePlan", "spadd3_fill", "spadd3_plan", "spadd3_symbolic",
    "spmttkrp", "spmttkrp_bind", "spmttkrp_reference",
    "CooData", "coo_of_access", "evaluate_generic", "fits_int64", "lex_ranks",
]
