"""Leaf kernels executed by the pieces of a distributed computation.

Each kernel has a vectorized implementation (the analogue of the
generated C++/CUDA or vendor-library leaf in the paper) plus, for the core
kernels, a straight loop-nest reference used for cross-validation.  A leaf
is written per *iteration shape*, not per statement or format, and every
leaf that reduces does so through the one compiled segment-reduce
primitive of :mod:`.segment`: the
segmented dot (:mod:`.spmv`) serves SpMV over rows and SpTTV over fibers,
and the one SpMTTKRP body takes its ``(i, j, k)`` from the level functions
of whatever stack stores B.  The kernel table
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
from .spmv import spmv_nonzeros, spmv_rows, spmv_rows_reference
from .spmm import spmm_nonzeros, spmm_rows, spmm_rows_reference
from .sddmm import sddmm_nonzeros, sddmm_reference, sddmm_rows
from .spadd import PiecePlan, spadd3_fill, spadd3_plan, spadd3_symbolic
from .spmttkrp import spmttkrp, spmttkrp_reference
from .generic_coo import CooData, coo_of_access, evaluate_generic, fits_int64, lex_ranks

__all__ = [
    "check_packed", "piece_range", "row_of_positions", "segment_dot",
    "segment_matmul", "segment_sum_matrix",
    "spmv_nonzeros", "spmv_rows", "spmv_rows_reference",
    "spmm_nonzeros", "spmm_rows", "spmm_rows_reference",
    "sddmm_nonzeros", "sddmm_reference", "sddmm_rows",
    "PiecePlan", "spadd3_fill", "spadd3_plan", "spadd3_symbolic",
    "spmttkrp", "spmttkrp_reference",
    "CooData", "coo_of_access", "evaluate_generic", "fits_int64", "lex_ranks",
]
