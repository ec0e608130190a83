"""SDDMM leaf kernels: ``A(i,j) = B(i,j) * C(i,k) * D(k,j)``.

The output inherits B's sparsity pattern (paper §V-B), so the leaf writes
only the values array.  The paper uses a non-zero-based algorithm and data
distribution for SDDMM on both CPUs and GPUs — each piece computes an exact
slice of the non-zero positions, which is what makes it perfectly load
balanced regardless of the sparsity structure.

Index notation: ``A(i,j) = B(i,j) * C(i,k) * D(k,j)`` — paper §V-B
(pattern-preserving output), §VI-A (non-zero distribution), Fig. 10/11.
"""
from __future__ import annotations

import numpy as np

from ..legion.machine import Work
from .segment import row_of_positions

__all__ = ["sddmm_nonzeros", "sddmm_rows", "sddmm_reference"]

F8 = 8
_CHUNK = 1 << 18  # bound the nnz*k intermediate (be easy on memory)


def sddmm_nonzeros(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    out_vals: np.ndarray,
    p0: int,
    p1: int,
) -> Work:
    """Compute output values at positions ``[p0, p1]``."""
    if p1 < p0:
        return Work.zero()
    k = C.shape[1]
    nnz = p1 - p0 + 1
    rows = row_of_positions(pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64))
    # (j, k) indexing of D; a strided view, not a copy: on a row-major D
    # each gathered row is k elements n apart, k cache lines
    Dt = D.T
    for s in range(0, nnz, _CHUNK):
        e = min(s + _CHUNK, nnz)
        cols = crd[p0 + s : p0 + e]
        dots = np.einsum("ij,ij->i", C[rows[s:e], :], Dt[cols, :])
        out_vals[p0 + s : p0 + e] = vals[p0 + s : p0 + e] * dots
    return Work(flops=2.0 * nnz * k + nnz, bytes=float(nnz * (2 * k + 4) * F8))


def sddmm_rows(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    out_vals: np.ndarray,
    r0: int,
    r1: int,
) -> Work:
    """Row-based variant (used for the schedule ablation)."""
    if r1 < r0:
        return Work.zero()
    p0 = int(pos[r0, 0])
    p1 = int(pos[r1, 1])
    if p1 < p0:
        return Work.zero()
    return sddmm_nonzeros(pos, crd, vals, C, D, out_vals, p0, p1)


def sddmm_reference(pos, crd, vals, C, D, out_vals, p0, p1) -> Work:
    nnz = 0
    starts = pos[:, 0]
    for p in range(p0, p1 + 1):
        i = int(np.searchsorted(starts, p, side="right") - 1)
        j = int(crd[p])
        out_vals[p] = vals[p] * float(C[i, :] @ D[:, j])
        nnz += 1
    k = C.shape[1]
    return Work(flops=2.0 * nnz * k, bytes=float(nnz * (2 * k + 4) * F8))
